"""Tests for the simulated MPI runtime."""

import pytest

from repro import compile_source
from repro.faults import FaultSite
from repro.parallel import MpiJob

ALLREDUCE = """
output double result[2];
void main() {
    int rank = mpi_rank();
    int size = mpi_size();
    double mine = (double)(rank + 1);
    double total = mpi_allreduce_sum(mine);
    mpi_barrier();
    if (rank == 0) {
        result[0] = total;
        result[1] = (double)size;
    }
}
"""

ARRAY_REDUCE = """
int n = 8;
output double vec[8];
void main() {
    int rank = mpi_rank();
    int size = mpi_size();
    double local[8];
    for (int i = 0; i < n; i = i + 1) {
        if (i % size == rank) { local[i] = (double)(i * i); }
        else { local[i] = 0.0; }
    }
    mpi_allreduce_sum_array(local, n);
    for (int i = 0; i < n; i = i + 1) { vec[i] = local[i]; }
}
"""

SENDRECV_RING = """
output double got[8];
void main() {
    int rank = mpi_rank();
    int size = mpi_size();
    double send[2];
    double recv[2];
    send[0] = (double)rank;
    send[1] = (double)(rank * 10);
    int peer = (rank + 1) % size;
    mpi_sendrecv(send, recv, 2, peer);
    got[rank] = recv[0];
}
"""

BCAST = """
output double result[4];
void main() {
    int rank = mpi_rank();
    double v = 0.0;
    if (rank == 0) { v = 42.0; }
    double shared = mpi_bcast(v, 0);
    result[rank] = shared;
}
"""

DIVERGENT = """
output double result[1];
void main() {
    int rank = mpi_rank();
    if (rank == 0) {
        return;  // exits without reaching the barrier
    }
    mpi_barrier();
    result[0] = 1.0;
}
"""


class TestCollectives:
    @pytest.mark.parametrize("ranks", [1, 2, 4])
    def test_allreduce_sum(self, ranks):
        job = MpiJob(compile_source(ALLREDUCE), ranks)
        result = job.run()
        assert result.status == "ok"
        assert job.read_global("result", 0) == [ranks * (ranks + 1) / 2, float(ranks)]

    @pytest.mark.parametrize("ranks", [1, 2, 4])
    def test_array_allreduce_partitions(self, ranks):
        job = MpiJob(compile_source(ARRAY_REDUCE), ranks)
        result = job.run()
        assert result.status == "ok"
        for rank in range(ranks):
            assert job.read_global("vec", rank) == [float(i * i) for i in range(8)]

    def test_sendrecv_ring(self):
        job = MpiJob(compile_source(SENDRECV_RING), 4)
        result = job.run()
        assert result.status == "ok"
        # Rank r receives from rank r-1 (which sent to r).
        for rank in range(4):
            got = job.read_global("got", rank)
            assert got[rank] == float((rank - 1) % 4)

    def test_bcast(self):
        job = MpiJob(compile_source(BCAST), 3)
        result = job.run()
        assert result.status == "ok"
        for rank in range(3):
            assert job.read_global("result", rank)[rank] == 42.0

    def test_overrides_apply_to_all_ranks(self):
        job = MpiJob(compile_source(ARRAY_REDUCE), 2, overrides={"n": 4})
        result = job.run()
        assert result.status == "ok"
        assert job.read_global("vec", 0)[:4] == [0.0, 1.0, 4.0, 9.0]
        assert job.read_global("vec", 0)[4:] == [0.0] * 4


class TestTimingAndFailure:
    def test_job_cycles_is_max_over_ranks(self):
        job = MpiJob(compile_source(ALLREDUCE), 4)
        result = job.run()
        assert result.job_cycles == max(r.cycles for r in result.rank_results)

    def test_deterministic_across_runs(self):
        job = MpiJob(compile_source(ARRAY_REDUCE), 4)
        c1 = job.run().job_cycles
        c2 = job.run().job_cycles
        assert c1 == c2

    def test_divergent_exit_aborts_job(self):
        job = MpiJob(compile_source(DIVERGENT), 3, collective_timeout=5.0)
        result = job.run()
        assert result.status == "abort"

    def test_fault_in_one_rank_aborts_job(self):
        source = """
        output double result[1];
        void main() {
            int rank = mpi_rank();
            int denom = 1;
            if (rank == 0) { denom = 0; }
            result[0] = (double)(10 / denom);
            mpi_barrier();
        }
        """
        job = MpiJob(compile_source(source), 3, collective_timeout=5.0)
        result = job.run()
        assert result.status == "trap"
        assert result.statuses[0] == "trap"

    def test_injection_into_one_rank(self):
        module = compile_source(ALLREDUCE)
        target = next(
            i for i in module.instructions() if i.opcode == "sitofp"
        )
        job = MpiJob(module, 2, collective_timeout=5.0)
        clean = job.run()
        assert clean.status == "ok"
        faulty = job.run(injection=FaultSite(target, 1, 62, rank=1).as_injection())
        # The corrupted value feeds the allreduce; job completes with a
        # wrong answer or rank 1 dies -- either way rank 0's total differs
        # or the job aborted.
        if faulty.status == "ok":
            assert job.read_global("result", 0) != [3.0, 2.0]

    def test_single_rank_matches_serial(self):
        from repro.interp import run_module

        module = compile_source(ARRAY_REDUCE)
        serial_result, serial_interp = run_module(module)
        job = MpiJob(compile_source(ARRAY_REDUCE), 1)
        job_result = job.run()
        assert job_result.status == "ok" == serial_result.status
        assert job.read_global("vec", 0) == serial_interp.read_global("vec")

    def test_rank_count_validation(self):
        with pytest.raises(ValueError):
            MpiJob(compile_source(ALLREDUCE), 0)
