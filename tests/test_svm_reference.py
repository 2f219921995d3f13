"""The SMO loop in ``SVC.fit`` against the WSS1 loop it replaced.

``reference_fit`` below is the earlier ``SVC.fit``, kept verbatim: it keeps
the gradient G, rebuilds I_up/I_low from α on every iteration and runs the
scalar step on numpy scalars.  ``SVC.fit`` keeps m = -y∘G with incremental
masks instead; both must produce the same iterates, so every fitted field
must be equal.  Equality is ``==``, not a byte compare: an exact-zero sum
may come out +0 in one loop and -0 in the other.
"""

from typing import Optional

import numpy as np
import pytest

from repro.core import collect_data
from repro.faults import Outcome
from repro.ml import StandardScaler
from repro.ml.kernels import rbf_kernel, squared_distances
from repro.ml.svm import _TAU, SVC
from repro.workloads import get_workload


def reference_fit(
    self,
    X: np.ndarray,
    y: np.ndarray,
    sq_dists: Optional[np.ndarray] = None,
) -> "SVC":
    """Train on features ``X`` and labels ``y`` in {0, 1}.

    ``sq_dists`` optionally supplies the precomputed pairwise squared
    distance matrix of ``X`` (reused across γ values in grid search).
    """
    X = np.asarray(X, dtype=np.float64)
    y = np.asarray(y)
    if X.ndim != 2 or len(X) != len(y):
        raise ValueError("X and y shapes are inconsistent")
    if not np.all(np.isin(y, (0, 1))):
        raise ValueError("labels must be 0 or 1")
    classes = np.unique(y)
    if len(classes) == 1:
        # Degenerate training set: predict the constant class.
        self._constant_class = int(classes[0])
        self.support_vectors_ = X[:0]
        self.dual_coef_ = np.zeros(0)
        self.intercept_ = 0.0
        self.n_iter_ = 0
        return self
    self._constant_class = None

    y_signed = np.where(y == 1, 1.0, -1.0)
    n = len(y_signed)
    K = rbf_kernel(X, X, self.gamma, sq_dists=sq_dists)
    upper = self._class_weights(y_signed)

    alpha = np.zeros(n)
    grad = -np.ones(n)  # G = Qα - e; α = 0 initially
    diag = np.diag(K).copy()

    n_iter = 0
    while n_iter < self.max_iter:
        n_iter += 1
        # Working-set selection: maximal violating pair.
        minus_yg = -y_signed * grad
        up_mask = ((y_signed > 0) & (alpha < upper)) | ((y_signed < 0) & (alpha > 0))
        low_mask = ((y_signed < 0) & (alpha < upper)) | ((y_signed > 0) & (alpha > 0))
        if not up_mask.any() or not low_mask.any():
            break
        up_vals = np.where(up_mask, minus_yg, -np.inf)
        low_vals = np.where(low_mask, minus_yg, np.inf)
        i = int(np.argmax(up_vals))
        j = int(np.argmin(low_vals))
        m_alpha = up_vals[i]
        M_alpha = low_vals[j]
        if m_alpha - M_alpha < self.tol:
            break

        eta = diag[i] + diag[j] - 2.0 * K[i, j]
        if eta < _TAU:
            eta = _TAU
        # Unconstrained step along the feasible direction
        # Δα_i = y_i d,  Δα_j = -y_j d.
        d = (m_alpha - M_alpha) / eta
        # Box constraints for both coordinates.  Membership in
        # I_up/I_low guarantees both headrooms are strictly positive.
        if y_signed[i] > 0:
            d_max_i = upper[i] - alpha[i]
        else:
            d_max_i = alpha[i]
        if y_signed[j] > 0:
            d_max_j = alpha[j]
        else:
            d_max_j = upper[j] - alpha[j]
        d = min(d, d_max_i, d_max_j)
        if d <= 0.0:
            break  # numerically stuck; current point is near-optimal

        delta_i = y_signed[i] * d
        delta_j = -y_signed[j] * d
        alpha[i] += delta_i
        alpha[j] += delta_j
        # Gradient maintenance: G += Q[:, i] Δα_i + Q[:, j] Δα_j.
        grad += (y_signed * y_signed[i] * K[:, i]) * delta_i
        grad += (y_signed * y_signed[j] * K[:, j]) * delta_j

    self.n_iter_ = n_iter
    # Intercept from the final violating-pair bounds.
    minus_yg = -y_signed * grad
    up_mask = ((y_signed > 0) & (alpha < upper)) | ((y_signed < 0) & (alpha > 0))
    low_mask = ((y_signed < 0) & (alpha < upper)) | ((y_signed > 0) & (alpha > 0))
    m_alpha = np.max(np.where(up_mask, minus_yg, -np.inf)) if up_mask.any() else 0.0
    M_alpha = np.min(np.where(low_mask, minus_yg, np.inf)) if low_mask.any() else 0.0
    # For a free SV, optimality gives b = -y_i G_i, which is exactly the
    # quantity m/M bound from both sides; take the midpoint.
    self.intercept_ = (m_alpha + M_alpha) / 2.0

    sv_mask = alpha > 1e-10
    self.support_vectors_ = X[sv_mask]
    self.dual_coef_ = (alpha * y_signed)[sv_mask]
    return self


def assert_same_fit(params, X, y, sq_dists=None):
    new = SVC(**params).fit(X, y, sq_dists=sq_dists)
    ref = reference_fit(SVC(**params), X, y, sq_dists=sq_dists)
    assert new.n_iter_ == ref.n_iter_
    assert new.intercept_ == ref.intercept_
    assert new._constant_class == ref._constant_class
    assert new.dual_coef_.shape == ref.dual_coef_.shape
    assert np.all(new.dual_coef_ == ref.dual_coef_)
    assert new.support_vectors_.shape == ref.support_vectors_.shape
    assert np.all(new.support_vectors_ == ref.support_vectors_)
    assert new.converged_ == (new.n_iter_ < new.max_iter)
    return new


def blobs(n, seed, overlap=1.0, minority=0.25):
    rng = np.random.default_rng(seed)
    y = (rng.random(n) < minority).astype(np.int64)
    y[:2] = (0, 1)  # both classes, whatever the draw
    X = rng.normal(size=(n, 4)) + overlap * y[:, None]
    return X, y


CONFIGS = [(1.0, 0.1), (10.0, 0.5), (316.0, 1.0), (1e5, 1e-5), (1e5, 1.0)]
WEIGHTS = [None, "balanced", {0: 1.0, 1: 4.0}]


@pytest.mark.parametrize("C,gamma", CONFIGS)
@pytest.mark.parametrize("class_weight", WEIGHTS, ids=["none", "balanced", "dict"])
def test_matches_reference(C, gamma, class_weight):
    X, y = blobs(80, seed=int(C) % 7)
    params = dict(C=C, gamma=gamma, class_weight=class_weight)
    assert_same_fit(params, X, y)
    assert_same_fit(params, X, y, sq_dists=squared_distances(X, X))


@pytest.mark.parametrize("max_iter", [0, 1, 7, 60])
def test_capped_fits_match(max_iter):
    X, y = blobs(60, seed=3, overlap=0.3)
    params = dict(C=1e4, gamma=1.0, tol=1e-6, max_iter=max_iter)
    model = assert_same_fit(params, X, y)
    assert model.n_iter_ == max_iter
    assert not model.converged_
    assert model.gap_ >= 1e-6


def test_loose_tolerance_matches():
    # GridSearch's CV setting.
    X, y = blobs(90, seed=5, overlap=0.5)
    model = assert_same_fit(dict(C=1e3, gamma=0.3, tol=1e-2, max_iter=4000), X, y)
    assert model.converged_
    assert model.gap_ < 1e-2


def test_reads_kernel_columns():
    # A BLAS product need not give an exactly symmetric distance matrix, so
    # the loop must read K[:, i] as the reference does, never K[i, :].
    X, y = blobs(50, seed=4)
    sq = squared_distances(X, X)
    sq = sq * (1.0 + 1e-9 * np.triu(np.ones_like(sq), 1))
    assert not np.array_equal(sq, sq.T)
    assert_same_fit(dict(C=100.0, gamma=0.5), X, y, sq_dists=sq)


def test_duplicate_rows_break_ties_alike():
    # Repeated rows give repeated entries in m: argmax/argmin ties must
    # resolve to the same (first) index in both loops.
    X, y = blobs(20, seed=1)
    X = np.concatenate([X, X, X[:5]])
    y = np.concatenate([y, y, y[:5]])
    for class_weight in WEIGHTS:
        assert_same_fit(dict(C=5.0, gamma=0.7, class_weight=class_weight), X, y)


def test_two_points():
    X = np.array([[0.0, 1.0], [1.0, 0.0]])
    for y in (np.array([0, 1]), np.array([1, 0])):
        model = assert_same_fit(dict(C=2.0, gamma=0.5), X, y)
        assert model.n_support_ == 2


def test_single_class():
    X, _ = blobs(10, seed=0)
    for label in (0, 1):
        model = assert_same_fit(dict(C=1.0, gamma=0.1), X, np.full(10, label))
        assert model.n_iter_ == 0 and model.gap_ == 0.0 and model.converged_


def test_real_is_collection():
    collected = collect_data(get_workload("is"), 60, seed=0)
    X = StandardScaler().fit(collected.X).transform(collected.X)
    y = np.array([r.outcome is Outcome.SOC for r in collected.campaign.records], dtype=np.int64)
    if len(np.unique(y)) < 2:  # keep a two-class problem
        y[0] = 1 - y[0]
    sq = squared_distances(X, X)
    for C, gamma in [(1.0, 1e-5), (316.0, 1.0), (1e5, 3e-3)]:
        assert_same_fit(dict(C=C, gamma=gamma, tol=1e-2, max_iter=4000), X, y, sq)
        assert_same_fit(dict(C=C, gamma=gamma), X, y)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_non_finite_input_rejected(bad):
    X, y = blobs(12, seed=2)
    X[3, 1] = bad
    with pytest.raises(ValueError, match="X holds NaN or infinite"):
        SVC().fit(X, y)
    X[3, 1] = 0.0
    sq = squared_distances(X, X)
    sq[4, 5] = bad
    with pytest.raises(ValueError, match="sq_dists holds NaN or infinite"):
        SVC().fit(X, y, sq_dists=sq)
    model = SVC().fit(X, y)
    row = X[:1].copy()
    row[0, 1] = bad
    for method in (model.decision_function, model.predict):
        with pytest.raises(ValueError, match="X holds NaN or infinite"):
            method(row)
