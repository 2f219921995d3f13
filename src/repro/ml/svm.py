"""C-SVM with RBF kernel, trained by SMO (the LIBSVM substitute).

The paper trains its classifier with the C-SVC algorithm of Chang & Lin's
LIBSVM [10].  This module implements the same dual problem

    min_α  ½ αᵀQα - eᵀα      s.t.  yᵀα = 0,  0 ≤ α_i ≤ C_i

with Q_ij = y_i y_j K(x_i, x_j), solved by sequential minimal optimisation
using the maximal-violating-pair working-set selection (WSS1 of Fan, Chen &
Lin 2005) — deterministic, no randomisation.

The solver keeps m = -y∘G instead of the gradient G = Qα - e itself,
because WSS1 selects on -y_t G_t: i = argmax of m over I_up, j = argmin of
m over I_low.  A step d moves α_i by y_i d and α_j by -y_j d, so G gains
y∘K[:, i]·d and loses y∘K[:, j]·d, and m becomes m - K[:, i]·d + K[:, j]·d.
That form is exact, not an approximation: with y_t = ±1, multiplying by
y_t or negating only flips a sign bit, and IEEE round-to-nearest is
symmetric in sign, so fl(m_t - fl(K_ti d)) = -y_t fl(G_t + y_t fl(K_ti d)).
Every iterate is bit-for-bit the one the G form gives, with no ±1 vector
products per step; only the sign of an exact zero may differ.

Class imbalance (paper §4.3.1: only 3–10% of samples are SOC) is handled
with per-class penalties C_i = C·w_{y_i}; ``class_weight="balanced"``
scales each class inversely to its frequency.
"""

from __future__ import annotations

from typing import Dict, Optional, Union

import numpy as np

from .kernels import rbf_kernel

_TAU = 1e-12


class SVC:
    """Support-vector classifier for two classes labelled {0, 1}."""

    def __init__(
        self,
        C: float = 1.0,
        gamma: float = 0.1,
        class_weight: Union[str, Dict[int, float], None] = "balanced",
        tol: float = 1e-3,
        max_iter: int = 20000,
    ):
        if C <= 0:
            raise ValueError("C must be positive")
        if gamma <= 0:
            raise ValueError("gamma must be positive")
        self.C = C
        self.gamma = gamma
        self.class_weight = class_weight
        self.tol = tol
        self.max_iter = max_iter
        # fitted state
        self.support_vectors_: Optional[np.ndarray] = None
        self.dual_coef_: Optional[np.ndarray] = None  # α_i y_i for SVs
        self.intercept_: float = 0.0
        self.n_iter_: int = 0
        self.gap_: float = 0.0  # final m - M, the remaining KKT violation
        self.converged_: bool = True  # n_iter_ < max_iter
        self._constant_class: Optional[int] = None

    # -- training -----------------------------------------------------------------

    def _class_weights(self, y_signed: np.ndarray) -> np.ndarray:
        n = len(y_signed)
        n_pos = int(np.sum(y_signed > 0))
        n_neg = n - n_pos
        if self.class_weight is None:
            w_pos = w_neg = 1.0
        elif self.class_weight == "balanced":
            w_pos = n / (2.0 * n_pos) if n_pos else 1.0
            w_neg = n / (2.0 * n_neg) if n_neg else 1.0
        elif isinstance(self.class_weight, dict):
            w_pos = float(self.class_weight.get(1, 1.0))
            w_neg = float(self.class_weight.get(0, 1.0))
        else:
            raise ValueError(f"bad class_weight: {self.class_weight!r}")
        return np.where(y_signed > 0, self.C * w_pos, self.C * w_neg)

    def fit(
        self,
        X: np.ndarray,
        y: np.ndarray,
        sq_dists: Optional[np.ndarray] = None,
    ) -> "SVC":
        """Train on features ``X`` and labels ``y`` in {0, 1}.

        ``sq_dists`` optionally supplies the precomputed pairwise squared
        distance matrix of ``X`` (reused across γ values in grid search).
        After fitting, ``n_iter_`` counts SMO iterations, ``gap_`` is the
        final m - M and ``converged_`` is False when ``max_iter`` stopped
        the solver first.
        """
        X = np.asarray(X, dtype=np.float64)
        y = np.asarray(y)
        if X.ndim != 2 or len(X) != len(y):
            raise ValueError("X and y shapes are inconsistent")
        if not np.isfinite(X).all():
            raise ValueError("X holds NaN or infinite values")
        if sq_dists is not None and not np.isfinite(sq_dists).all():
            raise ValueError("sq_dists holds NaN or infinite values")
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
            self.gap_ = 0.0
            self.converged_ = self.n_iter_ < self.max_iter
            return self
        self._constant_class = None

        y_signed = np.where(y == 1, 1.0, -1.0)
        K = np.asfortranarray(rbf_kernel(X, X, self.gamma, sq_dists=sq_dists))
        upper = self._class_weights(y_signed)

        # The scalar step runs on Python floats; only the working-set
        # selection and the two gradient updates touch whole vectors.
        ys = y_signed.tolist()
        cs = upper.tolist()
        alpha = [0.0] * len(ys)
        diag = K.diagonal().tolist()
        cols = list(K.T)  # cols[i] is K[:, i], contiguous in Fortran order
        m = y_signed.copy()  # m = -y∘G with G = Qα - e = -e at α = 0
        # I_up and I_low as additive masks: 0 for members, ∓inf otherwise,
        # so m + mask is the masked vector to take argmax/argmin over.  At
        # α = 0, I_up holds the y = +1 rows and I_low the y = -1 rows.
        ninf, pinf = -np.inf, np.inf
        up = np.where(y_signed > 0, 0.0, ninf)
        low = np.where(y_signed > 0, pinf, 0.0)

        n_iter = 0
        while True:
            # Working-set selection: maximal violating pair.  An empty side
            # gives ±inf, so the gap test below also ends the search.
            up_vals = m + up
            i = int(up_vals.argmax())
            low_vals = m + low
            j = int(low_vals.argmin())
            m_up = up_vals.item(i)
            m_low = low_vals.item(j)
            if n_iter >= self.max_iter:
                break
            n_iter += 1
            if m_up - m_low < self.tol:
                break

            eta = diag[i] + diag[j] - 2.0 * K.item(i, j)
            if eta < _TAU:
                eta = _TAU
            # Unconstrained step along the feasible direction
            # Δα_i = y_i d,  Δα_j = -y_j d.
            d = (m_up - m_low) / eta
            # Box constraints for both coordinates.  Membership in
            # I_up/I_low guarantees both headrooms are strictly positive.
            y_i, y_j = ys[i], ys[j]
            d_max_i = cs[i] - alpha[i] if y_i > 0 else alpha[i]
            d_max_j = alpha[j] if y_j > 0 else cs[j] - alpha[j]
            d = min(d, d_max_i, d_max_j)
            if d <= 0.0:
                break  # numerically stuck; current point is near-optimal

            alpha[i] += y_i * d
            alpha[j] += -y_j * d
            for k, y_k in ((i, y_i), (j, y_j)):
                # y = +1: I_up iff α < C, I_low iff α > 0; y = -1 mirrors.
                can_rise, can_fall = alpha[k] < cs[k], alpha[k] > 0
                in_up, in_low = (can_rise, can_fall) if y_k > 0 else (can_fall, can_rise)
                up[k] = 0.0 if in_up else ninf
                low[k] = 0.0 if in_low else pinf
            # Gradient maintenance G += Q[:, i] Δα_i + Q[:, j] Δα_j, as
            # m = -y∘G (see the module docstring for why this is exact).
            m -= cols[i] * d
            m += cols[j] * d

        self.n_iter_ = n_iter
        self.converged_ = n_iter < self.max_iter
        # Intercept from the final violating-pair bounds (0 for an empty
        # side).  For a free SV, optimality gives b = -y_i G_i, which is
        # exactly the quantity m/M bound from both sides; take the midpoint.
        m_up = m_up if m_up != ninf else 0.0
        m_low = m_low if m_low != pinf else 0.0
        self.gap_ = m_up - m_low
        self.intercept_ = (m_up + m_low) / 2.0

        alpha = np.array(alpha)
        sv_mask = alpha > 1e-10
        self.support_vectors_ = X[sv_mask]
        self.dual_coef_ = (alpha * y_signed)[sv_mask]
        return self

    # -- prediction -----------------------------------------------------------------

    def decision_function(self, X: np.ndarray) -> np.ndarray:
        if self.support_vectors_ is None:
            raise RuntimeError("SVC is not fitted")
        X = np.asarray(X, dtype=np.float64)
        if not np.isfinite(X).all():
            raise ValueError("X holds NaN or infinite values")
        if self._constant_class is not None:
            sign = 1.0 if self._constant_class == 1 else -1.0
            return np.full(len(X), sign)
        if len(self.support_vectors_) == 0:
            return np.full(len(X), self.intercept_)
        K = rbf_kernel(X, self.support_vectors_, self.gamma)
        return K @ self.dual_coef_ + self.intercept_

    def predict(self, X: np.ndarray) -> np.ndarray:
        """Predicted labels in {0, 1}."""
        return (self.decision_function(X) > 0).astype(np.int64)

    @property
    def n_support_(self) -> int:
        return 0 if self.support_vectors_ is None else len(self.support_vectors_)

    def __repr__(self) -> str:
        return f"SVC(C={self.C}, gamma={self.gamma}, class_weight={self.class_weight!r})"
