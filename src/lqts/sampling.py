"""Robust sample selection along the dominant nonlinear principal component.

Exemplar sets from video are heavily oversampled in some appearance
regions and nearly one-dimensional overall, so a large set can be
replaced by a handful of points: project exemplars onto the first
kernel-PCA component (RBF kernel), sample the 1-D coordinate range
uniformly between the two extreme projections, and map each sample back
to descriptor space with a fixed-point pre-image iteration.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import FaceSet
from .errors import DegenerateSetError

DEFAULT_SAMPLES = 10
PREIMAGE_MAX_ITER = 100
PREIMAGE_STEP_TOL = 1e-8
WEIGHT_FLOOR = 1e-300
# eigenvalues below this fraction of the kernel trace count as zero
EIGEN_RTOL = 1e-12


def _sq_dists(x: np.ndarray, y: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances, rows of x against rows of y."""
    xx = np.sum(x * x, axis=1)[:, None]
    yy = np.sum(y * y, axis=1)[None, :]
    d = xx + yy - 2.0 * (x @ y.T)
    return np.maximum(d, 0.0)


def median_heuristic_gamma(exemplars: np.ndarray) -> float:
    """RBF bandwidth 1 / (2 * median^2) of pairwise distances."""
    n = exemplars.shape[0]
    iu = np.triu_indices(n, k=1)
    dists = np.sqrt(_sq_dists(exemplars, exemplars)[iu])
    med = float(np.median(dists))
    if med == 0.0:
        positive = dists[dists > 0]
        if positive.size == 0:
            raise DegenerateSetError("all exemplars identical: cannot pick a bandwidth")
        med = float(np.mean(positive))
    return 1.0 / (2.0 * med * med)


@dataclass(frozen=True)
class KpcaModel:
    """Dominant kernel-PCA component of one exemplar set.

    alpha is the top eigenvector of the double-centered RBF kernel
    matrix, scaled so the mapped component has unit norm
    (lambda_1 * alpha.alpha == 1). projections holds each exemplar's
    coordinate on that component.
    """

    exemplars: np.ndarray
    gamma: float
    alpha: np.ndarray
    eigenvalues: np.ndarray  # top three, descending, clipped at zero
    projections: np.ndarray

    @property
    def size(self) -> int:
        return self.exemplars.shape[0]


def fit_kpca(s: FaceSet, gamma: float | str = "auto") -> KpcaModel:
    """Fit the dominant component of exp(-gamma * ||x_i - x_j||^2).

    gamma='auto' uses the median-distance heuristic. Raises
    DegenerateSetError when the set carries no variation.
    """
    x = s.exemplars
    n = x.shape[0]
    if n < 2:
        raise DegenerateSetError(f"set {s.set_id!r}: need at least 2 exemplars for KPCA")
    try:
        g = median_heuristic_gamma(x) if gamma == "auto" else float(gamma)
    except DegenerateSetError as exc:
        raise DegenerateSetError(f"set {s.set_id!r}: {exc}") from None
    k = np.exp(-g * _sq_dists(x, x))
    h = np.eye(n) - np.full((n, n), 1.0 / n)
    kc = h @ k @ h
    vals, vecs = np.linalg.eigh(kc)
    vals = vals[::-1]
    vecs = vecs[:, ::-1]
    vals = np.maximum(vals, 0.0)
    top3 = np.zeros(3)
    top3[: min(3, n)] = vals[: min(3, n)]
    if vals[0] <= EIGEN_RTOL * max(1.0, float(np.trace(kc))):
        raise DegenerateSetError(f"set {s.set_id!r}: no variation (leading eigenvalue is zero)")
    alpha = vecs[:, 0] / np.sqrt(vals[0])  # lambda * alpha.alpha == 1
    projections = vals[0] * alpha
    return KpcaModel(
        exemplars=x, gamma=g, alpha=alpha, eigenvalues=top3, projections=projections
    )


def energy_report(s: FaceSet, gamma: float | str = "auto") -> tuple[float, float]:
    """(lambda2/lambda1, lambda3/lambda1) of the centered kernel matrix."""
    m = fit_kpca(s, gamma)
    l1, l2, l3 = m.eigenvalues
    return float(l2 / l1), float(l3 / l1)


def expansion_coefficients(m: KpcaModel, z_target: float) -> np.ndarray:
    """Coefficients c_i expressing the feature-space point at coordinate
    z_target on component 1 as sum_i c_i * phi(x_i)."""
    n = m.size
    a_sum = float(np.sum(m.alpha))
    return z_target * m.alpha + (1.0 - z_target * a_sum) / n


def pre_image(m: KpcaModel, z_target: float) -> np.ndarray:
    """Descriptor-space point whose image best matches the feature-space
    point at coordinate z_target on the dominant component.

    Fixed-point iteration x <- sum_i w_i x_i with RBF weights
    w_i = c_i * exp(-gamma ||x - x_i||^2), started from the source
    exemplar whose projection is nearest z_target. Falls back to that
    exemplar on non-convergence or degenerate weights, so the result is
    always finite with positive norm.
    """
    nearest = int(np.argmin(np.abs(m.projections - z_target)))
    fallback = m.exemplars[nearest].copy()
    c = expansion_coefficients(m, z_target)
    x = fallback.copy()
    for _ in range(PREIMAGE_MAX_ITER):
        d2 = np.sum((m.exemplars - x) ** 2, axis=1)
        w = c * np.exp(-m.gamma * d2)
        denom = float(np.sum(w))
        if not np.isfinite(denom) or abs(denom) < WEIGHT_FLOOR:
            return fallback
        x_new = (w @ m.exemplars) / denom
        if not np.all(np.isfinite(x_new)):
            return fallback
        step = float(np.linalg.norm(x_new - x))
        x = x_new
        if step < PREIMAGE_STEP_TOL:
            if float(np.linalg.norm(x)) == 0.0:
                return fallback
            return x
    return fallback


def robust_select(
    s: FaceSet, n_samples: int = DEFAULT_SAMPLES, gamma: float | str = "auto"
) -> FaceSet:
    """Replace a large set by n_samples pre-images spaced uniformly
    (endpoints inclusive) between the two extreme projections on the
    dominant kernel component. Sets already at or below n_samples pass
    through unchanged.
    """
    if n_samples < 2:
        raise ValueError("n_samples must be >= 2")
    if s.size <= n_samples:
        return s
    m = fit_kpca(s, gamma)
    targets = np.linspace(float(m.projections.min()), float(m.projections.max()), n_samples)
    chosen = np.stack([pre_image(m, z) for z in targets])
    return FaceSet(set_id=s.set_id, exemplars=chosen)
