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
from numpy.typing import ArrayLike

from .corpus import FaceSet, is_count
from .errors import DegenerateSetError

DEFAULT_SAMPLES = 10
PREIMAGE_MAX_ITER = 100
PREIMAGE_STEP_TOL = 1e-8
WEIGHT_FLOOR = 1e-300
# eigenvalues below this fraction of the kernel trace count as zero
EIGEN_RTOL = 1e-12


def _sq_dists(x: np.ndarray) -> np.ndarray:
    """Pairwise squared Euclidean distances between the rows of x."""
    xx = np.sum(x * x, axis=1)
    d = xx[:, None] + xx[None, :] - 2.0 * (x @ x.T)
    return np.maximum(d, 0.0)


def _median_gamma(d2: np.ndarray) -> float:
    """The median-heuristic RBF bandwidth 1 / (2 * median^2) from a set's
    pairwise squared distances."""
    dists = np.sqrt(d2[np.triu_indices(d2.shape[0], k=1)])
    med = float(np.median(dists))
    if med == 0.0:
        positive = dists[dists > 0]
        if positive.size == 0:
            raise DegenerateSetError("all exemplars identical: cannot pick a bandwidth")
        med = float(np.mean(positive))
    g = 1.0 / (2.0 * med * med)
    if not (np.isfinite(g) and g > 0.0):
        raise DegenerateSetError(f"median exemplar distance {med:.3g} gives no finite positive bandwidth")
    return g


def _checked_gamma(gamma: float | str) -> float | str:
    """'auto', or gamma as a float, parsed here when it is a string such as
    ``qts sample --gamma``. Raises ValueError unless it is finite and
    positive: any other bandwidth gives a kernel without variation or
    non-finite weights."""
    if gamma == "auto":
        return gamma
    try:
        g = float(gamma)
    except ValueError:
        g = np.nan
    if not (np.isfinite(g) and g > 0.0):
        raise ValueError(f"gamma must be finite and positive or 'auto', got {gamma!r}")
    return g


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

    gamma='auto' uses the median-distance heuristic. Raises ValueError for
    a gamma that is not finite and positive, and DegenerateSetError when
    the set carries no variation.
    """
    gamma = _checked_gamma(gamma)
    x = s.exemplars
    n = x.shape[0]
    if n < 2:
        raise DegenerateSetError(f"set {s.set_id!r}: need at least 2 exemplars for KPCA")
    d2 = _sq_dists(x)
    try:
        g = _median_gamma(d2) if gamma == "auto" else gamma
    except DegenerateSetError as exc:
        raise DegenerateSetError(f"set {s.set_id!r}: {exc}") from None
    k = np.exp(-g * d2)
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


def expansion_coefficients(m: KpcaModel, z_target: float | np.ndarray) -> np.ndarray:
    """Coefficients c_i expressing the feature-space point at coordinate
    z_target on component 1 as sum_i c_i * phi(x_i). A (T, 1) column of
    coordinates gives one row of coefficients per coordinate."""
    n = m.size
    a_sum = float(np.sum(m.alpha))
    return z_target * m.alpha + (1.0 - z_target * a_sum) / n


def pre_images(m: KpcaModel, targets: ArrayLike) -> np.ndarray:
    """(T, d) descriptor-space points whose images best match the
    feature-space points at the T coordinates on the dominant component.

    Each target runs the fixed-point iteration x <- sum_i w_i x_i with RBF
    weights w_i = c_i * exp(-gamma ||x - x_i||^2), started from the source
    exemplar whose projection is nearest the target (the first on ties).
    It falls back to that exemplar on non-convergence or degenerate
    weights, so every row is finite with positive norm.

    The targets iterate together through one (T, n, d) buffer and leave the
    live arrays as they finish or fall back. Every reduction keeps the
    summation order of one target alone: sums run along contiguous rows,
    the weighted sum is one gemv per target (a stacked (1, n) @ (n, d)
    matmul) and norms are sqrt(dot), as np.linalg.norm computes them. So
    each row does not depend on the other targets, bit for bit.
    """
    z = np.asarray(targets, dtype=float)
    nearest = np.argmin(np.abs(m.projections - z[:, None]), axis=1)
    out = m.exemplars[nearest]  # fallbacks, overwritten by converged rows
    live = np.arange(z.size)
    x = out.copy()
    c = expansion_coefficients(m, z[:, None])
    diff = np.empty((z.size, *m.exemplars.shape))
    for _ in range(PREIMAGE_MAX_ITER):
        # copy, then subtract in place: longer inner loops than a subtract
        # that broadcasts the exemplars
        sq = diff[: live.size]
        np.copyto(sq, m.exemplars)
        np.subtract(sq, x[:, None, :], out=sq)
        w = np.square(sq, out=sq).sum(axis=2)
        w *= -m.gamma
        np.multiply(c, np.exp(w, out=w), out=w)
        denom = np.sum(w, axis=1)
        keep = np.isfinite(denom) & (np.abs(denom) >= WEIGHT_FLOOR)
        if not keep.all():
            live, x, c, w, denom = live[keep], x[keep], c[keep], w[keep], denom[keep]
        x_new = np.matmul(w[:, None, :], m.exemplars)[:, 0]
        x_new /= denom[:, None]
        keep = np.all(np.isfinite(x_new), axis=1)
        if not keep.all():
            live, x, c, x_new = live[keep], x[keep], c[keep], x_new[keep]
        step = x_new - x
        x = x_new
        if (done := np.sqrt(np.vecdot(step, step)) < PREIMAGE_STEP_TOL).any():
            found = done & (np.sqrt(np.vecdot(x, x)) != 0.0)
            out[live[found]] = x[found]
            live, x, c = live[~done], x[~done], c[~done]
        if live.size == 0:
            break
    return out


def pre_image(m: KpcaModel, z_target: float) -> np.ndarray:
    """pre_images of the single coordinate z_target."""
    return pre_images(m, [z_target])[0]


def robust_select(
    s: FaceSet, n_samples: int = DEFAULT_SAMPLES, gamma: float | str = "auto"
) -> FaceSet:
    """Replace a large set by n_samples pre-images spaced uniformly
    (endpoints inclusive) between the two extreme projections on the
    dominant kernel component. Sets already at or below n_samples pass
    through unchanged.
    """
    if not is_count(n_samples) or n_samples < 2:
        raise ValueError(f"n_samples must be an integer >= 2 (got {n_samples!r})")
    gamma = _checked_gamma(gamma)
    if s.size <= n_samples:
        return s
    m = fit_kpca(s, gamma)
    targets = np.linspace(float(m.projections.min()), float(m.projections.max()), n_samples)
    return FaceSet(set_id=s.set_id, exemplars=pre_images(m, targets))
