"""Baseline set similarities and the modes through which they are attained.

Two interchangeable baselines over descriptor sets: the max-maximorum
absolute cosine between raw exemplars, and the first canonical
correlation between low-dimensional linear subspaces fitted per set.
Every comparison also exposes the pair of unit "modes" (exemplars or
canonical vectors) that realized the score; the transitivity features
are built from those modes.

Each baseline has one kernel, over a batch of set pairs
(`max_max_sim_batch`, `max_corr_batch`); `max_max_sim` and `max_corr`
compare a single pair as a batch of one.

Absolute cosine is used throughout: principal and canonical directions
are sign-ambiguous, so signed similarity would be non-deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import FaceSet
from .errors import DimensionMismatchError, ZeroVectorError

DEFAULT_SUBSPACE_DIM = 6
# singular values below this fraction of the largest are treated as rank deficiency
RANK_RTOL = 1e-10


@dataclass(frozen=True)
class SubspaceModel:
    """Orthonormal basis (d x k) spanning a set's dominant variation."""

    set_id: str
    basis: np.ndarray

    @property
    def dim(self) -> int:
        return self.basis.shape[0]

    @property
    def k(self) -> int:
        return self.basis.shape[1]


def _unit(v: np.ndarray, what: str = "vector") -> np.ndarray:
    v = np.asarray(v, dtype=np.float64)
    n = np.linalg.norm(v)
    if not np.isfinite(n) or n == 0.0:
        raise ZeroVectorError(f"{what} has zero or non-finite norm")
    return v / n


def cosine_sim(u: np.ndarray, v: np.ndarray) -> float:
    """Absolute cosine of the angle between two nonzero vectors, in [0, 1]."""
    uu = _unit(u, "first argument")
    vv = _unit(v, "second argument")
    if uu.shape != vv.shape:
        raise DimensionMismatchError(f"vector dims differ: {uu.shape[0]} vs {vv.shape[0]}")
    return float(min(abs(float(uu @ vv)), 1.0))


@dataclass(frozen=True)
class Matches:
    """Scores of a batch of set pairs, one row per pair, and the unit modes
    that attain them: ambient unit vectors of the data space, a unit
    exemplar (exemplar baseline) or a canonical vector (subspace baseline).
    Exemplar kernels also give each mode's exemplar index."""

    score: np.ndarray
    mode_a: np.ndarray
    mode_b: np.ndarray
    index_a: np.ndarray | None = None
    index_b: np.ndarray | None = None


def max_max_sim_batch(ua: np.ndarray, ub: np.ndarray) -> Matches:
    """Largest absolute cosine over all exemplar pairs of each set pair
    (ua[p], ub[p]), or (ua, ub[p]) when ua is 2-D, for unit exemplars ua of
    shape (P, m_a, d) or (m_a, d) and ub of shape (P, m_b, d).

    Ties resolve to the smallest (i, j) of each pair, by a row-major argmax
    over its block.
    """
    cos = np.abs(np.matmul(ua, np.swapaxes(ub, 1, 2)))
    n, m_a, m_b = cos.shape
    flat = cos.reshape(n, m_a * m_b).argmax(axis=1)
    ia, ib = np.divmod(flat, m_b)
    rows = np.arange(n)
    mode_a = ua[ia] if ua.ndim == 2 else ua[rows, ia]
    return Matches(np.minimum(cos[rows, ia, ib], 1.0), mode_a, ub[rows, ib], ia, ib)


def max_max_sim(a: FaceSet, b: FaceSet) -> Matches:
    """max_max_sim_batch of one pair of sets."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"set dims differ: {a.dim} vs {b.dim}")
    return max_max_sim_batch(a.unit_exemplars, b.unit_exemplars[None])


def fit_subspace(s: FaceSet, k: int = DEFAULT_SUBSPACE_DIM) -> SubspaceModel:
    """Orthonormal basis for the top-k principal directions of the raw
    (uncentered) exemplar matrix, ordered by descending singular value.

    k is silently clipped to the numerical rank so small sets never fail.
    Column signs are fixed so each column's largest-magnitude entry is
    positive.
    """
    if k < 1:
        raise ValueError("k must be >= 1")
    _, sing, vt = np.linalg.svd(s.exemplars, full_matrices=False)
    rank = int(np.sum(sing > RANK_RTOL * sing[0]))
    k_eff = min(k, rank)
    basis = vt[:k_eff].T.copy()
    for col in range(k_eff):
        j = int(np.argmax(np.abs(basis[:, col])))
        if basis[j, col] < 0:
            basis[:, col] = -basis[:, col]
    basis.setflags(write=False)
    return SubspaceModel(set_id=s.set_id, basis=basis)




def max_corr_batch(a: np.ndarray, b: np.ndarray) -> Matches:
    """First canonical correlation of each pair of bases (a[p], b[p]), or
    (a, b[p]) when a is 2-D, for bases a of shape (P, d, k_a) or (d, k_a)
    and b of shape (P, d, k_b), with the canonical vector pair that attains
    it.

    Signs are canonicalized: mode_a's largest-magnitude entry is positive,
    and mode_b is oriented so that the mutual cosine is nonnegative.
    """
    u, sing, vt = np.linalg.svd(np.matmul(np.swapaxes(a, -1, -2), b))
    score = np.minimum(np.maximum(sing[:, 0], 0.0), 1.0)
    mode_a = np.matmul(a, u[:, :, :1])[:, :, 0]
    mode_b = np.matmul(b, np.swapaxes(vt[:, :1, :], 1, 2))[:, :, 0]
    rows = np.arange(len(score))
    top = np.argmax(np.abs(mode_a), axis=1)
    mode_a = np.where(mode_a[rows, top, None] < 0, -mode_a, mode_a)
    dot = np.matmul(mode_a[:, None, :], mode_b[:, :, None])[:, 0]
    return Matches(score, mode_a, np.where(dot < 0, -mode_b, mode_b))


def max_corr(a: SubspaceModel, b: SubspaceModel) -> Matches:
    """max_corr_batch of one pair of subspaces."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"subspace ambient dims differ: {a.dim} vs {b.dim}")
    return max_corr_batch(a.basis, b.basis[None])
