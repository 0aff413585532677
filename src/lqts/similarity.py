"""Baseline set similarities and the modes through which they are attained.

Two interchangeable baselines over descriptor sets: the max-maximorum
absolute cosine between raw exemplars (`EXEMPLAR`), and the first
canonical correlation between low-dimensional linear subspaces fitted per
set (`SUBSPACE`). Under both baselines a set is compared as a (k, d)
stack of unit rows: its unit exemplars, or its subspace's read-only
orthonormal basis. Every comparison also exposes the pair of unit
"modes" (exemplars or canonical vectors) that realized the score, which
the transitivity features read. Each mode is a combination of its own
set's rows, so a `Matches` holds it only as coordinates in those rows, a
one-hot row or a canonical coordinate vector; `ambient_modes` takes them
to d-vectors. A kernel builds each side's coordinates on that side's
first read, so callers that read only scores never pay for them, and a
query row, which reads the gallery side alone, never builds the query
side's.

Each baseline has one kernel, over a batch of set pairs
(`max_max_sim_batch`, `max_corr_batch`), which `kernel` looks up by
baseline name; `max_max_sim` and `max_corr` compare a single pair as a
batch of one. A set against itself follows `self_pairs`. The first
canonical correlation σ₁ of bases a and b is the top singular value of
M = a·bᵀ (Björck & Golub 1973). `max_corr_batch` takes it as the square
root of the top eigenvalue of the small k_b×k_b Gram MᵀM, with no
eigenvector; its mode coordinates recover the canonical vectors by
inverse iteration on first read, as LAPACK finds selected eigenpairs
(eigenvalues first, then `dstein`), and sit on row 0 of their bases when
σ₁ is 0.

Absolute cosine is used throughout: principal and canonical directions
are sign-ambiguous, so signed similarity would be non-deterministic.
"""

from __future__ import annotations

import numpy as np

from .corpus import FaceSet, is_count
from .errors import DimensionMismatchError, UsageError, ZeroVectorError

EXEMPLAR = "exemplar"
SUBSPACE = "subspace"

DEFAULT_SUBSPACE_DIM = 6
# singular values below this fraction of the largest are treated as rank deficiency
RANK_RTOL = 1e-10


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


class Matches:
    """Scores of a batch of set pairs, one row per pair, and the modes that
    attain them, each as coordinates in its own set's (k, d) unit rows: a
    one-hot row picking a unit exemplar (exemplar baseline), or the unit
    canonical coordinates u₁ and v₁ (subspace baseline). `coords` is the
    pair (coords_a, coords_b), of shapes (P, k_a) and (P, k_b); either side
    may be a function that builds it from this Matches on that side's first
    read and is then dropped, with all it holds. `ambient_modes` takes the
    coordinates to unit vectors of the data space."""

    def __init__(self, score: np.ndarray, coords):
        self.score, self._coords = score, list(coords)

    def _side(self, side: int) -> np.ndarray:
        if callable(self._coords[side]):
            self._coords[side] = self._coords[side](self)
        return self._coords[side]

    coords_a = property(lambda self: self._side(0))
    coords_b = property(lambda self: self._side(1))
    coords = property(lambda self: (self.coords_a, self.coords_b))


def ambient_modes(coords: np.ndarray, rows: np.ndarray) -> np.ndarray:
    """The ambient unit modes, (P, d), of mode coordinates coords (P, k) in
    the rows (P, k, d) of each pair's set, or in one (k, d) stack."""
    return np.matmul(coords[:, None, :], rows)[:, 0]


def self_pairs(n: int, k: int) -> Matches:
    """Each of n sets of k rows against itself: score exactly 1, both modes
    on the set's row 0, its first unit exemplar or first basis vector.
    Every diagonal cosine of a unit set is 1, so this is the smallest-(i, j)
    tie rule applied exactly, whatever a kernel's rounding would give."""
    first = np.zeros((n, k))
    first[:, 0] = 1.0
    return Matches(np.ones(n), (first, first))


def _one_hot(index: np.ndarray, m: int) -> np.ndarray:
    """Rows of width m, each one-hot at its entry of index."""
    return np.eye(m)[index]


def max_max_sim_batch(ua: np.ndarray, ub: np.ndarray) -> Matches:
    """Largest absolute cosine over all exemplar pairs of each set pair
    (ua[p], ub[p]), or (ua, ub[p]) when ua is 2-D, for unit exemplars ua of
    shape (P, m_a, d) or (m_a, d) and ub of shape (P, m_b, d). Each mode's
    coordinates are one-hot on its exemplar, built on its side's first read.

    Ties resolve to the smallest (i, j) of each pair, by a row-major argmax
    over its block.
    """
    cos = np.abs(np.matmul(ua, np.swapaxes(ub, 1, 2)))
    n, m_a, m_b = cos.shape
    flat = cos.reshape(n, m_a * m_b).argmax(axis=1)
    ia, ib = np.divmod(flat, m_b)
    score = np.minimum(cos[np.arange(n), ia, ib], 1.0)
    return Matches(score, (lambda _: _one_hot(ia, m_a), lambda _: _one_hot(ib, m_b)))


def max_max_sim(a: FaceSet, b: FaceSet) -> Matches:
    """max_max_sim_batch of one pair of sets; one set on both sides is
    `self_pairs` of it."""
    if a.dim != b.dim:
        raise DimensionMismatchError(f"set dims differ: {a.dim} vs {b.dim}")
    if a is b:
        return self_pairs(1, a.size)
    return max_max_sim_batch(a.unit_exemplars, b.unit_exemplars[None])


def fit_subspace(s: FaceSet, k: int = DEFAULT_SUBSPACE_DIM) -> np.ndarray:
    """Read-only (k, d) orthonormal rows spanning the top-k principal
    directions of the raw (uncentered) exemplar matrix, by descending
    singular value.

    k is silently clipped to the numerical rank so small sets never fail.
    Row signs are fixed so each row's largest-magnitude entry is positive.
    """
    if not is_count(k) or k < 1:
        raise ValueError(f"k must be an integer >= 1, got {k!r}")
    _, sing, vt = np.linalg.svd(s.exemplars, full_matrices=False)
    rank = int(np.sum(sing > RANK_RTOL * sing[0]))
    k_eff = min(k, rank)
    basis = vt[:k_eff].copy()
    for row in basis:
        if row[np.argmax(np.abs(row))] < 0:
            row *= -1.0
    basis.setflags(write=False)
    return basis


def max_corr_batch(a: np.ndarray, b: np.ndarray) -> Matches:
    """First canonical correlation of each pair of bases (a[p], b[p]), or
    (a, b[p]) when a is 2-D, for bases a of shape (P, k_a, d) or (k_a, d)
    and b of shape (P, k_b, d), with the canonical vector pair that attains
    it.

    σ₁ is the top singular value of M = a·bᵀ, the square root of the top
    eigenvalue λ₁ of the k_b×k_b Gram MᵀM, which one batched `eigvalsh`
    gives. Each side's mode coordinates are built on that side's first
    read: v₁ by inverse iteration on MᵀM − μI with μ just above λ₁
    (`_canonical_modes`), and u₁ = M v₁ / ‖M v₁‖ from v₁
    (`_canonical_partners`), so that the modes are u₁ᵀ·a and v₁ᵀ·b. A
    query row reads v₁ alone and never builds u₁. Where σ₁ is 0 both are
    e₀, the modes row 0 of each basis, as an SVD of a zero M gives.

    Signs are canonicalized on the coordinates: v₁'s largest-magnitude
    entry is positive, and the mutual cosine u₁ᵀ·M·v₁ is nonnegative.
    """
    m = np.matmul(a, np.swapaxes(b, -1, -2))
    gram = np.matmul(np.swapaxes(m, -1, -2), m)
    lam = np.linalg.eigvalsh(gram)[:, -1]
    sigma = np.sqrt(np.maximum(lam, 0.0))
    coords = (
        lambda res: _canonical_partners(m, res.coords_b, lam),
        lambda _: _canonical_modes(gram, lam),
    )
    return Matches(np.minimum(sigma, 1.0), coords)


# The inverse-iteration shift, relative: μ = λ₁(1 + MODE_SHIFT). eigvalsh
# gives λ₁, the Gram's norm, to a few ulps of itself, so μ is above it:
# MᵀM − μI is never singular, and λ₁ is its nearest eigenvalue however close
# λ₂ is. Each step scales an eigenvector whose eigenvalue sits g below λ₁ by
# MODE_SHIFT·λ₁ / (g + MODE_SHIFT·λ₁) against v₁, so after two steps v₁
# errs by about (MODE_SHIFT·σ₁ / 2(σ₁ − σ₂))², under 10⁻¹² once
# σ₁ − σ₂ > 10⁻⁶. Closer singular values mix their vectors into v₁, but the
# cosine the modes attain stays within about MODE_SHIFT of σ₁.
MODE_SHIFT = 1e-12


def _canonical_modes(gram, lam) -> np.ndarray:
    """max_corr_batch's mode coordinates v₁ on the b side, from the Gram
    MᵀM and λ₁.

    Two steps of inverse iteration on MᵀM/μ − I, which scales the
    eigenvalues into [−1, 0) whatever σ₁'s magnitude. The first step starts
    from the unit vector e_j the inverse amplifies most, the largest
    |diagonal| entry: about v₁[j]²/MODE_SHIFT, so e_j holds about a
    1/√k_b share of v₁ or more.
    """
    zero = lam <= 0.0  # σ₁ = 0
    mu = np.where(zero, 1.0, lam * (1.0 + MODE_SHIFT))
    inv = np.linalg.inv(gram / mu[:, None, None] - np.eye(gram.shape[-1]))
    rows = np.arange(len(lam))
    start = np.argmax(np.abs(np.diagonal(inv, axis1=1, axis2=2)), axis=1)
    x = np.matmul(inv, inv[rows, :, start, None])[:, :, 0]
    v = x / np.sqrt(np.einsum("ij,ij->i", x, x))[:, None]
    v[zero] = np.eye(v.shape[1])[0]
    flip = v[rows, np.argmax(np.abs(v), axis=1), None] < 0
    np.negative(v, out=v, where=flip)
    return v


def _canonical_partners(m, v, lam) -> np.ndarray:
    """max_corr_batch's mode coordinates u₁ = M v₁ / ‖M v₁‖ on the a side,
    from M, v₁ and λ₁; e₀ where σ₁ is 0."""
    zero = lam <= 0.0
    mv = np.matmul(m, v[:, :, None])[:, :, 0]
    u = mv / np.where(zero, 1.0, np.sqrt(np.einsum("ij,ij->i", mv, mv)))[:, None]
    u[zero] = np.eye(u.shape[1])[0]
    return u


def max_corr(a: np.ndarray, b: np.ndarray) -> Matches:
    """max_corr_batch of one pair of (k, d) bases: σ₁ from the top
    eigenvalue of the Gram of a·bᵀ, the canonical vectors by inverse
    iteration, both modes on row 0 when σ₁ is 0; one basis on both sides is
    `self_pairs` of it."""
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatchError(f"subspace ambient dims differ: {a.shape[1]} vs {b.shape[1]}")
    if a is b:
        return self_pairs(1, len(a))
    return max_corr_batch(a, b[None])


# the batch kernel of each baseline
KERNELS = {EXEMPLAR: max_max_sim_batch, SUBSPACE: max_corr_batch}
BASELINES = tuple(KERNELS)


def kernel(baseline: str):
    """The batch kernel of a baseline; an unknown name is a UsageError."""
    try:
        return KERNELS[baseline]
    except KeyError:
        raise UsageError(f"unknown baseline {baseline!r}") from None
