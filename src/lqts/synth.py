"""Seeded synthetic galleries with controllable quasi-transitive structure.

Each identity is a nonnegative unit signature vector; with transitivity
0 the signatures are independent draws, and values toward 1 pull each
signature toward its predecessor, laying identities out along a smooth
1-D chain so lookalikes and informative proxies exist. Imaging
conditions live on a 1-D axis (think of it as head yaw): every
descriptor dimension is a window that is only visible near its own spot
on that axis, so two renderings of one signature share support, and
hence similarity, only when their conditions are close. A set sweeps an
interval of the axis, which makes its internal variation close to
one-dimensional, gives within-set exemplar pairs the full range of
similarities, and lets two far-apart sets of one person be bridged by a
set lying between them while remaining poorly matched directly. Set
positions are drawn either independently (with a minimum gap between
same-identity sets) or as a stepped within-identity chain. Descriptors
are shifted entrywise by the configured floor and clipped at zero so
all similarities land in [0, 1].
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import FaceSet, Gallery, is_count

# width of one dimension's visibility window: the condition axis unit
VISIBILITY_WIDTH = 1.0
# same-identity sets keep at least this condition gap under random placement
MIN_SAME_IDENTITY_GAP = 1.4
PLACEMENT_ATTEMPTS = 200


@dataclass(frozen=True)
class SynthConfig:
    n_identities: int = 60
    sets_per_identity: tuple[int, int] = (2, 4)
    exemplars_per_set: tuple[int, int] = (20, 50)
    dim: int = 96
    identity_spread: float = 1.0  # half-width of a set's sweep along the condition axis
    condition_spread: float = 8.0  # length of the condition axis
    transitivity: float = 0.7  # 0 = independent signatures, 1 = maximal chaining
    descriptor_floor: float = 0.02
    seed: int = 0
    # per-exemplar isotropic noise, relative to the unit signature norm
    noise: float = 0.15
    # None: independent set positions; float: stepped within-identity spacing
    set_spacing: float | None = None

    def __post_init__(self):
        lo, hi = self.sets_per_identity
        elo, ehi = self.exemplars_per_set
        if not all(map(is_count, (self.n_identities, lo, hi, elo, ehi, self.dim, self.seed))):
            raise ValueError("n_identities, dim, seed and the range bounds must be integers")
        if self.n_identities < 1 or self.dim < 1 or self.seed < 0:
            raise ValueError("n_identities and dim must be positive and seed nonnegative")
        reals = [self.identity_spread, self.condition_spread, self.transitivity, self.descriptor_floor]
        reals += [self.noise] + ([] if self.set_spacing is None else [self.set_spacing])
        if not np.isfinite(reals).all():
            raise ValueError("spreads, transitivity, floor, noise and set_spacing must be finite")
        if not (1 <= lo <= hi and 1 <= elo <= ehi):
            raise ValueError("ranges must be non-empty with lo <= hi")
        if not 0.0 <= self.transitivity <= 1.0:
            raise ValueError("transitivity must lie in [0, 1]")
        if self.descriptor_floor < 0 or self.identity_spread <= 0 or self.condition_spread <= 0:
            raise ValueError("spreads must be positive and the floor nonnegative")
        if self.noise < 0:
            raise ValueError("noise must be nonnegative")


def _signatures(rng: np.random.Generator, n: int, d: int, tau: float) -> np.ndarray:
    fresh = np.abs(rng.normal(size=(n, d))) + 0.05
    fresh /= np.linalg.norm(fresh, axis=1, keepdims=True)
    sigs = np.empty_like(fresh)
    sigs[0] = fresh[0]
    for i in range(1, n):
        v = tau * sigs[i - 1] + (1.0 - tau) * fresh[i]
        sigs[i] = v / np.linalg.norm(v)
    return sigs


def _set_positions(rng: np.random.Generator, n_sets: int, config: SynthConfig) -> np.ndarray:
    length = config.condition_spread
    if config.set_spacing is not None:
        span = (n_sets - 1) * config.set_spacing
        start = rng.uniform(0.0, max(length - span, 1e-6))
        return start + config.set_spacing * np.arange(n_sets) + 0.15 * rng.normal(size=n_sets)
    for _ in range(PLACEMENT_ATTEMPTS):
        centers = np.sort(rng.uniform(0.0, length, size=n_sets))
        if n_sets == 1 or float(np.min(np.diff(centers))) >= MIN_SAME_IDENTITY_GAP:
            break
    return rng.permutation(centers)


def generate(config: SynthConfig) -> tuple[Gallery, dict[str, str]]:
    """Deterministic gallery plus its ground-truth identity map."""
    rng = np.random.default_rng(config.seed)
    d = config.dim
    length = config.condition_spread
    # window centers cover the axis with a margin so the ends stay populated
    window_centers = np.linspace(-2 * VISIBILITY_WIDTH, length + 2 * VISIBILITY_WIDTH, d)
    sigs = _signatures(rng, config.n_identities, d, config.transitivity)

    lo, hi = config.sets_per_identity
    elo, ehi = config.exemplars_per_set
    sets: list[FaceSet] = []
    truth: dict[str, str] = {}
    for i in range(config.n_identities):
        identity = f"person{i:03d}"
        n_sets = int(rng.integers(lo, hi + 1))
        centers = _set_positions(rng, n_sets, config)
        for j in range(n_sets):
            n_ex = int(rng.integers(elo, ehi + 1))
            positions = centers[j] + rng.uniform(
                -config.identity_spread, config.identity_spread, size=n_ex
            )
            visibility = np.exp(
                -((positions[:, None] - window_centers[None, :]) ** 2)
                / (2.0 * VISIBILITY_WIDTH**2)
            )
            raw = sigs[i][None, :] * visibility
            raw = raw + config.noise * rng.normal(size=(n_ex, d)) / np.sqrt(d)
            x = np.maximum(raw + config.descriptor_floor, 0.0)
            bad = np.linalg.norm(x, axis=1) == 0.0
            if np.any(bad):  # only reachable with floor ~ 0; keep norms positive
                x[bad] = np.abs(raw[bad]) + 1e-9
            set_id = f"id{i:03d}_s{j}"
            sets.append(FaceSet(set_id=set_id, exemplars=x))
            truth[set_id] = identity
    gallery = Gallery(sets=tuple(sets), labels=dict(truth))
    return gallery, truth
