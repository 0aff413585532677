"""Transitivity meta-features: their unsupervised training extraction.

A query/target/proxy triplet yields a 5-vector of similarities:

    s1  query-proxy       s4  between the two proxy-side modes
    s2  query-target          (nearest to query vs nearest to target)
    s3  proxy-target      s5  between the two target-side modes

Retrieval-time rows for a whole query are built by
:class:`lqts.retrieval.Ranker`; this module builds the training rows.
Training data comes from set PAIRS only, because the gallery is
unlabelled: same-identity examples are simulated by treating every
ordered pair of exemplars inside one reference set as the query/target
modes, and differing-identity examples by iterating ordered pairs of a
proxy set's exemplars as the query side. Negative labels obtained this
way may be corrupt (the proxy can secretly share the reference's
identity); that noise is left in deliberately and absorbed by the
wide-margin regressor downstream.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .corpus import FaceSet, Gallery, ProxyTable
from .errors import DimensionMismatchError
from .sampling import DEFAULT_SAMPLES, robust_select
from .similarity import (
    DEFAULT_SUBSPACE_DIM,
    SubspaceModel,
    cosine_sim,  # noqa: F401  unused; perfbench/tracing.py patches this name here
    fit_subspace,
    max_corr,
    max_max_sim,  # noqa: F401  unused; perfbench/tracing.py patches this name here
)

log = logging.getLogger(__name__)

EXEMPLAR = "exemplar"
SUBSPACE = "subspace"
BASELINES = (EXEMPLAR, SUBSPACE)

DEFAULT_TRAIN_SETS = 200
DEFAULT_CAP = 50_000
# projection norms below this count as degenerate in subspace extraction
PROJECTION_FLOOR = 1e-12


@dataclass(frozen=True, eq=False)
class TransitivityFeature:
    """One 5-vector of transitivity similarities, optionally labelled."""

    s: np.ndarray
    label: float | None = None
    provenance: tuple = ()

    def __post_init__(self):
        arr = np.asarray(self.s, dtype=np.float64).reshape(5)
        if not np.all(np.isfinite(arr)):
            raise ValueError("transitivity feature contains non-finite entries")
        object.__setattr__(self, "s", arr)


# ---------------------------------------------------------------------------
# training extraction, exemplar baseline


def _ordered_pairs(n: int) -> tuple[np.ndarray, np.ndarray]:
    first, second = np.where(~np.eye(n, dtype=bool))
    return first, second


def _exemplar_pair_arrays(reference: FaceSet, proxy: FaceSet) -> tuple[np.ndarray, np.ndarray]:
    """(positives, negatives) feature rows for one reference/proxy pair."""
    if reference.dim != proxy.dim:
        raise DimensionMismatchError(f"set dims differ: {reference.dim} vs {proxy.dim}")
    r = reference.unit_exemplars
    p = proxy.unit_exemplars
    c_rp = np.abs(r @ p.T)
    c_rr = np.abs(r @ r.T)
    c_pp = np.abs(p @ p.T)

    # reference-proxy set similarity and its mode indices, shared by all rows
    flat = int(np.argmax(c_rp))
    tp_idx, pt_idx = divmod(flat, c_rp.shape[1])
    s3 = c_rp[tp_idx, pt_idx]

    # positives: ordered pairs of distinct reference exemplars as (f_qt, f_tq)
    nearest_proxy = np.argmax(c_rp, axis=1)
    qs, ts = _ordered_pairs(reference.size)
    pq = nearest_proxy[qs]
    pos = np.column_stack(
        [
            c_rp[qs, pq],
            c_rr[qs, ts],
            np.full(qs.size, s3),
            c_pp[pq, pt_idx],
            c_rr[ts, tp_idx],
        ]
    )

    # negatives: ordered pairs of distinct proxy exemplars as (f_qt, f_pq)
    nearest_ref = np.argmax(c_rp, axis=0)
    qs_n, pq_n = _ordered_pairs(proxy.size)
    tq_n = nearest_ref[qs_n]
    neg = np.column_stack(
        [
            c_pp[qs_n, pq_n],
            c_rp[tq_n, qs_n],
            np.full(qs_n.size, s3),
            c_pp[pq_n, pt_idx],
            c_rr[tq_n, tp_idx],
        ]
    )
    return np.clip(pos, 0.0, 1.0), np.clip(neg, 0.0, 1.0)


def train_extract_exemplar(reference: FaceSet, proxy: FaceSet) -> list[TransitivityFeature]:
    """All n_r(n_r-1) positive and n_p(n_p-1) negative training features
    from one reference/proxy pair under the exemplar baseline."""
    if reference.set_id == proxy.set_id:
        raise ValueError("reference and proxy must be different sets")
    pos, neg = _exemplar_pair_arrays(reference, proxy)
    prov = (reference.set_id, proxy.set_id)
    out = [TransitivityFeature(s=row, label=1.0, provenance=prov) for row in pos]
    out += [TransitivityFeature(s=row, label=0.0, provenance=prov) for row in neg]
    return out


# ---------------------------------------------------------------------------
# training extraction, subspace baseline


@dataclass
class SubspaceExtraction:
    """Features from one pair plus the number of degenerate-projection skips."""

    features: list[TransitivityFeature] = field(default_factory=list)
    skipped_positive: int = 0
    skipped_negative: int = 0

    def __iter__(self):
        return iter(self.features)

    def __len__(self):
        return len(self.features)


def _subspace_side_arrays(
    exemplars_unit: np.ndarray,
    ref_sub: SubspaceModel,
    prox_sub: SubspaceModel,
    f_pt: np.ndarray,
    f_tp: np.ndarray,
    s3: float,
) -> tuple[np.ndarray, int]:
    """Feature rows for one block of exemplars iterated as f_qt."""
    coords_r = exemplars_unit @ ref_sub.basis
    coords_p = exemplars_unit @ prox_sub.basis
    norm_r = np.linalg.norm(coords_r, axis=1)
    norm_p = np.linalg.norm(coords_p, axis=1)
    keep = (norm_r >= PROJECTION_FLOOR) & (norm_p >= PROJECTION_FLOOR)
    skipped = int(np.sum(~keep))
    coords_r, coords_p = coords_r[keep], coords_p[keep]
    norm_r, norm_p = norm_r[keep], norm_p[keep]
    f_tq = (coords_r @ ref_sub.basis.T) / norm_r[:, None]
    f_pq = (coords_p @ prox_sub.basis.T) / norm_p[:, None]
    rows = np.column_stack(
        [
            norm_p,  # s1 = cos(f_qt, f_pq), the projection norm of a unit vector
            norm_r,  # s2 = cos(f_qt, f_tq)
            np.full(norm_r.size, s3),
            np.abs(f_pq @ f_pt),
            np.abs(f_tq @ f_tp),
        ]
    )
    return np.clip(rows, 0.0, 1.0), skipped


def _subspace_pair_arrays(
    reference: FaceSet, proxy: FaceSet, ref_sub: SubspaceModel, prox_sub: SubspaceModel
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """(positives, negatives, skipped positives, skipped negatives) for one
    reference/proxy pair, given both sets' fitted subspaces."""
    if reference.dim != proxy.dim:
        raise DimensionMismatchError(f"set dims differ: {reference.dim} vs {proxy.dim}")
    corr = max_corr(ref_sub, prox_sub)
    f_tp, f_pt = corr.mode_a, corr.mode_b
    pos_rows, skipped_pos = _subspace_side_arrays(
        reference.unit_exemplars, ref_sub, prox_sub, f_pt, f_tp, corr.score
    )
    neg_rows, skipped_neg = _subspace_side_arrays(
        proxy.unit_exemplars, ref_sub, prox_sub, f_pt, f_tp, corr.score
    )
    return pos_rows, neg_rows, skipped_pos, skipped_neg


def train_extract_subspace(
    reference: FaceSet, proxy: FaceSet, k: int = DEFAULT_SUBSPACE_DIM
) -> SubspaceExtraction:
    """n_r positive and n_p negative training features from one
    reference/proxy pair under the subspace baseline, skipping exemplars
    whose projection onto either subspace is degenerate."""
    if reference.set_id == proxy.set_id:
        raise ValueError("reference and proxy must be different sets")
    pos_rows, neg_rows, skipped_pos, skipped_neg = _subspace_pair_arrays(
        reference, proxy, fit_subspace(reference, k), fit_subspace(proxy, k)
    )
    prov = (reference.set_id, proxy.set_id)
    feats = [TransitivityFeature(s=row, label=1.0, provenance=prov) for row in pos_rows]
    feats += [TransitivityFeature(s=row, label=0.0, provenance=prov) for row in neg_rows]
    return SubspaceExtraction(
        features=feats, skipped_positive=skipped_pos, skipped_negative=skipped_neg
    )


# ---------------------------------------------------------------------------
# corpus assembly


def _stratified_cap(
    n_pos: int, n_neg: int, cap: int, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Kept indices per label, preserving the positive:negative ratio."""
    total = n_pos + n_neg
    keep_pos = int(round(cap * n_pos / total))
    keep_pos = min(max(keep_pos, cap - n_neg), n_pos)
    keep_neg = min(cap - keep_pos, n_neg)
    idx_pos = np.sort(rng.choice(n_pos, size=keep_pos, replace=False))
    idx_neg = np.sort(rng.choice(n_neg, size=keep_neg, replace=False))
    return idx_pos, idx_neg


def build_training_corpus(
    gallery: Gallery,
    proxies: ProxyTable,
    baseline: str = EXEMPLAR,
    n_train_sets: int = DEFAULT_TRAIN_SETS,
    cap: int = DEFAULT_CAP,
    seed: int = 0,
    n_samples: int | None = DEFAULT_SAMPLES,
) -> list[TransitivityFeature]:
    """Pool training features over a seeded random choice of reference
    sets, pairing each with every proxy in its table entry.

    Under the exemplar baseline every involved set is first reduced by
    robust sample selection (a no-op for sets already at or below
    n_samples; pass n_samples=None to disable). When the pool exceeds
    `cap` it is subsampled per label, preserving the label ratio.
    """
    if baseline not in BASELINES:
        raise ValueError(f"unknown baseline {baseline!r}")
    rng = np.random.default_rng(seed)
    n_refs = min(n_train_sets, len(gallery))
    ref_idx = np.sort(rng.choice(len(gallery), size=n_refs, replace=False))

    reduced: dict[str, FaceSet] = {}

    def exemplar_form(s: FaceSet) -> FaceSet:
        if n_samples is None:
            return s
        if s.set_id not in reduced:
            reduced[s.set_id] = robust_select(s, n_samples)
        return reduced[s.set_id]

    pos_blocks: list[np.ndarray] = []
    neg_blocks: list[np.ndarray] = []
    pos_prov: list[tuple[str, str]] = []
    neg_prov: list[tuple[str, str]] = []
    skipped = 0
    for i in ref_idx:
        ref = gallery.sets[int(i)]
        for pid, _ in proxies.proxies_of(ref.set_id):
            prox = gallery.get(pid)
            if baseline == EXEMPLAR:
                pos, neg = _exemplar_pair_arrays(exemplar_form(ref), exemplar_form(prox))
            else:
                pos, neg, skip_p, skip_n = _subspace_pair_arrays(
                    ref, prox, ref.subspace, prox.subspace
                )
                skipped += skip_p + skip_n
            pos_blocks.append(pos)
            neg_blocks.append(neg)
            pos_prov.extend([(ref.set_id, pid)] * len(pos))
            neg_prov.extend([(ref.set_id, pid)] * len(neg))
    if skipped:
        log.info("subspace extraction skipped %d degenerate projections", skipped)

    pos_all = np.concatenate(pos_blocks) if pos_blocks else np.empty((0, 5))
    neg_all = np.concatenate(neg_blocks) if neg_blocks else np.empty((0, 5))
    n_pos, n_neg = len(pos_all), len(neg_all)
    if n_pos + n_neg > cap:
        idx_pos, idx_neg = _stratified_cap(n_pos, n_neg, cap, rng)
        pos_all, neg_all = pos_all[idx_pos], neg_all[idx_neg]
        pos_prov = [pos_prov[j] for j in idx_pos]
        neg_prov = [neg_prov[j] for j in idx_neg]

    out = [
        TransitivityFeature(s=row, label=1.0, provenance=prov)
        for row, prov in zip(pos_all, pos_prov)
    ]
    out += [
        TransitivityFeature(s=row, label=0.0, provenance=prov)
        for row, prov in zip(neg_all, neg_prov)
    ]
    return out
