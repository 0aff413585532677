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
proxy set's exemplars as the query/proxy modes. Under the exemplar
baseline both are one side rule, applied from the reference's side and
from the proxy's. Negative labels obtained this way may be corrupt (the
proxy can secretly share the reference's identity); that noise is left
in deliberately and absorbed by the wide-margin regressor downstream.
"""

from __future__ import annotations

import logging

import numpy as np

from .corpus import FaceSet, Gallery, ProxyTable, feature_table
from .sampling import robust_select  # noqa: F401  unused; perfbench/tracing.py patches this name here
from .similarity import (  # noqa: F401  perfbench/tracing.py patches the unused names here
    EXEMPLAR,
    cosine_sim,
    fit_subspace,
    kernel,
    max_corr,
    max_max_sim,
)

log = logging.getLogger(__name__)

DEFAULT_TRAIN_SETS = 200
DEFAULT_CAP = 50_000
# projection norms below this count as degenerate in subspace extraction
PROJECTION_FLOOR = 1e-12


# ---------------------------------------------------------------------------
# training extraction, exemplar baseline


def _exemplar_side(
    c_aa: np.ndarray, c_ab: np.ndarray, c_bb: np.ndarray, mode_a: int, mode_b: int, s3: float
) -> np.ndarray:
    """One row per ordered pair (q, u) of distinct exemplars of set a, with
    n the exemplar of set b nearest q: [|q·n|, |q·u|, s3, |n·b_mode|,
    |u·a_mode|], read from the sets' |cosine| matrices."""
    qs, us = np.where(~np.eye(len(c_aa), dtype=bool))
    ns = np.argmax(c_ab, axis=1)[qs]
    return np.column_stack(
        [c_ab[qs, ns], c_aa[qs, us], np.full(qs.size, s3), c_bb[ns, mode_b], c_aa[us, mode_a]]
    )


def _exemplar_pair_arrays(reference: FaceSet, proxy: FaceSet) -> tuple[np.ndarray, np.ndarray]:
    """(positives, negatives) feature rows for one reference/proxy pair."""
    r = reference.unit_exemplars
    p = proxy.unit_exemplars
    c_rp = np.abs(r @ p.T)
    c_rr = np.abs(r @ r.T)
    c_pp = np.abs(p @ p.T)

    # reference-proxy set similarity and its mode indices, shared by all rows
    tp_idx, pt_idx = divmod(int(np.argmax(c_rp)), c_rp.shape[1])
    s3 = c_rp[tp_idx, pt_idx]

    # positives: reference exemplars as query and target, the proxy's
    # nearest exemplar as the query's proxy mode
    pos = _exemplar_side(c_rr, c_rp, c_pp, tp_idx, pt_idx, s3)
    # negatives: the same rule from the proxy's side; (q, u) fill the query
    # and proxy slots there, so s1/s2 and s4/s5 trade places
    neg = _exemplar_side(c_pp, c_rp.T, c_rr, pt_idx, tp_idx, s3)[:, [1, 0, 2, 4, 3]]
    return np.clip(pos, 0.0, 1.0), np.clip(neg, 0.0, 1.0)


# ---------------------------------------------------------------------------
# training extraction, subspace baseline


def _subspace_side_arrays(
    exemplars_unit: np.ndarray,
    ref_sub: np.ndarray,
    prox_sub: np.ndarray,
    f_pt: np.ndarray,
    f_tp: np.ndarray,
    s3: float,
) -> tuple[np.ndarray, int]:
    """Feature rows for one block of exemplars iterated as f_qt."""
    coords_r = exemplars_unit @ ref_sub.T
    coords_p = exemplars_unit @ prox_sub.T
    norm_r = np.linalg.norm(coords_r, axis=1)
    norm_p = np.linalg.norm(coords_p, axis=1)
    keep = (norm_r >= PROJECTION_FLOOR) & (norm_p >= PROJECTION_FLOOR)
    skipped = int(np.sum(~keep))
    coords_r, coords_p = coords_r[keep], coords_p[keep]
    norm_r, norm_p = norm_r[keep], norm_p[keep]
    f_tq = (coords_r @ ref_sub) / norm_r[:, None]
    f_pq = (coords_p @ prox_sub) / norm_p[:, None]
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
    reference: FaceSet, proxy: FaceSet, ref_sub: np.ndarray, prox_sub: np.ndarray
) -> tuple[np.ndarray, np.ndarray, int, int]:
    """(positives, negatives, skipped positives, skipped negatives) for one
    reference/proxy pair, given both sets' fitted (k, d) subspace bases."""
    corr = max_corr(ref_sub, prox_sub)
    s3, f_tp, f_pt = corr.score[0], corr.mode_a[0], corr.mode_b[0]
    pos_rows, skipped_pos = _subspace_side_arrays(
        reference.unit_exemplars, ref_sub, prox_sub, f_pt, f_tp, s3
    )
    neg_rows, skipped_neg = _subspace_side_arrays(
        proxy.unit_exemplars, ref_sub, prox_sub, f_pt, f_tp, s3
    )
    return pos_rows, neg_rows, skipped_pos, skipped_neg


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
) -> np.recarray:
    """The training-feature table (`lqts.corpus.FEATURE_DTYPE`) pooled over
    a seeded random choice of reference sets, each paired with every proxy
    in its table entry: all positives, then all negatives.

    Sets are used as given; under the exemplar baseline, reduce the gallery
    with `lqts.sampling.robust_select` (`qts sample`) first. When the pool
    exceeds `cap` it is subsampled per label, preserving the label ratio.
    """
    kernel(baseline)  # an unknown baseline raises UsageError
    if n_train_sets < 1:
        raise ValueError(f"n_train_sets must be >= 1 (got {n_train_sets})")
    if cap < 1:
        raise ValueError(f"cap must be >= 1 (got {cap})")
    rng = np.random.default_rng(seed)
    n_refs = min(n_train_sets, len(gallery))
    ref_idx = np.sort(rng.choice(len(gallery), size=n_refs, replace=False))

    pos_blocks, neg_blocks, pairs = [], [], []
    skipped = 0
    for i in ref_idx:
        ref = gallery.sets[int(i)]
        for pid, _ in proxies.proxies_of(ref.set_id):
            prox = gallery.get(pid)
            if baseline == EXEMPLAR:
                pos, neg = _exemplar_pair_arrays(ref, prox)
            else:
                pos, neg, skip_p, skip_n = _subspace_pair_arrays(
                    ref, prox, ref.subspace, prox.subspace
                )
                skipped += skip_p + skip_n
            pos_blocks.append(pos)
            neg_blocks.append(neg)
            pairs.append((ref.set_id, pid))
    if skipped:
        log.info("subspace extraction skipped %d degenerate projections", skipped)

    def pooled(blocks):
        """All rows of the blocks and, per row, the index of its pair."""
        sizes = np.array([len(b) for b in blocks], dtype=np.intp)
        rows = np.concatenate(blocks) if blocks else np.empty((0, 5))
        return rows, np.repeat(np.arange(sizes.size), sizes)

    pos_all, pos_pair = pooled(pos_blocks)
    neg_all, neg_pair = pooled(neg_blocks)
    n_pos, n_neg = len(pos_all), len(neg_all)
    if n_pos + n_neg > cap:
        idx_pos, idx_neg = _stratified_cap(n_pos, n_neg, cap, rng)
        pos_all, pos_pair = pos_all[idx_pos], pos_pair[idx_pos]
        neg_all, neg_pair = neg_all[idx_neg], neg_pair[idx_neg]

    ids = np.array(pairs, dtype=object).reshape(-1, 2)[np.concatenate([pos_pair, neg_pair])]
    label = np.repeat([1.0, 0.0], [len(pos_all), len(neg_all)])
    return feature_table(np.concatenate([pos_all, neg_all]), label, ids[:, 0], ids[:, 1])
