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

Extraction is cap-first: `build_training_corpus` counts each pair's
rows, draws the rows the cap keeps and builds only those, one pair at a
time, so the uncapped pool never exists. Each pair with kept rows makes
the products its rows read: under the exemplar baseline the pair's
|cosine| matrix and both sets' |cosine| Grams, under the subspace
baseline its exemplars' projections on the other set's subspace. Only
each set's projection on its own subspace is made once, into one table
that the count and the build both read. Every product keeps the shape
the whole pair or set gives it, and the kept rows are gathered from its
results, so a kept row is bit for bit the row the pool would hold.
"""

from __future__ import annotations

import logging

import numpy as np

from .corpus import Gallery, ProxyTable, feature_table
from .retrieval import PAIR_BLOCK, GalleryScorer
from .sampling import robust_select  # noqa: F401  unused; perfbench/tracing.py patches this name here
from .similarity import (  # noqa: F401  perfbench/tracing.py patches the unused names here
    EXEMPLAR,
    SUBSPACE,
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


def _ordered_pairs(local: np.ndarray, n: int) -> tuple[np.ndarray, np.ndarray]:
    """(q, u) at the given positions of the row-major list of ordered pairs
    of distinct items 0..n-1."""
    q, t = np.divmod(local, n - 1)
    return q, t + (t >= q)


def _kept_by_pair(counts: np.ndarray, kept: tuple[np.ndarray, np.ndarray]):
    """Locate the kept rows of a (pairs, 2) row count, given each label's
    kept indices into its pool (all pairs' rows in pair order).

    Returns the pair of every kept row, positives then negatives, and an
    iterator over the pairs holding kept rows: (pair, per label (the slice
    of output rows, the indices within the pair)).
    """
    located, offset = [], 0
    for n_rows, idx in zip(counts.T, kept):
        ends = np.cumsum(n_rows)
        pair = np.searchsorted(ends, idx, side="right")
        bounds = np.searchsorted(pair, np.arange(len(n_rows) + 1))
        located.append((pair, idx - (ends - n_rows)[pair], bounds, offset))
        offset += idx.size

    def groups():
        busy = np.flatnonzero(sum(np.diff(bounds) for _, _, bounds, _ in located))
        for p in busy.tolist():
            yield p, [
                (slice(at + bounds[p], at + bounds[p + 1]), local[bounds[p] : bounds[p + 1]])
                for _, local, bounds, at in located
            ]

    return np.concatenate([pair for pair, *_ in located]), groups()


# ---------------------------------------------------------------------------
# training extraction, exemplar baseline


def _exemplar_rows(sets, pairs: np.ndarray, groups, n_rows: int) -> np.ndarray:
    """The kept rows under the exemplar baseline, unclipped.

    One side rule gives both labels: a row per ordered pair (q, u) of
    distinct exemplars of one set a of the pair, with n the exemplar of
    the other set b nearest q, is [|q·n|, |q·u|, s3, |n·b_mode|,
    |u·a_mode|]. Positives take a = the reference; negatives a = the
    proxy, and there (q, u) fill the query and proxy slots, so s1/s2 and
    s4/s5 trade places. Each pair with kept rows builds its |cosine|
    matrix c_rx and both sets' |cosine| Grams c_rr and c_xx, and writes
    each kept row whole from them.
    """
    out = np.empty((n_rows, 5))
    for p, ((pos, loc_pos), (neg, loc_neg)) in groups:
        r, x = pairs[p].tolist()
        unit_r, unit_x = sets[r].unit_exemplars, sets[x].unit_exemplars
        c_rx = np.abs(unit_r @ unit_x.T)
        c_rr, c_xx = np.abs(unit_r @ unit_r.T), np.abs(unit_x @ unit_x.T)
        m_r, m_x = c_rx.shape
        # reference-proxy set similarity and its mode indices, shared by all rows
        tp, pt = divmod(int(np.argmax(c_rx)), m_x)
        s3 = c_rx[tp, pt]
        if loc_pos.size:
            q, u = _ordered_pairs(loc_pos, m_r)
            n = np.argmax(c_rx[q], axis=1)
            s = c_rx[q, n], c_rr[q, u], np.full(q.size, s3), c_xx[n, pt], c_rr[u, tp]
            out[pos] = np.column_stack(s)
        if loc_neg.size:
            q, u = _ordered_pairs(loc_neg, m_x)
            n = np.argmax(c_rx[:, q], axis=0)
            s = c_xx[q, u], c_rx[n, q], np.full(q.size, s3), c_xx[u, pt], c_rr[n, tp]
            out[neg] = np.column_stack(s)
    return out


# ---------------------------------------------------------------------------
# training extraction, subspace baseline


def _onto(sets, i: int, j: int) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates of set i's unit exemplars on set j's subspace basis, and
    their norms."""
    coords = sets[i].unit_exemplars @ sets[j].subspace.T
    return coords, np.linalg.norm(coords, axis=1)


def _side(sets, own: dict, r: int, x: int, label: int):
    """The projections of one side's exemplars on the reference's subspace
    and on the proxy's: the reference's (label 0, positives) or the
    proxy's (label 1, negatives). `own` holds each set's on its own."""
    return (_onto(sets, x, r), own[x]) if label else (own[r], _onto(sets, r, x))


def _kept(norm_r: np.ndarray, norm_p: np.ndarray) -> np.ndarray:
    """Exemplars whose projection on neither subspace is degenerate."""
    return (norm_r >= PROJECTION_FLOOR) & (norm_p >= PROJECTION_FLOOR)


def _subspace_counts(sets, own: dict, pairs: np.ndarray) -> np.ndarray:
    """(pairs, 2) row counts under the subspace baseline."""
    counts = np.zeros(pairs.shape, dtype=np.intp)
    for p, (r, x) in enumerate(pairs.tolist()):
        for label in (0, 1):
            (_, norm_r), (_, norm_p) = _side(sets, own, r, x, label)
            counts[p, label] = np.count_nonzero(_kept(norm_r, norm_p))
    return counts


def _subspace_rows(sets, own: dict, pairs: np.ndarray, groups, n_rows: int) -> np.ndarray:
    """The kept rows under the subspace baseline, unclipped: a row per
    exemplar f_qt of one side, from its projections f_tq on the
    reference's subspace and f_pq on the proxy's, and the pair's first
    canonical correlation s3 with its modes f_tp and f_pt. s1 and s2 are
    the projection norms of the unit f_qt.

    The canonical correlations come PAIR_BLOCK pairs at a time from a
    `GalleryScorer` over the sets the pairs read.
    """
    out = np.empty((n_rows, 5))
    if not n_rows:
        return out
    read = np.unique(pairs)
    scorer = GalleryScorer(Gallery(sets=tuple(sets[i] for i in read)), SUBSPACE)
    groups = iter(groups)
    while block := [g for _, g in zip(range(PAIR_BLOCK), groups)]:
        ends = np.searchsorted(read, pairs[[p for p, _ in block]])
        corr = scorer.pair(ends[:, 0], ends[:, 1])
        for (p, sides), s3, f_tp, f_pt in zip(block, corr.score, corr.mode_a, corr.mode_b):
            r, x = pairs[p].tolist()
            ref_sub, prox_sub = sets[r].subspace, sets[x].subspace
            for label, (at, local) in enumerate(sides):
                if not local.size:
                    continue
                (coords_r, norm_r), (coords_p, norm_p) = _side(sets, own, r, x, label)
                keep = _kept(norm_r, norm_p)
                if not keep.all():
                    coords_r, coords_p = coords_r[keep], coords_p[keep]
                    norm_r, norm_p = norm_r[keep], norm_p[keep]
                f_tq = (coords_r @ ref_sub) / norm_r[:, None]
                f_pq = (coords_p @ prox_sub) / norm_p[:, None]
                out[at, 0], out[at, 1], out[at, 2] = norm_p[local], norm_r[local], s3
                out[at, 3] = np.abs(f_pq @ f_pt)[local]
                out[at, 4] = np.abs(f_tq @ f_tp)[local]
    return out


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
    """The training-feature table (`lqts.corpus.FEATURE_DTYPE`) of a seeded
    random choice of reference sets, each paired with every proxy in its
    table entry: positives, then negatives, each in pair order.

    Sets are used as given; under the exemplar baseline, reduce the gallery
    with `lqts.sampling.robust_select` (`qts sample`) first. When the
    pairs give more than `cap` rows, a subsample is drawn per label,
    preserving the label ratio, before any row is built, so the memory
    held grows with the kept rows and the largest pair, not with the pool.
    """
    kernel(baseline)  # an unknown baseline raises UsageError
    if n_train_sets < 1:
        raise ValueError(f"n_train_sets must be >= 1 (got {n_train_sets})")
    if cap < 1:
        raise ValueError(f"cap must be >= 1 (got {cap})")
    rng = np.random.default_rng(seed)
    n_refs = min(n_train_sets, len(gallery))
    ref_idx = np.sort(rng.choice(len(gallery), size=n_refs, replace=False))

    sets = gallery.sets
    pairs = proxies.index_pairs(gallery, ref_idx.tolist())
    sizes = np.array([s.size for s in sets], dtype=np.intp)[pairs]
    if baseline == EXEMPLAR:
        counts = sizes * (sizes - 1)
    else:
        own = {i: _onto(sets, i, i) for i in np.unique(pairs).tolist()}
        counts = _subspace_counts(sets, own, pairs)
        skipped = int(np.sum(sizes) - np.sum(counts))
        if skipped:
            log.info("subspace extraction skipped %d degenerate projections", skipped)

    n_pos, n_neg = (int(n) for n in counts.sum(axis=0))
    if n_pos + n_neg > cap:
        kept = _stratified_cap(n_pos, n_neg, cap, rng)
    else:
        kept = np.arange(n_pos), np.arange(n_neg)
    pair_of, groups = _kept_by_pair(counts, kept)
    if baseline == EXEMPLAR:
        rows = _exemplar_rows(sets, pairs, groups, pair_of.size)
    else:
        rows = _subspace_rows(sets, own, pairs, groups, pair_of.size)

    ids = np.array(gallery.set_ids, dtype=object)[pairs[pair_of]]
    label = np.repeat([1.0, 0.0], [kept[0].size, kept[1].size])
    return feature_table(np.clip(rows, 0.0, 1.0), label, ids[:, 0], ids[:, 1])
