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
rows, draws the rows the cap keeps and builds only those, so the
uncapped pool never exists. Under the exemplar baseline each pair with
kept rows makes the products its rows read: the pair's |cosine| matrix
and both sets' |cosine| Grams. Under the subspace baseline the work is
stacked per side set. An entry, one (pair, label), reads its side set's
exemplars (the reference's for positives, the proxy's for negatives)
against its partner, the pair's other set. Each side set makes its
projection and reconstruction on its own subspace once, and its
projections on its partners' subspaces, their norms, their
reconstructions and the mode dots in one stacked product per block of
PAIR_BLOCK partners or fewer; the count reads only the norms. A stacked
product is one BLAS call per stacked matrix, so every product keeps the
shape the whole pair or set gives it, and the kept rows are gathered
from its results: a kept row is bit for bit the row the pool would hold.
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

    Returns the pair of every kept row, positives then negatives, its
    index among that pair's rows of its label, and an iterator over the
    pairs holding kept rows: (pair, per label (the slice of output rows,
    the indices within the pair)).
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

    pair_of = np.concatenate([pair for pair, *_ in located])
    return pair_of, np.concatenate([local for _, local, *_ in located]), groups()


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


def _norms(coords: np.ndarray) -> np.ndarray:
    """Row norms over the last axis, in `np.linalg.norm(..., axis=1)`'s
    arithmetic at any number of leading axes."""
    return np.sqrt(np.add.reduce(coords * coords, axis=-1))


def _recon(coords: np.ndarray, bases: np.ndarray, norms: np.ndarray) -> np.ndarray:
    """Unit reconstructions of projections from their coordinates on their
    bases and their norms, at any number of leading axes."""
    recon = np.matmul(coords, bases)
    recon /= norms[..., None]
    return recon


def _own(s) -> tuple[np.ndarray, np.ndarray]:
    """Coordinates of set s's unit exemplars on its own subspace basis,
    and their norms."""
    coords = s.unit_exemplars @ s.subspace.T
    return coords, _norms(coords)


def _cross(sets, pairs: np.ndarray, block: np.ndarray):
    """Coordinates of a block's side set's unit exemplars on each of its
    partners' subspace bases, (B, n, k), their norms, (B, n), and the
    stacked bases, (B, k, d): one stacked product."""
    flat = pairs.reshape(-1)
    bases = np.stack([sets[t].subspace for t in flat[block ^ 1].tolist()])
    coords = np.matmul(sets[int(flat[block[0]])].unit_exemplars, bases.swapaxes(1, 2))
    return coords, _norms(coords), bases


def _by_side(sets, pairs: np.ndarray, entries: np.ndarray):
    """Entries, 2 * pair + label, grouped for stacked products: (side,
    blocks) per side set, in ascending order, each block PAIR_BLOCK or
    fewer of its entries whose partners' subspaces share a rank k (a
    rank-clipped subspace has k below the default dimension)."""
    flat = pairs.reshape(-1)
    side, partner = flat[entries], flat[entries ^ 1]
    rank = np.zeros(len(sets), dtype=np.intp)
    read = np.unique(partner)
    rank[read] = [sets[t].subspace.shape[0] for t in read.tolist()]
    order = np.lexsort((rank[partner], side))
    entries, side, k = entries[order], side[order], rank[partner[order]]
    edges = (np.flatnonzero((np.diff(side) != 0) | (np.diff(k) != 0)) + 1).tolist()
    blocks: dict[int, list] = {}
    for lo, hi in zip([0, *edges], [*edges, entries.size]) if entries.size else ():
        blocks.setdefault(int(side[lo]), []).extend(
            entries[at : min(at + PAIR_BLOCK, hi)] for at in range(lo, hi, PAIR_BLOCK)
        )
    return blocks.items()


def _canonical(sets, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each pair's first canonical correlation and its modes, (P, 2, d):
    modes[p, c] lies in the subspace of set pairs[p, c]. They come
    PAIR_BLOCK pairs at a time, each block from a `GalleryScorer` over
    the sets it reads."""
    s3, modes = np.empty(len(pairs)), np.empty((len(pairs), 2, sets[0].dim))
    for at in range(0, len(pairs), PAIR_BLOCK):
        read, ends = np.unique(pairs[at : at + PAIR_BLOCK], return_inverse=True)
        scorer = GalleryScorer(Gallery(sets=tuple(sets[i] for i in read.tolist())), SUBSPACE)
        corr = scorer.pair(ends[:, 0], ends[:, 1])
        s3[at : at + PAIR_BLOCK] = corr.score
        modes[at : at + PAIR_BLOCK, 0], modes[at : at + PAIR_BLOCK, 1] = corr.mode_a, corr.mode_b
    return s3, modes


def _subspace_rows(sets, pairs: np.ndarray, whole: np.ndarray, entry: np.ndarray, local: np.ndarray):
    """The kept rows under the subspace baseline, unclipped: a row per
    exemplar f_qt of one side, from its projections f_tq on the
    reference's subspace and f_pq on the proxy's, and the pair's first
    canonical correlation s3 with its modes f_tp and f_pt. s1 and s2 are
    the projection norms of the unit f_qt.

    `entry` holds each kept row's entry (2 * pair + label) and `local`
    its index among that entry's rows; `whole` flags the entries with no
    degenerate projection. Each side set makes its own projection and
    reconstruction once, and one stacked product per block of partners
    for the cross projections, their reconstructions and the mode dots.
    An entry with a degenerate projection reconstructs from its kept rows
    only, as the pool did: a product of some rows rounds unlike the same
    rows of the whole product.
    """
    out = np.empty((entry.size, 5))
    if not entry.size:
        return out
    # every entry's kept rows are one run of the output
    first = np.flatnonzero(np.diff(entry, prepend=-1))
    busy = entry[first]
    start, count = np.zeros((2, pairs.size), dtype=np.intp)
    start[busy], count[busy] = first, np.diff(first, append=entry.size)
    held = np.unique(busy >> 1)
    s3, modes = _canonical(sets, pairs[held])

    def write(block, cross_norm, own_norm, cross_recon, own_recon):
        """A block's kept rows from its cross norms and reconstructions,
        (B, m) and (B, m, d), and its side set's, (m,) and (m, d)."""
        q, label = np.searchsorted(held, block >> 1), block & 1
        # one matrix-vector product per entry, as the pool's pair took
        cross_dot = np.abs(np.matmul(cross_recon, modes[q, 1 - label][:, :, None]))[..., 0]
        own_dot = np.abs(np.matmul(own_recon, modes[q, label][:, :, None]))[..., 0]
        n = count[block]
        b = np.repeat(np.arange(block.size), n)
        rows = np.arange(b.size) + np.repeat(start[block] - np.cumsum(n) + n, n)
        label, at = label[b], local[rows]
        # positives (label 0) read the cross projection as s1 and s4,
        # negatives as s2 and s5
        out[rows, label], out[rows, 1 - label] = cross_norm[b, at], own_norm[at]
        out[rows, 3 + label], out[rows, 4 - label] = cross_dot[b, at], own_dot[b, at]
        out[rows, 2] = s3[q[b]]

    for s, blocks in _by_side(sets, pairs, busy[whole[busy]]):
        own, own_norm = _own(sets[s])
        own_recon = _recon(own, sets[s].subspace, own_norm)
        for block in blocks:
            cross, cross_norm, bases = _cross(sets, pairs, block)
            write(block, cross_norm, own_norm, _recon(cross, bases, cross_norm), own_recon)
    for e in busy[~whole[busy]].tolist():
        block = np.array([e])
        side = sets[int(pairs.flat[e])]
        own, own_norm = _own(side)
        cross, cross_norm, bases = _cross(sets, pairs, block)
        keep = (own_norm >= PROJECTION_FLOOR) & (cross_norm[0] >= PROJECTION_FLOOR)
        own, own_norm, cross, cross_norm = own[keep], own_norm[keep], cross[:, keep], cross_norm[:, keep]
        own_recon = _recon(own, side.subspace, own_norm)
        write(block, cross_norm, own_norm, _recon(cross, bases, cross_norm), own_recon)
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
        counts = np.zeros(pairs.shape, dtype=np.intp)
        for s, blocks in _by_side(sets, pairs, np.arange(pairs.size)):
            own = _own(sets[s])[1] >= PROJECTION_FLOOR
            for block in blocks:
                cross = _cross(sets, pairs, block)[1] >= PROJECTION_FLOOR
                counts.flat[block] = np.count_nonzero(own & cross, axis=1)
        skipped = int(np.sum(sizes) - np.sum(counts))
        if skipped:
            log.info("subspace extraction skipped %d degenerate projections", skipped)

    n_pos, n_neg = (int(n) for n in counts.sum(axis=0))
    if n_pos + n_neg > cap:
        kept = _stratified_cap(n_pos, n_neg, cap, rng)
    else:
        kept = np.arange(n_pos), np.arange(n_neg)
    pair_of, local, groups = _kept_by_pair(counts, kept)
    if baseline == EXEMPLAR:
        rows = _exemplar_rows(sets, pairs, groups, pair_of.size)
    else:
        entry = 2 * pair_of + np.repeat([0, 1], [kept[0].size, kept[1].size])
        rows = _subspace_rows(sets, pairs, (counts == sizes).reshape(-1), entry, local)

    ids = np.array(gallery.set_ids, dtype=object)[pairs[pair_of]]
    label = np.repeat([1.0, 0.0], [kept[0].size, kept[1].size])
    return feature_table(np.clip(rows, 0.0, 1.0), label, ids[:, 0], ids[:, 1])
