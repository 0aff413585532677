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
uncapped pool never exists. An entry, one (pair, label), reads its side
set's exemplars (the reference's for positives, the proxy's for
negatives) against its partner, the pair's other set. Both baselines
locate a kept row by its entry and its index among the entry's rows, and
write each entry's kept rows as one run of the output. Under the
exemplar baseline each pair with kept rows makes the products its rows
read: the pair's |cosine| matrix and both sets' |cosine| Grams. Under
the subspace baseline the work is stacked per side set, and one product
projects a side set's unit exemplars onto a stack of bases, its own too.
One walk over the side sets (`_by_side`) feeds both the count and the
rows: each side set's own projection once, and its projections on its
partners' subspaces, with their norms, in one stacked product per block
of PAIR_BLOCK partners or fewer, cut by the retrieval layer's block walk,
`_blocks`. The count reads the norms; the rows reconstruct both
projections and take the mode dots per block. The pairs' s3 and modes
come from the subspace kernel itself (`_canonical`), so extraction builds
no retrieval object. A stacked product is one BLAS call per stacked
matrix, so every product keeps the shape the whole pair or set gives it,
and the kept rows are gathered from its results: a kept row is bit for
bit the row the pool would hold.
"""

from __future__ import annotations

import logging

import numpy as np

from .corpus import Gallery, ProxyTable, feature_table, is_count
from .retrieval import PAIR_BLOCK, _blocks
from .sampling import robust_select  # noqa: F401  unused; perfbench/tracing.py patches this name here
from .similarity import (  # noqa: F401  perfbench/tracing.py patches the unused names here
    EXEMPLAR,
    ambient_modes,
    cosine_sim,
    fit_subspace,
    kernel,
    max_corr,
    max_corr_batch,
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


def _kept_rows(counts: np.ndarray, kept: tuple[np.ndarray, np.ndarray]) -> tuple[np.ndarray, np.ndarray]:
    """Locate the kept rows of a (pairs, 2) row count, given each label's
    kept indices into its pool (all pairs' rows in pair order): each kept
    row's entry, 2 * pair + label, positives then negatives, and its index
    among that entry's rows."""
    entry, local = [], []
    for label, (n_rows, idx) in enumerate(zip(counts.T, kept)):
        ends = np.cumsum(n_rows)
        pair = np.searchsorted(ends, idx, side="right")
        entry.append(2 * pair + label)
        local.append(idx - (ends - n_rows)[pair])
    return np.concatenate(entry), np.concatenate(local)


def _runs(entry: np.ndarray, n_entries: int) -> tuple[np.ndarray, np.ndarray]:
    """Each entry's run of output rows, its start and length: an entry's
    kept rows are consecutive, and an entry with none has length 0."""
    first = np.flatnonzero(np.diff(entry, prepend=-1))
    start, count = np.zeros((2, n_entries), dtype=np.intp)
    start[entry[first]], count[entry[first]] = first, np.diff(first, append=entry.size)
    return start, count


# ---------------------------------------------------------------------------
# training extraction, exemplar baseline


def _exemplar_rows(sets, pairs, start, count, local) -> np.ndarray:
    """The kept rows under the exemplar baseline, unclipped, from the
    entries' runs (`_runs`) and the rows' indices within them.

    One side rule gives both labels: a row per ordered pair (q, u) of
    distinct exemplars of one set a of the pair, with n the exemplar of
    the other set b nearest q, is [|q·n|, |q·u|, s3, |n·b_mode|,
    |u·a_mode|]. Positives take a = the reference; negatives a = the
    proxy, and there (q, u) fill the query and proxy slots, so s1/s2 and
    s4/s5 trade places. Each pair with kept rows builds its |cosine|
    matrix c_rx and both sets' |cosine| Grams c_rr and c_xx, and writes
    each kept row whole from them.
    """
    out, bounds = np.empty((local.size, 5)), np.stack([start, start + count], axis=1).tolist()
    for p in np.flatnonzero(count.reshape(-1, 2).any(axis=1)).tolist():
        r, x = pairs[p].tolist()
        unit_r, unit_x = sets[r].unit_exemplars, sets[x].unit_exemplars
        c_rx = np.abs(unit_r @ unit_x.T)
        c_rr, c_xx = np.abs(unit_r @ unit_r.T), np.abs(unit_x @ unit_x.T)
        # reference-proxy set similarity and its mode indices, shared by all rows
        tp, pt = divmod(int(np.argmax(c_rx)), c_rx.shape[1])
        s3 = c_rx[tp, pt]
        # per label, the side a's cosines with b and its Gram, b's Gram, and both modes
        sides = (c_rx, c_rr, c_xx, tp, pt), (c_rx.T, c_xx, c_rr, pt, tp)
        for label, (c_ab, c_aa, c_bb, a_mode, b_mode) in enumerate(sides):
            rows = slice(*bounds[2 * p + label])
            if rows.stop > rows.start:
                q, u = _ordered_pairs(local[rows], len(c_aa))
                n = np.argmax(c_ab[q], axis=1)
                s = c_ab[q, n], c_aa[q, u], np.full(q.size, s3), c_bb[n, b_mode], c_aa[u, a_mode]
                out[rows] = np.column_stack([s[1], s[0], s[2], s[4], s[3]] if label else s)
    return out


# ---------------------------------------------------------------------------
# training extraction, subspace baseline


def _project(sets, side: int, onto) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Set `side`'s unit exemplars, (m, d), on the subspaces of the sets
    `onto`, one stacked product: the coordinates, (B, m, k), their norms,
    (B, m), in `np.linalg.norm(..., axis=1)`'s arithmetic, and the stacked
    bases, (B, k, d). A set's own projection is its projection onto
    itself, `onto` = [side]."""
    bases = np.stack([sets[t].subspace for t in onto])
    coords = np.matmul(sets[side].unit_exemplars, bases.swapaxes(1, 2))
    return coords, np.sqrt(np.add.reduce(coords * coords, axis=-1)), bases


def _recon(coords: np.ndarray, norms: np.ndarray, bases: np.ndarray) -> np.ndarray:
    """Unit reconstructions, (B, m, d), of a `_project` output."""
    recon = np.matmul(coords, bases)
    recon /= norms[..., None]
    return recon


def _by_side(sets, pairs: np.ndarray, entries: np.ndarray):
    """Entries, 2 * pair + label, grouped for stacked products: one (block,
    own, cross) per block of PAIR_BLOCK or fewer entries of one side set
    whose partners' subspaces share a rank k (a rank-clipped subspace has
    k below the default dimension): `_blocks` keyed by side * base + k,
    base above every k. `own` is the side set's `_project` on its own
    subspace, made when the side set changes, and `cross` its `_project`
    on the block's partners' subspaces."""
    flat = pairs.reshape(-1)
    side, partner = flat[entries], flat[entries ^ 1]
    k = np.array([len(sets[t].subspace) for t in partner.tolist()], dtype=np.intp)
    base, s = int(k.max(initial=0)) + 1, None
    for key, r in _blocks(side * base + k, PAIR_BLOCK):
        block = entries[r]
        if key // base != s:
            s = key // base
            own = _project(sets, s, [s])
        yield block, own, _project(sets, s, flat[block ^ 1].tolist())


def _canonical(sets, pairs: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Each pair's first canonical correlation and its modes, (P, 2, d):
    modes[p, c] lies in the subspace of set pairs[p, c]. Each block of
    PAIR_BLOCK or fewer pairs of one pair of ranks (`_blocks` keyed by
    k_a * base + k_b, base above every k) is one `max_corr_batch` call on
    the stacked bases, whose mode coordinates `ambient_modes` takes to
    modes. Only the sets the pairs read are fitted."""
    s3, modes = np.empty(len(pairs)), np.empty((len(pairs), 2, sets[0].dim))
    k = np.array([len(sets[t].subspace) for t in pairs.flat], dtype=np.intp).reshape(pairs.shape)
    base = int(k.max(initial=0)) + 1
    for _, g in _blocks(k[:, 0] * base + k[:, 1], PAIR_BLOCK):
        bases = [np.stack([sets[t].subspace for t in side]) for side in pairs[g].T.tolist()]
        corr = max_corr_batch(*bases)
        s3[g] = corr.score
        for c, coords in enumerate(corr.coords):
            modes[g, c] = ambient_modes(coords, bases[c])
    return s3, modes


def _subspace_rows(sets, pairs, whole, start, count, local) -> np.ndarray:
    """The kept rows under the subspace baseline, unclipped: a row per
    exemplar f_qt of one side, from its projections f_tq on the
    reference's subspace and f_pq on the proxy's, and the pair's first
    canonical correlation s3 with its modes f_tp and f_pt. s1 and s2 are
    the projection norms of the unit f_qt.

    Rows come from each entry's run of output rows (`_runs`) and each row's
    index within its entry (`_kept_rows`); `whole` flags the entries with no
    degenerate projection. One walk over the side blocks (`_by_side`) gives
    each side set's own projection once and each block's cross projections;
    each block reconstructs both and takes the mode dots in one stacked
    product each. An entry with a degenerate projection reconstructs from
    its kept rows only, as the pool did: a product of some rows rounds
    unlike the same rows of the whole product.
    """
    out = np.empty((local.size, 5))
    busy = np.flatnonzero(count)
    held = np.unique(busy >> 1)
    s3, modes = _canonical(sets, pairs[held])

    def write(block, own, cross):
        """A block's kept rows from its side set's `_project` outputs on its
        own subspace, B = 1, and on its partners'."""
        q, label = np.searchsorted(held, block >> 1), block & 1
        # one matrix-vector product per entry, as the pool's pair took
        cross_dot = np.abs(np.matmul(_recon(*cross), modes[q, 1 - label][:, :, None]))[..., 0]
        own_dot = np.abs(np.matmul(_recon(*own), modes[q, label][:, :, None]))[..., 0]
        n = count[block]
        b = np.repeat(np.arange(block.size), n)
        rows = np.arange(b.size) + np.repeat(start[block] - np.cumsum(n) + n, n)
        label, at = label[b], local[rows]
        # positives (label 0) read the cross projection as s1 and s4,
        # negatives as s2 and s5
        out[rows, label], out[rows, 1 - label] = cross[1][b, at], own[1][0, at]
        out[rows, 3 + label], out[rows, 4 - label] = cross_dot[b, at], own_dot[b, at]
        out[rows, 2] = s3[q[b]]

    for block, own, cross in _by_side(sets, pairs, busy[whole[busy]]):
        write(block, own, cross)
    flat = pairs.reshape(-1)
    for e in busy[~whole[busy]].tolist():
        s = int(flat[e])
        own, cross = _project(sets, s, [s]), _project(sets, s, [flat[e ^ 1]])
        keep = (own[1][0] >= PROJECTION_FLOOR) & (cross[1][0] >= PROJECTION_FLOOR)
        own, cross = ((coords[:, keep], norms[:, keep], bases) for coords, norms, bases in (own, cross))
        write(np.array([e]), own, cross)
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
    for name, value, low in (("n_train_sets", n_train_sets, 1), ("cap", cap, 1), ("seed", seed, 0)):
        if not is_count(value) or value < low:
            raise ValueError(f"{name} must be an integer >= {low} (got {value!r})")
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
        for block, own, cross in _by_side(sets, pairs, np.arange(pairs.size)):
            kept = (own[1] >= PROJECTION_FLOOR) & (cross[1] >= PROJECTION_FLOOR)
            counts.flat[block] = np.count_nonzero(kept, axis=1)
        skipped = int(np.sum(sizes) - np.sum(counts))
        if skipped:
            log.info("subspace extraction skipped %d degenerate projections", skipped)

    n_pos, n_neg = (int(n) for n in counts.sum(axis=0))
    if n_pos + n_neg > cap:
        kept = _stratified_cap(n_pos, n_neg, cap, rng)
    else:
        kept = np.arange(n_pos), np.arange(n_neg)
    entry, local = _kept_rows(counts, kept)
    runs = _runs(entry, counts.size)
    if baseline == EXEMPLAR:
        rows = _exemplar_rows(sets, pairs, *runs, local)
    else:
        rows = _subspace_rows(sets, pairs, (counts == sizes).reshape(-1), *runs, local)

    ids = np.array(gallery.set_ids, dtype=object)[pairs[entry >> 1]]
    label = np.repeat([1.0, 0.0], [kept[0].size, kept[1].size])
    return feature_table(np.clip(rows, 0.0, 1.0), label, ids[:, 0], ids[:, 1])
