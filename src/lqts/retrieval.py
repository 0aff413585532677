"""Proxy selection, quasi-transitive scoring and gallery ranking.

A target's score against a query is never worse than the baseline: the
learnt and simple combiner methods take the maximum of the baseline
similarity and the proxy-mediated estimates, so they can only promote
targets. Regression outputs are clamped to [0, 1] before that max.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import FaceSet, Gallery, ProxyTable, _check_ids, is_count, write_lines
from .errors import DimensionMismatchError, UsageError
from .sampling import robust_select  # noqa: F401  unused; perfbench/tracing.py patches this name here
from .similarity import (  # noqa: F401  perfbench/tracing.py patches the unused names here
    EXEMPLAR,
    Matches,
    ambient_modes,
    cosine_sim,
    fit_subspace,
    kernel,
    max_corr,
    max_max_sim,
    self_pairs,
)
from .svr import SvrModel, predict

METHOD_BASELINE = "baseline"
METHOD_LQTS = "lqts"
# combiners of the query-proxy and proxy-target similarities, on arrays
COMBINERS = {
    "arith": lambda rho_qp, rho_pt: 0.5 * (rho_qp + rho_pt),
    "geom": lambda rho_qp, rho_pt: np.sqrt(rho_qp * rho_pt),
    "quad": lambda rho_qp, rho_pt: np.sqrt(0.5 * rho_qp**2 + 0.5 * rho_pt**2),
}
METHODS = (METHOD_BASELINE, *COMBINERS, METHOD_LQTS)


@dataclass(frozen=True)
class RetrievalConfig:
    baseline: str = EXEMPLAR
    method: str = METHOD_BASELINE
    k_p: int = 0
    model: SvrModel | None = None

    def __post_init__(self):
        kernel(self.baseline)  # an unknown baseline raises UsageError
        if self.method not in METHODS:
            raise UsageError(f"unknown method {self.method!r}")
        if not is_count(self.k_p) or self.k_p < 0:
            raise UsageError(f"k_p must be an integer >= 0 (got {self.k_p!r})")
        if self.method == METHOD_LQTS and self.model is None:
            raise UsageError("method 'lqts' requires a trained model")


@dataclass(frozen=True)
class RankedResult:
    """Gallery ordering for one query, scores non-increasing."""

    query_id: str
    ranking: tuple[tuple[str, float], ...]

    def ids(self) -> list[str]:
        return [sid for sid, _ in self.ranking]


# pairs per kernel call, which bounds the kernel's temporaries
PAIR_BLOCK = 256


def _blocks(keys: np.ndarray, size: int):
    """(key, r) per block of `size` or fewer positions r of `keys` holding
    key, keys ascending and each key's positions ascending: one stable
    sort, split where the key changes."""
    order = np.argsort(keys, kind="stable")
    for run in np.split(order, np.flatnonzero(np.diff(keys[order])) + 1):
        for at in range(0, run.size, size):
            yield keys[run[0]].item(), run[at : at + size]


class GalleryScorer:
    """Batched baseline comparisons against one gallery.

    Each gallery set is compared as a (k, d) stack of unit rows, its unit
    exemplars (exemplar baseline) or its subspace basis (subspace
    baseline). The sets of each size k are stored once, in gallery order,
    as one contiguous (n_k, k, d) array `stacks[k]`; `members[k]` holds
    their gallery positions and `offset` each set's position in its
    size's array. `compare` is the kernel, one call of the baseline's
    `lqts.similarity.kernel`. `pair` compares gallery sets by index, in a
    row or a pair list, and `query` an outside set with a row; each
    returns a `Matches` of one row per pair, a gallery set against itself
    by `lqts.similarity.self_pairs`. `project` tabulates `Ranker`'s fixed
    proxy-row modes against the rows of their gallery sets, for the
    coordinates of later rows to read. Nothing is cached between calls.
    """

    def __init__(self, gallery: Gallery, baseline: str):
        self.kernel = kernel(baseline)
        self.gallery = gallery
        self.baseline = baseline
        reps = [self._rep(s) for s in gallery.sets]
        self.ks = np.array([len(r) for r in reps], dtype=np.intp)
        self.members = dict(_blocks(self.ks, self.ks.size))
        self.stacks = {k: np.stack([reps[i] for i in m]) for k, m in self.members.items()}
        self.offset = np.empty(len(reps), dtype=np.intp)
        for m in self.members.values():
            self.offset[m] = np.arange(m.size)

    def _rep(self, s: FaceSet) -> np.ndarray:
        """A set's (k, d) unit rows: its unit exemplars or subspace basis."""
        return s.unit_exemplars if self.baseline == EXEMPLAR else s.subspace

    def _inside(self, lo, hi) -> None:
        """The bounds rule: gallery positions lo..hi, if any, lie in 0..n−1."""
        if lo <= hi and (lo < 0 or hi >= len(self.ks)):
            raise IndexError(f"gallery positions {lo}..{hi} outside 0..{len(self.ks) - 1}")

    def compare(self, a, b) -> Matches:
        """One kernel call: representation a, or each of a stack aligned
        with b, against each representation of the stack b."""
        return self.kernel(a, b)

    def pair(self, i, j) -> Matches:
        """Gallery sets i against j: a row, one index i against a range j of
        step 1, or else a pair list of two aligned index arrays, a scalar
        broadcast against the other side and two scalars a list of one."""
        if isinstance(j, range) and j.step == 1:
            i = int(i)
            self._inside(i, i)
            return self._row(self.stacks[int(self.ks[i])][self.offset[i]], j, i)
        i, j = np.broadcast_arrays(*(np.atleast_1d(np.asarray(x, dtype=np.intp)) for x in (i, j)))
        self._inside(np.min([i, j], initial=len(self.ks)), np.max([i, j], initial=-1))
        return self._pairs(i, j)

    def query(self, s: FaceSet, j: range) -> Matches:
        """A set from outside the gallery against a row, a range j of step 1."""
        if not (isinstance(j, range) and j.step == 1):
            raise TypeError(f"query takes a range of step 1, not {j!r}")
        if s.dim != self.gallery.dim:
            raise DimensionMismatchError(f"set dims differ: {s.dim} vs {self.gallery.dim}")
        return self._row(self._rep(s), j, None)

    def _row(self, a, j: range, own) -> Matches:
        """Representation a against the gallery sets of the range j, where
        `own` is a's gallery position, None for an outside set.

        The sets of each size in j are one slice of that size's array,
        which the kernel reads in place, PAIR_BLOCK sets or fewer per call,
        unpadded and each set's k rows contiguous, so each pair's score and
        mode coordinates are those of max_max_sim or max_corr (BLAS may
        round a padded product otherwise, and sums a strided vector in
        another order than a contiguous one). Set `own`, if in j, is
        compared with the rest, then replaced by a `self_pairs` block.
        A `_blocks` walk of j's sizes gives the same slices, but it sorts
        j's positions first: 10.4 against 4.0 µs a row.
        """
        self._inside(j.start, j.stop - 1)
        blocks = []
        for k, members in self.members.items():
            start, stop = np.searchsorted(members, (j.start, j.stop)).tolist()
            for s in range(start, stop, PAIR_BLOCK):
                e = min(s + PAIR_BLOCK, stop)
                blocks.append((members[s:e] - j.start, self.compare(a, self.stacks[k][s:e])))
        if own is not None and own in j:
            blocks.append(([own - j.start], self_pairs(1, len(a))))
        return self._assemble(len(j), blocks)

    def _pairs(self, i, j) -> Matches:
        """Gallery sets i[p] against j[p], two aligned index arrays: the
        pairs of each (k_a, k_b) shape PAIR_BLOCK per kernel call, on sets
        gathered for that call alone, so a pair list holds one block of
        gathered sets at a time; then one `self_pairs` block replaces every
        pair of a set with itself."""
        base = max(self.members) + 1
        blocks = []
        for shape, g in _blocks(self.ks[i] * base + self.ks[j], PAIR_BLOCK):
            k_a, k_b = divmod(shape, base)
            a, b = self.stacks[k_a][self.offset[i[g]]], self.stacks[k_b][self.offset[j[g]]]
            blocks.append((g, self.compare(a, b)))
        own = np.flatnonzero(i == j)
        blocks.append((own, self_pairs(own.size, self.ks[i[own]].max(initial=1))))
        return self._assemble(j.size, blocks)

    def _assemble(self, size: int, blocks) -> Matches:
        """The Matches of `size` pairs from (positions, kernel result) blocks,
        applied in order so that a later block overwrites an earlier one's
        positions: scores now, and each side's coordinates on its first read,
        from that side of every block alone, zero-padded to its widest block."""
        score = np.empty(size)
        for g, res in blocks:
            score[g] = res.score

        def gather(side):
            got = [(g, getattr(res, side)) for g, res in blocks]
            out = np.zeros((size, max([0, *(x.shape[1] for _, x in got)])))
            for g, x in got:
                out[g, : x.shape[1]] = x
            return out

        return Matches(score, (lambda _: gather("coords_a"), lambda _: gather("coords_b")))

    def project(self, sets, coords: np.ndarray) -> np.ndarray:
        """Each mode, of coordinates coords[r] in the rows of gallery set
        sets[r], against every row of that set: a (R, max k) table of signed
        dot products, zero past the set's k, in `_row_cos`'s einsum
        arithmetic. The |cosine| of that mode with another mode on the set,
        of coordinates c, is then min(|c·table[r]|, 1)."""
        table = np.zeros((len(sets), max(self.members)))
        for k, r in _blocks(self.ks[sets], PAIR_BLOCK):
            own = self.stacks[k][self.offset[sets[r]]]
            modes = np.repeat(ambient_modes(coords[r, :k], own), k, axis=0)
            dots = np.einsum("ij,ij->i", own.reshape(r.size * k, -1), modes)
            table[r, :k] = dots.reshape(-1, k)
        return table


def select_proxies(gallery: Gallery, baseline: str, k_p: int) -> ProxyTable:
    """The k_p most-similar other sets for every gallery set, descending,
    ties broken by ascending gallery position."""
    n = len(gallery)
    if not is_count(k_p) or k_p < 0:
        raise UsageError(f"k_p must be an integer >= 0 (got {k_p!r})")
    if k_p > n - 1:
        raise UsageError(f"k_p={k_p} too large for a gallery of {n} sets")
    scorer = GalleryScorer(gallery, baseline)
    # each unordered pair is compared once, as (lower index, higher index);
    # the diagonal's -inf sorts after every score
    scores = np.full((n, n), -np.inf)
    for i in range(n - 1):
        scores[i, i + 1 :] = scores[i + 1 :, i] = scorer.pair(i, range(i + 1, n)).score
    order = np.argsort(-scores, axis=1, kind="stable")[:, :k_p]
    ids = gallery.set_ids
    entries = {
        ids[i]: tuple((ids[j], scores[i, j]) for j in row) for i, row in enumerate(order.tolist())
    }
    return ProxyTable(k_p=k_p, entries=entries)


def _row_cos(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Absolute dot product of matching rows, at most 1: the |cosine| of two
    stacks of unit modes, or of mode coordinates against a
    `GalleryScorer.project` table."""
    return np.minimum(np.abs(np.einsum("ij,ij->i", u, v)), 1.0)


class Ranker:
    """Ranks queries against a fixed gallery under one configuration.

    The single implementation of every scoring rule. The proxy table is
    resolved once to (target, proxy) gallery-index rows, each with its
    proxy-target score s3. Under lqts each row also keeps its two fixed
    modes as tables of their dot products with the rows of their own sets
    (`GalleryScorer.project`), so a query's transitivity features need
    only its row's mode coordinates (`lqts_features`). A query then
    compares itself with the gallery, gathers whole arrays of feature rows
    by index and merges the rule's estimates into the baseline scores with
    one maximum.
    """

    def __init__(self, gallery: Gallery, config: RetrievalConfig, proxies: ProxyTable | None = None):
        if config.method != METHOD_BASELINE and config.k_p > 0:
            if proxies is None:
                raise UsageError(f"method {config.method!r} with k_p > 0 needs a proxy table")
            if config.k_p > proxies.k_p:
                raise UsageError(f"k_p={config.k_p} exceeds the proxy table's k_p={proxies.k_p}")
        self.gallery = gallery
        self.config = config
        self.scorer = GalleryScorer(gallery, config.baseline)
        self._ids = np.array(gallery.set_ids, dtype=object)
        # rows by ascending target, each target's proxies in table order
        rows = np.empty((0, 2), dtype=np.intp)
        if config.method != METHOD_BASELINE and proxies is not None:
            rows = proxies.index_pairs(gallery, range(len(gallery)), config.k_p)
        self._target, self._proxy = rows.T
        pt = self.scorer.pair(self._proxy, self._target)
        self._s3 = pt.score
        if config.method == METHOD_LQTS:
            # each row's proxy mode against the rows of its proxy set, and
            # its target mode against the rows of its target set
            proxy_coords, target_coords = pt.coords
            self._proxy_table = self.scorer.project(self._proxy, proxy_coords)
            self._target_table = self.scorer.project(self._target, target_coords)

    def rank(self, query) -> RankedResult:
        everyone = range(len(self.gallery))
        if isinstance(query, str):
            q_idx, query_id = self.gallery.index_of(query), query
            res = self.scorer.pair(q_idx, everyone)
        elif isinstance(query, FaceSet):
            q_idx, query_id = None, query.set_id
            res = self.scorer.query(query, everyone)
        else:
            raise UsageError("query must be a set_id or a FaceSet")
        # every proxy row is scored: a row whose target is the query only
        # raises the query's own score, which is dropped from the order;
        # the row is a fresh array, raised in place
        t, p = self._target, self._proxy
        scores = res.score
        method = self.config.method
        if t.size:
            if method == METHOD_LQTS:
                est = np.clip(predict(self.config.model, self.lqts_features(res)), 0.0, 1.0)
            else:
                est = COMBINERS[method](scores[p], self._s3)
            np.maximum.at(scores, t, est)

        order = np.argsort(-scores, kind="stable")  # ties: ascending gallery index
        order = order[order != q_idx]
        ranking = tuple(zip(self._ids[order].tolist(), scores[order].tolist()))
        return RankedResult(query_id=query_id, ranking=ranking)

    def lqts_features(self, res: Matches) -> np.ndarray:
        """The transitivity 5-vector of every proxy row (t, p) against a
        query row `res`: the query-proxy and query-target scores, s3, and
        s4 and s5, the |cosine| of the query row's mode on p with the row's
        proxy mode and of its mode on t with the row's target mode. Each
        mode lies in its own set's rows, so s4 and s5 are k-term dots of
        the query row's coordinates with this ranker's tables."""
        t, p, coords = self._target, self._proxy, res.coords_b
        features = np.empty((t.size, 5))
        features[:, 0], features[:, 1], features[:, 2] = res.score[p], res.score[t], self._s3
        features[:, 3] = _row_cos(coords[p], self._proxy_table)
        features[:, 4] = _row_cos(coords[t], self._target_table)
        return features


def save_ranking(result: RankedResult, path) -> None:
    _check_ids(sid for sid, _ in result.ranking)
    rows = (f"{rank}\t{sid}\t{repr(score)}" for rank, (sid, score) in enumerate(result.ranking, 1))
    write_lines(path, ["rank\tset_id\tscore", *rows])
