"""Proxy selection, quasi-transitive scoring and gallery ranking.

A target's score against a query is never worse than the baseline: the
learnt and simple combiner methods take the maximum of the baseline
similarity and the proxy-mediated estimates, so they can only promote
targets. Regression outputs are clamped to [0, 1] before that max.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import FaceSet, Gallery, ProxyTable, write_lines
from .errors import DimensionMismatchError, UsageError
from .sampling import robust_select  # noqa: F401  unused; perfbench/tracing.py patches this name here
from .similarity import (  # noqa: F401  perfbench/tracing.py patches the unused names here
    EXEMPLAR,
    Matches,
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
        if self.k_p < 0:
            raise UsageError("k_p must be >= 0")
        if self.method == METHOD_LQTS and self.model is None:
            raise UsageError("method 'lqts' requires a trained model")


@dataclass(frozen=True)
class RankedResult:
    """Gallery ordering for one query, scores non-increasing."""

    query_id: str
    ranking: tuple[tuple[str, float], ...]

    def ids(self) -> list[str]:
        return [sid for sid, _ in self.ranking]

    def rank_of(self, set_id: str) -> int:
        """1-based rank of a gallery set in this result."""
        for pos, (sid, _) in enumerate(self.ranking, start=1):
            if sid == set_id:
                return pos
        raise KeyError(set_id)


# pairs per kernel call, which bounds the kernel's temporaries
PAIR_BLOCK = 256


class GalleryScorer:
    """Batched baseline comparisons against one gallery.

    Each gallery set is compared as a (k, d) stack of unit rows, its unit
    exemplars (exemplar baseline) or its subspace basis (subspace
    baseline). They are stacked once as (n, max k, d), zero rows padding
    each set past its k. `compare` is the kernel, one call of the
    baseline's `lqts.similarity.kernel`. `pair` compares gallery sets by
    index and `query` an outside set with gallery sets; both return a
    `Matches` of one row per pair, its modes ambient unit vectors assembled
    on first read. Nothing is cached between calls. A gallery set against
    itself follows `lqts.similarity.self_pairs`, with no kernel call.
    """

    def __init__(self, gallery: Gallery, baseline: str):
        self.kernel = kernel(baseline)
        self.gallery = gallery
        self.baseline = baseline
        reps = [self._rep(s) for s in gallery.sets]
        self.ks = np.array([len(r) for r in reps], dtype=np.intp)
        self.stack = np.zeros((len(gallery), self.ks.max(), gallery.dim))
        for row, r in zip(self.stack, reps):
            row[: len(r)] = r

    def _rep(self, s: FaceSet) -> np.ndarray:
        """A set's (k, d) unit rows: its unit exemplars or subspace basis."""
        return s.unit_exemplars if self.baseline == EXEMPLAR else s.subspace

    def compare(self, a, b) -> Matches:
        """One kernel call: representation a, or each of a stack aligned
        with b, against each representation of the stack b."""
        return self.kernel(a, b)

    def pair(self, i, j) -> Matches:
        """Gallery sets i against gallery sets j: one index i against an
        index array j (a query row), or two aligned index arrays (a pair
        list)."""
        j = np.asarray(j, dtype=np.intp)
        return self._match(self.stack, self.ks, i, j, np.broadcast_to(i, j.shape) == j)

    def query(self, s: FaceSet, j) -> Matches:
        """A set from outside the gallery against gallery sets j."""
        if s.dim != self.gallery.dim:
            raise DimensionMismatchError(f"set dims differ: {s.dim} vs {self.gallery.dim}")
        rep = self._rep(s)
        j = np.asarray(j, dtype=np.intp)
        return self._match(rep[None], np.array([len(rep)]), 0, j, np.zeros(j.shape, dtype=bool))

    def _match(self, stack, ks, i, j, own) -> Matches:
        """stack[i] against gallery sets j, where `own` marks a gallery set
        against itself; PAIR_BLOCK pairs per kernel call, modes on first read.

        Pairs are grouped by the true shapes of their two sets, so that
        every product and eigenproblem has the shape max_max_sim or max_corr
        gives it: BLAS may round a padded product differently, and padding a
        basis changes the size of its Gram's eigenproblem. A set's first k
        rows are contiguous, laid out as its own array: BLAS sums a strided
        vector in another order than a contiguous one.
        """
        i_all = np.broadcast_to(i, j.shape)
        score = np.empty(j.size)
        blocks = [(own, self_pairs(self.stack[j[own]]))]
        score[own] = blocks[0][1].score

        rest = np.flatnonzero(~own)
        base = max(ks.max(), self.ks.max()) + 1
        shapes = ks[i_all[rest]] * base + self.ks[j[rest]]
        for shape in np.unique(shapes).tolist():
            k_a, k_b = divmod(shape, base)
            same = rest[shapes == shape]
            # one index i stays one 2-D operand; each side is gathered once per group
            left = stack[i, :k_a] if np.ndim(i) == 0 else stack[i_all[same], :k_a]
            right = self.stack[j[same], :k_b]
            for at in range(0, same.size, PAIR_BLOCK):
                g, block = same[at : at + PAIR_BLOCK], slice(at, at + PAIR_BLOCK)
                res = self.compare(left if left.ndim == 2 else left[block], right[block])
                score[g] = res.score
                blocks.append((g, res))

        def modes():
            mode_a, mode_b = np.empty((2, j.size, self.gallery.dim))
            for g, res in blocks:
                mode_a[g], mode_b[g] = res.mode_a, res.mode_b
            return mode_a, mode_b

        return Matches(score, modes)


def select_proxies(gallery: Gallery, baseline: str, k_p: int) -> ProxyTable:
    """The k_p most-similar other sets for every gallery set, descending,
    ties broken by ascending gallery position."""
    n = len(gallery)
    if k_p < 0:
        raise UsageError("k_p must be >= 0")
    if k_p > n - 1:
        raise UsageError(f"k_p={k_p} too large for a gallery of {n} sets")
    scorer = GalleryScorer(gallery, baseline)
    # each unordered pair is compared once, as (lower index, higher index);
    # the diagonal's -inf sorts after every score
    scores = np.full((n, n), -np.inf)
    for i in range(n - 1):
        upper = np.arange(i + 1, n)
        scores[i, upper] = scores[upper, i] = scorer.pair(i, upper).score
    order = np.argsort(-scores, axis=1, kind="stable")[:, :k_p]
    ids = gallery.set_ids
    entries = {
        ids[i]: tuple((ids[j], scores[i, j]) for j in row) for i, row in enumerate(order.tolist())
    }
    return ProxyTable(k_p=k_p, entries=entries)


def _clamp01(v):
    return np.minimum(np.maximum(v, 0.0), 1.0)


def _row_cos(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    """Absolute cosine between matching rows of two stacks of unit modes."""
    return np.minimum(np.abs(np.einsum("ij,ij->i", u, v)), 1.0)


class Ranker:
    """Ranks queries against a fixed gallery under one configuration.

    The single implementation of every scoring rule. The proxy table is
    resolved once to (target, proxy) gallery-index rows, each with its
    proxy-target score and modes. A query then compares itself with the
    gallery, gathers whole arrays of feature rows by index and merges the
    rule's estimates into the baseline scores with one maximum.
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
            self._proxy_mode, self._target_mode = pt.mode_a, pt.mode_b

    def _compare_query(self, query) -> tuple[int | None, Matches]:
        """(gallery index or None, the query against every gallery set)."""
        everyone = np.arange(len(self.gallery))
        if isinstance(query, str):
            idx = self.gallery.index_of(query)
            return idx, self.scorer.pair(idx, everyone)
        if not isinstance(query, FaceSet):
            raise UsageError("query must be a set_id or a FaceSet")
        return None, self.scorer.query(query, everyone)

    def rank(self, query) -> RankedResult:
        q_idx, res = self._compare_query(query)
        query_id = query if isinstance(query, str) else query.set_id
        # every proxy row is scored: a row whose target is the query only
        # raises the query's own score, which is dropped with its column
        t, p = self._target, self._proxy
        q_score = res.score
        scores = q_score.copy()
        method = self.config.method
        if t.size:
            if method == METHOD_LQTS:
                features = np.column_stack(
                    [
                        q_score[p],
                        q_score[t],
                        self._s3,
                        _row_cos(res.mode_b[p], self._proxy_mode),
                        _row_cos(res.mode_b[t], self._target_mode),
                    ]
                )
                est = _clamp01(predict(self.config.model, features))
            else:
                est = COMBINERS[method](q_score[p], self._s3)
            np.maximum.at(scores, t, est)

        targets = np.arange(len(self.gallery))
        if q_idx is not None:
            targets = np.delete(targets, q_idx)
        scores = scores[targets]
        order = np.argsort(-scores, kind="stable")  # ties: ascending gallery index
        ranking = tuple(zip(self._ids[targets[order]].tolist(), scores[order].tolist()))
        return RankedResult(query_id=query_id, ranking=ranking)


def save_ranking(result: RankedResult, path) -> None:
    rows = (f"{rank}\t{sid}\t{repr(score)}" for rank, (sid, score) in enumerate(result.ranking, 1))
    write_lines(path, ["rank\tset_id\tscore", *rows])
