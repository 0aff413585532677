"""Proxy selection, quasi-transitive scoring and gallery ranking.

A target's score against a query is never worse than the baseline: the
learnt and simple combiner methods take the maximum of the baseline
similarity and the proxy-mediated estimates, so they can only promote
targets. Regression outputs are clamped to [0, 1] before that max.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .corpus import FaceSet, Gallery, ProxyTable
from .errors import UsageError
from .metafeat import BASELINES, EXEMPLAR
from .sampling import DEFAULT_SAMPLES, robust_select
from .similarity import (
    DEFAULT_SUBSPACE_DIM,
    MatchResult,
    SubspaceModel,
    cosine_sim,  # noqa: F401  unused; perfbench/tracing.py patches this name here
    fit_subspace,
    max_corr,
    max_max_sim,
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
SIMPLE_RULES = tuple(COMBINERS)
METHODS = (METHOD_BASELINE, METHOD_LQTS) + SIMPLE_RULES


@dataclass(frozen=True)
class RetrievalConfig:
    baseline: str = EXEMPLAR
    method: str = METHOD_BASELINE
    k_p: int = 0
    model: SvrModel | None = None
    # reduction applied to external exemplar queries, mirroring the gallery
    n_samples: int | None = DEFAULT_SAMPLES

    def __post_init__(self):
        if self.baseline not in BASELINES:
            raise UsageError(f"unknown baseline {self.baseline!r}")
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
    method: str

    def ids(self) -> list[str]:
        return [sid for sid, _ in self.ranking]

    def rank_of(self, set_id: str) -> int:
        """1-based rank of a gallery set in this result."""
        for pos, (sid, _) in enumerate(self.ranking, start=1):
            if sid == set_id:
                return pos
        raise KeyError(set_id)


def _frame_coords(sub: SubspaceModel, mode: np.ndarray) -> np.ndarray:
    """A mode of `sub` as coordinates in its basis, zero-padded to
    DEFAULT_SUBSPACE_DIM so that rank-deficient sets stack with the rest."""
    out = np.zeros(DEFAULT_SUBSPACE_DIM)
    out[: sub.k] = mode @ sub.basis
    return out


class GalleryScorer:
    """Caches per-set representations and pairwise comparisons.

    Pair results are cached under the ordered index pair they were
    computed for. Each result keeps its two modes in the frame of the set
    that owns them: a view of the set's unit-exemplar row (exemplar
    baseline) or the canonical coordinates in the set's basis (subspace
    baseline). Two modes of the same set therefore compare by a plain
    dot product.
    """

    def __init__(self, gallery: Gallery, baseline: str):
        if baseline not in BASELINES:
            raise UsageError(f"unknown baseline {baseline!r}")
        self.gallery = gallery
        self.baseline = baseline
        self._reps: list = [None] * len(gallery)
        self._pairs: dict[tuple[int, int], MatchResult] = {}

    @property
    def mode_width(self) -> int:
        return self.gallery.dim if self.baseline == EXEMPLAR else DEFAULT_SUBSPACE_DIM

    def rep(self, i: int):
        if self._reps[i] is None:
            s = self.gallery.sets[i]
            self._reps[i] = s if self.baseline == EXEMPLAR else fit_subspace(s)
        return self._reps[i]

    def compare(self, a, b) -> MatchResult:
        if self.baseline == EXEMPLAR:
            return max_max_sim(a, b)
        res = max_corr(a, b)
        return MatchResult(res.score, _frame_coords(a, res.mode_a), _frame_coords(b, res.mode_b))

    def pair(self, i: int, j: int) -> MatchResult:
        key = (i, j)
        res = self._pairs.get(key)
        if res is None:
            res = self.compare(self.rep(i), self.rep(j))
            self._pairs[key] = res
        return res

    def score(self, i: int, j: int) -> float:
        hit = self._pairs.get((i, j)) or self._pairs.get((j, i))
        return hit.score if hit is not None else self.pair(i, j).score


def select_proxies(gallery: Gallery, baseline: str, k_p: int) -> ProxyTable:
    """The k_p most-similar other sets for every gallery set, descending,
    ties broken by ascending gallery position."""
    n = len(gallery)
    if k_p < 0:
        raise UsageError("k_p must be >= 0")
    if k_p > n - 1:
        raise UsageError(f"k_p={k_p} too large for a gallery of {n} sets")
    scorer = GalleryScorer(gallery, baseline)
    ids = gallery.set_ids
    entries: dict[str, tuple[tuple[str, float], ...]] = {}
    for i in range(n):
        others = sorted(
            (j for j in range(n) if j != i),
            key=lambda j: (-scorer.score(i, j), j),
        )[:k_p]
        if others:
            entries[ids[i]] = tuple((ids[j], scorer.score(i, j)) for j in others)
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
        if config.k_p > len(gallery) - 1:
            raise UsageError(f"k_p={config.k_p} too large for a gallery of {len(gallery)} sets")
        if config.method != METHOD_BASELINE and config.k_p > 0 and proxies is None:
            raise UsageError(f"method {config.method!r} with k_p > 0 needs a proxy table")
        self.gallery = gallery
        self.config = config
        self.scorer = GalleryScorer(gallery, config.baseline)
        # rows by ascending target, each target's proxies in table order
        rows = []
        if config.method != METHOD_BASELINE and proxies is not None:
            for j, sid in enumerate(gallery.set_ids):
                rows += [(j, gallery.index_of(pid)) for pid, _ in proxies.proxies_of(sid, config.k_p)]
        self._target, self._proxy = np.array(rows, dtype=np.intp).reshape(-1, 2).T
        pt = [self.scorer.pair(p, j) for j, p in rows]
        width = self.scorer.mode_width
        self._s3 = np.array([r.score for r in pt])
        self._proxy_mode = np.array([r.mode_a for r in pt]).reshape(-1, width)
        self._target_mode = np.array([r.mode_b for r in pt]).reshape(-1, width)

    def _query_rep(self, query):
        """(gallery index or None, representation) for a query."""
        if isinstance(query, str):
            idx = self.gallery.index_of(query)
            return idx, self.scorer.rep(idx)
        if not isinstance(query, FaceSet):
            raise UsageError("query must be a set_id or a FaceSet")
        s = query
        if self.config.baseline == EXEMPLAR:
            if self.config.n_samples is not None:
                s = robust_select(s, self.config.n_samples)
            return None, s
        return None, fit_subspace(s)

    def rank(self, query) -> RankedResult:
        q_idx, q_rep = self._query_rep(query)
        query_id = query if isinstance(query, str) else query.set_id
        n = len(self.gallery)
        targets = np.array([j for j in range(n) if j != q_idx], dtype=np.intp)
        rows = np.flatnonzero(self._target != q_idx)
        t, p = self._target[rows], self._proxy[rows]

        # the query against every target and every proxy in use, by gallery index
        sides = np.union1d(targets, p)
        if q_idx is None:
            res = [self.scorer.compare(q_rep, self.scorer.rep(j)) for j in sides.tolist()]
        else:
            res = [self.scorer.pair(q_idx, j) for j in sides.tolist()]
        q_score = np.zeros(n)
        q_score[sides] = [r.score for r in res]

        scores = q_score.copy()
        method = self.config.method
        if rows.size:
            if method == METHOD_LQTS:
                q_mode = np.zeros((n, self.scorer.mode_width))
                q_mode[sides] = [r.mode_b for r in res]
                features = np.column_stack(
                    [
                        q_score[p],
                        q_score[t],
                        self._s3[rows],
                        _row_cos(q_mode[p], self._proxy_mode[rows]),
                        _row_cos(q_mode[t], self._target_mode[rows]),
                    ]
                )
                # predict distinct rows once: BLAS rounds a row by its position
                # in the batch, and equal rows must get equal estimates
                distinct, inverse = np.unique(features, axis=0, return_inverse=True)
                est = _clamp01(predict(self.config.model, distinct))[inverse.reshape(-1)]
            else:
                est = COMBINERS[method](q_score[p], self._s3[rows])
            np.maximum.at(scores, t, est)

        scores = scores[targets]
        order = np.argsort(-scores, kind="stable")  # ties: ascending gallery index
        ids = self.gallery.set_ids
        ranking = tuple((ids[j], score) for j, score in zip(targets[order], scores[order].tolist()))
        label = f"{method}/{self.config.baseline}/k_p={self.config.k_p}"
        return RankedResult(query_id=query_id, ranking=ranking, method=label)


def rank_gallery(
    query,
    gallery: Gallery,
    config: RetrievalConfig,
    proxies: ProxyTable | None = None,
) -> RankedResult:
    """Order all non-query gallery sets by decreasing score under the
    configured method. `query` is a gallery set_id or an external FaceSet."""
    return Ranker(gallery, config, proxies).rank(query)


def save_ranking(result: RankedResult, path) -> None:
    with open(path, "w") as fh:
        fh.write("rank\tset_id\tscore\n")
        for rank, (sid, score) in enumerate(result.ranking, start=1):
            fh.write(f"{rank}\t{sid}\t{repr(score)}\n")
