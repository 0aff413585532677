"""Scalar reference code that the batched retrieval path is checked against.

The scorers build one retrieval-time transitivity 5-vector or one target
score at a time, straight from the baseline similarity functions and
their ambient mode vectors, with no caching or batching.
`extract_exemplar` and `extract_subspace` give one reference/proxy pair's
training rows, as `lqts.metafeat.build_training_corpus` pools them. `frame_coords`
and `per_pair_select_proxies` are the pair-at-a-time mode projection and
proxy selection that `lqts.retrieval.GalleryScorer` and `select_proxies`
replaced, and `reference_predict` the whole-matrix RBF prediction that
`lqts.svr.predict`'s row blocks replaced.
"""

import numpy as np

from lqts.corpus import ProxyTable
from lqts.metafeat import _exemplar_pair_arrays, _subspace_pair_arrays
from lqts.similarity import (
    DEFAULT_SUBSPACE_DIM,
    SubspaceModel,
    cosine_sim,
    fit_subspace,
    max_corr,
    max_max_sim,
)
from lqts.errors import TrainingError
from lqts.svr import SvrModel, predict, rbf_kernel


def frame_coords(sub: SubspaceModel, mode: np.ndarray) -> np.ndarray:
    """A mode of `sub` as coordinates in its basis, zero-padded to
    DEFAULT_SUBSPACE_DIM so that rank-deficient sets stack with the rest."""
    out = np.zeros(DEFAULT_SUBSPACE_DIM)
    out[: sub.k] = mode @ sub.basis
    return out


def per_pair_select_proxies(gallery, baseline: str, k_p: int) -> ProxyTable:
    """The k_p most-similar other sets for every gallery set, descending,
    ties broken by ascending gallery position: each unordered pair compared
    once by max_max_sim or max_corr, in the orientation first asked for,
    and one Python sort per set."""
    reps = [s if baseline == "exemplar" else fit_subspace(s) for s in gallery.sets]
    compare = max_max_sim if baseline == "exemplar" else max_corr
    pairs = {}

    def score(i, j):
        hit = pairs.get((i, j)) or pairs.get((j, i))
        if hit is None:
            hit = pairs[(i, j)] = compare(reps[i], reps[j])
        return hit.score

    n = len(gallery)
    ids = gallery.set_ids
    entries = {}
    for i in range(n):
        others = sorted((j for j in range(n) if j != i), key=lambda j: (-score(i, j), j))[:k_p]
        if others:
            entries[ids[i]] = tuple((ids[j], score(i, j)) for j in others)
    return ProxyTable(k_p=k_p, entries=entries)


def _feature(baseline_fn, query, target, proxy) -> np.ndarray:
    r_qp = baseline_fn(query, proxy)
    r_qt = baseline_fn(query, target)
    r_pt = baseline_fn(proxy, target)
    f_pq, f_pt = r_qp.mode_b, r_pt.mode_a
    f_tq, f_tp = r_qt.mode_b, r_pt.mode_b
    return np.array(
        [r_qp.score, r_qt.score, r_pt.score, cosine_sim(f_pq, f_pt), cosine_sim(f_tq, f_tp)]
    )


def feature_exemplar(query, target, proxy) -> np.ndarray:
    """Retrieval-time transitivity feature of FaceSets, exemplar baseline."""
    return _feature(max_max_sim, query, target, proxy)


def feature_subspace(query, target, proxy) -> np.ndarray:
    """Retrieval-time transitivity feature of SubspaceModels: the
    max-correlation scores plus cosines between canonical vectors."""
    return _feature(max_corr, query, target, proxy)


def extract_exemplar(reference, proxy) -> tuple[np.ndarray, np.ndarray]:
    """All n_r(n_r-1) positive and n_p(n_p-1) negative training rows of one
    reference/proxy pair under the exemplar baseline."""
    return _exemplar_pair_arrays(reference, proxy)


def extract_subspace(reference, proxy, k: int = DEFAULT_SUBSPACE_DIM):
    """(positives, negatives, skipped positives, skipped negatives) of one
    reference/proxy pair under the subspace baseline, both subspaces fitted
    at dimension k: a row per exemplar whose projection onto neither
    subspace is degenerate."""
    return _subspace_pair_arrays(reference, proxy, fit_subspace(reference, k), fit_subspace(proxy, k))


def _baseline_fn(query):
    return max_corr if isinstance(query, SubspaceModel) else max_max_sim


def score_lqts(query, target, proxies, model) -> float:
    """max(baseline(query, target), clamped regression estimate through
    each proxy). FaceSets under the exemplar baseline, SubspaceModels
    under the subspace baseline."""
    feature_fn = feature_subspace if isinstance(query, SubspaceModel) else feature_exemplar
    best = _baseline_fn(query)(query, target).score
    for p in proxies:
        est = min(max(predict(model, feature_fn(query, target, p)), 0.0), 1.0)
        best = max(best, est)
    return float(best)


def combine(rule: str, rho_qp: float, rho_pt: float) -> float:
    if rule == "arith":
        return 0.5 * (rho_qp + rho_pt)
    if rule == "geom":
        return float(np.sqrt(rho_qp * rho_pt))
    if rule == "quad":
        return float(np.sqrt(0.5 * rho_qp**2 + 0.5 * rho_pt**2))
    raise ValueError(f"unknown combiner rule {rule!r}")


def score_simple(query, target, proxies, rule: str) -> float:
    """max(baseline(query, target), combiner(query-proxy, proxy-target))
    over the proxies, with the arithmetic/geometric/quadratic mean rule."""
    baseline_fn = _baseline_fn(query)
    best = baseline_fn(query, target).score
    for p in proxies:
        best = max(best, combine(rule, baseline_fn(query, p).score, baseline_fn(p, target).score))
    return float(best)


def reference_predict(model: SvrModel, x: np.ndarray):
    """`lqts.svr.predict` as it was before it went through row blocks: the
    whole rows x support-vectors kernel matrix from `rbf_kernel`, then one
    matrix-vector product."""
    arr = np.asarray(x, dtype=np.float64)
    single = arr.ndim == 1
    rows = np.atleast_2d(arr)
    if not np.all(np.isfinite(rows)):
        raise TrainingError("prediction input contains non-finite values")
    if model.n_support == 0:
        out = np.full(rows.shape[0], model.bias)
    else:
        k = rbf_kernel(rows, model.support_vectors, model.config.kernel_gamma)
        out = k @ model.coefficients + model.bias
    return float(out[0]) if single else out
