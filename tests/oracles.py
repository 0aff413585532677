"""Scalar reference code that the batched library code is checked against.

`max_max_sim` and `max_corr` compare one pair of sets at a time, with
ambient unit modes: the pair functions of `lqts.similarity`'s batch
kernels, which the kernels must equal bit for bit. `svd_max_corr` is the
SVD form of `max_corr` that the Gram's top eigenvalue and inverse
iteration replaced, kept as its accuracy reference. `match` adds the
self-pair rule of `lqts.similarity.self_pairs` on top.
The scorers build one retrieval-time transitivity 5-vector or one target
score at a time from those, with no caching or batching, and their s4
and s5 by this module's own `abs_cosine`.
`ambient_pair` gives a batch result's modes as ambient unit vectors,
from its mode coordinates, for checks against those pair functions.
`ambient_mode_features` is the ambient-mode rule for s4 and s5 that
`lqts.retrieval.Ranker`'s mode coordinates replaced, and `ambient_rank`
an lqts ranking by it.
`extract_exemplar` and `extract_subspace` give all of one
reference/proxy pair's training rows, and `reference_training_corpus`
pools them over every pair and then applies the cap: the extraction that
`lqts.metafeat.build_training_corpus`'s cap-first one replaced.
`per_pair_select_proxies` is the pair-at-a-time proxy selection that
`lqts.retrieval.select_proxies` replaced, and `reference_predict` the
whole-matrix RBF prediction, by `rbf_kernel`, that `lqts.svr.predict`'s
row blocks replaced. `dual_objective` evaluates the SVR dual at a point.
`reference_train` and `reference_train_wss2` are SVR dual solvers with
every mask rebuilt on each pair update: the maximal-violating-pair solver
`lqts.svr.train` replaced, and `train`'s own pair rule without its
shrinking. `eager_train` is the shrinking solver that `train` replaced,
whose `EagerRowCache` narrows every cached row at each shrinking pass.
`oracle_pre_image` is the one-target fixed-point loop that
`lqts.sampling.pre_images` runs for all of a set's targets together;
`oracle_pre_image_run` also tells after how many steps it ended and
whether it fell back.
"""

import logging
from typing import NamedTuple

import numpy as np

from lqts import sampling, svr
from lqts.corpus import FaceSet, ProxyTable, feature_table
from lqts.errors import DimensionMismatchError, TrainingError
from lqts.metafeat import DEFAULT_CAP, DEFAULT_TRAIN_SETS, PROJECTION_FLOOR, _stratified_cap
from lqts.retrieval import GalleryScorer
from lqts.similarity import (
    DEFAULT_SUBSPACE_DIM,
    EXEMPLAR,
    MODE_SHIFT,
    ambient_modes,
    fit_subspace,
)
from lqts.similarity import max_corr as batch_max_corr
from lqts.svr import ETA_FLOOR, SvrConfig, SvrModel, _kernel_matvec, _RowCache, predict


class Match(NamedTuple):
    """A similarity score plus the unit mode vectors that attained it."""

    score: float
    mode_a: np.ndarray
    mode_b: np.ndarray
    index_a: int | None = None
    index_b: int | None = None


def max_max_sim(a: FaceSet, b: FaceSet) -> Match:
    """Largest absolute cosine over all exemplar pairs (a_i, b_j).

    Ties resolve to the lexicographically smallest (i, j) pair.
    """
    if a.dim != b.dim:
        raise DimensionMismatchError(f"set dims differ: {a.dim} vs {b.dim}")
    ua = a.unit_exemplars
    ub = b.unit_exemplars
    cos = np.abs(ua @ ub.T)
    flat = int(np.argmax(cos))  # row-major argmax = smallest (i, j) on ties
    ia, ib = divmod(flat, cos.shape[1])
    return Match(float(min(cos[ia, ib], 1.0)), ua[ia], ub[ib], ia, ib)


def max_corr(a: np.ndarray, b: np.ndarray) -> Match:
    """First canonical correlation between two subspaces, given as (k, d)
    orthonormal bases, with the canonical vector pair that attains it.

    σ₁ = √λ₁ for λ₁ the top eigenvalue of the Gram MᵀM of M = a·bᵀ. v₁
    takes two inverse-iteration steps on MᵀM/μ − I, μ = λ₁(1 + MODE_SHIFT),
    from the e_j of the inverse's largest |diagonal| entry;
    u₁ = M v₁ / ‖M v₁‖, and the modes are u₁ᵀ·a and v₁ᵀ·b. Both modes are
    row 0 of their bases when σ₁ is 0. Signs are canonicalized on the
    coordinates: the largest-magnitude entry of v₁ is positive, and u₁
    follows it, so the mutual cosine stays nonnegative.
    """
    if a.shape[1] != b.shape[1]:
        raise DimensionMismatchError(f"subspace ambient dims differ: {a.shape[1]} vs {b.shape[1]}")
    m = a @ b.T
    gram = m.T @ m
    lam = np.linalg.eigvalsh(gram)[-1]
    sigma = float(np.sqrt(max(lam, 0.0)))
    if lam <= 0.0:
        mode_a, mode_b = a[0], b[0]
    else:
        inv = np.linalg.inv(gram / (lam * (1.0 + MODE_SHIFT)) - np.eye(len(gram)))
        x = inv @ inv[:, np.argmax(np.abs(np.diagonal(inv)))]
        v = x / np.sqrt(np.einsum("i,i->", x, x))  # the kernel's summation order
        if v[np.argmax(np.abs(v))] < 0:
            v = -v
        mv = m @ v
        mode_a, mode_b = (mv / np.sqrt(np.einsum("i,i->", mv, mv))) @ a, v @ b
    return Match(min(sigma, 1.0), mode_a, mode_b)


def svd_max_corr(a: np.ndarray, b: np.ndarray) -> Match:
    """max_corr by the full SVD of a·bᵀ (Björck & Golub): the accuracy
    reference for the Gram's top eigenvalue and its inverse-iteration modes.
    Its sign rule is max_corr's."""
    u, sing, vt = np.linalg.svd(a @ b.T)
    sign = 1.0 if vt[0, np.argmax(np.abs(vt[0]))] > 0 else -1.0
    return Match(float(min(sing[0], 1.0)), sign * u[:, 0] @ a, sign * vt[0] @ b)


def ambient_pair(res, a, b) -> tuple[np.ndarray | None, np.ndarray | None]:
    """(mode_a, mode_b) of a `lqts.similarity.Matches`: each side's mode
    coordinates taken by `lqts.similarity.ambient_modes`, pair by pair, in
    the rows of that side's set, the first k coordinates for a set of k
    rows. a and b give each side's sets: one FaceSet (its unit exemplars)
    or one (k, d) stack for every pair, or a list or (P, k, d) array of
    them, one per pair. A side given None is not read and gives None."""

    def side(coords, sets):
        if isinstance(sets, FaceSet) or (isinstance(sets, np.ndarray) and sets.ndim == 2):
            sets = [sets] * len(coords)
        rows = [x.unit_exemplars if isinstance(x, FaceSet) else x for x in sets]
        return np.array([ambient_modes(c[None, : len(r)], r)[0] for c, r in zip(coords, rows)])

    sides = (("coords_a", a), ("coords_b", b))
    return tuple(None if x is None else side(getattr(res, name), x) for name, x in sides)


def match(a, b) -> Match:
    """max_max_sim of FaceSets or max_corr of subspace bases. One object on
    both sides is a set against itself: score 1, both modes on its first
    unit exemplar (index 0) or first basis vector (row 0)."""
    if a is b:
        if isinstance(a, np.ndarray):
            return Match(1.0, a[0], a[0])
        return Match(1.0, a.unit_exemplars[0], a.unit_exemplars[0], 0, 0)
    return max_corr(a, b) if isinstance(a, np.ndarray) else max_max_sim(a, b)


def per_pair_select_proxies(gallery, baseline: str, k_p: int) -> ProxyTable:
    """The k_p most-similar other sets for every gallery set, descending,
    ties broken by ascending gallery position: each unordered pair compared
    once by max_max_sim or max_corr, in the orientation first asked for,
    and one Python sort per set."""
    reps = [s if baseline == "exemplar" else fit_subspace(s) for s in gallery.sets]
    pairs = {}

    def score(i, j):
        hit = pairs.get((i, j)) or pairs.get((j, i))
        if hit is None:
            hit = pairs[(i, j)] = match(reps[i], reps[j])
        return hit.score

    n = len(gallery)
    ids = gallery.set_ids
    entries = {}
    for i in range(n):
        others = sorted((j for j in range(n) if j != i), key=lambda j: (-score(i, j), j))[:k_p]
        if others:
            entries[ids[i]] = tuple((ids[j], score(i, j)) for j in others)
    return ProxyTable(k_p=k_p, entries=entries)


def abs_cosine(u: np.ndarray, v: np.ndarray) -> float:
    """min(|u·v| / (‖u‖‖v‖), 1), the |cosine| of two nonzero vectors."""
    return min(abs(float(u @ v)) / (np.linalg.norm(u) * np.linalg.norm(v)), 1.0)


def feature(query, target, proxy) -> np.ndarray:
    """Retrieval-time transitivity feature: the baseline scores of the three
    pairs plus the cosines between the two proxy-side and the two
    target-side modes. FaceSets under the exemplar baseline, subspace bases
    under the subspace baseline; a proxy that is the query object meets it
    by the self-pair rule."""
    r_qp = match(query, proxy)
    r_qt = match(query, target)
    r_pt = match(proxy, target)
    f_pq, f_pt = r_qp.mode_b, r_pt.mode_a
    f_tq, f_tp = r_qt.mode_b, r_pt.mode_b
    return np.array(
        [r_qp.score, r_qt.score, r_pt.score, abs_cosine(f_pq, f_pt), abs_cosine(f_tq, f_tp)]
    )


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


def extract_exemplar(reference, proxy) -> tuple[np.ndarray, np.ndarray]:
    """All n_r(n_r-1) positive and n_p(n_p-1) negative training rows of one
    reference/proxy pair under the exemplar baseline."""
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


def _subspace_side(
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


def _subspace_pair(reference, proxy, ref_sub: np.ndarray, prox_sub: np.ndarray):
    """(positives, negatives, skipped positives, skipped negatives) for one
    reference/proxy pair, given both sets' fitted (k, d) subspace bases."""
    corr = batch_max_corr(ref_sub, prox_sub)
    (f_tp,), (f_pt,) = ambient_pair(corr, ref_sub, prox_sub)
    s3 = corr.score[0]
    pos_rows, skipped_pos = _subspace_side(reference.unit_exemplars, ref_sub, prox_sub, f_pt, f_tp, s3)
    neg_rows, skipped_neg = _subspace_side(proxy.unit_exemplars, ref_sub, prox_sub, f_pt, f_tp, s3)
    return pos_rows, neg_rows, skipped_pos, skipped_neg


def extract_subspace(reference, proxy, k: int = DEFAULT_SUBSPACE_DIM):
    """(positives, negatives, skipped positives, skipped negatives) of one
    reference/proxy pair under the subspace baseline, both subspaces fitted
    at dimension k: a row per exemplar whose projection onto neither
    subspace is degenerate."""
    return _subspace_pair(reference, proxy, fit_subspace(reference, k), fit_subspace(proxy, k))


def reference_training_corpus(
    gallery,
    proxies: ProxyTable,
    baseline: str = EXEMPLAR,
    n_train_sets: int = DEFAULT_TRAIN_SETS,
    cap: int = DEFAULT_CAP,
    seed: int = 0,
) -> np.recarray:
    """`lqts.metafeat.build_training_corpus` as it was before it went
    cap-first: every row of every reference/proxy pair pooled, all
    positives then all negatives, and the cap drawn from the pool by
    `_stratified_cap` with the same rng calls. Subspace pairs use the
    sets' cached bases and log the skipped degenerate projections as
    `lqts.metafeat` does."""
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
                pos, neg = extract_exemplar(ref, prox)
            else:
                pos, neg, skip_p, skip_n = _subspace_pair(ref, prox, ref.subspace, prox.subspace)
                skipped += skip_p + skip_n
            pos_blocks.append(pos)
            neg_blocks.append(neg)
            pairs.append((ref.set_id, pid))
    if skipped:
        logging.getLogger("lqts.metafeat").info(
            "subspace extraction skipped %d degenerate projections", skipped
        )

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


def oracle_pre_image(m: sampling.KpcaModel, z_target: float) -> np.ndarray:
    """Pre-image of one coordinate on the dominant kernel component: the
    fixed-point iteration from the exemplar whose projection is nearest,
    falling back to that exemplar on degenerate weights, a non-finite or
    zero-norm iterate, or no convergence within PREIMAGE_MAX_ITER steps
    (read at call time)."""
    return oracle_pre_image_run(m, z_target)[0]


def oracle_pre_image_run(m: sampling.KpcaModel, z_target: float) -> tuple[np.ndarray, int, bool]:
    """(oracle_pre_image(m, z_target), the steps it took, True if it fell
    back)."""
    nearest = int(np.argmin(np.abs(m.projections - z_target)))
    fallback = m.exemplars[nearest].copy()
    c = sampling.expansion_coefficients(m, z_target)
    x = fallback.copy()
    for steps in range(1, sampling.PREIMAGE_MAX_ITER + 1):
        d2 = np.sum((m.exemplars - x) ** 2, axis=1)
        w = c * np.exp(-m.gamma * d2)
        denom = float(np.sum(w))
        if not np.isfinite(denom) or abs(denom) < sampling.WEIGHT_FLOOR:
            return fallback, steps, True
        x_new = (w @ m.exemplars) / denom
        if not np.all(np.isfinite(x_new)):
            return fallback, steps, True
        step = float(np.linalg.norm(x_new - x))
        x = x_new
        if step < sampling.PREIMAGE_STEP_TOL:
            if float(np.linalg.norm(x)) == 0.0:
                return fallback, steps, True
            return x, steps, False
    return fallback, sampling.PREIMAGE_MAX_ITER, True


def score_lqts(query, target, proxies, model) -> float:
    """max(baseline(query, target), clamped regression estimate through
    each proxy). FaceSets under the exemplar baseline, subspace bases
    under the subspace baseline."""
    best = match(query, target).score
    for p in proxies:
        est = min(max(predict(model, feature(query, target, p)), 0.0), 1.0)
        best = max(best, est)
    return float(best)


def _row_cos(u: np.ndarray, v: np.ndarray) -> np.ndarray:
    return np.minimum(np.abs(np.einsum("ij,ij->i", u, v)), 1.0)


def ambient_mode_features(scorer, row, pair_list, proxy, target) -> np.ndarray:
    """s4 and s5 of every proxy row (proxy[r], target[r]) by the ambient
    rule that `lqts.retrieval.Ranker` applied before it read mode
    coordinates: min(|mode_b[p]·proxy_mode|, 1), for mode_b[p] the query
    row's ambient mode on the proxy's side and proxy_mode the proxy-target
    pair's mode on the proxy's side, and the same on the target's side.
    `row` is a query row's `Matches` against every set of the gallery
    scorer `scorer`, and `pair_list` the Matches of the pairs (proxy,
    target); the modes come from their coordinates by `ambient_pair`."""
    reps = [scorer._rep(s) for s in scorer.gallery.sets]
    _, row_modes = ambient_pair(row, None, reps)
    proxy_modes, target_modes = ambient_pair(
        pair_list, [reps[x] for x in proxy], [reps[x] for x in target]
    )
    return np.column_stack(
        [_row_cos(row_modes[proxy], proxy_modes), _row_cos(row_modes[target], target_modes)]
    )


def ambient_rank(gallery, config, proxies, query):
    """An lqts ranking as `lqts.retrieval.Ranker.rank` made it before it
    read mode coordinates: the `GalleryScorer` query row and proxy-target
    pairs of the proxy table's rows, with s4 and s5 by
    `ambient_mode_features`. Returns (ids, scores), ties by ascending
    gallery index, the query itself left out."""
    scorer = GalleryScorer(gallery, config.baseline)
    t, p = proxies.index_pairs(gallery, range(len(gallery)), config.k_p).T
    everyone = range(len(gallery))
    if isinstance(query, str):
        q_idx = gallery.index_of(query)
        res = scorer.pair(q_idx, everyone)
    else:
        q_idx, res = None, scorer.query(query, everyone)
    scores = res.score.copy()
    if t.size:
        pt = scorer.pair(p, t)
        modes = ambient_mode_features(scorer, res, pt, p, t)
        features = np.column_stack([res.score[p], res.score[t], pt.score, modes])
        np.maximum.at(scores, t, np.clip(predict(config.model, features), 0.0, 1.0))
    order = [j for j in np.argsort(-scores, kind="stable").tolist() if j != q_idx]
    return [gallery.set_ids[j] for j in order], [float(scores[j]) for j in order]


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
    best = match(query, target).score
    for p in proxies:
        best = max(best, combine(rule, match(query, p).score, match(p, target).score))
    return float(best)


def rbf_kernel(a: np.ndarray, b: np.ndarray, gamma: float) -> np.ndarray:
    """exp(-gamma * ||a_i - b_j||^2) for rows of a against rows of b."""
    a = np.atleast_2d(np.asarray(a, dtype=np.float64))
    b = np.atleast_2d(np.asarray(b, dtype=np.float64))
    d2 = (
        np.sum(a * a, axis=1)[:, None]
        + np.sum(b * b, axis=1)[None, :]
        - 2.0 * (a @ b.T)
    )
    return np.exp(-gamma * np.maximum(d2, 0.0))


def dual_objective(
    x: np.ndarray, y: np.ndarray, alpha: np.ndarray, alpha_star: np.ndarray, config: SvrConfig
) -> float:
    """Dual objective value at a feasible (alpha, alpha_star) point."""
    beta = alpha - alpha_star
    k = rbf_kernel(x, x, config.kernel_gamma)
    return float(
        0.5 * beta @ k @ beta
        + config.epsilon * float(np.sum(alpha + alpha_star))
        - float(y @ beta)
    )


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


def _mvp_j(low_vals: np.ndarray, m_up: float, ki2: np.ndarray) -> int:
    """The maximal violator that may move down."""
    return int(np.argmin(low_vals))


def _wss2_j(low_vals: np.ndarray, m_up: float, ki2: np.ndarray) -> int:
    """Among the variables that may move down with crit below m_up, the one
    maximising b^2 / a (Fan, Chen & Lin 2005): b = m_up - crit, a the
    pair's curvature 2 (1 - K_it), floored at ETA_FLOOR."""
    b = m_up - low_vals
    a = np.maximum(2.0 * (1.0 - ki2), ETA_FLOOR)
    return int(np.argmax(np.where(b > 0, b * b / a, -np.inf)))


def _reference_solve(features, config: SvrConfig, choose_j) -> SvrModel:
    """The pair-update loop as it was before its state became two (2, l)
    criterion arrays: masks, criterion and gradient rebuilt over 2l
    entries on every pair update, with no shrinking. `choose_j` picks the
    second variable of the pair."""
    x, y = np.ascontiguousarray(features.s), np.ascontiguousarray(features.label)
    l = x.shape[0]
    c = config.cost
    eps = config.epsilon

    theta = np.zeros(2 * l)
    sign = np.concatenate([np.ones(l), -np.ones(l)])
    g = np.concatenate([eps - y, eps + y])  # gradient at theta = 0
    cache = _RowCache(x, config.kernel_gamma)

    def filed():
        """The criterion where a variable may move up (down), -inf (+inf) elsewhere."""
        crit = -sign * g
        up = ((sign > 0) & (theta < c)) | ((sign < 0) & (theta > 0))
        low = ((sign > 0) & (theta > 0)) | ((sign < 0) & (theta < c))
        return np.where(up, crit, -np.inf), np.where(low, crit, np.inf)

    obj = 0.0
    trace = [0.0]
    gap = 0.0
    for _ in range(config.max_passes):
        up_vals, low_vals = filed()
        i = int(np.argmax(up_vals))
        m_up, m_low = up_vals[i], np.min(low_vals)
        gap = float(m_up - m_low)
        if not np.isfinite(gap) or gap <= config.kkt_tolerance:
            break

        ia = i % l
        ki = cache.row(ia)
        j = choose_j(low_vals, m_up, np.concatenate([ki, ki]))
        ja = j % l
        kj = cache.row(ja)
        eta = max(2.0 * (1.0 - ki[ja]), ETA_FLOOR)
        dg = float(sign[i] * g[i] - sign[j] * g[j])  # negative by selection
        lim_i = (c - theta[i]) if sign[i] > 0 else theta[i]
        lim_j = theta[j] if sign[j] > 0 else (c - theta[j])
        delta = min(-dg / eta, lim_i, lim_j)

        obj += delta * dg + 0.5 * delta * delta * eta
        trace.append(obj)

        # land exactly on a bound when clipped, so bound checks stay exact
        if delta == lim_i:
            theta[i] = c if sign[i] > 0 else 0.0
        else:
            theta[i] += sign[i] * delta
        if delta == lim_j:
            theta[j] = 0.0 if sign[j] > 0 else c
        else:
            theta[j] -= sign[j] * delta

        kdiff = ki - kj
        g += delta * sign * np.concatenate([kdiff, kdiff])
    else:
        # out of updates: the gap of the returned point
        up_vals, low_vals = filed()
        gap = float(np.max(up_vals) - np.min(low_vals))
    gap = max(gap, 0.0) if np.isfinite(gap) else 0.0

    beta = theta[:l] - theta[l:]
    nonbound = (theta > 0.0) & (theta < c)
    if np.any(nonbound):
        bias = float(np.mean((-sign * g)[nonbound]))
    else:
        bias = float(np.mean(y))

    keep = beta != 0.0
    sv, coeff = x[keep], beta[keep]

    # exact objective at the returned point, evaluated as train does
    exact = eps * float(np.sum(theta)) - float(y @ beta)
    if coeff.size:
        exact += 0.5 * float(coeff @ _kernel_matvec(sv, sv, coeff, config.kernel_gamma))

    return SvrModel(
        support_vectors=sv,
        coefficients=coeff,
        bias=bias,
        config=config,
        kkt_violation=gap,
        objective=exact,
        objective_trace=np.asarray(trace),
    )


def reference_train(features, config: SvrConfig = SvrConfig()) -> SvrModel:
    """The maximal-violating-pair solver that `lqts.svr.train` replaced:
    j is the minimum of the down-movable criteria."""
    return _reference_solve(features, config, _mvp_j)


def reference_train_wss2(features, config: SvrConfig = SvrConfig()) -> SvrModel:
    """`lqts.svr.train` without shrinking: j by the second-order rule.
    `train` must match it bit for bit while it has shrunk nothing."""
    return _reference_solve(features, config, _wss2_j)


class EagerRowCache:
    """The row cache that `lqts.svr._RowCache` replaced: `keep` narrows
    every cached row at once. Its bound reads `lqts.svr.ROW_CACHE_BYTES`
    at construction and at every `keep`."""

    def __init__(self, x: np.ndarray, gamma: float):
        self.x = x
        self.gamma = gamma
        self.sq = np.sum(x * x, axis=1)
        self.max_rows = max(2, svr.ROW_CACHE_BYTES // (8 * x.shape[0]))
        self.rows: dict[int, np.ndarray] = {}

    def keep(self, mask: np.ndarray) -> None:
        pos = np.cumsum(mask) - 1
        self.x, self.sq = self.x[mask], self.sq[mask]
        self.max_rows = max(2, svr.ROW_CACHE_BYTES // (8 * self.x.shape[0]))
        self.rows = {int(pos[i]): r[mask] for i, r in self.rows.items() if mask[i]}

    def row(self, i: int) -> np.ndarray:
        cached = self.rows.get(i)
        if cached is not None:
            return cached
        d2 = np.maximum(self.sq + self.sq[i] - 2.0 * (self.x @ self.x[i]), 0.0)
        r = np.exp(-self.gamma * d2)
        if len(self.rows) >= self.max_rows:
            self.rows.pop(next(iter(self.rows)))
        self.rows[i] = r
        return r


def _eager_filed(crit: np.ndarray, theta: np.ndarray, c: float) -> tuple[np.ndarray, np.ndarray]:
    up = np.vstack([theta[0] < c, theta[1] > 0.0])
    low = np.vstack([theta[0] > 0.0, theta[1] < c])
    return np.where(up, crit, -np.inf), np.where(low, crit, np.inf)


def eager_train(features, config: SvrConfig = SvrConfig()) -> SvrModel:
    """The shrinking solver that `lqts.svr.train` replaced: upv and lowv
    are two arrays, the scalars of a pair update numpy scalars, and every
    shrinking pass narrows every cached row (`EagerRowCache`).
    `lqts.svr.SHRINK_EVERY` is read at call time. `train` must match it bit
    for bit, shrinking and cache evictions included."""
    x, y = np.ascontiguousarray(features.s), np.ascontiguousarray(features.label)
    if len(y) == 0:
        raise TrainingError("empty training corpus")
    l = x.shape[0]
    c = config.cost
    eps = config.epsilon
    tol = config.kkt_tolerance
    gamma = config.kernel_gamma

    theta = np.zeros((2, l))
    sign = np.array([[1.0], [-1.0]])
    base = -sign * np.vstack([eps - y, eps + y])
    upv, lowv = _eager_filed(base, theta, c)
    active = np.arange(l)
    cache = EagerRowCache(x, gamma)

    def refresh(r: int, a: int, row: int) -> None:
        v = upv[r, a] if upv[r, a] != -np.inf else lowv[r, a]
        th = theta[r, row]
        upv[r, a] = v if (th < c if r == 0 else th > 0.0) else -np.inf
        lowv[r, a] = v if (th > 0.0 if r == 0 else th < c) else np.inf

    def shrink(m_up: float, m_low: float) -> bool:
        nonlocal upv, lowv, active
        gone = ((lowv == np.inf) & (upv < m_low)) | ((upv == -np.inf) & (lowv > m_up))
        keep = ~(gone[0] & gone[1])
        if keep.all():
            return False
        upv, lowv = np.compress(keep, upv, axis=1), np.compress(keep, lowv, axis=1)
        active = active[keep]
        cache.keep(keep)
        return True

    def unshrink() -> None:
        nonlocal upv, lowv, active, cache
        crit = np.empty((2, l))
        crit[:, active] = np.where(upv != -np.inf, upv, lowv)
        stale = np.ones(l, dtype=bool)
        stale[active] = False
        beta = theta[0] - theta[1]
        sv = np.flatnonzero(beta)
        crit[:, stale] = base[:, stale] - _kernel_matvec(x[stale], x[sv], beta[sv], gamma)
        upv, lowv = _eager_filed(crit, theta, c)
        active = np.arange(l)
        cache = EagerRowCache(x, gamma)

    obj = 0.0
    trace = [0.0]
    updates = 0
    next_shrink = svr.SHRINK_EVERY
    near = False
    t = np.empty(0)
    while True:
        n = active.size
        i = int(np.argmax(upv))
        ri, ia = divmod(i, n)
        m_up, m_low = upv[ri, ia], lowv.min()
        gap = float(m_up - m_low)
        stop = not np.isfinite(gap) or gap <= tol or updates == config.max_passes
        first_near = not near and gap <= 10 * tol
        near = near or first_near
        if n < l and (stop or first_near):
            unshrink()
            continue
        if stop:
            break
        if updates == next_shrink:
            next_shrink += svr.SHRINK_EVERY
            if shrink(m_up, m_low):
                continue

        if t.shape[0] != n:
            t = np.empty(n)
        ki = cache.row(ia)
        j, eta = svr._second_order_j(lowv, m_up, ki)
        rj, ja = divmod(j, n)
        kj = cache.row(ja)
        dg = float(lowv[rj, ja] - m_up)
        row_i, row_j = active[ia], active[ja]
        lim_i = (c - theta[ri, row_i]) if ri == 0 else theta[ri, row_i]
        lim_j = theta[rj, row_j] if rj == 0 else (c - theta[rj, row_j])
        delta = min(-dg / eta, lim_i, lim_j)

        obj += delta * dg + 0.5 * delta * delta * eta
        trace.append(obj)
        updates += 1

        if delta == lim_i:
            theta[ri, row_i] = c if ri == 0 else 0.0
        else:
            theta[ri, row_i] += delta if ri == 0 else -delta
        if delta == lim_j:
            theta[rj, row_j] = 0.0 if rj == 0 else c
        else:
            theta[rj, row_j] -= delta if rj == 0 else -delta

        np.subtract(ki, kj, out=t)
        t *= delta
        upv -= t
        lowv -= t
        refresh(ri, ia, row_i)
        refresh(rj, ja, row_j)

    gap = max(gap, 0.0) if np.isfinite(gap) else 0.0
    beta = theta[0] - theta[1]
    nonbound = (theta > 0.0) & (theta < c)
    bias = float(np.mean(upv[nonbound])) if np.any(nonbound) else float(np.mean(y))
    keep = beta != 0.0
    sv, coeff = x[keep], beta[keep]
    exact = eps * float(np.sum(theta)) - float(y @ beta)
    if coeff.size:
        exact += 0.5 * float(coeff @ _kernel_matvec(sv, sv, coeff, gamma))
    return SvrModel(
        support_vectors=sv,
        coefficients=coeff,
        bias=bias,
        config=config,
        kkt_violation=gap,
        objective=exact,
        objective_trace=np.asarray(trace),
    )
