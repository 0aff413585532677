import re
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import lqts.metafeat
import lqts.retrieval
import lqts.similarity
from lqts import sampling, synth
from lqts.corpus import FaceSet, Gallery, ProxyTable
from lqts.errors import CorpusError, DimensionMismatchError, UsageError
from lqts.metafeat import build_training_corpus
from lqts.retrieval import (
    METHODS,
    PAIR_BLOCK,
    GalleryScorer,
    Ranker,
    RetrievalConfig,
    _blocks,
    save_ranking,
    select_proxies,
)
from lqts.similarity import Matches, fit_subspace, max_max_sim_batch
from lqts.svr import SvrConfig, SvrModel, predict

from conftest import random_set, ranker_score
import oracles
from oracles import (
    feature,
    match,
    max_max_sim,
    per_pair_select_proxies,
    score_lqts,
    score_simple,
)


def reference_blocks(keys, size):
    """The block walk as np.unique and flatnonzero give it: each key
    ascending, its positions ascending, cut every `size` positions."""
    for key in np.unique(keys).tolist():
        same = np.flatnonzero(keys == key)
        for at in range(0, same.size, size):
            yield key, same[at : at + size]


class TestBlocks:
    @given(
        keys=st.lists(st.integers(0, 6), max_size=40),
        size=st.integers(1, 8),
    )
    @settings(max_examples=300, deadline=None)
    @example(keys=[], size=1)
    @example(keys=[4], size=1)
    @example(keys=[2] * 9, size=4)
    @example(keys=[5, 0, 5, 5, 0, 5, 5], size=2)
    @example(keys=[3, 1, 3, 1], size=1)
    def test_equals_unique_walk(self, keys, size):
        keys = np.array(keys, dtype=np.intp)
        got = [(key, r.tolist()) for key, r in _blocks(keys, size)]
        want = [(key, r.tolist()) for key, r in reference_blocks(keys, size)]
        assert got == want
        assert all(type(key) is int for key, _ in got)


def constant_model(value: float) -> SvrModel:
    return SvrModel(
        support_vectors=np.empty((0, 5)),
        coefficients=np.empty(0),
        bias=value,
        config=SvrConfig(),
    )


def brute_force_proxy_table(gallery, k_p):
    """Independent oracle: full pairwise sort per set."""
    n = len(gallery)
    scores = np.zeros((n, n))
    for i in range(n):
        for j in range(n):
            if i != j:
                scores[i, j] = max_max_sim(gallery.sets[i], gallery.sets[j]).score
    entries = {}
    for i in range(n):
        order = sorted((j for j in range(n) if j != i), key=lambda j: (-scores[i, j], j))
        entries[gallery.set_ids[i]] = tuple(
            (gallery.set_ids[j], scores[i, j]) for j in order[:k_p]
        )
    return entries


@st.composite
def scorer_cases(draw, interleaved=False):
    """A gallery, an external set and an aligned pair list.

    Sets are ragged, one has a single exemplar and some are copies of
    others. Exemplars are Gaussian, signed one-hot or ternary rows: the
    last two give exact cosine ties, repeated exemplars, rank-deficient
    subspaces (k < DEFAULT_SUBSPACE_DIM) and orthogonal ones (first
    canonical correlation 0). The pair list holds self pairs too.

    With `interleaved`, exemplars are Gaussian and the gallery's set sizes
    cycle through two or three sizes k ≤ min(d, DEFAULT_SUBSPACE_DIM), so
    k is also each subspace's dimension: under both baselines no size
    group is contiguous in gallery order. The external set has a size no
    gallery set has.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(4 if interleaved else 2, 8))
    kind = "normal" if interleaved else draw(st.sampled_from(["normal", "onehot", "ternary"]))

    def exemplars(m):
        if kind == "normal":
            return rng.normal(size=(m, d))
        if kind == "onehot":
            x = np.zeros((m, d))
            x[np.arange(m), rng.integers(0, d, size=m)] = rng.choice([-1.0, 1.0], size=m)
            return x
        x = rng.integers(-1, 2, size=(m, d)).astype(float)
        x[~x.any(axis=1), 0] = 1.0
        return x

    if interleaved:
        ks = range(1, min(d, 6) + 1)
        cycle = draw(st.lists(st.sampled_from(ks), min_size=2, max_size=3, unique=True))
        sizes = [cycle[p % len(cycle)] for p in range(draw(st.integers(2 * len(cycle), 9)))]
        gallery = Gallery(sets=tuple(FaceSet(f"s{p}", exemplars(m)) for p, m in enumerate(sizes)))
        x = exemplars(draw(st.sampled_from([k for k in ks if k not in cycle])))
    else:
        sizes = [1] + draw(st.lists(st.integers(1, 9), min_size=1, max_size=6))
        contents = [exemplars(m) for m in sizes]
        copies = draw(st.lists(st.integers(0, len(sizes) - 1), max_size=2))
        contents += [contents[i] for i in copies]
        order = draw(st.permutations(range(len(contents))))
        gallery = Gallery(sets=tuple(FaceSet(f"s{i}", contents[j]) for i, j in enumerate(order)))
        like = draw(st.sampled_from([None, *range(len(gallery))]))
        x = exemplars(draw(st.integers(1, 9))) if like is None else gallery.sets[like].exemplars
    n = len(gallery)
    index = st.integers(0, n - 1)
    pairs = draw(st.lists(st.tuples(index, index), max_size=30))
    i, j = np.array(pairs, dtype=np.intp).reshape(-1, 2).T
    return gallery, FaceSet("external", x), i, j


class TestSelectProxies:
    def test_identical_sets_are_each_others_proxies(self, rng):
        x = np.abs(rng.normal(size=(3, 4))) + 0.1
        g = Gallery(
            sets=(
                FaceSet("a", x),
                FaceSet("b", x.copy()),
                FaceSet("c", rng.normal(size=(3, 4)) + 5.0),
            )
        )
        table = select_proxies(g, "exemplar", 1)
        assert table.proxies_of("a")[0][0] == "b"
        assert table.proxies_of("a")[0][1] == pytest.approx(1.0)

    def test_k0_gives_empty_lists(self, rng):
        g = Gallery(sets=tuple(random_set(rng, f"s{i}", n=3, d=4) for i in range(4)))
        table = select_proxies(g, "exemplar", 0)
        assert all(table.proxies_of(sid) == () for sid in g.set_ids)

    def test_matches_brute_force(self, rng):
        g = Gallery(sets=tuple(random_set(rng, f"s{i}", n=3, d=5) for i in range(5)))
        table = select_proxies(g, "exemplar", 3)
        oracle = brute_force_proxy_table(g, 3)
        for sid in g.set_ids:
            got = table.proxies_of(sid)
            want = oracle[sid]
            assert [p for p, _ in got] == [p for p, _ in want]
            np.testing.assert_allclose([s for _, s in got], [s for _, s in want], atol=1e-12)

    def test_k_too_large(self, rng):
        g = Gallery(sets=tuple(random_set(rng, f"s{i}", n=2, d=3) for i in range(3)))
        with pytest.raises(UsageError):
            select_proxies(g, "exemplar", 3)

    @pytest.mark.parametrize("k_p", [True, 2.0, "2"])
    def test_k_must_be_an_integer(self, rng, k_p):
        # True would reach the table as k_p=True, which load_proxies rejects
        # once saved; 2.0 would fail slicing the argsort
        g = Gallery(sets=tuple(random_set(rng, f"s{i}", n=2, d=3) for i in range(4)))
        with pytest.raises(UsageError, match="k_p must be an integer >= 0"):
            select_proxies(g, "exemplar", k_p)

    @pytest.mark.parametrize("baseline", ["exemplar", "subspace"])
    def test_acceptance_gallery_matches_per_pair_oracle(self, baseline):
        if baseline == "exemplar":
            gallery, _ = synth.generate(synth.SynthConfig(seed=11))
            gallery = Gallery(sets=tuple(sampling.robust_select(s, 10) for s in gallery))
        else:
            gallery, _ = synth.generate(synth.SynthConfig(seed=11, noise=0.25, set_spacing=2.2))
        want = per_pair_select_proxies(gallery, baseline, 10)
        assert select_proxies(gallery, baseline, 10) == want

    @pytest.mark.parametrize("baseline", ["exemplar", "subspace"])
    @given(case=scorer_cases(), k_p=st.integers(0, 12))
    @settings(max_examples=60, deadline=None)
    def test_matches_per_pair_oracle_with_ties(self, baseline, case, k_p):
        gallery = case[0]
        k_p = min(k_p, len(gallery) - 1)
        want = per_pair_select_proxies(gallery, baseline, k_p)
        assert select_proxies(gallery, baseline, k_p) == want


def lqts_config(model):
    return RetrievalConfig(method="lqts", model=model)


class TestScoreLqts:
    """Hand cases of the lqts rule, for the oracle and the Ranker alike."""

    def test_identical_content_scores_one(self, rng):
        s = random_set(rng, "q", n=3, d=4)
        t = FaceSet("t", s.exemplars.copy())
        assert score_lqts(s, t, [], constant_model(0.0)) == pytest.approx(1.0)
        assert ranker_score(s, t, [], lqts_config(constant_model(0.0))) == pytest.approx(1.0)

    def test_empty_proxies_reduce_to_baseline(self, rng):
        q = random_set(rng, "q", n=3, d=4)
        t = random_set(rng, "t", n=3, d=4)
        base = max_max_sim(q, t).score
        assert score_lqts(q, t, [], constant_model(0.99)) == pytest.approx(base)
        assert ranker_score(q, t, [], lqts_config(constant_model(0.99))) == base

    def test_constant_stub_model_wins_over_low_baseline(self):
        q = FaceSet("q", np.array([[1.0, 0.0, 0.0]]))
        t = FaceSet("t", np.array([[np.cos(1.26), np.sin(1.26), 0.0]]))  # baseline ~0.3
        p = FaceSet("p", np.array([[0.5, 0.5, 0.5]]))
        assert max_max_sim(q, t).score == pytest.approx(0.306, abs=0.01)
        assert score_lqts(q, t, [p], constant_model(0.9)) == pytest.approx(0.9)
        assert ranker_score(q, t, [p], lqts_config(constant_model(0.9))) == pytest.approx(0.9)

    def test_never_below_baseline(self, rng):
        for _ in range(15):
            q = random_set(rng, "q", n=3, d=5)
            t = random_set(rng, "t", n=3, d=5)
            p = random_set(rng, "p", n=3, d=5)
            base = max_max_sim(q, t).score
            model = constant_model(float(rng.random() * 2 - 0.5))
            for s in (score_lqts(q, t, [p], model), ranker_score(q, t, [p], lqts_config(model))):
                assert s >= base - 1e-12
                assert 0.0 <= s <= 1.0

    def test_prediction_clamped(self, rng):
        q = FaceSet("q", np.array([[1.0, 0.0]]))
        t = FaceSet("t", np.array([[0.0, 1.0]]))
        p = FaceSet("p", np.array([[1.0, 1.0]]))
        assert score_lqts(q, t, [p], constant_model(7.5)) == 1.0
        assert score_lqts(q, t, [p], constant_model(-3.0)) == 0.0
        assert ranker_score(q, t, [p], lqts_config(constant_model(7.5))) == 1.0
        assert ranker_score(q, t, [p], lqts_config(constant_model(-3.0))) == 0.0

    def test_subspace_dispatch(self, rng):
        q = fit_subspace(random_set(rng, "q", n=4, d=6), k=2)
        t = fit_subspace(random_set(rng, "t", n=4, d=6), k=2)
        p = fit_subspace(random_set(rng, "p", n=4, d=6), k=2)
        s = score_lqts(q, t, [p], constant_model(0.5))
        assert 0.0 <= s <= 1.0


class TestScoreSimple:
    """Hand cases of the combiner rules, for the oracle and the Ranker alike."""

    def setup_method(self):
        # singleton sets with prescribed pairwise cosines to the proxy:
        # rho_qp = 0.6, rho_pt = 0.8, baseline(q, t) tiny
        self.q = FaceSet("q", np.array([[0.6, 0.8, 0.0]]))
        self.p = FaceSet("p", np.array([[1.0, 0.0, 0.0]]))
        self.t = FaceSet("t", np.array([[0.8, 0.0, 0.6]]))

    def both(self, rule, proxies):
        config = RetrievalConfig(method=rule)
        return (
            score_simple(self.q, self.t, proxies, rule),
            ranker_score(self.q, self.t, proxies, config),
        )

    def test_arith(self):
        for got in self.both("arith", [self.p]):
            assert got == pytest.approx(0.5 * (0.6 + 0.8), abs=1e-9)

    def test_geom_hand_values(self):
        # rule evaluated directly on the prescribed similarities
        for got in self.both("geom", [self.p]):
            assert got == pytest.approx(np.sqrt(0.6 * 0.8), abs=1e-9)

    def test_quad(self):
        for got in self.both("quad", [self.p]):
            assert got == pytest.approx(np.sqrt(0.5 * 0.36 + 0.5 * 0.64), abs=1e-6)
            assert got == pytest.approx(0.707107, abs=1e-6)

    def test_no_proxies_reduces_to_baseline(self):
        base = max_max_sim(self.q, self.t).score
        for got in self.both("arith", []):
            assert got == pytest.approx(base)


class TestRankGallery:
    def test_extreme_scores(self):
        g = Gallery(
            sets=(
                FaceSet("query", np.array([[1.0, 0.0]])),
                FaceSet("same", np.array([[2.0, 0.0]])),
                FaceSet("orth", np.array([[0.0, 1.0]])),
            )
        )
        r = Ranker(g, RetrievalConfig(method="baseline")).rank("query")
        assert r.ids() == ["same", "orth"]
        assert r.ranking[0][1] == pytest.approx(1.0)
        assert r.ranking[1][1] == pytest.approx(0.0)

    def test_lqts_with_k0_equals_baseline(self, rng):
        g = Gallery(sets=tuple(random_set(rng, f"s{i}", n=3, d=5) for i in range(6)))
        base = Ranker(g, RetrievalConfig(method="baseline")).rank("s0")
        config = RetrievalConfig(method="lqts", k_p=0, model=constant_model(0.9))
        lqts = Ranker(g, config).rank("s0")
        assert base.ids() == lqts.ids()
        np.testing.assert_allclose(
            [s for _, s in base.ranking], [s for _, s in lqts.ranking], atol=1e-12
        )

    @pytest.mark.parametrize("set_id", ["t\tab", "t\nab", "t\udcff"], ids=["tab", "lf", "non-utf8"])
    def test_save_ranking_rejects_an_id_that_splits_a_row(self, rng, tmp_path, set_id):
        g = Gallery(sets=(random_set(rng, "q", n=3, d=5), random_set(rng, set_id, n=3, d=5)))
        result = Ranker(g, RetrievalConfig(method="baseline")).rank("q")
        with pytest.raises(CorpusError, match=re.escape(f"set {set_id!r}: has a tab or line break")):
            save_ranking(result, tmp_path / "ranking.tsv")
        assert not any(tmp_path.iterdir())

    @pytest.mark.parametrize("baseline", ["exemplar", "subspace"])
    def test_query_never_ranks_itself(self, rng, baseline):
        # every proxy row is scored, those whose target is the query too;
        # a model that scores every row 1.0 must still leave the query out.
        # Every score ties at 1.0, so the other sets keep gallery order
        g = Gallery(sets=tuple(random_set(rng, f"s{i}", n=4, d=6) for i in range(7)))
        table = select_proxies(g, baseline, 3)
        config = RetrievalConfig(baseline=baseline, method="lqts", k_p=3, model=constant_model(1.0))
        ranker = Ranker(g, config, table)
        for sid in g.set_ids:
            got = ranker.rank(sid)
            assert got.ids() == [other for other in g.set_ids if other != sid]
            assert all(score == 1.0 for _, score in got.ranking)

    def test_unknown_query_id(self, rng):
        g = Gallery(sets=tuple(random_set(rng, f"s{i}", n=3, d=5) for i in range(3)))
        with pytest.raises(CorpusError):
            Ranker(g, RetrievalConfig()).rank("missing")

    @pytest.mark.parametrize("query", [3, None, np.zeros((2, 5))])
    def test_query_of_another_type(self, rng, query):
        g = Gallery(sets=tuple(random_set(rng, f"s{i}", n=3, d=5) for i in range(3)))
        with pytest.raises(UsageError, match="query must be a set_id or a FaceSet"):
            Ranker(g, RetrievalConfig()).rank(query)

    def test_lqts_matches_straight_line_oracle(self, rng):
        # independent re-implementation: per-target feature construction
        # plus predict, no caching or batching
        sets = tuple(random_set(rng, f"s{i}", n=4, d=6, positive=True) for i in range(10))
        g = Gallery(sets=sets)
        table = select_proxies(g, "exemplar", 3)
        beta = rng.normal(size=8)
        beta -= beta.mean()
        model = SvrModel(
            support_vectors=rng.random((8, 5)),
            coefficients=beta,
            bias=0.2,
            config=SvrConfig(),
        )
        config = RetrievalConfig(method="lqts", k_p=3, model=model)
        got = Ranker(g, config, table).rank("s0")

        query = g.get("s0")
        expected_scores = {}
        for target in sets[1:]:
            best = max_max_sim(query, target).score
            for pid, _ in table.proxies_of(target.set_id)[:3]:
                feat = feature(query, target, g.get(pid))
                est = min(max(predict(model, feat), 0.0), 1.0)
                best = max(best, est)
            expected_scores[target.set_id] = best
        order = sorted(
            range(1, 10), key=lambda j: (-expected_scores[g.set_ids[j]], j)
        )
        assert got.ids() == [g.set_ids[j] for j in order]
        for sid, score in got.ranking:
            assert score == pytest.approx(expected_scores[sid], abs=1e-12)

    def test_simple_rules_match_per_target_scorer(self, rng):
        sets = tuple(random_set(rng, f"s{i}", n=3, d=5, positive=True) for i in range(7))
        g = Gallery(sets=sets)
        table = select_proxies(g, "exemplar", 2)
        for rule in ("arith", "geom", "quad"):
            config = RetrievalConfig(method=rule, k_p=2)
            got = Ranker(g, config, table).rank("s0")
            query = g.get("s0")
            for sid, score in got.ranking:
                proxies = [g.get(pid) for pid, _ in table.proxies_of(sid)[:2]]
                assert score == pytest.approx(
                    score_simple(query, g.get(sid), proxies, rule), abs=1e-12
                )

    def test_duplicate_targets_tie_under_lqts(self):
        # BLAS rounds a row of a batched product by its position in the
        # batch, so equal feature rows could predict values ulps apart
        for seed in range(50):
            rng = np.random.default_rng(seed)
            base = [np.abs(rng.normal(size=(3, 6))) + 0.05 for _ in range(5)]
            sets = [FaceSet(f"s{i}", x) for i, x in enumerate(base)] + [FaceSet("dup", base[1])]
            g = Gallery(sets=tuple(sets))
            table = select_proxies(g, "exemplar", 2)
            beta = rng.normal(size=16)
            beta -= beta.mean()
            model = SvrModel(
                support_vectors=rng.random((16, 5)), coefficients=beta, bias=0.5, config=SvrConfig()
            )
            config = RetrievalConfig(method="lqts", k_p=2, model=model)
            for query in ("s0", "s2", "s3", "s4"):
                got = Ranker(g, config, table).rank(query)
                scores = dict(got.ranking)
                assert scores["s1"] == scores["dup"]
                assert got.ids().index("s1") < got.ids().index("dup")

    def test_external_query_ranks_whole_gallery(self, rng):
        g = Gallery(sets=tuple(random_set(rng, f"s{i}", n=3, d=5) for i in range(4)))
        external = random_set(rng, "ext", n=3, d=5)
        r = Ranker(g, RetrievalConfig(method="baseline")).rank(external)
        assert sorted(r.ids()) == sorted(g.set_ids)
        assert r.query_id == "ext"

    def test_external_exemplar_query_used_as_given(self, rng):
        # past 10 exemplars a query is scored whole: Ranker reduces nothing
        g = Gallery(sets=tuple(random_set(rng, f"s{i}", n=3, d=5) for i in range(4)))
        external = random_set(rng, "ext", n=15, d=5)
        r = Ranker(g, RetrievalConfig(method="baseline")).rank(external)
        assert dict(r.ranking) == {s.set_id: max_max_sim(external, s).score for s in g}

    def test_scores_non_increasing_and_permutation(self, rng):
        g = Gallery(sets=tuple(random_set(rng, f"s{i}", n=3, d=5) for i in range(8)))
        r = Ranker(g, RetrievalConfig(method="baseline")).rank("s3")
        scores = [s for _, s in r.ranking]
        assert all(a >= b for a, b in zip(scores, scores[1:]))
        assert sorted(r.ids()) == sorted(sid for sid in g.set_ids if sid != "s3")

    @pytest.mark.parametrize("method", ["arith", "lqts"])
    def test_more_proxies_than_the_table_holds(self, rng, method):
        g = Gallery(sets=tuple(random_set(rng, f"s{i}", n=3, d=5) for i in range(8)))
        table = select_proxies(g, "exemplar", 2)
        config = RetrievalConfig(method=method, k_p=6, model=constant_model(0.5))
        with pytest.raises(UsageError, match="k_p=6 exceeds the proxy table's k_p=2"):
            Ranker(g, config, table)

    @pytest.mark.parametrize("method", ["arith", "lqts"])
    def test_proxy_table_of_another_gallery(self, rng, method):
        g = Gallery(sets=tuple(random_set(rng, f"s{i}", n=3, d=5) for i in range(4)))
        table = ProxyTable(k_p=1, entries={"s0": (("s1", 0.9),), "elsewhere": (("s2", 0.8),)})
        config = RetrievalConfig(method=method, k_p=1, model=constant_model(0.5))
        with pytest.raises(CorpusError, match="unknown set_id 'elsewhere'"):
            Ranker(g, config, table)

    def test_deterministic(self, rng):
        g = Gallery(sets=tuple(random_set(rng, f"s{i}", n=3, d=5) for i in range(6)))
        table = select_proxies(g, "exemplar", 2)
        config = RetrievalConfig(method="lqts", k_p=2, model=constant_model(0.5))
        assert Ranker(g, config, table).rank("s1") == Ranker(g, config, table).rank("s1")


def representations(gallery, baseline):
    """One max_max_sim or max_corr argument per set, reused by every pair
    of its set, so that a set compared with itself passes one object twice
    and `match` applies the self-pair rule."""
    return list(gallery.sets) if baseline == "exemplar" else [fit_subspace(s) for s in gallery.sets]


def pair_function_results(lefts, rights):
    """(score, mode_a, mode_b) rows of the scalar pair functions over
    aligned pairs of representations."""
    return [match(a, b)[:3] for a, b in zip(lefts, rights)]


def assert_same_matches(got, want, lefts, rights):
    """got's scores, and its modes in the sets lefts and rights
    (`oracles.ambient_pair`), equal the rows want."""
    assert got.score.tolist() == [score for score, _, _ in want]
    modes_a, modes_b = oracles.ambient_pair(got, lefts, rights)
    for p, (_, mode_a, mode_b) in enumerate(want):
        assert np.array_equal(modes_a[p], mode_a)
        assert np.array_equal(modes_b[p], mode_b)


class TestGalleryScorer:
    """The batched kernels against the scalar max_max_sim and max_corr, pair
    by pair: equal scores and, from the mode coordinates, equal ambient
    modes, ties included, and a gallery set against itself by the self-pair
    rule."""

    @pytest.mark.parametrize("baseline", ["exemplar", "subspace"])
    @given(
        data=st.data(), interleaved=st.booleans(), block=st.sampled_from([2, PAIR_BLOCK])
    )
    @settings(max_examples=200, deadline=None)
    def test_every_call_form_equals_pair_functions(self, baseline, data, interleaved, block):
        # every call is made, and its scores read, before any mode is read;
        # the modes then equal the pair functions' too, and a second read of
        # the coordinates returns the same arrays. With 2 pairs per kernel
        # call, rows and pair lists span several blocks of each size group.
        gallery, external, i, j = data.draw(scorer_cases(interleaved=interleaved))
        reps = representations(gallery, baseline)
        ext = external if baseline == "exemplar" else fit_subspace(external)
        scorer = GalleryScorer(gallery, baseline)
        n = len(gallery)
        if interleaved:
            for k in set(scorer.ks.tolist()):
                at = np.flatnonzero(scorer.ks == k)
                assert at[-1] - at[0] + 1 > at.size
            assert len(external.unit_exemplars if baseline == "exemplar" else ext) not in scorer.ks
        with mock.patch.object(lqts.retrieval, "PAIR_BLOCK", block):
            # query rows, the query against itself included
            calls = [(scorer.pair(q, range(n)), [reps[q]] * n, reps) for q in range(n)]
            # upper-triangle rows, as select_proxies makes them
            for q in range(n):
                upper = range(q + 1, n)
                calls.append((scorer.pair(q, upper), [reps[q]] * len(upper), reps[q + 1 :]))
            calls.append((scorer.pair(i, j), [reps[p] for p in i], [reps[p] for p in j]))
            calls.append((scorer.query(external, range(n)), [ext] * n, reps))
            half = range(n // 2, n)
            calls.append((scorer.query(external, half), [ext] * len(half), reps[n // 2 :]))
            # one set broadcast against the pair list's right side, in any order
            calls.append((scorer.pair(n - 1, j), [reps[-1]] * j.size, [reps[p] for p in j]))
        wants = [pair_function_results(lefts, rights) for _, lefts, rights in calls]
        for (got, _, _), want in zip(calls, wants):
            assert got.score.tolist() == [score for score, _, _ in want]
        for (got, lefts, rights), want in zip(calls, wants):
            assert_same_matches(got, want, lefts, rights)
            assert got.coords_a is got.coords_a and got.coords_b is got.coords_b

    @pytest.mark.parametrize("baseline", ["exemplar", "subspace"])
    @given(
        data=st.data(), interleaved=st.booleans(), block=st.sampled_from([2, PAIR_BLOCK])
    )
    @settings(max_examples=100, deadline=None)
    def test_broadcast_pair_list_is_its_row_gathered(self, baseline, data, interleaved, block):
        # one set against any index array, repeats and any order included,
        # is that set's range row at those positions, scores and both sides'
        # coordinates bit for bit; the list's coordinates are as wide as its
        # widest set, the row's as the gallery's, and zero past that
        gallery = data.draw(scorer_cases(interleaved=interleaved))[0]
        n = len(gallery)
        q = data.draw(st.integers(0, n - 1))
        j = np.array(data.draw(st.lists(st.integers(0, n - 1), max_size=3 * n)), dtype=np.intp)
        scorer = GalleryScorer(gallery, baseline)
        with mock.patch.object(lqts.retrieval, "PAIR_BLOCK", block):
            row, got = scorer.pair(q, range(n)), scorer.pair(q, j)
        assert got.score.tobytes() == row.score[j].tobytes()
        for have, want in zip(got.coords, row.coords):
            padded = np.zeros_like(want[j])
            padded[:, : have.shape[1]] = have
            assert padded.tobytes() == want[j].tobytes()

    @pytest.mark.parametrize("baseline", ["exemplar", "subspace"])
    def test_query_rows_of_wide_sets(self, rng, baseline):
        # at this size BLAS computes a set against its own buffer by its
        # symmetric routine, whose rounding would move the exemplar argmax;
        # the self-pair rule gives score 1 and the first exemplar or basis
        # vector on both sides whatever the BLAS
        gallery = Gallery(sets=tuple(random_set(rng, f"s{i}", n=10, d=96) for i in range(4)))
        reps = representations(gallery, baseline)
        scorer = GalleryScorer(gallery, baseline)
        for q, s in enumerate(gallery.sets):
            got = scorer.pair(q, range(len(gallery)))
            mode_a, mode_b = oracles.ambient_pair(got, reps[q], reps)
            first = s.unit_exemplars[0] if baseline == "exemplar" else s.subspace[0]
            assert got.score[q] == 1.0
            assert np.array_equal(mode_a[q], first)
            assert np.array_equal(mode_b[q], first)
            others = [p for p in range(len(gallery)) if p != q]
            lefts, rights = [reps[q]] * len(others), [reps[p] for p in others]
            want = pair_function_results(lefts, rights)
            assert_same_matches(scorer.pair(q, np.array(others)), want, lefts, rights)

    @pytest.mark.parametrize("baseline", ["exemplar", "subspace"])
    def test_rows_read_the_storage_in_place(self, rng, baseline, monkeypatch):
        # sizes 2, 3, 2, 3, ...: every kernel call of a row reads the
        # scorer's own arrays, and a row makes one pass over each size's
        # slice, the set itself included, in blocks of 3. A row that split
        # the slice around the set would make two calls for the 3 sets of
        # size 3 when the set is the middle one
        gallery = Gallery(sets=tuple(random_set(rng, f"s{p}", n=2 + p % 2, d=5) for p in range(7)))
        scorer = GalleryScorer(gallery, baseline)
        stored = list(scorer.stacks.values())
        assert sorted(scorer.stacks) == [2, 3]
        compared = []
        real_compare = GalleryScorer.compare

        def spy(self, a, b):
            compared.append((a, b))
            return real_compare(self, a, b)

        monkeypatch.setattr(GalleryScorer, "compare", spy)
        monkeypatch.setattr(lqts.retrieval, "PAIR_BLOCK", 3)
        n = len(gallery)
        rows = [(q, row) for q in range(n) for row in (range(n), range(q + 1, n))]
        rows.append((None, range(n)))
        for q, row in rows:
            compared.clear()
            if q is None:
                scorer.query(random_set(rng, "ext", n=4, d=5), row)
            else:
                scorer.pair(q, row)
            for a, b in compared:
                assert any(np.shares_memory(b, s) for s in stored)
                if q is not None:
                    assert np.shares_memory(a, scorer.stacks[scorer.ks[q]])
            assert sum(len(b) for _, b in compared) == len(row)
            per_size = np.unique(scorer.ks[row], return_counts=True)[1]
            assert len(compared) == sum(-(-n_k // 3) for n_k in per_size.tolist())

    @pytest.mark.parametrize("baseline", ["exemplar", "subspace"])
    @pytest.mark.parametrize("pairs", [PAIR_BLOCK, PAIR_BLOCK + 1])
    def test_self_pairs_replace_the_kernel_result(self, rng, baseline, pairs, monkeypatch):
        # a kernel that gets every pair wrong, NaN coordinates built on
        # read under the subspace baseline as max_corr_batch builds them: a
        # set's entry against itself still reads score 1 and its row 0 on
        # both sides, in every query row and in a pair list of one kernel
        # block and of a longer list
        gallery = Gallery(sets=tuple(random_set(rng, f"s{p}", n=2 + p % 2, d=5) for p in range(7)))
        scorer = GalleryScorer(gallery, baseline)
        reps = representations(gallery, baseline)
        first = np.array([
            s.unit_exemplars[0] if baseline == "exemplar" else s.subspace[0] for s in gallery.sets
        ])

        def wrong(self, a, b):
            coords = np.full((2, len(b), b.shape[1]), np.nan)
            if baseline == "subspace":
                return Matches(np.full(len(b), -1.0), (lambda _: coords[0], lambda _: coords[1]))
            return Matches(np.full(len(b), -1.0), coords)

        monkeypatch.setattr(GalleryScorer, "compare", wrong)
        n = len(gallery)
        i = rng.integers(0, n, size=pairs)
        j = (i + rng.integers(1, n, size=pairs)) % n
        j[::3] = i[::3]
        calls = [(scorer.pair(q, range(n)), np.full(n, q), np.arange(n)) for q in range(n)]
        calls.append((scorer.pair(i, j), i, j))
        for got, left, right in calls:
            own = left == right
            sides = [reps[x] for x in left], [reps[x] for x in right]
            mode_a, mode_b = oracles.ambient_pair(got, *sides)
            assert np.all(got.score[own] == 1.0) and np.all(got.score[~own] == -1.0)
            assert np.array_equal(mode_a[own], first[left[own]])
            assert np.array_equal(mode_b[own], first[left[own]])
            assert np.isnan(mode_a[~own]).all() and np.isnan(mode_b[~own]).all()

    @pytest.mark.parametrize("baseline", ["exemplar", "subspace"])
    def test_pair_list_holds_one_block(self, rng, baseline, monkeypatch):
        # with four pairs per kernel call, a call that gathers every pair's
        # sets before its kernel calls (2 k d floats a pair) peaks far above
        # one that gathers per call, and a score-only Matches that kept the
        # gathered sets would hold them. When the pairs double, peak and
        # held memory may grow by the pairs' outputs only, which 2d + 4
        # floats a pair bound: a score, what the kernel keeps to build the
        # coordinates on read (the two argmax indices under the exemplar
        # baseline; M, MᵀM and λ₁, 2k² + 1 floats, under the subspace
        # baseline) and three indices a pair, and about 1 KB of Python
        # objects a block.
        d, block = 64, 4
        gallery = Gallery(sets=tuple(random_set(rng, f"s{p}", n=6, d=d) for p in range(12)))
        scorer = GalleryScorer(gallery, baseline)
        monkeypatch.setattr(lqts.retrieval, "PAIR_BLOCK", block)

        def traced(n):
            i = rng.integers(0, 12, size=n)
            j = (i + rng.integers(1, 12, size=n)) % 12
            scorer.pair(i, j)
            tracemalloc.start()
            try:
                res = scorer.pair(i, j)
                held, peak = tracemalloc.get_traced_memory()
            finally:
                tracemalloc.stop()
            assert res.score.size == n
            return np.array([held, peak])

        small, large = traced(256), traced(512)
        outputs = 256 * 8 * (2 * d + 4) + 256 // block * 1024
        assert np.all(large - small < outputs)

    @pytest.mark.parametrize("baseline", ["exemplar", "subspace"])
    def test_long_pair_list_reads_coords_without_a_second_call(self, rng, baseline, monkeypatch):
        # a pair list longer than PAIR_BLOCK keeps its kernel results, which
        # hold per-pair products and no gathered set, so reading its
        # coordinates repeats no kernel call
        gallery = Gallery(sets=tuple(random_set(rng, f"s{p}", n=2 + p % 2, d=5) for p in range(7)))
        scorer = GalleryScorer(gallery, baseline)
        compared = []
        real_compare = GalleryScorer.compare

        def counting(self, a, b):
            compared.append(len(b))
            return real_compare(self, a, b)

        monkeypatch.setattr(GalleryScorer, "compare", counting)
        i = rng.integers(0, 7, size=3 * PAIR_BLOCK)
        j = (i + rng.integers(1, 7, size=i.size)) % 7
        res = scorer.pair(i, j)
        assert sum(compared) == i.size and len(compared) > 1
        calls = len(compared)
        res.coords
        assert len(compared) == calls

    def test_row_positions_outside_the_gallery_raise(self, rng):
        gallery = Gallery(sets=tuple(random_set(rng, f"s{p}", n=3, d=4) for p in range(3)))
        scorer = GalleryScorer(gallery, "exemplar")
        for j in (range(0, 4), range(-1, 1), range(2, 6)):
            with pytest.raises(IndexError):
                scorer.pair(0, j)
            with pytest.raises(IndexError):
                scorer.query(gallery.sets[0], j)
        for i in (-1, 3):
            with pytest.raises(IndexError):
                scorer.pair(i, range(3))
        assert scorer.pair(0, range(3, 3)).score.size == 0

    def test_pair_list_positions_outside_the_gallery_raise(self, rng):
        # -1 would otherwise read the last set, and n the end of an array
        gallery = Gallery(sets=tuple(random_set(rng, f"s{p}", n=3, d=4) for p in range(3)))
        scorer = GalleryScorer(gallery, "exemplar")
        for i, j in ((0, [0, -1]), (0, [1, 3]), ([-1, 0], [1, 2]), ([2, 3], 0)):
            with pytest.raises(IndexError):
                scorer.pair(i, j)
        assert scorer.pair([], []).score.size == 0

    @pytest.mark.parametrize("baseline", ["exemplar", "subspace"])
    def test_two_scalars_are_a_pair_list_of_one(self, rng, baseline):
        gallery = Gallery(sets=tuple(random_set(rng, f"s{p}", n=2 + p, d=5) for p in range(3)))
        scorer = GalleryScorer(gallery, baseline)
        for i, j in ((0, 1), (2, 0), (1, 1)):
            got, want = scorer.pair(i, j), scorer.pair([i], [j])
            assert got.score.tobytes() == want.score.tobytes()
            for have, expected in zip(got.coords, want.coords):
                assert have.tobytes() == expected.tobytes()

    def test_members_are_each_sizes_gallery_positions(self, rng):
        sizes = [3, 1, 3, 2, 1, 3, 2]
        sets = (random_set(rng, f"s{p}", n=m, d=4) for p, m in enumerate(sizes))
        gallery = Gallery(sets=tuple(sets))
        scorer = GalleryScorer(gallery, "exemplar")
        ks = scorer.ks
        want = {k: np.flatnonzero(ks == k) for k in np.unique(ks).tolist()}
        assert list(scorer.members) == list(want)
        for k, m in want.items():
            assert scorer.members[k].tolist() == m.tolist()

    def test_query_takes_a_range(self, rng):
        gallery = Gallery(sets=tuple(random_set(rng, f"s{p}", n=3, d=4) for p in range(3)))
        scorer = GalleryScorer(gallery, "exemplar")
        for j in ([0, 1], np.arange(3), range(0, 3, 2)):
            with pytest.raises(TypeError):
                scorer.query(gallery.sets[0], j)

    @given(case=scorer_cases())
    @settings(max_examples=100, deadline=None)
    def test_exemplar_kernel_mode_indices(self, case):
        gallery, external, _, _ = case
        for a in (*gallery.sets, external):
            for m in sorted({s.size for s in gallery.sets}):
                group = [s for s in gallery.sets if s.size == m]
                stacked = np.stack([s.unit_exemplars for s in group])
                got = max_max_sim_batch(a.unit_exemplars, stacked)
                mode_a, mode_b = oracles.ambient_pair(got, a, stacked)
                want = [max_max_sim(a, b) for b in group]
                assert got.score.tolist() == [r.score for r in want]
                assert np.array_equal(mode_a, [a.unit_exemplars[r.index_a] for r in want])
                assert np.array_equal(
                    mode_b, [b.unit_exemplars[r.index_b] for b, r in zip(group, want)]
                )

    def test_exact_tie_resolves_row_major(self):
        # both (0, 1) and (1, 0) score 1; their modes tell them apart
        a = np.array([[[1.0, 0.0], [0.0, 1.0]]])
        b = np.array([[[0.0, 1.0], [1.0, 0.0]]])
        got = max_max_sim_batch(a, b)
        mode_a, mode_b = oracles.ambient_pair(got, a, b)
        assert got.score[0] == 1.0
        assert np.array_equal(mode_a[0], a[0, 0])
        assert np.array_equal(mode_b[0], b[0, 1])

    @pytest.mark.parametrize("baseline", ["exemplar", "subspace"])
    def test_external_query_of_another_dimension(self, rng, baseline):
        g = Gallery(sets=tuple(random_set(rng, f"s{i}", n=3, d=5) for i in range(3)))
        config = RetrievalConfig(baseline=baseline)
        with pytest.raises(DimensionMismatchError):
            Ranker(g, config).rank(random_set(rng, "ext", n=3, d=4))

    def test_each_set_fitted_once_across_callers(self, rng, monkeypatch):
        g = Gallery(sets=tuple(random_set(rng, f"s{i}", n=4, d=6) for i in range(6)))
        fitted = []
        real_fit = lqts.similarity.fit_subspace

        def counting_fit(s, *args):
            fitted.append(s.set_id)
            return real_fit(s, *args)

        for module in (lqts.similarity, lqts.retrieval, lqts.metafeat):
            monkeypatch.setattr(module, "fit_subspace", counting_fit)
        table = select_proxies(g, "subspace", 2)
        build_training_corpus(g, table, "subspace", cap=10**6)
        for method in ("baseline", "arith", "lqts"):
            config = RetrievalConfig(
                baseline="subspace", method=method, k_p=2, model=constant_model(0.5)
            )
            ranker = Ranker(g, config, table)
            for q in g.set_ids:
                ranker.rank(q)
        assert sorted(fitted) == sorted(g.set_ids)

    def test_score_only_callers_skip_the_mode_step(self, rng):
        # proxy selection and the baseline and combiner rankings read only
        # scores, so the subspace kernel never builds a mode for them and
        # runs eigvalsh alone, no eigh and no inverse-iteration solve. An
        # lqts Ranker reads both sides' coordinates of its proxy-target
        # pairs when built, v₁ by the inverting step and u₁ from v₁; a query
        # row then reads its gallery side's v₁ alone, never u₁
        g = Gallery(sets=tuple(random_set(rng, f"s{i}", n=8, d=10) for i in range(8)))
        model = constant_model(0.5)
        configs = {
            method: RetrievalConfig(baseline="subspace", method=method, k_p=2, model=model)
            for method in ("baseline", "arith", "lqts")
        }
        table = select_proxies(g, "subspace", 2)
        want = {m: Ranker(g, configs[m], table).rank("s0") for m in ("baseline", "arith")}
        built = Ranker(g, configs["lqts"], table)
        queries = ("s0", random_set(rng, "outside", n=8, d=10))
        want_lqts = [built.rank(q) for q in queries]
        steps = (
            (lqts.similarity, "_canonical_modes"),
            (lqts.similarity, "_canonical_partners"),
            (np.linalg, "eigh"),
            (np.linalg, "inv"),
        )
        for owner, name in steps:
            with mock.patch.object(owner, name, side_effect=AssertionError(f"{name} ran")):
                assert select_proxies(g, "subspace", 2) == table
                for method, result in want.items():
                    assert Ranker(g, configs[method], table).rank("s0") == result
                if name != "eigh":  # the mode steps invert or follow, and no step runs eigh
                    with pytest.raises(AssertionError, match=f"{name} ran"):
                        Ranker(g, configs["lqts"], table).rank("s0")
                if name == "_canonical_partners":
                    assert [built.rank(q) for q in queries] == want_lqts

    def test_score_only_exemplar_callers_skip_the_one_hot_step(self, rng):
        # the exemplar kernel builds each side's one-hot coordinates on that
        # side's first read: proxy selection and the baseline and combiner
        # rankings read only scores and never build one, while an lqts
        # Ranker reads both sides of its proxy-target pairs when built
        g = Gallery(sets=tuple(random_set(rng, f"s{i}", n=8, d=10) for i in range(8)))
        configs = {
            method: RetrievalConfig(method=method, k_p=2, model=constant_model(0.5))
            for method in ("baseline", "arith", "lqts")
        }
        table = select_proxies(g, "exemplar", 2)
        want = {m: Ranker(g, configs[m], table).rank("s0") for m in ("baseline", "arith")}
        with mock.patch.object(lqts.similarity, "_one_hot", side_effect=AssertionError("one-hot")):
            assert select_proxies(g, "exemplar", 2) == table
            for method, result in want.items():
                assert Ranker(g, configs[method], table).rank("s0") == result
            with pytest.raises(AssertionError, match="one-hot"):
                Ranker(g, configs["lqts"], table)


class TestRetrievalConfig:
    @pytest.mark.parametrize("k_p", [True, 2.0, -1])
    def test_k_p_must_be_an_integer_at_least_zero(self, k_p):
        # 2.0 would fail slicing the proxy lists, and True would rank with one proxy
        with pytest.raises(UsageError, match="k_p must be an integer >= 0"):
            RetrievalConfig(method="arith", k_p=k_p)

    def test_lqts_requires_model(self):
        with pytest.raises(UsageError):
            RetrievalConfig(method="lqts", k_p=1, model=None)

    def test_unknown_method(self):
        with pytest.raises(UsageError):
            RetrievalConfig(method="harmonic")

    def test_unknown_baseline(self):
        with pytest.raises(UsageError):
            RetrievalConfig(baseline="manifold")


@st.composite
def ranking_cases(draw):
    """A gallery, a hand-drawn proxy table, a model and a query.

    The gallery always holds a single-exemplar set, a duplicate of another
    set (so that scores tie exactly) and sets with fewer exemplars than the
    subspace dimension (so that subspace bases are ragged). The
    query is a gallery set that is placed in some target's proxy list, or
    an external set.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(2, 8))
    sizes = [1] + draw(st.lists(st.integers(1, 8), min_size=1, max_size=5))
    contents = [rng.normal(size=(n, d)) for n in sizes]
    contents += [contents[i] for i in draw(st.lists(st.integers(0, len(sizes) - 1), min_size=1, max_size=2))]
    order = draw(st.permutations(range(len(contents))))
    gallery = Gallery(sets=tuple(FaceSet(f"s{i}", contents[j]) for i, j in enumerate(order)))
    n = len(gallery)

    width = draw(st.integers(1, min(3, n - 1)))
    lists = {}
    for i, sid in enumerate(gallery.set_ids):
        others = [j for j in range(n) if j != i]
        picked = draw(st.lists(st.sampled_from(others), max_size=width, unique=True))
        lists[sid] = [gallery.set_ids[j] for j in picked]

    if draw(st.booleans()):
        m = draw(st.integers(1, 8))
        like = draw(st.sampled_from([None, *range(n)]))
        x = rng.normal(size=(m, d)) if like is None else gallery.sets[like].exemplars
        query = FaceSet("external", x)
    else:
        q = draw(st.integers(0, n - 1))
        query = gallery.set_ids[q]
        t = draw(st.sampled_from([j for j in range(n) if j != q]))
        tlist = lists[gallery.set_ids[t]]
        tlist[:] = [query] + [p for p in tlist if p != query][: width - 1]
    table = ProxyTable(
        k_p=width,
        entries={sid: tuple((p, 1.0 - 0.1 * r) for r, p in enumerate(pl)) for sid, pl in lists.items()},
    )

    n_sv = draw(st.integers(2, 12))
    beta = 0.3 * rng.normal(size=n_sv)
    beta -= beta.mean()
    model = SvrModel(
        support_vectors=rng.random((n_sv, 5)),
        coefficients=beta,
        bias=float(rng.random()),
        config=SvrConfig(),
    )
    k_p = draw(st.integers(0, width))
    return gallery, table, model, query, k_p


def oracle_ranking(gallery, table, model, query, k_p, baseline, method):
    """(ranked ids, scores) from the scalar oracles, one target at a time."""
    rep = (lambda s: s) if baseline == "exemplar" else fit_subspace
    if isinstance(query, str):
        q_idx, q_rep = gallery.index_of(query), rep(gallery.get(query))
    else:
        q_idx, q_rep = None, rep(query)
    # the query's own object stands for it as a proxy: the self-pair rule
    reps = [q_rep if i == q_idx else rep(s) for i, s in enumerate(gallery.sets)]
    targets = [j for j in range(len(gallery)) if j != q_idx]
    scores = {}
    for j in targets:
        proxies = [reps[gallery.index_of(p)] for p, _ in table.proxies_of(gallery.set_ids[j], k_p)]
        if method == "baseline":
            scores[j] = match(q_rep, reps[j]).score
        elif method == "lqts":
            scores[j] = score_lqts(q_rep, reps[j], proxies, model)
        else:
            scores[j] = score_simple(q_rep, reps[j], proxies, method)
    order = sorted(targets, key=lambda j: (-scores[j], j))
    return [gallery.set_ids[j] for j in order], [scores[j] for j in order]


def duplicate_pairs_case():
    """s0 = s3 and s1 = s2, single exemplars; query s2 at k_p = 1 with proxy
    lists s0: [s2] and s3: [s1]. s0 meets the query itself as its proxy and
    s3 meets a copy of it, so the two targets tie in exact arithmetic. Under
    the exemplar baseline `Ranker` scores them equal (lqts 0.568225628888422),
    and the oracle puts s3 one ulp higher."""
    rng = np.random.default_rng(101)
    d = int(rng.integers(2, 9))
    a, b = rng.normal(size=(1, d)), rng.normal(size=(1, d))
    gallery = Gallery(sets=(FaceSet("s0", a), FaceSet("s1", b), FaceSet("s2", b), FaceSet("s3", a)))
    table = ProxyTable(k_p=1, entries={"s0": (("s2", 1.0),), "s1": (), "s2": (), "s3": (("s1", 1.0),)})
    n_sv = int(rng.integers(2, 13))
    beta = 0.3 * rng.normal(size=n_sv)
    beta -= beta.mean()
    model = SvrModel(
        support_vectors=rng.random((n_sv, 5)),
        coefficients=beta,
        bias=float(rng.random()),
        config=SvrConfig(),
    )
    return gallery, table, model, "s2", 1


def assert_ranking_matches(got, gallery, want_ids, want_scores, atol):
    """`got` holds the oracle's ids with every score within atol of the
    oracle's by id, puts ahead every id whose oracle score is more than atol
    higher, and is ordered exactly by its own scores, ties by gallery
    index."""
    got_scores = dict(got.ranking)
    assert sorted(got_scores) == sorted(want_ids)
    want = dict(zip(want_ids, want_scores))
    for sid in want_ids:
        assert abs(got_scores[sid] - want[sid]) <= atol, sid
    pos = {sid: i for i, sid in enumerate(got.ids())}
    for i, a in enumerate(want_ids):
        for b in want_ids[i + 1 :]:
            if want[a] - want[b] > atol:
                assert pos[a] < pos[b], (a, b)
    assert got.ids() == sorted(got.ids(), key=lambda sid: (-got_scores[sid], gallery.index_of(sid)))


class TestRankerMatchesOracles:
    @pytest.mark.parametrize("baseline", ["exemplar", "subspace"])
    @given(case=ranking_cases())
    @example(case=duplicate_pairs_case())
    @settings(max_examples=60, deadline=None)
    def test_every_method(self, baseline, case):
        gallery, table, model, query, k_p = case
        for method in METHODS:
            config = RetrievalConfig(baseline=baseline, method=method, k_p=k_p, model=model)
            got = Ranker(gallery, config, table).rank(query)
            want_ids, want_scores = oracle_ranking(gallery, table, model, query, k_p, baseline, method)
            if method == "baseline":
                assert got.ids() == want_ids
                assert [s for _, s in got.ranking] == want_scores
            else:
                # scores match within 1e-12, so the order is fixed only
                # where the oracle's scores differ by more than that
                assert_ranking_matches(got, gallery, want_ids, want_scores, atol=1e-12)


@st.composite
def coordinate_cases(draw):
    """A gallery, a proxy table, a model and a query holding every case that
    mode coordinates must carry: an exact duplicate of a set (exact ties);
    single-exemplar sets; mixed exemplar counts, so that coordinates are
    zero-padded, with sets of fewer exemplars than the subspace dimension
    (rank-clipped bases); and two single-exemplar sets on different axes,
    each the other's first proxy, whose pair scores exactly 0 under both
    baselines (σ₁ = 0). The query is a gallery set, an outside set, or an
    outside set on the first axis, which scores 0 against the second."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(3, 8))
    sizes = [1, 3, 8] + draw(st.lists(st.integers(1, 9), max_size=3))
    contents = [rng.normal(size=(m, d)) for m in sizes]
    axes = np.eye(d)[rng.permutation(d)[:2]] * rng.uniform(0.5, 2.0, size=(2, 1))
    contents += [axes[:1], -axes[1:]]
    contents.append(contents[draw(st.integers(0, len(contents) - 1))])
    order = draw(st.permutations(range(len(contents))))
    gallery = Gallery(sets=tuple(FaceSet(f"s{i}", contents[j]) for i, j in enumerate(order)))
    ids = gallery.set_ids
    lists = {
        sid: draw(st.lists(st.sampled_from([o for o in ids if o != sid]), max_size=3, unique=True))
        for sid in ids
    }
    first, second = (ids[order.index(len(sizes) + c)] for c in (0, 1))
    for sid, proxy in ((first, second), (second, first)):
        lists[sid] = [proxy] + [o for o in lists[sid] if o != proxy][:2]
    table = ProxyTable(
        k_p=3,
        entries={sid: tuple((o, 1.0 - 0.1 * r) for r, o in enumerate(pl)) for sid, pl in lists.items()},
    )
    n_sv = draw(st.integers(2, 12))
    beta = 0.3 * rng.normal(size=n_sv)
    model = SvrModel(
        support_vectors=rng.random((n_sv, 5)),
        coefficients=beta - beta.mean(),
        bias=float(rng.random()),
        config=SvrConfig(),
    )
    kind = draw(st.sampled_from(["gallery", "outside", "axis"]))
    if kind == "gallery":
        query = draw(st.sampled_from(ids))
    else:
        query = FaceSet("outside", rng.normal(size=(draw(st.integers(1, 9)), d)) if kind == "outside" else axes[:1])
    return gallery, table, model, query


class TestModeCoordinates:
    """s4 and s5 from a query row's mode coordinates and the ranker's
    projected tables, against the ambient rule they replaced
    (`oracles.ambient_mode_features`): bit for bit under the exemplar
    baseline, whose coordinates are one-hot, and within 1e-14 under the
    subspace baseline. Whole lqts rankings follow `oracles.ambient_rank`."""

    @pytest.mark.parametrize("baseline", ["exemplar", "subspace"])
    @given(case=coordinate_cases())
    @settings(max_examples=100, deadline=None)
    def test_mode_features_match_the_ambient_rule(self, baseline, case):
        gallery, table, model, query = case
        config = RetrievalConfig(baseline=baseline, method="lqts", k_p=3, model=model)
        ranker = Ranker(gallery, config, table)
        everyone = range(len(gallery))
        if isinstance(query, str):
            res = ranker.scorer.pair(gallery.index_of(query), everyone)
        else:
            res = ranker.scorer.query(query, everyone)
        t, p = table.index_pairs(gallery, range(len(gallery)), 3).T
        pt = ranker.scorer.pair(p, t)
        assert (pt.score == 0.0).sum() >= 2  # the two axis sets, each the other's proxy
        got = ranker.lqts_features(res)
        want = oracles.ambient_mode_features(ranker.scorer, res, pt, p, t)
        assert np.array_equal(got[:, :3], np.column_stack([res.score[p], res.score[t], pt.score]))
        if baseline == "exemplar":
            assert np.array_equal(got[:, 3:], want)
        else:
            assert np.max(np.abs(got[:, 3:] - want)) <= 1e-14

    @pytest.mark.parametrize("baseline", ["exemplar", "subspace"])
    @given(case=coordinate_cases())
    @settings(max_examples=100, deadline=None)
    def test_rankings_match_the_ambient_ranker(self, baseline, case):
        gallery, table, model, query = case
        config = RetrievalConfig(baseline=baseline, method="lqts", k_p=3, model=model)
        got = Ranker(gallery, config, table).rank(query)
        want_ids, want_scores = oracles.ambient_rank(gallery, config, table, query)
        if baseline == "exemplar":
            assert got.ids() == want_ids
            assert [score for _, score in got.ranking] == want_scores
        else:
            assert_ranking_matches(got, gallery, want_ids, want_scores, atol=1e-13)
