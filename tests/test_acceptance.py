"""Acceptance suite: one test per criterion, each printing a PASS line.

Runtime budgets are asserted with wall-clock timers. The end-to-end
directional checks run the full unsupervised pipeline on engineered
galleries with fixed seeds.
"""

import itertools
import time

import numpy as np
import pytest

from lqts import sampling, svr, synth
from lqts.corpus import FaceSet, Gallery
from lqts.evaluation import AnrRecord, anr, independence_prediction, rank_k_stats
from lqts.metafeat import build_training_corpus
from lqts.retrieval import Ranker, RetrievalConfig, select_proxies
from lqts.evaluation import evaluate_all
from lqts.similarity import fit_subspace, max_corr, max_max_sim
from lqts.svr import SvrConfig, SvrModel, predict, train

from conftest import random_set, ranker_score, training_table
from oracles import extract_exemplar, extract_subspace, score_simple
from test_svr import oracle_slsqp, oracle_two_point_grid


def frac_below(records, t):
    return float(np.mean([r.anr < t for r in records]))


class TestCriterion1Anr:
    def test_anr_oracle(self):
        start = time.monotonic()
        for n in range(1, 8):
            for c in range(1, n):
                values = []
                for ranks in itertools.combinations(range(1, n + 1), c):
                    m = c * (c + 1) / 2
                    big_m = c * (2 * n - c + 1) / 2
                    expected = (sum(ranks) - m) / (big_m - m)
                    got = anr(n, set(ranks))
                    assert got == pytest.approx(expected, abs=1e-12)
                    values.append(got)
                assert min(values) == 0.0 and max(values) == 1.0
        elapsed = time.monotonic() - start
        assert elapsed < 1.0
        print(f"\nACCEPTANCE 1 (ANR oracle, n<=7 exhaustive): PASS [{elapsed:.2f}s]")


class TestCriterion2SimilarityOracles:
    def test_similarity_oracles(self):
        start = time.monotonic()
        rng = np.random.default_rng(202)
        for _ in range(500):
            d = int(rng.integers(2, 9))
            a = random_set(rng, "a", n=int(rng.integers(1, 9)), d=d)
            b = random_set(rng, "b", n=int(rng.integers(1, 9)), d=d)
            got = max_max_sim(a, b).score[0]
            ua = a.exemplars / np.linalg.norm(a.exemplars, axis=1, keepdims=True)
            ub = b.exemplars / np.linalg.norm(b.exemplars, axis=1, keepdims=True)
            brute = max(
                abs(float(u @ v)) for u in ua for v in ub
            )
            assert abs(got - brute) <= 1e-9

        steps = 600
        angles = np.linspace(0.0, np.pi, steps, endpoint=False)
        cos_a, sin_a = np.cos(angles), np.sin(angles)
        for _ in range(100):
            d = int(rng.integers(2, 9))
            sa = fit_subspace(random_set(rng, "a", n=6, d=d), k=int(rng.integers(1, 3)))
            sb = fit_subspace(random_set(rng, "b", n=6, d=d), k=int(rng.integers(1, 3)))

            def grid(sub):
                if sub.shape[0] == 1:
                    return sub
                return cos_a[:, None] * sub[0] + sin_a[:, None] * sub[1]

            oracle = float(np.max(np.abs(grid(sa) @ grid(sb).T)))
            assert max_corr(sa, sb).score[0] == pytest.approx(oracle, abs=1e-3)
        elapsed = time.monotonic() - start
        assert elapsed < 30.0
        print(f"\nACCEPTANCE 2 (similarity oracles, 500+100 pairs): PASS [{elapsed:.2f}s]")


class TestCriterion3SvrContract:
    def _check_contract(self, x, y, config):
        model = train(training_table(x, y), config)
        coeff = model.coefficients
        assert abs(float(np.sum(coeff))) <= 1e-6
        assert np.all(np.abs(coeff) <= config.cost + 1e-9)
        if model.n_support:
            targets = np.array(
                [y[int(np.where((x == sv).all(axis=1))[0][0])] for sv in model.support_vectors]
            )
            nonbound = np.abs(coeff) < config.cost - 1e-6
            if np.any(nonbound):
                errs = np.abs(predict(model, model.support_vectors) - targets)[nonbound]
                assert np.all(errs <= config.epsilon + config.kkt_tolerance)
        return model

    def test_svr_contract(self):
        start = time.monotonic()
        rng = np.random.default_rng(303)

        # trained models across corpus shapes satisfy the dual contract
        for l, cfg in [
            (60, SvrConfig(epsilon=0.1, cost=10.0)),
            (120, SvrConfig()),
            (40, SvrConfig(epsilon=0.05, cost=200.0)),
        ]:
            x = rng.random((l, 5))
            y = (x[:, 1] > 0.5).astype(float)
            flip = rng.random(l) < 0.1
            y[flip] = 1.0 - y[flip]
            self._check_contract(x, y, cfg)

        # brute-force dual-objective match on small corpora
        x2 = np.vstack([np.zeros(5), np.ones(5)])
        y2 = np.array([0.0, 1.0])
        m2 = train(training_table(x2, y2))
        grid_best = oracle_two_point_grid(x2, y2, SvrConfig())
        assert m2.objective == pytest.approx(grid_best, rel=1e-2, abs=1e-9)
        for l in (2, 3, 4, 5, 6):
            x = np.random.default_rng(100 + l).random((l, 5))
            y = np.random.default_rng(200 + l).random(l)
            cfg = SvrConfig(epsilon=0.05, cost=50.0)
            m = self._check_contract(x, y, cfg)
            oracle = oracle_slsqp(x, y, cfg)
            scale = max(abs(oracle), 1e-3)
            assert abs(m.objective - oracle) <= 1e-2 * scale
        elapsed = time.monotonic() - start
        assert elapsed < 60.0
        print(f"\nACCEPTANCE 3 (SVR dual contract + oracle): PASS [{elapsed:.2f}s]")


class TestCriterion4ExtractionCounts:
    def test_counts_on_50_random_pairs(self):
        rng = np.random.default_rng(404)
        for trial in range(50):
            n_r = int(rng.integers(2, 9))
            n_p = int(rng.integers(2, 9))
            d = int(rng.integers(4, 12))
            ref = random_set(rng, f"r{trial}", n=n_r, d=d)
            prox = random_set(rng, f"p{trial}", n=n_p, d=d)

            pos, neg = extract_exemplar(ref, prox)
            assert len(pos) == n_r * (n_r - 1)
            assert len(neg) == n_p * (n_p - 1)

            pos_s, neg_s, skipped_pos, skipped_neg = extract_subspace(ref, prox, k=4)
            assert len(pos_s) == n_r - skipped_pos
            assert len(neg_s) == n_p - skipped_neg
        print("\nACCEPTANCE 4 (extraction counts, 50 random pairs): PASS")


class TestCriterion5SamplingFidelity:
    def test_robust_selection_fidelity(self):
        start = time.monotonic()
        cfg = synth.SynthConfig(
            n_identities=60,
            sets_per_identity=(1, 1),
            exemplars_per_set=(60, 200),
            dim=32,
            condition_spread=4.0,
            noise=0.03,
            seed=42,
        )
        gallery, _ = synth.generate(cfg)
        assert all(60 <= s.size <= 200 for s in gallery)
        reduced = {s.set_id: sampling.robust_select(s, 10) for s in gallery}
        assert all(r.size == 10 for r in reduced.values())

        rng = np.random.default_rng(7)
        ids = gallery.set_ids
        deltas, shrinkages = [], []
        for _ in range(200):
            i, j = (int(v) for v in rng.choice(len(ids), 2, replace=False))
            a, b = gallery.sets[i], gallery.sets[j]
            full = max_max_sim(a, b).score[0]
            red = max_max_sim(reduced[ids[i]], reduced[ids[j]]).score[0]
            deltas.append(abs(full - red))
            shrinkages.append((a.size * b.size) / 100.0)
        median = float(np.median(deltas))
        assert median < 0.05
        assert min(shrinkages) >= 36.0
        elapsed = time.monotonic() - start
        assert elapsed < 120.0
        print(
            f"\nACCEPTANCE 5 (sampling fidelity): PASS "
            f"[median |delta|={median:.4f}, shrink>={min(shrinkages):.0f}x, {elapsed:.1f}s]"
        )


class TestCriterion6EndToEnd:
    THRESHOLDS = (0.1, 0.2, 0.3, 0.4, 0.5)

    def _run_lane(self, baseline, k_p, cfg, cap):
        gallery, _ = synth.generate(cfg)
        if baseline == "exemplar":
            gallery = Gallery(
                sets=tuple(sampling.robust_select(s, 10) for s in gallery),
                labels=gallery.labels,
            )
        proxies = select_proxies(gallery, baseline, 10)
        features = build_training_corpus(gallery, proxies, baseline, cap=cap, seed=5)
        model = train(features)
        base = evaluate_all(gallery, RetrievalConfig(method="baseline", baseline=baseline))
        lqts = evaluate_all(
            gallery,
            RetrievalConfig(method="lqts", baseline=baseline, k_p=k_p, model=model),
            proxies,
        )
        return base, lqts

    def test_directional_reproduction(self):
        start = time.monotonic()

        base_e, lqts_e = self._run_lane(
            "exemplar", k_p=5, cfg=synth.SynthConfig(seed=11), cap=6000
        )
        gain_e = frac_below(lqts_e, 0.3) - frac_below(base_e, 0.3)
        assert gain_e >= 0.05, f"exemplar gain {gain_e:.3f} below 5pp"
        for t in self.THRESHOLDS:
            assert frac_below(lqts_e, t) >= frac_below(base_e, t) - 1e-12

        base_s, lqts_s = self._run_lane(
            "subspace",
            k_p=1,
            cfg=synth.SynthConfig(seed=11, noise=0.25, set_spacing=2.2),
            cap=12000,
        )
        gain_s = frac_below(lqts_s, 0.3) - frac_below(base_s, 0.3)
        assert gain_s >= 0.05, f"subspace gain {gain_s:.3f} below 5pp"
        for t in self.THRESHOLDS:
            assert frac_below(lqts_s, t) >= frac_below(base_s, t) - 1e-12

        elapsed = time.monotonic() - start
        assert elapsed < 600.0
        print(
            f"\nACCEPTANCE 6 (end-to-end directional): PASS "
            f"[exemplar +{100 * gain_e:.1f}pp, subspace +{100 * gain_s:.1f}pp, {elapsed:.0f}s]"
        )


class TestCriterion7SimpleCombiners:
    def test_reduction_and_formulas(self):
        rng = np.random.default_rng(707)
        sets = tuple(random_set(rng, f"s{i}", n=3, d=6, positive=True) for i in range(6))
        gallery = Gallery(sets=sets)
        dummy = SvrModel(
            support_vectors=np.empty((0, 5)),
            coefficients=np.empty(0),
            bias=0.9,
            config=SvrConfig(),
        )
        reference = Ranker(gallery, RetrievalConfig(method="baseline")).rank("s0")
        for method in ("baseline", "lqts", "arith", "geom", "quad"):
            model = dummy if method == "lqts" else None
            got = Ranker(gallery, RetrievalConfig(method=method, k_p=0, model=model)).rank("s0")
            assert got.ids() == reference.ids()
            for (_, a), (_, b) in zip(got.ranking, reference.ranking):
                assert a == pytest.approx(b, abs=1e-12)

        # hand cases: rho_qp = 0.6, rho_pt = 0.8 for arith/quad; 0.25, 1.0 for geom
        q = FaceSet("q", np.array([[0.6, 0.8, 0.0]]))
        p = FaceSet("p", np.array([[1.0, 0.0, 0.0]]))
        t = FaceSet("t", np.array([[0.8, 0.0, 0.6]]))
        q2 = FaceSet("q2", np.array([[0.25, np.sqrt(1 - 0.0625), 0.0]]))
        t2 = FaceSet("t2", np.array([[2.0, 0.0, 0.0]]))

        def through_ranker(query, target, proxies, rule):
            return ranker_score(query, target, proxies, RetrievalConfig(method=rule))

        for score in (score_simple, through_ranker):
            assert score(q, t, [p], "arith") == pytest.approx(0.7, abs=1e-9)
            assert score(q, t, [p], "quad") == pytest.approx(0.707107, abs=1e-6)
            assert score(q2, t2, [p], "geom") == pytest.approx(0.5, abs=1e-9)
        print("\nACCEPTANCE 7 (combiner reduction + formulas): PASS")


class TestCriterion8RankKPredictions:
    def test_predictions_and_recount(self):
        assert independence_prediction(0.5, 0.5, 2)[0] == pytest.approx(0.75, abs=1e-9)
        assert independence_prediction(0.2, 0.3, 3)[0] == pytest.approx(0.488, abs=1e-9)
        p1, n1 = independence_prediction(0.37, 1.25, 1)
        assert p1 == pytest.approx(0.37, abs=1e-9)
        assert n1 == pytest.approx(1.25, abs=1e-9)

        rng = np.random.default_rng(808)
        records = []
        for i in range(30):
            c = int(rng.integers(1, 5))
            ranks = tuple(sorted(rng.choice(np.arange(1, 501), c, replace=False).tolist()))
            records.append(AnrRecord(f"q{i}", 500, c, ranks, 0.5))
        stats = {s.k: s for s in rank_k_stats(records, top_k=100)}
        for k in sorted({r.c for r in records}):
            group = [r for r in records if r.c == k]
            hits = [sum(1 for rank in r.ranks if rank <= 100) for r in group]
            assert stats[k].prob_hit == pytest.approx(float(np.mean([h > 0 for h in hits])))
            assert stats[k].mean_count == pytest.approx(float(np.mean(hits)))
        print("\nACCEPTANCE 8 (independence predictions + recount): PASS")
