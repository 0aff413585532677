import itertools
import re

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqts.corpus import FaceSet, Gallery
from lqts.errors import CorpusError
from lqts.evaluation import (
    AnrRecord,
    admissible_query_ids,
    anr,
    anr_cdf,
    evaluate_all,
    independence_prediction,
    rank_k_stats,
    write_anr_report,
    write_rank_k_report,
    write_reports,
)
from lqts.retrieval import Ranker, RetrievalConfig

from conftest import random_set


class TestAnr:
    def test_perfect_retrieval(self):
        assert anr(10, {1, 2, 3}) == 0.0

    def test_worst_retrieval(self):
        assert anr(5, {4, 5}) == 1.0

    def test_hand_case(self):
        assert anr(5, {2, 4}) == pytest.approx(0.5)

    def test_midpoint_is_mean_over_all_placements(self):
        # brute-force cross-check: 0.5 equals the mean ANR over every
        # possible placement of 2 matches among 5 ranks
        vals = [anr(5, set(c)) for c in itertools.combinations(range(1, 6), 2)]
        assert np.mean(vals) == pytest.approx(0.5)
        assert anr(5, {2, 4}) == pytest.approx(np.mean(vals))

    def test_all_small_cases_match_direct_formula(self):
        # exhaustive: every n <= 7, every c < n, every rank subset
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
                assert min(values) == 0.0
                assert max(values) == 1.0

    def test_order_invariance_and_monotonicity(self):
        assert anr(9, [5, 2, 7]) == anr(9, [7, 5, 2])
        assert anr(9, {2, 5, 7}) < anr(9, {2, 5, 8})

    def test_errors(self):
        with pytest.raises(ValueError):
            anr(5, set())
        with pytest.raises(ValueError):
            anr(3, {1, 2, 3})  # c == n undefined
        with pytest.raises(ValueError):
            anr(4, {0, 2})
        with pytest.raises(ValueError):
            anr(4, [2, 2])

    @given(st.integers(2, 60), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_bounded_and_order_invariant(self, n, seed):
        rng = np.random.default_rng(seed)
        c = int(rng.integers(1, n))
        ranks = rng.choice(np.arange(1, n + 1), size=c, replace=False).tolist()
        value = anr(n, ranks)
        assert 0.0 <= value <= 1.0
        assert anr(n, list(reversed(ranks))) == value

    @given(st.integers(3, 60), st.integers(0, 2**32 - 1))
    @settings(max_examples=60, deadline=None)
    def test_strictly_increasing_in_each_rank(self, n, seed):
        rng = np.random.default_rng(seed)
        c = int(rng.integers(1, n - 1))
        ranks = sorted(rng.choice(np.arange(1, n), size=c, replace=False).tolist())
        bumped = ranks[:-1] + [ranks[-1] + 1]  # push the worst match one deeper
        if bumped[-1] in ranks:
            bumped = ranks[:-1] + [max(ranks) + 1]
        assert anr(n, bumped) > anr(n, ranks)


def labelled_gallery(rng, spec):
    """spec: list of (identity, n_sets); builds distinctive per-identity sets."""
    sets, labels = [], {}
    d = 16
    for ident, count in spec:
        anchor = np.abs(rng.normal(size=d)) + 0.2
        for j in range(count):
            x = anchor + 0.05 * rng.normal(size=(4, d))
            sid = f"{ident}_s{j}"
            sets.append(FaceSet(sid, np.abs(x) + 1e-3))
            labels[sid] = ident
    return Gallery(sets=tuple(sets), labels=labels)


class TestEvaluateAll:
    def test_single_set_identities_excluded(self, rng):
        g = labelled_gallery(rng, [("a", 2), ("b", 1), ("c", 3)])
        queries, skipped = admissible_query_ids(g)
        assert skipped == 1
        assert all(not q.startswith("b") for q in queries)
        records = evaluate_all(g, RetrievalConfig(method="baseline"))
        assert len(records) == 5

    def test_well_separated_identities_achieve_zero_anr(self, rng):
        g = labelled_gallery(rng, [("a", 2), ("b", 2), ("c", 2)])
        records = evaluate_all(g, RetrievalConfig(method="baseline"))
        assert all(r.anr == 0.0 for r in records)

    def test_no_admissible_query_is_a_data_error(self, rng):
        g = labelled_gallery(rng, [("a", 1), ("b", 1), ("c", 1), ("d", 1)])
        with pytest.raises(CorpusError, match="no admissible query"):
            evaluate_all(g, RetrievalConfig(method="baseline"))

    def test_unlabelled_gallery_rejected(self, rng):
        g = Gallery(sets=tuple(random_set(rng, f"s{i}", n=3, d=4) for i in range(3)))
        with pytest.raises(CorpusError):
            evaluate_all(g, RetrievalConfig(method="baseline"))

    def test_matches_hand_driven_oracle(self, rng):
        # independent per-query recomputation through Ranker.rank + anr
        g = labelled_gallery(rng, [("a", 3), ("b", 3), ("c", 3), ("d", 3)])
        config = RetrievalConfig(method="baseline")
        records = evaluate_all(g, config)
        labels = g.evaluation_labels()
        assert len(records) == 12
        by_id = {r.query_id: r for r in records}
        for qid in g.set_ids:
            rr = Ranker(g, config).rank(qid)
            ranks = tuple(
                pos
                for pos, (sid, _) in enumerate(rr.ranking, start=1)
                if labels[sid] == labels[qid]
            )
            rec = by_id[qid]
            assert rec.ranks == ranks
            assert rec.n == len(g) - 1
            assert rec.c == 2
            assert rec.anr == pytest.approx(anr(rec.n, ranks))


class TestAnrCdf:
    def test_all_zero(self):
        recs = [AnrRecord("q", 10, 1, (1,), 0.0)] * 4
        for t, frac in anr_cdf(recs, [0.0, 0.3, 1.0]):
            assert frac == 1.0

    def test_direct_count(self):
        recs = [
            AnrRecord("a", 10, 1, (2,), 0.1),
            AnrRecord("b", 10, 1, (6,), 0.5),
        ]
        assert anr_cdf(recs, [0.3]) == [(0.3, 0.5)]

    def test_monotone_and_terminal_one(self, rng):
        recs = [
            AnrRecord(f"q{i}", 20, 2, (1, 2), float(v)) for i, v in enumerate(rng.random(100))
        ]
        pts = anr_cdf(recs, np.linspace(0, 1, 21))
        fracs = [f for _, f in pts]
        assert all(a <= b for a, b in zip(fracs, fracs[1:]))
        assert fracs[-1] == 1.0
        # sorted-scan oracle
        values = np.sort([r.anr for r in recs])
        for t, frac in pts:
            assert frac == pytest.approx(np.searchsorted(values, t, side="right") / 100)


class TestRankKStats:
    def _records(self, rng, n_queries=30, n=500):
        recs = []
        for i in range(n_queries):
            c = int(rng.integers(1, 5))
            ranks = tuple(sorted(rng.choice(np.arange(1, n + 1), c, replace=False).tolist()))
            recs.append(AnrRecord(f"q{i}", n, c, ranks, 0.5))
        return recs

    def test_top_k_covers_everything(self, rng):
        recs = self._records(rng, n=80)
        for s in rank_k_stats(recs, top_k=80):
            assert s.prob_hit == 1.0
            assert s.mean_count == pytest.approx(s.k)

    def test_miss_case(self):
        recs = [AnrRecord("q", 500, 1, (101,), 0.2)]
        s = rank_k_stats(recs, top_k=100)[0]
        assert s.prob_hit == 0.0 and s.mean_count == 0.0

    def test_matches_recount_oracle(self, rng):
        recs = self._records(rng)
        stats = {s.k: s for s in rank_k_stats(recs, top_k=100)}
        for k in {r.c for r in recs}:
            group = [r for r in recs if r.c == k]
            hits = [sum(1 for rank in r.ranks if rank <= 100) for r in group]
            assert stats[k].n_queries == len(group)
            assert stats[k].prob_hit == pytest.approx(np.mean([h > 0 for h in hits]))
            assert stats[k].mean_count == pytest.approx(np.mean(hits))


class TestIndependencePrediction:
    def test_half_squared(self):
        prob, _ = independence_prediction(0.5, 0.5, 2)
        assert prob == pytest.approx(0.75, abs=1e-9)

    def test_identity_at_k1(self):
        assert independence_prediction(0.37, 1.4, 1) == (0.37, 1.4)

    def test_hand_value(self):
        prob, count = independence_prediction(0.2, 0.3, 3)
        assert prob == pytest.approx(0.488, abs=1e-9)
        assert count == pytest.approx(0.9, abs=1e-12)

    def test_validation(self):
        with pytest.raises(ValueError):
            independence_prediction(1.2, 0.5, 2)
        with pytest.raises(ValueError):
            independence_prediction(0.5, 0.5, 0)
        for k in (2.5, True):
            with pytest.raises(ValueError, match="k must be an integer >= 1"):
                independence_prediction(0.5, 1.0, k)


class TestReports:
    def test_rank_k_report_columns(self, rng, tmp_path):
        recs = [
            AnrRecord("a", 300, 1, (5,), 0.0),
            AnrRecord("b", 300, 1, (150,), 0.4),
            AnrRecord("c", 300, 2, (3, 200), 0.3),
        ]
        out = tmp_path / "rank100.csv"
        write_rank_k_report(recs, out)
        lines = out.read_text().splitlines()
        assert lines[0] == "k,empirical_prob,predicted_prob,empirical_count,predicted_count"
        k1 = lines[1].split(",")
        assert k1[0] == "1" and float(k1[1]) == 0.5
        k2 = lines[2].split(",")
        # prediction extrapolates the k=1 group: 1 - (1-0.5)^2 and 2 * 0.5
        assert float(k2[2]) == pytest.approx(0.75)
        assert float(k2[4]) == pytest.approx(1.0)

    @pytest.mark.parametrize("top_k", [2.5, True])
    def test_top_k_must_be_an_integer(self, tmp_path, top_k):
        # 2.5 would write rank2.5.csv, and True would count as 1
        recs = [AnrRecord("a", 300, 1, (5,), 0.0)]
        with pytest.raises(ValueError, match="top_k must be an integer"):
            write_reports(recs, tmp_path / "eval", top_k=top_k)
        assert not (tmp_path / "eval").exists()

    @pytest.mark.parametrize("query_id", ["t\tab", "t\nab", "t\udcff"], ids=["tab", "lf", "non-utf8"])
    def test_anr_report_rejects_an_id_that_splits_a_row(self, tmp_path, query_id):
        recs = [AnrRecord("a", 300, 1, (5,), 0.0), AnrRecord(query_id, 300, 1, (9,), 0.1)]
        with pytest.raises(CorpusError, match=re.escape(f"set {query_id!r}: has a tab or line break")):
            write_anr_report(recs, tmp_path / "anr.tsv")
        assert not any(tmp_path.iterdir())

    def test_reports_reject_an_id_that_splits_a_row_before_making_the_directory(self, tmp_path):
        recs = [AnrRecord("a", 300, 1, (5,), 0.0), AnrRecord("t\tab", 300, 1, (9,), 0.1)]
        with pytest.raises(CorpusError, match=re.escape("set 't\\tab': has a tab or line break")):
            write_reports(recs, tmp_path / "eval")
        assert not (tmp_path / "eval").exists()
