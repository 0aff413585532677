import functools
import logging
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import lqts.metafeat
import lqts.similarity
from lqts import corpus, synth
from lqts.corpus import FaceSet, Gallery, ProxyTable
from lqts.errors import CorpusError
from lqts.metafeat import _canonical, build_training_corpus
from lqts.retrieval import PAIR_BLOCK, select_proxies
from lqts.similarity import DEFAULT_SUBSPACE_DIM, fit_subspace

from conftest import random_set
from oracles import ambient_pair, extract_exemplar, extract_subspace, feature, reference_training_corpus


def unit(v):
    v = np.asarray(v, dtype=float)
    return v / np.linalg.norm(v)


def crude_cos(u, v):
    return abs(float(unit(u) @ unit(v)))


class TestFeatureExemplar:
    def test_identical_triplet_is_all_ones(self, rng):
        s = random_set(rng, "s", n=4, d=6)
        f = feature(s, s, s)
        np.testing.assert_allclose(f, np.ones(5), atol=1e-9)

    def test_hand_case(self):
        query = FaceSet("q", np.array([[1.0, 0.0]]))
        target = FaceSet("t", np.array([[1.0, 0.0], [0.0, 1.0]]))
        proxy = FaceSet("p", np.array([[0.6, 0.8]]))
        f = feature(query, target, proxy)
        np.testing.assert_allclose(f, [0.6, 1.0, 0.8, 1.0, 0.0], atol=1e-6)

    def test_exemplar_order_irrelevant(self, rng):
        q = random_set(rng, "q", n=3, d=5)
        t = random_set(rng, "t", n=4, d=5)
        p = random_set(rng, "p", n=5, d=5)
        f1 = feature(q, t, p)
        perm = lambda s: FaceSet(s.set_id, s.exemplars[::-1])
        f2 = feature(perm(q), perm(t), perm(p))
        np.testing.assert_allclose(f1, f2, atol=1e-12)

    def test_range(self, rng):
        for _ in range(20):
            f = feature(
                random_set(rng, "q", n=3, d=4),
                random_set(rng, "t", n=3, d=4),
                random_set(rng, "p", n=3, d=4),
            )
            assert np.all(f >= 0.0) and np.all(f <= 1.0 + 1e-9)


class TestFeatureSubspace:
    def test_identical_triplet_is_all_ones(self, rng):
        sub = fit_subspace(random_set(rng, "s", n=6, d=6), k=3)
        f = feature(sub, sub, sub)
        np.testing.assert_allclose(f, np.ones(5), atol=1e-8)

    def test_orthogonality_forces_correlations(self):
        q = np.array([[1.0, 0.0, 0.0]])
        t = np.array([[1.0, 0.0, 0.0], [0.0, 1.0, 0.0]])
        p = np.array([[0.0, 0.0, 1.0]])
        f = feature(q, t, p)
        assert f[0] == pytest.approx(0.0, abs=1e-9)
        assert f[1] == pytest.approx(1.0, abs=1e-9)
        assert f[2] == pytest.approx(0.0, abs=1e-9)

    def test_scores_match_grid_oracle_1d(self, rng):
        # 1-D subspaces in R^3: the correlation is just |cos| of the spans
        for _ in range(20):
            qa, ta, pa = (unit(rng.normal(size=3)) for _ in range(3))
            q = qa[None, :]
            t = ta[None, :]
            p = pa[None, :]
            f = feature(q, t, p)
            assert f[0] == pytest.approx(crude_cos(qa, pa), abs=1e-3)
            assert f[1] == pytest.approx(crude_cos(qa, ta), abs=1e-3)
            assert f[2] == pytest.approx(crude_cos(pa, ta), abs=1e-3)


def oracle_extract_exemplar(reference, proxy):
    """Straight-line re-derivation of the pair-extraction rules."""
    r = [unit(v) for v in reference.exemplars]
    p = [unit(v) for v in proxy.exemplars]

    best, tp_pt = -1.0, None
    for i, rv in enumerate(r):
        for j, pv in enumerate(p):
            c = crude_cos(rv, pv)
            if c > best:
                best, tp_pt = c, (i, j)
    s3 = best
    f_tp, f_pt = r[tp_pt[0]], p[tp_pt[1]]

    positives, negatives = [], []
    for qi, f_qt in enumerate(r):
        sims = [crude_cos(f_qt, pv) for pv in p]
        f_pq = p[int(np.argmax(sims))]
        s1 = max(sims)
        for ti, f_tq in enumerate(r):
            if ti == qi:
                continue
            positives.append(
                [s1, crude_cos(f_qt, f_tq), s3, crude_cos(f_pq, f_pt), crude_cos(f_tq, f_tp)]
            )
    for qi, f_qt in enumerate(p):
        sims = [crude_cos(f_qt, rv) for rv in r]
        f_tq = r[int(np.argmax(sims))]
        s2 = max(sims)
        for pi, f_pq in enumerate(p):
            if pi == qi:
                continue
            negatives.append(
                [crude_cos(f_qt, f_pq), s2, s3, crude_cos(f_pq, f_pt), crude_cos(f_tq, f_tp)]
            )
    return np.array(positives), np.array(negatives)


class TestTrainExtractExemplar:
    def test_counts(self, rng):
        ref = random_set(rng, "r", n=4, d=6)
        prox = random_set(rng, "p", n=3, d=6)
        pos, neg = extract_exemplar(ref, prox)
        assert len(pos) == 4 * 3 and len(neg) == 3 * 2

    def test_identical_pair_gives_s2_one(self, rng):
        x = rng.normal(size=(1, 5))
        ref = FaceSet("r", np.vstack([x, x, rng.normal(size=(1, 5))]))
        prox = random_set(rng, "p", n=2, d=5)
        pos, _ = extract_exemplar(ref, prox)
        # the ordered pair (0, 1) duplicates an exemplar
        assert pos[0][1] == pytest.approx(1.0, abs=1e-9)

    def test_matches_hand_oracle_tiny_case(self):
        ref = FaceSet("r", np.array([[1.0, 0.2], [0.3, 1.0]]))
        prox = FaceSet("p", np.array([[0.9, 0.5], [0.1, 1.0]]))
        pos, neg = extract_exemplar(ref, prox)
        opos, oneg = oracle_extract_exemplar(ref, prox)
        np.testing.assert_allclose(pos, opos, atol=1e-6)
        np.testing.assert_allclose(neg, oneg, atol=1e-6)

    def test_matches_oracle_random_cases(self, rng):
        for _ in range(10):
            ref = random_set(rng, "r", n=int(rng.integers(2, 6)), d=4)
            prox = random_set(rng, "p", n=int(rng.integers(2, 6)), d=4)
            pos, neg = extract_exemplar(ref, prox)
            opos, oneg = oracle_extract_exemplar(ref, prox)
            np.testing.assert_allclose(pos, opos, atol=1e-9)
            np.testing.assert_allclose(neg, oneg, atol=1e-9)

    @given(data=st.data(), d=st.integers(1, 4))
    @settings(max_examples=300, deadline=None)
    def test_matches_oracle_exactly_on_ties_and_singletons(self, data, d):
        # signed, scaled one-hot rows: every |cosine| is exactly 0 or 1, so
        # argmaxes tie exactly; a singleton set gives no rows of its label
        def one_hot_set(set_id):
            n = data.draw(st.integers(1, 5))
            axes = data.draw(st.lists(st.integers(0, d - 1), min_size=n, max_size=n))
            signed = st.floats(0.1, 10.0) | st.floats(-10.0, -0.1)
            scales = data.draw(st.lists(signed, min_size=n, max_size=n))
            x = np.zeros((n, d))
            x[np.arange(n), axes] = scales
            return FaceSet(set_id, x)

        ref, prox = one_hot_set("r"), one_hot_set("p")
        pos, neg = extract_exemplar(ref, prox)
        opos, oneg = oracle_extract_exemplar(ref, prox)
        assert np.array_equal(pos, opos.reshape(-1, 5))
        assert np.array_equal(neg, oneg.reshape(-1, 5))

    def test_agrees_with_feature_exemplar_on_singleton_query(self, rng):
        # a positive row built from pair (f_qt, f_tq) must equal the
        # retrieval-time feature for query {f_qt} in slots s1, s3 and s4;
        # s2 and s5 instead use the designated partner exemplar, whereas
        # the retrieval-time maximum lands on f_qt itself (it belongs to
        # the target set), forcing s2 = 1 there
        ref = random_set(rng, "r", n=4, d=5)
        prox = random_set(rng, "p", n=3, d=5)
        feats, _ = extract_exemplar(ref, prox)
        k = 0
        for qi in range(4):
            query = FaceSet("q", ref.exemplars[qi : qi + 1])
            retrieval_row = feature(query, ref, prox)
            assert retrieval_row[1] == pytest.approx(1.0, abs=1e-9)
            for ti in range(4):
                if ti == qi:
                    continue
                training_row = feats[k]
                k += 1
                np.testing.assert_allclose(
                    training_row[[0, 2, 3]], retrieval_row[[0, 2, 3]], atol=1e-9
                )


class TestTrainExtractSubspace:
    def test_counts(self, rng):
        ref = random_set(rng, "r", n=5, d=8)
        prox = random_set(rng, "p", n=7, d=8)
        pos, neg, skipped_pos, skipped_neg = extract_subspace(ref, prox, k=3)
        assert len(pos) == 5 - skipped_pos == 5
        assert len(neg) == 7 - skipped_neg == 7

    def test_contained_exemplars_give_s2_one(self, rng):
        ref = random_set(rng, "r", n=3, d=8)  # n_r <= k: exemplars inside own span
        prox = random_set(rng, "p", n=6, d=8)
        pos, _, _, _ = extract_subspace(ref, prox, k=6)
        for f in pos:
            assert f[1] == pytest.approx(1.0, abs=1e-9)

    def test_degenerate_projection_skipped_and_counted(self):
        # reference subspace = x-axis; one proxy exemplar along y is
        # orthogonal to it and must be skipped from the negatives
        ref = FaceSet("r", np.array([[1.0, 0.0], [2.0, 0.0]]))
        prox = FaceSet("p", np.array([[0.0, 1.0], [1.0, 0.0]]))
        _, neg, _, skipped_neg = extract_subspace(ref, prox, k=1)
        assert skipped_neg == 1
        assert len(neg) == 1

    def test_hand_computed_1d_case(self):
        # singleton sets in R^2: subspaces are the exemplar directions
        ref = FaceSet("r", np.array([[1.0, 0.0]]))
        prox = FaceSet("p", np.array([[1.0, 1.0]]))
        pos, neg, _, _ = extract_subspace(ref, prox, k=1)
        c = 1 / np.sqrt(2)
        # positive: f_qt = (1,0); projections: onto ref = itself (s2=1),
        # onto proxy = c (s1); s3 = c; modes f_pt=(1,1)/sqrt2, f_tp=(1,0)
        np.testing.assert_allclose(pos[0], [c, 1.0, c, 1.0, 1.0], atol=1e-6)
        # negative: f_qt = proxy exemplar; s1 = 1 (own span), s2 = c
        np.testing.assert_allclose(neg[0], [1.0, c, c, 1.0, 1.0], atol=1e-6)


class TestBuildTrainingCorpus:
    def _gallery_and_proxies(self, rng, n_sets=6, n=4, k_p=2):
        sets = tuple(random_set(rng, f"g{i}", n=n, d=6) for i in range(n_sets))
        g = Gallery(sets=sets)
        ids = g.set_ids
        entries = {
            sid: tuple((ids[(i + j + 1) % n_sets], 1.0 - 0.1 * j) for j in range(k_p))
            for i, sid in enumerate(ids)
        }
        return g, ProxyTable(k_p=k_p, entries=entries)

    def test_clips_train_sets_to_gallery(self, rng):
        g, table = self._gallery_and_proxies(rng)
        feats = build_training_corpus(g, table, n_train_sets=100, cap=10**6, seed=1)
        # 6 refs x 2 proxies x (12 pos + 12 neg) features
        assert len(feats) == 6 * 2 * 24

    @pytest.mark.parametrize("baseline", ["exemplar", "subspace"])
    def test_proxy_table_of_another_gallery(self, rng, baseline):
        g, table = self._gallery_and_proxies(rng)
        foreign = ProxyTable(k_p=2, entries={**table.entries, "elsewhere": (("g1", 0.9),)})
        with pytest.raises(CorpusError, match="unknown set_id 'elsewhere'"):
            build_training_corpus(g, foreign, baseline, cap=10**6)

    def test_deterministic_given_seed(self, rng):
        g, table = self._gallery_and_proxies(rng)
        a = build_training_corpus(g, table, n_train_sets=3, cap=50, seed=9)
        b = build_training_corpus(g, table, n_train_sets=3, cap=50, seed=9)
        assert len(a) == len(b)
        assert np.array_equal(a.s, b.s) and np.array_equal(a.label, b.label)

    def test_cap_preserves_label_ratio(self, rng):
        g, table = self._gallery_and_proxies(rng, n_sets=8, n=5, k_p=3)
        feats = build_training_corpus(g, table, n_train_sets=8, cap=120, seed=2)
        assert len(feats) == 120
        n_pos = int(np.sum(feats.label == 1.0))
        # uncapped corpus is balanced, so the capped one must stay balanced
        assert n_pos == pytest.approx(60, abs=1)

    def test_feature_values_in_range(self, rng):
        g, table = self._gallery_and_proxies(rng)
        feats = build_training_corpus(g, table, cap=500, seed=3)
        assert np.all(feats.s >= 0.0) and np.all(feats.s <= 1.0)
        assert np.all(np.isin(feats.label, (0.0, 1.0)))

    def test_exemplar_sets_used_as_given(self, rng):
        # sets past 10 exemplars are not reduced: every ordered exemplar pair
        # of the reference (proxy) gives a positive (negative)
        g, table = self._gallery_and_proxies(rng, n_sets=4, n=12, k_p=1)
        feats = build_training_corpus(g, table, n_train_sets=4, cap=10**6, seed=0)
        for ref in g.sets:
            (pid, _), = table.proxies_of(ref.set_id)
            rows = feats[(feats.ref == ref.set_id) & (feats.proxy == pid)]
            pos, neg = extract_exemplar(ref, g.get(pid))
            assert int(np.sum(rows.label == 1.0)) == 12 * 11
            assert np.array_equal(rows.s, np.concatenate([pos, neg]))

    @pytest.mark.parametrize("value", [0, -1])
    def test_cap_below_one_rejected(self, rng, value):
        g, table = self._gallery_and_proxies(rng)
        with pytest.raises(ValueError, match="cap"):
            build_training_corpus(g, table, cap=value)

    @pytest.mark.parametrize("value", [0, -1])
    def test_train_sets_below_one_rejected(self, rng, value):
        g, table = self._gallery_and_proxies(rng)
        with pytest.raises(ValueError, match="n_train_sets"):
            build_training_corpus(g, table, n_train_sets=value)

    @pytest.mark.parametrize(
        "setting, value",
        [
            ("cap", 100.0),
            ("cap", True),
            ("n_train_sets", 5.0),
            ("n_train_sets", True),
            ("seed", 1.5),
            ("seed", True),
            ("seed", -1),
        ],
    )
    def test_counts_must_be_integers(self, rng, setting, value):
        # 100.0 would fail inside rng.choice, and only when the cap applies;
        # seed 1.5 inside SeedSequence, and True would be taken as seed 1
        g, table = self._gallery_and_proxies(rng)
        low = 0 if setting == "seed" else 1
        with pytest.raises(ValueError, match=f"{setting} must be an integer >= {low}"):
            build_training_corpus(g, table, **{setting: value})

    def test_subspace_baseline_counts(self, rng):
        g, table = self._gallery_and_proxies(rng, n_sets=5, n=4, k_p=1)
        feats = build_training_corpus(
            g, table, baseline="subspace", n_train_sets=5, cap=10**6, seed=0
        )
        # 5 refs x 1 proxy x (4 pos + 4 neg), no degenerate skips expected
        assert len(feats) == 40

    def test_subspace_baseline_matches_per_pair_extraction(self, rng, monkeypatch, caplog):
        # in R^3 the subspaces of g0, g1 and g2 are the x axis, the xy plane
        # and the yz plane, so g1's y-exemplar projects to zero on g0's and
        # g0's exemplars on g2's, and their pairs skip rows
        sets = (
            FaceSet("g0", np.array([[1.0, 0.0, 0.0], [2.0, 0.0, 0.0]])),
            FaceSet("g1", np.array([[0.0, 1.0, 0.0], [3.0, 0.0, 0.0]])),
            FaceSet("g2", np.array([[0.0, 0.0, 1.0], [0.0, 2.0, 0.0]])),
            random_set(rng, "g3", n=4, d=3),
            random_set(rng, "g4", n=5, d=3),
        )
        g = Gallery(sets=sets)
        ids = g.set_ids
        entries = {
            sid: tuple((ids[(i + j + 1) % 5], 1.0 - 0.1 * j) for j in range(2))
            for i, sid in enumerate(ids)
        }
        table = ProxyTable(k_p=2, entries=entries)

        pos, neg, pos_ids, neg_ids, skipped = [], [], [], [], 0
        for ref in g.sets:
            for pid, _ in table.proxies_of(ref.set_id):
                p, n, skip_p, skip_n = extract_subspace(ref, g.get(pid))
                pos.append(p)
                neg.append(n)
                pos_ids += [(ref.set_id, pid)] * len(p)
                neg_ids += [(ref.set_id, pid)] * len(n)
                skipped += skip_p + skip_n
        assert skipped > 0

        fitted = []
        real_fit = lqts.similarity.fit_subspace

        def counting_fit(s, *args):
            fitted.append(s.set_id)
            return real_fit(s, *args)

        monkeypatch.setattr(lqts.similarity, "fit_subspace", counting_fit)
        with caplog.at_level(logging.INFO, logger="lqts.metafeat"):
            feats = build_training_corpus(
                g, table, baseline="subspace", n_train_sets=5, cap=10**6, seed=0
            )
        assert sorted(fitted) == sorted(ids)
        assert [r.getMessage() for r in caplog.records if r.name == "lqts.metafeat"] == [
            f"subspace extraction skipped {skipped} degenerate projections"
        ]
        pos, neg = np.concatenate(pos), np.concatenate(neg)
        assert len(feats) == len(pos) + len(neg)
        assert np.array_equal(feats.s, np.concatenate([pos, neg]))
        assert feats.label.tolist() == [1.0] * len(pos) + [0.0] * len(neg)
        assert list(zip(feats.ref, feats.proxy)) == pos_ids + neg_ids


def logged(fn, *args, **kwargs):
    """fn's result and the messages it logs to lqts.metafeat."""
    messages = []
    handler = logging.Handler(logging.INFO)
    handler.emit = lambda record: messages.append(record.getMessage())
    logger = logging.getLogger("lqts.metafeat")
    level = logger.level
    logger.addHandler(handler)
    logger.setLevel(logging.INFO)
    try:
        return fn(*args, **kwargs), messages
    finally:
        logger.removeHandler(handler)
        logger.setLevel(level)


def assert_same_table(got, want):
    assert np.array_equal(got.s, want.s)
    assert np.array_equal(got.label, want.label)
    assert got.ref.tolist() == want.ref.tolist()
    assert got.proxy.tolist() == want.proxy.tolist()


@st.composite
def extraction_cases(draw):
    """A gallery, its proxy table and the train-set count and seed.

    Sets are ragged, and some hold one exemplar, which gives no exemplar
    rows of its label. Exemplars are Gaussian, signed one-hot or ternary
    rows: the last two give exact |cosine| ties, rank-deficient subspaces
    and exemplars orthogonal to another set's subspace, which are
    degenerate projections. A set may have no proxies, and the table may
    be empty. Or one hub set is the first proxy of every other set, so
    its side has many partners of mixed subspace rank.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    d = draw(st.integers(1, 5))
    kind = draw(st.sampled_from(["normal", "onehot", "ternary"]))

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

    sizes = draw(st.lists(st.integers(1, 6), min_size=2, max_size=8))
    gallery = Gallery(sets=tuple(FaceSet(f"s{i}", exemplars(m)) for i, m in enumerate(sizes)))
    ids = gallery.set_ids
    hub = draw(st.none() | st.sampled_from(ids))
    entries = {}
    for i, sid in enumerate(ids):
        others = [ids[j] for j in range(len(ids)) if j != i]
        plist = draw(st.lists(st.sampled_from(others), unique=True, max_size=3))
        if hub is not None and sid != hub:
            plist = [hub, *(p for p in plist if p != hub)][:3]
        if plist:
            entries[sid] = tuple((pid, 1.0) for pid in plist)
    table = ProxyTable(k_p=3, entries=entries)
    n_train_sets = draw(st.integers(1, len(ids) + 1))
    return gallery, table, n_train_sets, draw(st.integers(0, 2**16))


def canonical_set(i, kind, n, seed, d=6):
    """Set c{i}: n generic exemplars of rank min(n, 4), so a rank-clipped
    subspace past 4, or, for kind "low" or "high", positive multiples of
    min(n, d // 2) distinct axes among the first or the last d // 2, so
    that a low set and a high set correlate at exactly 0."""
    rng = np.random.default_rng(seed)
    if kind == "generic":
        x = rng.normal(size=(n, min(n, 4))) @ rng.normal(size=(min(n, 4), d))
    else:
        n = min(n, d // 2)
        x = np.zeros((n, d))
        axes = rng.choice(d // 2, size=n, replace=False) + (d // 2 if kind == "high" else 0)
        x[np.arange(n), axes] = rng.uniform(0.5, 2.0, size=n)
    return FaceSet(f"c{i}", x)


class TestCanonical:
    """`_canonical`, the pairs' first canonical correlations and modes,
    against the per-pair kernel, bit for bit."""

    @given(
        specs=st.lists(
            st.tuples(st.sampled_from(["generic", "low", "high"]), st.integers(1, 5), st.integers(0, 2**16)),
            min_size=2,
            max_size=6,
        ),
        block=st.sampled_from([1, 2, PAIR_BLOCK]),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_per_pair_max_corr(self, specs, block, data):
        # no pairs, ragged ranks from 1 and pairs at exactly 0 included; a
        # small block splits the pairs of one pair of ranks
        sets = [canonical_set(i, *spec) for i, spec in enumerate(specs)]
        ends = st.integers(0, len(sets) - 1)
        listed = data.draw(st.lists(st.tuples(ends, ends).filter(lambda p: p[0] != p[1]), max_size=12))
        pairs = np.array(listed, dtype=np.intp).reshape(-1, 2)
        with mock.patch.object(lqts.metafeat, "PAIR_BLOCK", block):
            s3, modes = _canonical(sets, pairs)
        assert s3.shape == (len(pairs),) and modes.shape == (len(pairs), 2, sets[0].dim)
        for p, (r, x) in enumerate(pairs.tolist()):
            a, b = sets[r].subspace, sets[x].subspace
            want = lqts.similarity.max_corr(a, b)
            (mode_a,), (mode_b,) = ambient_pair(want, a, b)
            assert s3[p] == want.score[0]
            assert np.array_equal(modes[p, 0], mode_a) and np.array_equal(modes[p, 1], mode_b)

    def test_orthogonal_pairs_take_row_0_modes(self):
        # ranks 1 to 3 on the first three axes against ranks 1 and 3 on the
        # last three
        specs = [("low", 1), ("low", 3), ("high", 1), ("high", 3), ("low", 2)]
        sets = [canonical_set(i, kind, n, i) for i, (kind, n) in enumerate(specs)]
        pairs = np.array([[0, 2], [1, 3], [3, 4], [2, 1]])
        s3, modes = _canonical(sets, pairs)
        assert np.array_equal(s3, np.zeros(len(pairs)))
        for p, (r, x) in enumerate(pairs.tolist()):
            assert np.array_equal(modes[p], [sets[r].subspace[0], sets[x].subspace[0]])


class TestCapFirstMatchesReference:
    """Cap-first extraction against the pool-then-cap extraction it
    replaced, bit for bit, at every kind of cap."""

    @pytest.mark.parametrize("baseline", ["exemplar", "subspace"])
    @given(
        case=extraction_cases(),
        which=st.sampled_from(["one", "below", "equal", "above"]),
        block=st.sampled_from([2, PAIR_BLOCK]),
        data=st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_equals_reference(self, baseline, case, which, block, data):
        gallery, table, n_train_sets, seed = case
        args = (gallery, table, baseline, n_train_sets)
        pool = len(reference_training_corpus(*args, cap=10**9, seed=seed))
        cap = {
            "one": 1,
            "below": data.draw(st.integers(1, max(pool - 1, 1))),
            "equal": max(pool, 1),
            "above": pool + data.draw(st.integers(1, 50)),
        }[which]
        want, want_log = logged(reference_training_corpus, *args, cap=cap, seed=seed)
        # a small block splits a side set's partners over several products
        with mock.patch.object(lqts.metafeat, "PAIR_BLOCK", block):
            got, got_log = logged(build_training_corpus, *args, cap=cap, seed=seed)
        assert_same_table(got, want)
        assert got_log == want_log

    @pytest.mark.parametrize("block", [2, PAIR_BLOCK])
    @pytest.mark.parametrize("which", ["one", "below", "equal", "above"])
    def test_hub_with_mixed_ranks_and_degenerate_rows(self, rng, block, which):
        # in R^4 the hub spans the first three axes; `line` spans the first
        # and `plane` the second and fourth, so the hub's exemplars on the
        # other axes are degenerate against them. The hub is the first proxy
        # of every other set, and its partners have subspace ranks 1 to 4.
        hub = FaceSet("hub", np.diag([1.0, 2.0, 3.0, 0.0])[:3])
        line = FaceSet("line", np.array([[1.0, 0.0, 0.0, 0.0], [2.0, 0.0, 0.0, 0.0]]))
        plane = FaceSet("plane", np.array([[0.0, 1.0, 0.0, 0.0], [0.0, 0.0, 0.0, 1.0]]))
        others = tuple(random_set(rng, f"g{m}", n=m, d=4) for m in (2, 3, 4, 5, 6))
        g = Gallery(sets=(hub, line, plane, *others))
        ids = g.set_ids
        entries = {sid: (("hub", 1.0), (ids[i % (len(ids) - 1) + 1], 0.5)) for i, sid in enumerate(ids[1:], 1)}
        entries["hub"] = (("line", 1.0), ("plane", 0.9), ("g2", 0.8))
        table = ProxyTable(k_p=3, entries=entries)
        partners = [pid for sid, plist in entries.items() for pid, _ in plist if sid == "hub"]
        partners += [sid for sid, plist in entries.items() if sid != "hub"]
        assert {len(g.get(sid).subspace) for sid in partners} == {1, 2, 3, 4}

        args = (g, table, "subspace", len(g))
        pool = len(reference_training_corpus(*args, cap=10**9))
        cap = {"one": 1, "below": pool // 2, "equal": pool, "above": pool + 5}[which]
        want, want_log = logged(reference_training_corpus, *args, cap=cap)
        assert want_log and want_log[0].startswith("subspace extraction skipped")
        with mock.patch.object(lqts.metafeat, "PAIR_BLOCK", block):
            got, got_log = logged(build_training_corpus, *args, cap=cap)
        assert_same_table(got, want)
        assert got_log == want_log

    @given(seed=st.integers(0, 2**32 - 1), which=st.sampled_from(["below", "equal"]))
    @settings(max_examples=40, deadline=None)
    def test_degenerate_rows_among_generic_ones(self, seed, which):
        # in R^8, sets a0..a3 hold generic exemplars in the first six axes
        # and one or two along axis 6 or 7; b0..b2 hold six or more generic
        # ones in the first six, so their subspaces are those six axes. An
        # a-set's rows against a b-set are degenerate on axes 6 and 7 and
        # generic elsewhere, where the product of the kept rows alone can
        # round unlike the same rows of the whole product: with one kept
        # row it is a matrix-vector product, not a matrix product.
        rng = np.random.default_rng(seed)

        def exemplars(n_generic, extra):
            x = np.zeros((n_generic + len(extra), 8))
            x[:n_generic, :6] = rng.normal(size=(n_generic, 6))
            x[np.arange(n_generic, x.shape[0]), extra] = 1.0
            return rng.permutation(x)

        extra = [rng.choice([6, 7], size=int(rng.integers(1, 3))) for _ in range(4)]
        a_sets = [FaceSet(f"a{i}", exemplars(int(rng.integers(1, 9)), e)) for i, e in enumerate(extra)]
        b_sets = [FaceSet(f"b{i}", exemplars(int(rng.integers(6, 12)), [])) for i in range(3)]
        g = Gallery(sets=(*a_sets, *b_sets))
        entries = {s.set_id: tuple((t.set_id, 1.0) for t in b_sets) for s in a_sets}
        entries |= {s.set_id: tuple((t.set_id, 1.0) for t in a_sets[:3]) for s in b_sets}
        args = (g, ProxyTable(k_p=3, entries=entries), "subspace", len(g))
        pool = len(reference_training_corpus(*args, cap=10**9))
        cap = {"below": pool // 2, "equal": pool}[which]
        want, want_log = logged(reference_training_corpus, *args, cap=cap)
        got, got_log = logged(build_training_corpus, *args, cap=cap)
        assert want_log and want_log == got_log
        assert_same_table(got, want)

    @pytest.mark.parametrize("baseline", ["exemplar", "subspace"])
    def test_pairs_keeping_rows_of_one_label(self, rng, baseline):
        # at this cap some pairs keep only positives, some only negatives
        # and some nothing: their entries' runs of kept rows are empty
        g = Gallery(sets=tuple(random_set(rng, f"g{i}", n=3 + i % 3, d=5) for i in range(10)))
        ids = g.set_ids
        entries = {sid: ((ids[(i + 1) % 10], 1.0), (ids[(i + 3) % 10], 0.5)) for i, sid in enumerate(ids)}
        args = (g, ProxyTable(k_p=2, entries=entries), baseline, len(g))
        want = reference_training_corpus(*args, cap=12, seed=3)
        labels = {(sid, pid): set() for sid, plist in entries.items() for pid, _ in plist}
        for ref, pid, label in zip(want.ref, want.proxy, want.label):
            labels[ref, pid].add(label)
        kinds = {frozenset(kept) for kept in labels.values()}
        assert {frozenset(), frozenset({1.0}), frozenset({0.0})} <= kinds
        assert_same_table(build_training_corpus(*args, cap=12, seed=3), want)

    @pytest.mark.parametrize("baseline", ["exemplar", "subspace"])
    def test_empty_proxy_table(self, rng, baseline):
        g = Gallery(sets=tuple(random_set(rng, f"g{i}", n=3, d=4) for i in range(3)))
        table = ProxyTable(k_p=0, entries={})
        got = build_training_corpus(g, table, baseline, cap=5)
        assert len(got) == 0 and got.dtype == reference_training_corpus(g, table, baseline).dtype

    def test_subspace_sets_fitted_once_and_only_when_read(self, rng, monkeypatch):
        # g3 is no set's proxy and has none itself, so no pair reads it
        g = Gallery(sets=tuple(random_set(rng, f"g{i}", n=4, d=6) for i in range(4)))
        table = ProxyTable(k_p=2, entries={"g0": (("g1", 1.0), ("g2", 0.5)), "g1": (("g0", 1.0),)})
        fitted = []
        real_fit = lqts.similarity.fit_subspace

        def counting_fit(s, *args):
            fitted.append(s.set_id)
            return real_fit(s, *args)

        monkeypatch.setattr(lqts.similarity, "fit_subspace", counting_fit)
        feats = build_training_corpus(g, table, baseline="subspace", cap=7, seed=1)
        assert len(feats) == 7
        assert sorted(fitted) == ["g0", "g1", "g2"]


class TestExtractionMemory:
    """At a fixed cap, extraction holds one block of products and the kept
    rows, not the pool: under the exemplar baseline one pair's products,
    so its peak does not grow with the number of reference sets, and
    under the subspace baseline one side set's products for PAIR_BLOCK
    partners or fewer, plus the modes of the pairs with kept rows."""

    CAP = 1000

    @pytest.fixture(scope="class")
    def unsampled(self):
        gallery, _ = synth.generate(synth.SynthConfig(seed=11, n_identities=15))
        return gallery, select_proxies(gallery, "exemplar", 5)

    def peak(self, build, gallery, proxies, n_train_sets):
        build(gallery, proxies, n_train_sets=n_train_sets, cap=self.CAP)
        tracemalloc.start()
        try:
            table = build(gallery, proxies, n_train_sets=n_train_sets, cap=self.CAP)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert len(table) == self.CAP
        return peak

    def test_peak_bounded_by_largest_pair_and_kept_rows(self, unsampled):
        gallery, proxies = unsampled
        sizes = {s.set_id: s.size for s in gallery}
        # a pair's |cosine| matrix and both sets' Grams
        pair_bytes = 8 * max((sizes[r] + sizes[p]) ** 2 for r in sizes for p, _ in proxies.proxies_of(r))
        kept_bytes = self.CAP * (5 * 8 + corpus.FEATURE_DTYPE.itemsize)
        bound = 4 * (pair_bytes + kept_bytes)
        small = self.peak(build_training_corpus, gallery, proxies, 8)
        large = self.peak(build_training_corpus, gallery, proxies, 16)
        assert small < bound and large < bound
        assert large < 1.1 * small
        # pooling every row before the cap breaks the bound
        assert self.peak(reference_training_corpus, gallery, proxies, 16) > 10 * bound

    def test_subspace_peak_bounded_by_a_block_and_kept_rows(self, unsampled, monkeypatch):
        # two partners per product, so that one block is small beside the
        # kept rows and any product that grows with the reference sets
        # shows. What does grow is the pair modes held for the row build,
        # 2 d floats per pair with kept rows.
        gallery, proxies = unsampled
        monkeypatch.setattr(lqts.metafeat, "PAIR_BLOCK", 2)
        build = functools.partial(build_training_corpus, baseline="subspace")
        d, n_max, k = gallery.dim, max(s.size for s in gallery), DEFAULT_SUBSPACE_DIM
        # a block's projections, norms, reconstructions, dots and bases, and
        # its side set's own projection and reconstruction
        block_bytes = 8 * (2 * (n_max * (k + d + 3) + k * d) + n_max * (k + d + 1))
        kept_bytes = self.CAP * (5 * 8 + corpus.FEATURE_DTYPE.itemsize)

        def modes_bytes(n_train_sets):
            return 8 * 2 * d * n_train_sets * proxies.k_p

        small = self.peak(build, gallery, proxies, 8)
        large = self.peak(build, gallery, proxies, 16)
        assert small < 2 * (block_bytes + kept_bytes + modes_bytes(8))
        assert large < 2 * (block_bytes + kept_bytes + modes_bytes(16))
        assert large < 1.1 * small + modes_bytes(16) - modes_bytes(8)
