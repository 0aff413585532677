import numpy as np
import pytest

from lqts.corpus import load_gallery, save_gallery
from lqts.evaluation import admissible_query_ids
from lqts.similarity import max_max_sim
from lqts.synth import SynthConfig, generate


def small_config(**kw):
    base = dict(
        n_identities=8,
        sets_per_identity=(2, 3),
        exemplars_per_set=(6, 10),
        dim=24,
        condition_spread=5.0,
        seed=3,
    )
    base.update(kw)
    return SynthConfig(**base)


def mean_similarity(gallery, pairs):
    return float(np.mean([max_max_sim(gallery.get(a), gallery.get(b)).score[0] for a, b in pairs]))


def intra_inter_pairs(gallery, max_pairs=200, seed=0):
    labels = gallery.evaluation_labels()
    ids = gallery.set_ids
    rng = np.random.default_rng(seed)
    intra, inter = [], []
    for _ in range(max_pairs * 4):
        a, b = rng.choice(len(ids), 2, replace=False)
        pair = (ids[a], ids[b])
        (intra if labels[pair[0]] == labels[pair[1]] else inter).append(pair)
    return intra[:max_pairs], inter[:max_pairs]


class TestGenerate:
    def test_deterministic_gallery_directory(self, tmp_path):
        cfg = small_config()
        g1, _ = generate(cfg)
        g2, _ = generate(cfg)
        save_gallery(g1, tmp_path / "a")
        save_gallery(g2, tmp_path / "b")
        for rel in sorted(p.relative_to(tmp_path / "a") for p in (tmp_path / "a").rglob("*")):
            pa, pb = tmp_path / "a" / rel, tmp_path / "b" / rel
            if pa.is_file():
                assert pa.read_bytes() == pb.read_bytes()

    def test_exemplars_finite_nonnegative_nonzero(self):
        g, _ = generate(small_config())
        for s in g:
            assert np.all(np.isfinite(s.exemplars))
            assert np.all(s.exemplars >= 0.0)
            assert np.all(np.linalg.norm(s.exemplars, axis=1) > 0)

    def test_truth_partitions_sets(self):
        g, truth = generate(small_config())
        assert set(truth) == set(g.set_ids)
        assert g.evaluation_labels() == truth

    def test_round_trips_through_disk(self, tmp_path):
        g, _ = generate(small_config())
        save_gallery(g, tmp_path / "g")
        assert load_gallery(tmp_path / "g") == g

    def test_tau_zero_intra_exceeds_inter(self):
        cfg = small_config(n_identities=12, transitivity=0.0, seed=7)
        g, _ = generate(cfg)
        intra, inter = intra_inter_pairs(g)
        assert len(intra) >= 10 and len(inter) >= 10
        assert mean_similarity(g, intra) > mean_similarity(g, inter)

    def test_single_set_identities_yield_no_queries(self):
        cfg = small_config(sets_per_identity=(1, 1))
        g, _ = generate(cfg)
        queries, skipped = admissible_query_ids(g)
        assert queries == [] and skipped == len(g)

    def test_condition_spread_monotonically_hurts_intra_similarity(self):
        # beyond ~6 visibility widths the sets stop sharing support and the
        # mean saturates at the noise floor, so probe the informative range
        means = []
        for spread in (2.0, 4.0, 6.0):
            cfg = small_config(n_identities=10, condition_spread=spread, seed=5)
            g, _ = generate(cfg)
            intra, _ = intra_inter_pairs(g, seed=5)
            means.append(mean_similarity(g, intra))
        assert means[0] > means[1] > means[2]

    def test_set_sizes_within_range(self):
        g, _ = generate(small_config(exemplars_per_set=(4, 7)))
        assert all(4 <= s.size <= 7 for s in g)

    @pytest.mark.parametrize(
        "name, value",
        [
            ("n_identities", 2.0),
            ("n_identities", True),
            ("dim", 8.0),
            ("seed", 1.5),
            ("seed", True),
            ("seed", -1),
            ("sets_per_identity", (True, 2)),
            ("exemplars_per_set", (3.0, 4)),
        ],
    )
    def test_counts_must_be_integers(self, name, value):
        with pytest.raises(ValueError, match="must be integers|seed nonnegative"):
            small_config(**{name: value})

    @pytest.mark.parametrize("value", [float("nan"), float("inf")])
    @pytest.mark.parametrize(
        "name",
        ["identity_spread", "condition_spread", "transitivity", "descriptor_floor", "noise", "set_spacing"],
    )
    def test_reals_must_be_finite(self, name, value):
        # nan passes every comparison check, and inf passes the lower bounds
        with pytest.raises(ValueError, match="must be finite"):
            small_config(**{name: value})

    def test_validation(self):
        with pytest.raises(ValueError):
            small_config(transitivity=1.5)
        with pytest.raises(ValueError):
            small_config(sets_per_identity=(3, 2))
        with pytest.raises(ValueError):
            small_config(descriptor_floor=-0.1)
