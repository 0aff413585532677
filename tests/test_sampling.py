import warnings

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from lqts import sampling
from lqts.corpus import FaceSet
from lqts.errors import DegenerateSetError
from lqts.sampling import (
    KpcaModel,
    energy_report,
    expansion_coefficients,
    fit_kpca,
    pre_image,
    pre_images,
    robust_select,
)
from lqts.similarity import max_max_sim

from conftest import random_set
from oracles import oracle_pre_image, oracle_pre_image_run


def segment_set(n=100, seed=3, set_id="seg"):
    """Points on a straight segment with a moderate angular extent."""
    rng = np.random.default_rng(seed)
    t = np.sort(rng.random(n))
    base = np.array([2.0, 1.0, 0.5, 0.25])
    direction = np.array([0.0, 0.5, 0.25, 0.125])
    return FaceSet(set_id, base + np.outer(t, direction))


class TestFitKpca:
    def test_collinear_energy_concentrates(self):
        ts = np.linspace(1.0, 1.2, 40)
        s = FaceSet("line", np.outer(ts, np.array([2.0, 1.0, 0.5])))
        r2, r3 = energy_report(s, gamma=1.0)
        assert r2 < 0.05
        assert r3 <= r2

    def test_two_points_symmetric_projections(self):
        s = FaceSet("pair", np.array([[1.0, 0.0], [3.0, 1.0]]))
        m = fit_kpca(s, gamma=0.5)
        assert m.projections[0] == pytest.approx(-m.projections[1], abs=1e-8)

    def test_identical_exemplars_rejected(self):
        s = FaceSet("same", np.ones((5, 3)))
        with pytest.raises(DegenerateSetError):
            fit_kpca(s)

    def test_identical_exemplars_name_the_set(self):
        with pytest.raises(DegenerateSetError, match="^set 'dup': all exemplars identical"):
            robust_select(FaceSet("dup", np.ones((15, 4))), 10)

    def test_auto_gamma_out_of_range_names_the_set(self, rng):
        # med^2 underflows, so 1 / (2 med^2) is inf
        s = FaceSet("tiny", rng.normal(size=(15, 4)) * 1e-160)
        with pytest.raises(DegenerateSetError, match="^set 'tiny': median exemplar distance"):
            robust_select(s, 10)

    def test_singleton_rejected(self):
        with pytest.raises(DegenerateSetError):
            fit_kpca(FaceSet("one", np.ones((1, 3))))

    def test_alpha_normalization(self, rng):
        m = fit_kpca(random_set(rng, n=20, d=4))
        assert m.eigenvalues[0] * float(m.alpha @ m.alpha) == pytest.approx(1.0, abs=1e-8)

    @pytest.mark.parametrize("gamma", [float("nan"), float("inf"), -float("inf"), 0.0, -1.0, "bogus"])
    def test_gamma_must_be_finite_and_positive(self, rng, gamma):
        s = random_set(rng, n=15, d=4)
        with pytest.raises(ValueError, match="gamma must be finite and positive"):
            fit_kpca(s, gamma)
        with pytest.raises(ValueError, match="gamma must be finite and positive"):
            energy_report(s, gamma)
        # checked before a small set passes through, as n_samples is
        with pytest.raises(ValueError, match="gamma must be finite and positive"):
            robust_select(random_set(rng, n=5, d=4), 10, gamma)

    def test_projections_match_direct_component(self, rng):
        # oracle: z_i = (centered K row i) . alpha
        s = random_set(rng, n=15, d=3)
        m = fit_kpca(s, gamma=0.7)
        x = s.exemplars
        d2 = ((x[:, None, :] - x[None, :, :]) ** 2).sum(-1)
        k = np.exp(-0.7 * d2)
        h = np.eye(15) - np.full((15, 15), 1 / 15)
        kc = h @ k @ h
        np.testing.assert_allclose(kc @ m.alpha, m.projections, atol=1e-8)


class TestEnergyReport:
    def test_isotropic_cloud_spreads_energy(self):
        rng = np.random.default_rng(1)
        s = FaceSet("cloud", rng.normal(size=(200, 3)) + 5.0)
        r2, r3 = energy_report(s)
        assert r2 > 0.5
        assert r2 >= r3 >= 0.0

    def test_ratio_ordering_random_sets(self, rng):
        for _ in range(10):
            s = random_set(rng, n=int(rng.integers(4, 30)), d=5)
            r2, r3 = energy_report(s)
            assert 0.0 <= r3 <= r2 <= 1.0 + 1e-12


class TestPreImage:
    def test_recovers_exemplar_at_its_projection(self):
        rng = np.random.default_rng(7)
        pts = rng.normal(size=(6, 4)) * 3.0 + 8.0  # well separated
        m = fit_kpca(FaceSet("sep", pts), gamma=1.0)
        for i in range(6):
            x = pre_image(m, float(m.projections[i]))
            rel = np.linalg.norm(x - pts[i]) / np.linalg.norm(pts[i])
            assert rel < 1e-3

    def test_degenerate_weights_fall_back_to_nearest(self):
        # crafted model: alpha sums to 1, so at z = 1 the coefficient at the
        # starting exemplar is exactly zero, and every cross kernel
        # underflows, so all weights vanish
        model = KpcaModel(
            exemplars=np.array([[1.0, 1.0], [3.0, 1.0], [1.0, 3.0]]),
            gamma=2000.0,
            alpha=np.array([0.0, 2.0, -1.0]),
            eigenvalues=np.array([2.0, 0.0, 0.0]),
            projections=np.array([1.0, 5.0, -5.0]),
        )
        out = pre_image(model, 1.0)
        np.testing.assert_array_equal(out, np.array([1.0, 1.0]))

    def test_far_target_output_stays_finite(self):
        s = FaceSet("far", np.array([[0.0, 1.0], [0.0, 2.0], [0.0, 3.0]]))
        m = fit_kpca(s, gamma=1.0)
        out = pre_image(m, float(m.projections.max()) * 1e6)
        assert np.all(np.isfinite(out))
        assert np.linalg.norm(out) > 0

    def test_output_always_finite_positive_norm(self, rng):
        s = random_set(rng, n=12, d=6)
        m = fit_kpca(s)
        for z in np.linspace(m.projections.min() * 2, m.projections.max() * 2, 9):
            out = pre_image(m, float(z))
            assert np.all(np.isfinite(out))
            assert np.linalg.norm(out) > 0

    def test_expansion_coefficients_sum_to_one(self, rng):
        m = fit_kpca(random_set(rng, n=9, d=4))
        for z in (-0.5, 0.0, 1.3):
            assert float(np.sum(expansion_coefficients(m, z))) == pytest.approx(1.0, abs=1e-12)


def crafted_model(exemplars, alpha, projections, gamma) -> KpcaModel:
    """A KpcaModel whose fields need not come from one fit: pre-images use
    only the exemplars, alpha, gamma and the projections."""
    return KpcaModel(
        exemplars=np.asarray(exemplars, dtype=float),
        gamma=gamma,
        alpha=np.asarray(alpha, dtype=float),
        eigenvalues=np.array([1.0, 0.0, 0.0]),
        projections=np.asarray(projections, dtype=float),
    )


def assert_matches_oracle(m, targets):
    """pre_images(m, targets), checked row by row against the one-target
    loop, bit for bit; batching adds no warning that the loop lacks."""
    with warnings.catch_warnings(record=True) as want_w:
        warnings.simplefilter("always")
        want = [oracle_pre_image(m, z) for z in targets]
    with warnings.catch_warnings(record=True) as got_w:
        warnings.simplefilter("always")
        got = pre_images(m, targets)
    assert got.shape == (len(targets), m.exemplars.shape[1])
    for row, expected in zip(got, want):
        assert np.array_equal(row, expected)
    assert {str(w.message) for w in got_w} <= {str(w.message) for w in want_w}
    return got


@st.composite
def pre_image_cases(draw):
    """A model and the targets to map back.

    Half the models are fitted to a random set; the others are drawn field
    by field, with integer projections that tie, duplicate exemplars and
    bandwidths up to 2000, where every cross weight underflows. Their
    integer alpha sums to 1, so at the target 1 the coefficients are alpha
    exactly; half of them are zero where the target 1 starts, which leaves
    no weight at all once the cross weights underflow. The targets
    sit on projections, midway between two, at the extremes, at 1, or far
    away, and repeat.
    """
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(2, 12))
    d = draw(st.integers(1, 40))
    x = rng.normal(size=(n, d)) * draw(st.sampled_from([0.1, 1.0, 10.0])) + draw(st.sampled_from([0.0, 3.0]))
    if draw(st.booleans()):
        x[1] = x[0]
    if draw(st.booleans()):
        gamma = draw(st.sampled_from(["auto", 0.05, 1.0]))
        try:
            m = fit_kpca(FaceSet("drawn", x), gamma)
        except DegenerateSetError:
            m = crafted_model(x, rng.normal(size=n), np.arange(n), 1.0)
    else:
        gamma = draw(st.sampled_from([1e-3, 0.05, 0.5, 2.0, 50.0, 2000.0]))
        projections = rng.integers(-3, 4, size=n)
        alpha = rng.integers(-2, 3, size=n).astype(float)
        start = int(np.argmin(np.abs(projections - 1.0)))
        if draw(st.booleans()):
            alpha[start] = 0.0
        fix = (start + 1) % n
        alpha[fix] = 1.0 - (np.sum(alpha) - alpha[fix])
        m = crafted_model(x, alpha, projections, gamma)
    p = np.sort(m.projections)
    pool = [*p, *((p[:-1] + p[1:]) / 2), *np.linspace(p[0], p[-1], 10), 1.0, 5.0 * p[-1] + 1.0, -1e6]
    targets = draw(st.lists(st.sampled_from(pool), min_size=1, max_size=12))
    return m, targets


@st.composite
def mid_run_fallback_cases(draw):
    """Exemplars 0 and +-e_1 plus a few in [-1, 1]^d, alpha (0, k, 1 - k,
    0, ...) and the target 1, whose coefficients are then alpha exactly.
    That target starts at exemplar 0 and steps to (2k - 1) e_1, where with
    k >= 25 and gamma >= 0.5 both of its nonzero weights underflow, so it
    falls back at its second step. The other targets, near 0, have
    moderate coefficients and finish at different steps."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = draw(st.integers(3, 8))
    d = draw(st.integers(1, 3))
    x = np.zeros((n, d))
    x[1, 0], x[2, 0] = 1.0, -1.0
    x[3:] = rng.uniform(-1.0, 1.0, size=(n - 3, d))
    k = draw(st.integers(25, 60))
    alpha = np.zeros(n)
    alpha[1], alpha[2] = k, 1 - k
    projections = np.concatenate([[1.0], rng.integers(-3, 0, size=n - 1)])
    m = crafted_model(x, alpha, projections, draw(st.sampled_from([0.5, 1.0, 2.0])))
    near_zero = st.sampled_from([0.0, 0.01, 0.02, -0.01, 0.03, -0.5, -1.0, -2.0])
    targets = draw(st.lists(near_zero, min_size=2, max_size=8))
    targets.insert(draw(st.integers(0, len(targets))), 1.0)
    return m, targets


class TestPreImagesMatchOracle:
    """pre_images equals the one-target loop bit for bit, for every target."""

    @given(case=pre_image_cases())
    @settings(max_examples=150, deadline=None)
    def test_every_target(self, case):
        m, targets = case
        assert_matches_oracle(m, targets)

    @given(seed=st.integers(0, 2**32 - 1), n=st.integers(11, 40), d=st.integers(1, 24), samples=st.integers(2, 10))
    @settings(max_examples=40, deadline=None)
    def test_robust_select_is_the_stacked_oracle(self, seed, n, d, samples):
        s = FaceSet("s", np.random.default_rng(seed).normal(size=(n, d)) + 2.0)
        m = fit_kpca(s)
        targets = np.linspace(float(m.projections.min()), float(m.projections.max()), samples)
        want = np.stack([oracle_pre_image(m, z) for z in targets])
        assert np.array_equal(robust_select(s, samples).exemplars, want)

    @given(case=mid_run_fallback_cases())
    @settings(max_examples=60, deadline=None)
    def test_mid_run_fallbacks_among_targets_finishing_apart(self, case):
        # both sides of the compaction branch run: iterations where no
        # target leaves, and iterations where one falls back mid-run or
        # finishes before the others
        m, targets = case
        runs = {z: oracle_pre_image_run(m, z)[1:] for z in targets}
        assert runs[1.0] == (2, True)
        assume(len({steps for steps, fell in runs.values() if not fell}) >= 2)
        assert_matches_oracle(m, targets)

    def test_tied_projections_start_from_the_first(self):
        # z = 0 is equally near projections 1 and -1; every cross weight
        # underflows, so the iteration stays where it starts: at the first
        # of the two tied exemplars
        m = crafted_model([[1.0, 1.0], [3.0, 1.0], [1.0, 3.0]], [0.0, 0.5, -0.5], [1.0, -1.0, 3.0], 2000.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = assert_matches_oracle(m, [0.0])
        np.testing.assert_array_equal(got, [[1.0, 1.0]])

    def test_repeated_targets_give_equal_rows(self, rng):
        m = fit_kpca(random_set(rng, n=20, d=6))
        z = float(np.median(m.projections))
        got = assert_matches_oracle(m, [z, m.projections.max(), z, z])
        assert np.array_equal(got[0], got[2]) and np.array_equal(got[0], got[3])

    def test_underflowing_weights_fall_back_without_warning(self):
        # alpha sums to 1, so at z = 1 the coefficients are alpha: zero at
        # the start, and every cross weight underflows, so the denominator
        # is zero for both targets
        model = crafted_model([[1.0, 1.0], [3.0, 1.0], [1.0, 3.0]], [0.0, 2.0, -1.0], [1.0, 5.0, -5.0], 2000.0)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = assert_matches_oracle(model, [1.0, 1.0])
        np.testing.assert_array_equal(got, [[1.0, 1.0], [1.0, 1.0]])

    def test_target_that_needs_more_than_max_iter(self, monkeypatch):
        # two exemplars at 0 and 1 with equal coefficients: x <- s(g(2x - 1))
        # with the logistic s, contracting by g/2 = 0.95 towards 0.5 from
        # the start at 0, so it needs about 290 steps
        m = crafted_model([[0.0], [1.0]], [0.0, 0.0], [-1.0, 1.0], 1.9)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = assert_matches_oracle(m, [0.0, 1.0])
        np.testing.assert_array_equal(got[0], [0.0])  # ran to the limit: fallback
        monkeypatch.setattr(sampling, "PREIMAGE_MAX_ITER", 1000)
        got = assert_matches_oracle(m, [0.0, 1.0])
        assert got[0, 0] == pytest.approx(0.5, abs=1e-6)

    def test_zero_norm_iterate_falls_back(self):
        # exemplars at +1 and -1 with equal coefficients and a tiny
        # bandwidth: the second step weights both equally and lands exactly
        # on the origin, so the converged point has zero norm
        m = crafted_model([[1.0], [-1.0]], [0.5, 0.5], [1.0, -1.0], 1e-12)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            got = assert_matches_oracle(m, [1.0])
        np.testing.assert_array_equal(got, [[1.0]])

    def test_non_finite_iterate_falls_back(self):
        # coefficients (1.5, 1.5, -2) on exemplars at 1.5e308: the weighted
        # sum overflows, which the loop reports as it always has
        m = crafted_model([[1.5e308], [1.5e308], [1.5e308]], [1.5, 1.5, -2.0], [0.0, 0.0, 0.0], 1.0)
        got = assert_matches_oracle(m, [1.0, 1.0])
        np.testing.assert_array_equal(got, [[1.5e308], [1.5e308]])

    def test_no_targets(self, rng):
        m = fit_kpca(random_set(rng, n=12, d=3))
        assert pre_images(m, []).shape == (0, 3)


class TestRobustSelect:
    def test_small_set_passes_through(self, rng):
        s = random_set(rng, n=5, d=4)
        assert robust_select(s, 10) is s

    def test_output_size(self):
        s = segment_set(n=100)
        assert robust_select(s, 10).size == 10

    def test_segment_recovery(self):
        s = segment_set(n=100)
        sel = robust_select(s, 10)
        assert max_max_sim(sel, s).score[0] >= 0.999
        coverage = np.max(np.abs(s.unit_exemplars @ sel.unit_exemplars.T), axis=1)
        assert np.min(coverage) >= 0.99

    def test_endpoints_attained(self):
        s = segment_set(n=60)
        m = fit_kpca(s)
        targets = np.linspace(float(m.projections.min()), float(m.projections.max()), 10)
        assert targets[0] == pytest.approx(float(m.projections.min()))
        assert targets[-1] == pytest.approx(float(m.projections.max()))

    def test_deterministic(self):
        a = robust_select(segment_set(n=80), 10)
        b = robust_select(segment_set(n=80), 10)
        assert np.array_equal(a.exemplars, b.exemplars)

    def test_needs_two_samples(self, rng):
        with pytest.raises(ValueError):
            robust_select(random_set(rng, n=30, d=3), 1)

    @pytest.mark.parametrize("n_samples", [10.0, 25.5])
    def test_sample_count_must_be_an_integer(self, rng, n_samples):
        # 10.0 would reach np.linspace, 25.5 would pass the 20-exemplar set
        # through unchanged
        with pytest.raises(ValueError, match="n_samples must be an integer >= 2"):
            robust_select(random_set(rng, n=20, d=3), n_samples)


class TestMedianHeuristic:
    def test_matches_direct_median(self, rng):
        x = rng.normal(size=(20, 3))
        dists = [
            np.linalg.norm(x[i] - x[j]) for i in range(20) for j in range(i + 1, 20)
        ]
        expected = 1.0 / (2.0 * np.median(dists) ** 2)
        assert fit_kpca(FaceSet("q", x)).gamma == pytest.approx(expected, rel=1e-9)
