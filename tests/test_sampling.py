import numpy as np
import pytest

from lqts.corpus import FaceSet
from lqts.errors import DegenerateSetError
from lqts.sampling import (
    KpcaModel,
    energy_report,
    expansion_coefficients,
    fit_kpca,
    median_heuristic_gamma,
    pre_image,
    robust_select,
)
from lqts.similarity import max_max_sim

from conftest import random_set


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

    def test_singleton_rejected(self):
        with pytest.raises(DegenerateSetError):
            fit_kpca(FaceSet("one", np.ones((1, 3))))

    def test_alpha_normalization(self, rng):
        m = fit_kpca(random_set(rng, n=20, d=4))
        assert m.eigenvalues[0] * float(m.alpha @ m.alpha) == pytest.approx(1.0, abs=1e-8)

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
        # crafted model: at the starting exemplar the coefficient is exactly
        # zero and every cross kernel underflows, so all weights vanish
        model = KpcaModel(
            exemplars=np.array([[1.0, 1.0], [3.0, 1.0], [1.0, 3.0]]),
            gamma=2000.0,
            alpha=np.array([-5e-4, 0.5, -0.5]),
            eigenvalues=np.array([2.0, 0.0, 0.0]),
            projections=np.array([1000.0, 1.0, -1.0]),
        )
        out = pre_image(model, 1000.0)
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


class TestMedianHeuristic:
    def test_matches_direct_median(self, rng):
        x = rng.normal(size=(20, 3))
        dists = [
            np.linalg.norm(x[i] - x[j]) for i in range(20) for j in range(i + 1, 20)
        ]
        expected = 1.0 / (2.0 * np.median(dists) ** 2)
        assert median_heuristic_gamma(x) == pytest.approx(expected, rel=1e-9)
