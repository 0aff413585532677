import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lqts.corpus import FaceSet
from lqts.errors import DimensionMismatchError, ZeroVectorError
from lqts.similarity import DEFAULT_SUBSPACE_DIM, cosine_sim, fit_subspace, max_corr, max_max_sim

from conftest import random_set
import oracles


def brute_force_max_max(a: FaceSet, b: FaceSet):
    """Independent oracle: plain double loop over exemplar pairs."""
    best, best_pair = -1.0, None
    for i, u in enumerate(a.exemplars):
        for j, v in enumerate(b.exemplars):
            c = abs(float(u @ v)) / (np.linalg.norm(u) * np.linalg.norm(v))
            if c > best:
                best, best_pair = c, (i, j)
    return best, best_pair


def grid_max_corr(basis_a, basis_b, steps=2000):
    """Independent oracle: exhaustive |cos| maximization over unit vectors
    parameterized on a fine angular grid inside each (<=2-D) subspace."""

    def grid(basis):
        k = basis.shape[0]
        if k == 1:
            return basis
        angles = np.linspace(0.0, np.pi, steps, endpoint=False)
        return np.cos(angles)[:, None] * basis[0] + np.sin(angles)[:, None] * basis[1]

    ga, gb = grid(basis_a), grid(basis_b)
    return float(np.max(np.abs(ga @ gb.T)))


class TestCosine:
    def test_identical_direction(self):
        assert cosine_sim(np.array([3.0, 4.0]), np.array([3.0, 4.0])) == pytest.approx(1.0)

    def test_orthogonal(self):
        assert cosine_sim(np.array([1.0, 0.0]), np.array([0.0, 1.0])) == 0.0

    def test_45_degrees(self):
        assert cosine_sim(np.array([1.0, 0.0]), np.array([1.0, 1.0])) == pytest.approx(
            0.707107, abs=1e-6
        )

    def test_zero_vector_rejected(self):
        with pytest.raises(ZeroVectorError):
            cosine_sim(np.zeros(3), np.ones(3))

    def test_dim_mismatch(self):
        with pytest.raises(DimensionMismatchError):
            cosine_sim(np.ones(3), np.ones(4))

    @given(st.integers(0, 2**32 - 1))
    @settings(max_examples=30, deadline=None)
    def test_scale_invariance_and_symmetry(self, seed):
        r = np.random.default_rng(seed)
        u, v = r.normal(size=4), r.normal(size=4)
        c = r.uniform(0.1, 50.0)
        assert cosine_sim(u, v) == pytest.approx(cosine_sim(v, u))
        assert cosine_sim(c * u, v) == pytest.approx(cosine_sim(u, v), abs=1e-12)
        assert 0.0 <= cosine_sim(u, v) <= 1.0


class TestMaxMax:
    def test_hand_case(self):
        a = FaceSet("a", np.array([[1.0, 0.0], [0.0, 1.0]]))
        b = FaceSet("b", np.array([[0.6, 0.8]]))
        r = max_max_sim(a, b)
        mode_a, mode_b = oracles.ambient_pair(r, a, b)
        assert r.score[0] == pytest.approx(0.8)
        assert np.array_equal(mode_a[0], a.unit_exemplars[1])
        assert np.array_equal(mode_b[0], b.unit_exemplars[0])

    def test_identical_sets_score_one(self, rng):
        a = random_set(rng, "a", n=6, d=5)
        assert max_max_sim(a, a).score[0] == pytest.approx(1.0)

    def test_orthogonal_singletons(self):
        a = FaceSet("a", np.array([[1.0, 0.0]]))
        b = FaceSet("b", np.array([[0.0, 1.0]]))
        assert max_max_sim(a, b).score[0] == 0.0

    def test_dim_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            max_max_sim(random_set(rng, "a", d=4), random_set(rng, "b", d=5))

    def test_tie_break_smallest_pair(self):
        # every pair scores 1.0, and each pair has its own (mode_a, mode_b)
        a = FaceSet("a", np.array([[2.0, 0.0], [-1.0, 0.0]]))
        b = FaceSet("b", np.array([[-3.0, 0.0], [5.0, 0.0]]))
        mode_a, mode_b = oracles.ambient_pair(max_max_sim(a, b), a, b)
        assert np.array_equal(mode_a[0], [1.0, 0.0])
        assert np.array_equal(mode_b[0], [-1.0, 0.0])

    def test_matches_brute_force_oracle(self, rng):
        for _ in range(50):
            a = random_set(rng, "a", n=int(rng.integers(1, 9)), d=6)
            b = random_set(rng, "b", n=int(rng.integers(1, 9)), d=6)
            r = max_max_sim(a, b)
            (mode_a,), (mode_b,) = oracles.ambient_pair(r, a, b)
            score, (i, j) = brute_force_max_max(a, b)
            assert r.score[0] == pytest.approx(score, abs=1e-9)
            assert np.array_equal(mode_a, a.unit_exemplars[i])
            assert np.array_equal(mode_b, b.unit_exemplars[j])
            assert r.score[0] == pytest.approx(max_max_sim(b, a).score[0], abs=1e-12)
            assert abs(cosine_sim(mode_a, mode_b) - r.score[0]) < 1e-8


class TestFitSubspace:
    def test_rank_one_data_clips_k(self):
        s = FaceSet("s", np.array([[2.0, 0.0], [5.0, 0.0]]))
        sub = fit_subspace(s, k=6)
        assert sub.shape == (1, 2)
        np.testing.assert_allclose(sub[0], [1.0, 0.0], atol=1e-12)

    def test_orthonormal_rows(self, rng):
        s = random_set(rng, "s", n=7, d=4)
        sub = fit_subspace(s, k=2)
        np.testing.assert_allclose(sub @ sub.T, np.eye(2), atol=1e-8)

    def test_energy_matches_gram_eigensolver(self, rng):
        # independent oracle: eigendecomposition of the uncentered Gram matrix
        s = random_set(rng, "s", n=10, d=8)
        sub = fit_subspace(s, k=6)
        captured = float(np.sum((s.exemplars @ sub.T) ** 2))
        gram_vals = np.linalg.eigvalsh(s.exemplars.T @ s.exemplars)[::-1]
        assert captured == pytest.approx(float(np.sum(gram_vals[:6])), rel=1e-9)

    def test_scale_equivariance(self, rng):
        s = random_set(rng, "s", n=9, d=6)
        scaled = FaceSet("s2", 7.5 * s.exemplars)
        b1 = fit_subspace(s, k=3)
        b2 = fit_subspace(scaled, k=3)
        # principal angles between the two spans must vanish
        sing = np.linalg.svd(b1 @ b2.T, compute_uv=False)
        assert np.all(np.arccos(np.clip(sing, -1, 1)) < 1e-6)

    @pytest.mark.parametrize("k", [2.5, True, 0])
    def test_k_must_be_an_integer_of_at_least_one(self, rng, k):
        # 2.5 would fail in slicing, and True would give a one-row basis
        with pytest.raises(ValueError, match="k must be an integer >= 1"):
            fit_subspace(random_set(rng, "s", n=5, d=6), k=k)

    def test_sign_convention(self, rng):
        s = random_set(rng, "s", n=5, d=6)
        basis = fit_subspace(s, k=3)
        for row in basis:
            assert row[np.argmax(np.abs(row))] > 0


class TestMaxCorr:
    def test_identical_subspaces(self, rng):
        sub = fit_subspace(random_set(rng, "s", n=5, d=6), k=3)
        r = max_corr(sub, sub)
        assert r.score[0] == pytest.approx(1.0, abs=1e-9)

    def test_orthogonal_lines(self):
        a = np.array([[1.0, 0.0, 0.0]])
        b = np.array([[0.0, 1.0, 0.0]])
        assert max_corr(a, b).score[0] == pytest.approx(0.0, abs=1e-12)

    def test_hand_case_45_degrees(self):
        a = np.array([[1.0, 0.0]])
        b = np.array([[1.0, 1.0]]) / np.sqrt(2)
        r = max_corr(a, b)
        (mode_a,), (mode_b,) = oracles.ambient_pair(r, a, b)
        assert r.score[0] == pytest.approx(0.707107, abs=1e-6)
        np.testing.assert_allclose(np.abs(mode_a), [1.0, 0.0], atol=1e-12)
        np.testing.assert_allclose(np.abs(mode_b), [1 / np.sqrt(2)] * 2, atol=1e-12)
        assert float(mode_a @ mode_b) >= 0

    def test_matches_grid_oracle(self, rng):
        for _ in range(30):
            d = int(rng.integers(2, 9))
            ka = int(rng.integers(1, 3))
            kb = int(rng.integers(1, 3))
            a = fit_subspace(random_set(rng, "a", n=6, d=d), k=ka)
            b = fit_subspace(random_set(rng, "b", n=6, d=d), k=kb)
            r = max_corr(a, b)
            (mode_a,), (mode_b,) = oracles.ambient_pair(r, a, b)
            assert r.score[0] == pytest.approx(grid_max_corr(a, b), abs=1e-3)
            assert -1e-9 <= r.score[0] <= 1 + 1e-9
            assert abs(cosine_sim(mode_a, mode_b) - r.score[0]) < 1e-8

    def test_invariant_under_reparameterization(self, rng):
        a = fit_subspace(random_set(rng, "a", n=8, d=7), k=3)
        b = fit_subspace(random_set(rng, "b", n=8, d=7), k=3)
        q, _ = np.linalg.qr(rng.normal(size=(3, 3)))
        rotated = q.T @ a
        assert max_corr(rotated, b).score[0] == pytest.approx(max_corr(a, b).score[0], abs=1e-8)


class TestBatchOfOne:
    """max_max_sim and max_corr are their batch kernels over one pair, equal
    bit for bit to the scalar pair functions they replaced, ambient modes
    included; one object on both sides follows the self-pair rule."""

    @given(seed=st.integers(0, 2**32 - 1), m_a=st.integers(1, 9), m_b=st.integers(1, 9))
    @settings(max_examples=60, deadline=None)
    def test_equals_scalar_pair_functions(self, seed, m_a, m_b):
        r = np.random.default_rng(seed)
        d = int(r.integers(2, 12))
        a = FaceSet("a", r.normal(size=(m_a, d)))
        b = FaceSet("b", r.normal(size=(m_b, d)))
        sa, sb = fit_subspace(a), fit_subspace(b)
        pairs = [(max_max_sim, a, b), (max_corr, sa, sb), (max_max_sim, a, a), (max_corr, sa, sa)]
        for fn, x, y in pairs:
            got, want = fn(x, y), oracles.match(x, y)
            (mode_a,), (mode_b,) = oracles.ambient_pair(got, x, y)
            assert got.score[0] == want.score
            assert np.array_equal(mode_a, want.mode_a)
            assert np.array_equal(mode_b, want.mode_b)

    def test_subspace_dim_mismatch(self, rng):
        with pytest.raises(DimensionMismatchError):
            max_corr(fit_subspace(random_set(rng, "a", d=4)), fit_subspace(random_set(rng, "b", d=5)))


class TestSelfPair:
    """A set or basis compared with itself, as one object, scores exactly 1
    with both modes on its first unit exemplar or first basis vector,
    whatever rounding the kernel's product would give."""

    def test_wide_sets_follow_the_rule(self):
        r = np.random.default_rng(0)
        for n in range(100):
            s = FaceSet(f"s{n}", r.normal(size=(10, 96)))
            got = max_max_sim(s, s)
            (mode_a,), (mode_b,) = oracles.ambient_pair(got, s, s)
            assert got.score[0] == 1.0
            assert np.array_equal(mode_a, s.unit_exemplars[0])
            assert np.array_equal(mode_b, s.unit_exemplars[0])
            basis = fit_subspace(s)
            got = max_corr(basis, basis)
            (mode_a,), (mode_b,) = oracles.ambient_pair(got, basis, basis)
            assert got.score[0] == 1.0
            assert np.array_equal(mode_a, basis[0])
            assert np.array_equal(mode_b, basis[0])


def orthonormal_rows(x: np.ndarray) -> np.ndarray:
    """Orthonormal rows spanning the rows of x, row i in the span of rows
    0..i."""
    return np.linalg.qr(x.T)[0].T


BASIS_PAIR_KINDS = [
    "orthogonal",
    "near-orthogonal",
    "shared",
    "repeated",
    "rank-clipped",
    "close",
    "same-span",
    "single",
]


def basis_pair(r, kind: str):
    """Two (k, d) orthonormal bases whose first canonical correlation is of
    the given kind."""
    d = int(r.integers(DEFAULT_SUBSPACE_DIM, 40))  # so rank clipping sets k below d
    k_a, k_b = (int(k) for k in r.integers(1, min(6, d // 2) + 1, size=2))
    q = np.linalg.qr(r.normal(size=(d, d)))[0].T  # d orthonormal rows
    if kind == "orthogonal":  # M is exactly zero
        rows = np.eye(d)[r.permutation(d)] * r.choice([-1.0, 1.0], size=(d, 1))
        return rows[:k_a], rows[k_a : k_a + k_b]
    a, w = q[:k_a], q[k_a : k_a + k_b]
    if kind == "near-orthogonal":
        return a, orthonormal_rows(w + 10.0 ** -r.uniform(3, 12) * r.normal(size=w.shape))
    if kind == "shared":  # one row of b, at any position, lies in a's span
        rows = list(w[1:])
        rows.insert(int(r.integers(k_b)), r.normal(size=k_a) @ a)
        return a, orthonormal_rows(np.array(rows))
    if kind == "close":  # σ₁ − σ₂ from 1e-9 to 1e-4, both sides of test_matches_svd's 1e-6
        k = max(min(k_a, k_b), 2)
        sigma = np.sort(r.uniform(0.0, 0.9, size=k))[::-1]
        sigma[0] = r.uniform(0.1, 1.0)
        sigma[1] = sigma[0] - 10.0 ** -r.uniform(4, 9)
        sigma[2:] = np.minimum(sigma[2:], 0.9 * sigma[1])
        a, w = q[:k], q[k : 2 * k]
        b = sigma[:, None] * a + np.sqrt(1.0 - sigma**2)[:, None] * w
        spin_a, spin_b = (np.linalg.qr(r.normal(size=(k, k)))[0] for _ in range(2))
        return spin_a @ a, spin_b @ b
    if kind == "same-span":  # every canonical correlation is 1
        return a, np.linalg.qr(r.normal(size=(k_a, k_a)))[0] @ a
    if kind == "single":  # k_b = 1
        return a, orthonormal_rows(r.normal(size=k_a) @ a + r.uniform(0.0, 2.0) * w[:1])
    if kind == "repeated":  # the top two canonical angles are equal
        k = min(k_a, k_b, 2)
        theta = np.sort(r.uniform(0.0, 1.5, size=k_b))
        theta[:k] = theta[0]
        b = np.sin(theta)[:, None] * w
        b[:k_a] += np.cos(theta[:k_a])[:, None] * a[: min(k_a, k_b)]
        spin = np.linalg.qr(r.normal(size=(k_b, k_b)))[0]  # same span, other rows
        return a, spin @ b
    # rank-clipped: fits of sets with fewer exemplars than the subspace dim
    m_a, m_b = r.choice(np.arange(1, DEFAULT_SUBSPACE_DIM), size=2, replace=False)
    return (fit_subspace(FaceSet(s, r.normal(size=(m, d)))) for s, m in (("a", m_a), ("b", m_b)))


class TestAgainstSvd:
    """The kernel, σ₁ from the Gram's top eigenvalue and modes by inverse
    iteration, against the full SVD of a·bᵀ, which it replaced: the score
    within a few ulps of σ₁, unit modes in their spans whose mutual
    |cosine| is the score, and, where σ₁ is well separated from σ₂, the
    SVD's modes up to sign. Row-0 modes where σ₁ is exactly 0."""

    @given(seed=st.integers(0, 2**32 - 1), kind=st.sampled_from(BASIS_PAIR_KINDS))
    @settings(max_examples=300, deadline=None)
    def test_matches_svd(self, seed, kind):
        a, b = basis_pair(np.random.default_rng(seed), kind)
        got = max_corr(a, b)
        (mode_a,), (mode_b,) = oracles.ambient_pair(got, a, b)
        score = got.score[0]
        sing = np.linalg.svd(a @ b.T, compute_uv=False)
        want = oracles.svd_max_corr(a, b)
        assert abs(score - want.score) <= 4e-15
        for mode, basis in ((mode_a, a), (mode_b, b)):
            assert abs(np.linalg.norm(mode) - 1.0) <= 1e-12
            assert np.linalg.norm(mode - (mode @ basis.T) @ basis) <= 1e-12
        assert abs(abs(float(mode_a @ mode_b)) - score) <= 1e-12
        second = sing[1] if len(sing) > 1 else 0.0
        if kind == "close":
            assert 1e-9 <= sing[0] - second <= 1e-4
        if sing[0] - second > 1e-6:
            for mode, ref in ((mode_a, want.mode_a), (mode_b, want.mode_b)):
                assert min(np.linalg.norm(mode - ref), np.linalg.norm(mode + ref)) <= 1e-8
        if kind == "orthogonal":  # σ₁ = 0: row 0 of each basis, flipped together
            assert score == 0.0
            sign = 1.0 if np.array_equal(mode_a, a[0]) else -1.0
            assert np.array_equal(mode_a, sign * a[0]) and np.array_equal(mode_b, sign * b[0])

    def test_zero_correlation_modes_are_row_zero(self):
        a = np.array([[0.0, 0.0, -1.0], [1.0, 0.0, 0.0]])
        b = np.array([[0.0, 1.0, 0.0]])
        got = max_corr(a, b)
        (mode_a,), (mode_b,) = oracles.ambient_pair(got, a, b)
        assert got.score[0] == 0.0
        # row 0 of each basis: the coordinates are e₀ on both sides, whose
        # largest entry is positive, so neither flips
        assert np.array_equal(mode_a, a[0])
        assert np.array_equal(mode_b, b[0])
