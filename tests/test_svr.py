import contextlib
import logging
import tracemalloc
from unittest import mock

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st
from scipy.optimize import minimize

import lqts.svr
from lqts.errors import TrainingError
from lqts.svr import (
    ETA_FLOOR,
    PREDICT_BLOCK_BYTES,
    SvrConfig,
    SvrModel,
    _RowCache,
    _second_order_j,
    predict,
    train,
)

from conftest import training_table
from oracles import (
    EagerRowCache,
    _wss2_j,
    dual_objective,
    eager_train,
    rbf_kernel,
    reference_predict,
    reference_train,
    reference_train_wss2,
)


def assert_same_model(got: SvrModel, want: SvrModel) -> None:
    """Exact equality of everything train returns, no tolerance."""
    assert np.array_equal(got.support_vectors, want.support_vectors)
    assert np.array_equal(got.coefficients, want.coefficients)
    assert got.bias == want.bias
    assert np.array_equal(got.objective_trace, want.objective_trace)
    assert got.kkt_violation == want.kkt_violation
    assert got.objective == want.objective


def oracle_two_point_grid(x, y, config, steps=400_001):
    """Exhaustive 1-D grid over the equality-constrained 2-point dual.

    With sum(beta)=0 the dual reduces to beta = (-t, t); the minimal
    decomposition alpha = max(beta,0), alpha* = max(-beta,0) is optimal
    because any common offset only adds 2*eps*offset.
    """
    k12 = float(rbf_kernel(x[0], x[1], config.kernel_gamma)[0, 0])
    ts = np.linspace(-min(config.cost, 5.0), min(config.cost, 5.0), steps)
    f = (1.0 - k12) * ts**2 + config.epsilon * 2 * np.abs(ts) - (y[1] - y[0]) * ts
    return float(np.min(f))


def oracle_slsqp(x, y, config, starts=12, seed=0):
    """Independent dual minimization: multi-start SLSQP on the bounded QP.

    The problem is convex, so the best local optimum is global.
    """
    l = len(y)
    k = rbf_kernel(x, x, config.kernel_gamma)

    def objective(theta):
        a, astar = theta[:l], theta[l:]
        beta = a - astar
        return 0.5 * beta @ k @ beta + config.epsilon * np.sum(theta) - y @ beta

    def gradient(theta):
        beta = theta[:l] - theta[l:]
        kb = k @ beta
        return np.concatenate([kb + config.epsilon - y, -kb + config.epsilon + y])

    constraint = {
        "type": "eq",
        "fun": lambda t: np.sum(t[:l]) - np.sum(t[l:]),
        "jac": lambda t: np.concatenate([np.ones(l), -np.ones(l)]),
    }
    bounds = [(0.0, config.cost)] * (2 * l)
    rng = np.random.default_rng(seed)
    best = np.inf
    for trial in range(starts):
        t0 = np.zeros(2 * l) if trial == 0 else rng.uniform(0, min(config.cost, 2.0), 2 * l)
        t0[l:] = t0[:l]  # feasible start
        res = minimize(
            objective,
            t0,
            jac=gradient,
            bounds=bounds,
            constraints=[constraint],
            method="SLSQP",
            options={"maxiter": 500, "ftol": 1e-12},
        )
        if res.fun < best:
            best = float(res.fun)
    return best


class TestTrainBasics:
    def test_single_sample_constant_model(self):
        m = train(training_table(np.array([[0.1, 0.2, 0.3, 0.4, 0.5]]), np.array([1.0])))
        assert m.n_support == 0
        assert m.bias == 1.0
        assert predict(m, np.zeros(5)) == 1.0

    def test_constant_targets_constant_model(self, rng):
        x = rng.random((25, 5))
        m = train(training_table(x, np.full(25, 0.5)))
        assert m.n_support == 0
        assert m.bias == 0.5
        assert predict(m, rng.random(5)) == 0.5

    def test_two_point_case(self):
        x = np.vstack([np.zeros(5), np.ones(5)])
        m = train(training_table(x, np.array([0.0, 1.0])))
        pred = predict(m, x)
        assert abs(pred[0] - 0.0) <= 0.4 + 1e-9
        assert abs(pred[1] - 1.0) <= 0.4 + 1e-9
        # hand solution: beta = -+ 0.2 / (2 (1 - exp(-1))), bias 0.5
        t_star = 0.2 / (2.0 * (1.0 - np.exp(-1.0)))
        np.testing.assert_allclose(np.sort(m.coefficients), [-t_star, t_star], atol=1e-4)
        assert m.bias == pytest.approx(0.5, abs=1e-3)

    def test_two_point_objective_matches_grid_oracle(self):
        x = np.vstack([np.zeros(5), np.ones(5)])
        y = np.array([0.0, 1.0])
        cfg = SvrConfig()
        m = train(training_table(x, y), cfg)
        assert m.objective == pytest.approx(oracle_two_point_grid(x, y, cfg), rel=1e-6, abs=1e-9)

    def test_empty_corpus_rejected(self):
        with pytest.raises(TrainingError):
            train(training_table(np.empty((0, 5)), np.empty(0)))

    def test_nonfinite_rejected(self):
        with pytest.raises(TrainingError):
            train(training_table(np.array([[np.nan] * 5]), np.array([1.0])))

    def test_row_whose_squared_norm_overflows_rejected(self):
        x = np.vstack([np.full(5, 0.5), [4.9e194, 0.5, 0.5, 0.5, 0.5]])
        with pytest.raises(TrainingError, match="overflowing row norm"):
            train(training_table(x, np.array([0.0, 1.0])))


class TestConfig:
    @pytest.mark.parametrize(
        "name, value",
        [
            ("epsilon", 0.0),
            ("cost", np.nan),
            ("kernel_gamma", -1.0),
            ("kkt_tolerance", np.nan),
            ("kkt_tolerance", np.inf),
            ("kkt_tolerance", -1e-3),
            ("max_passes", -1),
            ("max_passes", 2.5),
            ("max_passes", 10.0),
            ("max_passes", True),
            ("max_passes", False),
        ],
    )
    def test_invalid_value_rejected(self, name, value):
        with pytest.raises(ValueError, match=name):
            SvrConfig(**{name: value})

    def test_zero_tolerance_and_budget_allowed(self, rng):
        x, y = rng.normal(size=(6, 5)), rng.normal(size=6)
        model = train(training_table(x, y), SvrConfig(kkt_tolerance=0.0, max_passes=0))
        assert len(model.objective_trace) == 1
        assert SvrConfig(max_passes=np.int64(3)).max_passes == 3


class TestDualContract:
    def _corpus(self, rng, l=60):
        x = rng.random((l, 5))
        # noisy two-cluster targets, a few flipped like corrupt labels
        y = (x[:, 1] > 0.5).astype(float)
        flip = rng.random(l) < 0.1
        y[flip] = 1.0 - y[flip]
        return x, y

    def test_dual_feasibility(self, rng):
        x, y = self._corpus(rng)
        cfg = SvrConfig(epsilon=0.1, cost=10.0)
        m = train(training_table(x, y), cfg)
        assert abs(float(np.sum(m.coefficients))) <= 1e-6
        assert np.all(np.abs(m.coefficients) <= cfg.cost + 1e-9)
        assert not np.any(m.coefficients == 0.0)

    def test_epsilon_insensitivity_at_nonbound_points(self, rng):
        x, y = self._corpus(rng)
        cfg = SvrConfig(epsilon=0.1, cost=10.0)
        m = train(training_table(x, y), cfg)
        preds = predict(m, m.support_vectors)
        targets = []
        for sv in m.support_vectors:
            idx = int(np.where((x == sv).all(axis=1))[0][0])
            targets.append(y[idx])
        nonbound = np.abs(m.coefficients) < cfg.cost - 1e-6
        errs = np.abs(preds - np.array(targets))[nonbound]
        assert np.all(errs <= cfg.epsilon + cfg.kkt_tolerance)

    def test_objective_trace_non_increasing(self, rng):
        x, y = self._corpus(rng)
        m = train(training_table(x, y), SvrConfig(epsilon=0.1, cost=10.0))
        trace = m.objective_trace
        assert len(trace) >= 2
        assert np.all(np.diff(trace) <= 1e-12)

    def test_deterministic(self, rng):
        x, y = self._corpus(rng)
        m1 = train(training_table(x, y))
        m2 = train(training_table(x, y))
        assert m1 == m2

    @pytest.mark.parametrize("l", [2, 3, 4, 5, 6])
    def test_objective_matches_slsqp_oracle(self, l):
        rng = np.random.default_rng(100 + l)
        x = rng.random((l, 5))
        y = rng.random(l)
        cfg = SvrConfig(epsilon=0.05, cost=50.0)
        m = train(training_table(x, y), cfg)
        oracle = oracle_slsqp(x, y, cfg)
        scale = max(abs(oracle), 1e-3)
        assert m.objective <= oracle + 1e-2 * scale
        assert abs(m.objective - oracle) <= 1e-2 * scale


class TestPredict:
    def test_constant_model(self):
        m = SvrModel(
            support_vectors=np.empty((0, 5)),
            coefficients=np.empty(0),
            bias=0.7,
            config=SvrConfig(),
        )
        assert predict(m, np.zeros(5)) == 0.7
        np.testing.assert_array_equal(predict(m, np.random.rand(4, 5)), np.full(4, 0.7))

    def test_kernel_at_support_vector(self):
        sv = np.array([[0.2, 0.4, 0.6, 0.8, 1.0], [1.0, 0.0, 0.0, 0.0, 0.0]])
        m = SvrModel(
            support_vectors=sv,
            coefficients=np.array([1.0, -1.0]),
            bias=0.0,
            config=SvrConfig(),
        )
        k_cross = float(rbf_kernel(sv[0], sv[1], 0.2)[0, 0])
        assert predict(m, sv[0]) == pytest.approx(1.0 - k_cross, abs=1e-12)

    def test_clamp_only_where_the_exponent_rounds_above_zero(self):
        # at its own support vectors a model's exponent GEMM rounds some
        # −γ‖x − s‖² = 0 above 0; predict clamps only the blocks where that
        # happens, which must equal clamping every block
        rng = np.random.default_rng(0)
        sv = rng.random((40, 5))
        coeff = rng.permutation(np.repeat([1e3, -1e3], 20))
        model = SvrModel(support_vectors=sv, coefficients=coeff, bias=0.1, config=SvrConfig())
        aug = np.column_stack([sv, np.einsum("ij,ij->i", sv, sv), np.ones(len(sv))])
        k = np.matmul(aug, model._exponent_weights)
        above = k.reshape(20, 2, 40).max(axis=(1, 2)) > 0.0  # by two-row block
        assert above.any() and not above.all()
        want = np.vecdot(np.exp(np.minimum(k, 0.0)), model.coefficients) + model.bias
        for budget in (8 * 2 * len(sv), PREDICT_BLOCK_BYTES):  # two-row blocks, one block
            with mock.patch.object(lqts.svr, "PREDICT_BLOCK_BYTES", budget):
                assert np.array_equal(predict(model, sv), want)

    def test_lone_effective_support_vector(self):
        # a lone beta=1 vector paired with a negligibly-coupled partner
        # (the coefficient-sum invariant requires them to cancel)
        v = np.full(5, 0.5)
        far_partner = v + 10.0
        m = SvrModel(
            support_vectors=np.vstack([v, far_partner]),
            coefficients=np.array([1.0, -1.0]),
            bias=0.0,
            config=SvrConfig(),
        )
        assert predict(m, v) == pytest.approx(1.0, abs=1e-9)

    def test_far_input_decays_to_bias(self):
        m = SvrModel(
            support_vectors=np.vstack([np.full(5, 0.5), np.full(5, 0.6)]),
            coefficients=np.array([1.0, -1.0]),
            bias=0.3,
            config=SvrConfig(),
        )
        # exp(-0.2 D^2) < 0.5e-6 per unit coefficient needs D^2 > 72.6
        far = np.full(5, 0.6 + np.sqrt(75.0 / 5.0))
        assert predict(m, far) == pytest.approx(0.3, abs=1e-6)

    def test_dual_objective_helper_matches_trained_value(self, rng):
        x = rng.random((10, 5))
        y = rng.random(10)
        cfg = SvrConfig(epsilon=0.05, cost=5.0)
        m = train(training_table(x, y), cfg)
        # rebuild full (alpha, alpha*) from beta's minimal decomposition:
        # valid because the solver's optimum never has both sides active
        beta = np.zeros(10)
        for c, sv in zip(m.coefficients, m.support_vectors):
            idx = int(np.where((x == sv).all(axis=1))[0][0])
            beta[idx] = c
        alpha, alpha_star = np.maximum(beta, 0.0), np.maximum(-beta, 0.0)
        assert dual_objective(x, y, alpha, alpha_star, cfg) == pytest.approx(
            m.objective, abs=1e-8
        )


def predict_tolerance(model: SvrModel) -> float:
    """How far `predict` may be from `reference_predict`.

    Each kernel value is exp of an exponent that both forms compute with
    an absolute error of a few ulps of gamma * (|x| + |sv|)^2 * k(x, sv),
    which stays below about 4 for rows near the unit cube (and vanishes
    for far rows, where k underflows); the two coefficient sums then
    round differently. 64 ulps of the absolute sum covers both with room
    to spare (the 1,397-SV exemplar model needs about 5), while a wrong or
    missing term errs by its whole |beta_i| k(x, sv_i).
    """
    scale = float(np.sum(np.abs(model.coefficients))) + abs(model.bias)
    return 64 * np.finfo(np.float64).eps * scale


@st.composite
def predict_problems(draw):
    """A model of 0 to 24 support vectors in the unit cube, coefficients in
    cancelling pairs from 1e-3 to the cost bound, and a block budget of 1
    to 5 rows (predict raises 1 to 2); the rows mix fresh points,
    duplicates, support vectors (kernel 1) and far points (kernel 0),
    1, block - 1, block, block + 1 or several blocks of them."""
    pairs = draw(st.integers(0, 12))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    sv = rng.random((2 * pairs, 5))
    mags = draw(st.lists(st.sampled_from([1e-3, 0.5, 1.0, 1000.0]), min_size=pairs, max_size=pairs))
    coeff = rng.permutation(np.concatenate([mags, np.negative(mags)]))
    bias = draw(st.sampled_from([-0.3, 0.0, 0.7]))
    model = SvrModel(support_vectors=sv, coefficients=coeff, bias=bias, config=SvrConfig())
    block = draw(st.integers(1, 5))
    n_rows = draw(st.sampled_from([1, max(block - 1, 1), block, block + 1, 3 * block + 2]))
    kinds = draw(
        st.lists(
            st.sampled_from(["fresh", "duplicate", "support", "far"]),
            min_size=n_rows,
            max_size=n_rows,
        )
    )
    rows = rng.random((n_rows, 5))
    for i, kind in enumerate(kinds):
        if kind == "duplicate" and i:
            rows[i] = rows[rng.integers(i)]
        elif kind == "support" and pairs:
            rows[i] = sv[rng.integers(2 * pairs)]
        elif kind == "far":
            rows[i] += 20.0
    return model, 8 * 2 * pairs * block, rows


class TestPredictMatchesReference:
    """Row-blocked predict against the whole-matrix formula it replaced."""

    @given(predict_problems())
    @settings(max_examples=300, deadline=None)
    def test_property(self, problem):
        model, budget, rows = problem
        with mock.patch.object(lqts.svr, "PREDICT_BLOCK_BYTES", budget):
            got = predict(model, rows)
            single = predict(model, rows[0])
        want = reference_predict(model, rows)
        tol = predict_tolerance(model)
        assert got.shape == want.shape
        np.testing.assert_allclose(got, want, rtol=0, atol=tol)
        assert isinstance(single, float)
        assert abs(single - reference_predict(model, rows[0])) <= tol
        assert single == got[0]  # a row's estimate does not depend on its batch
        # nor on its position there: equal rows get equal estimates
        _, first, inverse = np.unique(rows, axis=0, return_index=True, return_inverse=True)
        assert np.array_equal(got, got[first][inverse.reshape(-1)])

    @pytest.mark.parametrize("n_rows", [1, 45, 46, 47, 3 * 46 + 5])
    def test_default_budget_at_exemplar_model_size(self, rng, n_rows):
        assert PREDICT_BLOCK_BYTES // (8 * 1397) == 46  # rows per block
        sv = rng.random((1397, 5))
        # 698 at +C, 697 at -C and two at -C/2: an odd count that sums to 0
        coeff = rng.permutation(np.concatenate([np.full(698, 1e3), np.full(697, -1e3), [-500.0] * 2]))
        model = SvrModel(support_vectors=sv, coefficients=coeff, bias=-0.3, config=SvrConfig())
        rows = rng.random((n_rows, 5))
        rows[::5] = sv[0]  # the same support vector at several block positions
        got = predict(model, rows)
        np.testing.assert_allclose(got, reference_predict(model, rows), rtol=0, atol=predict_tolerance(model))
        assert [predict(model, row) for row in rows] == got.tolist()

    @pytest.mark.parametrize("n_rows", [5_000, 20_000])
    def test_memory_bounded_by_block_not_rows(self, rng, n_rows):
        # one full 5,000 x 1,000 kernel matrix is 40 MB; the blocked form
        # needs the block buffer plus O(rows) input and output vectors
        m = SvrModel(
            support_vectors=rng.random((1000, 5)),
            coefficients=np.repeat([1.0, -1.0], 500),
            bias=0.0,
            config=SvrConfig(),
        )
        rows = rng.random((n_rows, 5))
        tracemalloc.start()
        try:
            predict(m, rows)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak < 2 * 2**20


@contextlib.contextmanager
def rows_left():
    """Yield a list that gets the active row count after each shrinking
    pass that drops rows from the row cache."""
    counts = []
    keep = _RowCache.keep

    def spy(cache, mask):
        keep(cache, mask)
        counts.append(cache.x.shape[0])

    with mock.patch.object(_RowCache, "keep", spy):
        yield counts


# coarse coordinates make duplicate rows (kernel 1, so the eta floor) and
# exact ties between criterion values likely
GRID = (0.0, 0.5, 1.0)
TARGETS = (0.0, 0.25, 1.0)


@st.composite
def svr_problems(draw):
    l = draw(st.integers(1, 14))
    if draw(st.booleans()):
        cells = draw(st.lists(st.sampled_from(GRID), min_size=5 * l, max_size=5 * l))
        x = np.array(cells).reshape(l, 5)
    else:
        x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((l, 5))
    y = np.array(draw(st.lists(st.sampled_from(TARGETS), min_size=l, max_size=l)))
    config = SvrConfig(
        epsilon=draw(st.sampled_from([0.05, 0.4])),
        cost=draw(st.sampled_from([1e-3, 0.1, 1.0, 1000.0])),
        max_passes=draw(st.sampled_from([1, 2, 3, 1_000_000])),
    )
    return x, y, config


class TestMatchesReferenceSolver:
    """train returns exactly what the mask-rebuilding loop with the same pair
    rule returns, while nothing has been shrunk."""

    @given(svr_problems())
    @settings(max_examples=200, deadline=None)
    def test_property_exact(self, problem):
        x, y, config = problem
        table = training_table(x, y)
        with rows_left() as left:
            got = train(table, config)
        assert not left  # too small a problem to shrink at SHRINK_EVERY updates
        assert_same_model(got, reference_train_wss2(table, config))

    @pytest.mark.parametrize("max_passes", [1, 2, 3])
    def test_budget_runs_out(self, rng, max_passes):
        x = rng.random((30, 5))
        y = (x[:, 0] > 0.5).astype(float)
        config = SvrConfig(epsilon=0.05, cost=10.0, max_passes=max_passes)
        table = training_table(x, y)
        got = train(table, config)
        assert len(got.objective_trace) - 1 == max_passes
        assert_same_model(got, reference_train_wss2(table, config))

    def test_duplicate_rows(self, rng):
        base = rng.random((4, 5))
        x = np.vstack([base, base, base[:2]])
        y = np.array([0.0, 1.0, 0.0, 1.0, 1.0, 0.0, 1.0, 0.0, 0.25, 1.0])
        config = SvrConfig(epsilon=0.05, cost=10.0)
        table = training_table(x, y)
        got = train(table, config)
        assert got.n_support > 0
        assert_same_model(got, reference_train_wss2(table, config))

    def test_all_equal_rows_tie_everywhere(self):
        x = np.full((6, 5), 0.5)
        y = np.array([0.0, 0.0, 0.0, 1.0, 1.0, 1.0])
        config = SvrConfig(epsilon=0.05, cost=1.0)
        table = training_table(x, y)
        assert_same_model(train(table, config), reference_train_wss2(table, config))

    def test_constant_targets(self, rng):
        x = rng.random((12, 5))
        y = np.full(12, 0.25)
        table = training_table(x, y)
        got = train(table)
        assert got.n_support == 0
        assert_same_model(got, reference_train_wss2(table))

    @pytest.mark.parametrize("l", [1, 2])
    def test_tiny_corpora(self, rng, l):
        x = rng.random((l, 5))
        y = np.array([0.0, 1.0][:l])
        config = SvrConfig(epsilon=0.05, cost=50.0)
        table = training_table(x, y)
        assert_same_model(train(table, config), reference_train_wss2(table, config))

    def test_every_variable_at_a_bound(self, rng):
        x = rng.random((20, 5))
        y = (x[:, 2] > 0.5).astype(float)
        config = SvrConfig(epsilon=0.05, cost=1e-3)
        table = training_table(x, y)
        got = train(table, config)
        assert got.n_support > 0
        assert np.all(np.abs(got.coefficients) == config.cost)
        assert_same_model(got, reference_train_wss2(table, config))


# criterion values: exact ties, +inf (cannot move down), and values within
# 1e-169 of m_up, whose b^2 underflows to 0
CRITERIA = [-1.0, -0.5, -3e-170, -1e-170, 0.0, 1e-170, 2e-170, 0.25, 0.5, 1.0, np.inf]
# kernel values: 1 gives the curvature floor, 1 - 2^-52 the smallest curvature above it
KERNEL_VALUES = [0.0, 0.25, 0.5, 0.75, 1.0 - 2.0**-52, 1.0]


class TestSecondOrderJ:
    """`_second_order_j` scores only the candidates, and picks what the
    full-width rule of `reference_train_wss2` picks."""

    @given(data=st.data(), n=st.integers(1, 6), m_up=st.sampled_from([0.0, 1e-170, 0.5]))
    @settings(max_examples=500, deadline=None)
    def test_equals_full_width_rule(self, data, n, m_up):
        lowv = np.array(data.draw(st.lists(st.sampled_from(CRITERIA), min_size=2 * n, max_size=2 * n)))
        lowv = lowv.reshape(2, n)
        ki = np.array(data.draw(st.lists(st.sampled_from(KERNEL_VALUES), min_size=n, max_size=n)))
        assume(np.any(lowv < m_up))  # train selects only while the gap is open
        j, eta = _second_order_j(lowv, m_up, ki)
        assert j == _wss2_j(lowv.ravel(), m_up, np.concatenate([ki, ki]))
        assert eta == max(2.0 * (1.0 - ki[j % n]), ETA_FLOOR)

    def test_every_score_underflows_to_the_first_candidate(self):
        # candidates at flat 2, 3 and 5, b = 1e-170, 2e-170 and 1e-170:
        # every b^2 / a is 0, and flat 0, the first zero of a full-width
        # pass that zeroes non-candidates, cannot move down
        lowv = np.array([[np.inf, 1.0, 0.0], [-1e-170, np.inf, 0.0]])
        m_up = 1e-170
        assert np.all((m_up - lowv[lowv < m_up]) ** 2 == 0.0)
        j, eta = _second_order_j(lowv, m_up, np.array([0.5, 0.25, 1.0]))
        assert j == 2 == _wss2_j(lowv.ravel(), m_up, np.array([0.5, 0.25, 1.0] * 2))
        assert eta == ETA_FLOOR


class TestMaxPassesWarning:
    def test_exhausted_budget_is_logged(self, rng, caplog):
        x = rng.random((30, 5))
        y = (x[:, 0] > 0.5).astype(float)
        with caplog.at_level(logging.WARNING, logger="lqts.svr"):
            m = train(training_table(x, y), SvrConfig(epsilon=0.05, cost=10.0, max_passes=3))
        warnings = [r for r in caplog.records if r.name == "lqts.svr"]
        assert len(warnings) == 1
        assert warnings[0].levelno == logging.WARNING
        assert "max_passes=3" in warnings[0].getMessage()
        assert f"{m.kkt_violation:.3g}" in warnings[0].getMessage()
        assert m.kkt_violation > m.config.kkt_tolerance

    def test_converged_run_is_quiet(self, rng, caplog):
        x = rng.random((30, 5))
        y = (x[:, 0] > 0.5).astype(float)
        with caplog.at_level(logging.WARNING, logger="lqts.svr"):
            m = train(training_table(x, y), SvrConfig(epsilon=0.05, cost=10.0))
        assert m.kkt_violation <= m.config.kkt_tolerance
        assert not [r for r in caplog.records if r.name == "lqts.svr"]


def kkt_certificate(x, y, model: SvrModel) -> tuple[float, float]:
    """(gap, slack): the up/low KKT gap of the returned point over all 2l
    variables, rebuilt from scratch as crit = base - K @ beta with
    `rbf_kernel`, and the rounding by which the solver's running criteria
    may differ from it.

    Rows must be distinct, so each support vector names its row. The
    solver never makes alpha and alpha* of one row both positive, so the
    minimal decomposition of beta is its point. The slack allows 4 ulps
    of the largest criterion, 2 + sum |beta|, for each pair update and
    each row's kernel product.
    """
    cfg = model.config
    beta = np.zeros(len(y))
    for sv, coeff in zip(model.support_vectors, model.coefficients):
        (row,) = np.flatnonzero((x == sv).all(axis=1))
        beta[row] = coeff
    alpha, alpha_star = np.maximum(beta, 0.0), np.maximum(-beta, 0.0)
    f = rbf_kernel(x, x, cfg.kernel_gamma) @ beta
    crit = np.vstack([y - cfg.epsilon - f, y + cfg.epsilon - f])
    up = np.vstack([alpha < cfg.cost, alpha_star > 0.0])
    low = np.vstack([alpha > 0.0, alpha_star < cfg.cost])
    gap = max(float(np.max(crit[up], initial=-np.inf) - np.min(crit[low], initial=np.inf)), 0.0)
    updates = len(model.objective_trace) - 1
    slack = 4 * np.finfo(np.float64).eps * (updates + len(y)) * (2.0 + float(np.sum(np.abs(beta))))
    return gap, slack


@st.composite
def shrink_problems(draw):
    """Distinct rows, threshold or drawn targets with some flipped, a
    shrinking pass every 1 to 3 updates, and budgets that run out before,
    around or long after the rows start to leave."""
    l = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    x = rng.random((l, 5))
    if draw(st.booleans()):
        y = (x[:, 0] > 0.5).astype(float)
        flip = rng.random(l) < 0.1
        y[flip] = 1.0 - y[flip]
    else:
        y = np.array(draw(st.lists(st.sampled_from(TARGETS), min_size=l, max_size=l)))
    config = SvrConfig(
        epsilon=draw(st.sampled_from([0.05, 0.4])),
        cost=draw(st.sampled_from([0.1, 1.0, 1000.0])),
        max_passes=draw(st.sampled_from([1, 4, 30, 1_000_000])),
    )
    return x, y, config, draw(st.integers(1, 3))


class TestShrinking:
    """train with rows leaving every few updates certifies all 2l variables."""

    @given(shrink_problems())
    @settings(max_examples=200, deadline=None)
    def test_certificate(self, problem):
        x, y, config, every = problem
        table = training_table(x, y)
        with mock.patch.object(lqts.svr, "SHRINK_EVERY", every):
            got = train(table, config)
        gap, slack = kkt_certificate(x, y, got)
        # the reported gap is the full-set gap, whether or not the budget ran out
        assert abs(got.kkt_violation - gap) <= slack
        if len(got.objective_trace) - 1 < config.max_passes:
            assert gap <= config.kkt_tolerance + slack
        # f - f* <= gap * l * C for any feasible point (the movable mass of
        # 2l variables in [0, C] summing to 0 is at most l * C), so two
        # points' objectives differ by at most the larger of those
        plain = reference_train_wss2(table, config)
        plain_gap, plain_slack = kkt_certificate(x, y, plain)
        bound = len(y) * config.cost * (max(gap + slack, plain_gap + plain_slack))
        assert abs(got.objective - plain.objective) <= bound + 1e-9 * (1.0 + abs(plain.objective))

    def test_rows_leave_and_come_back(self, rng):
        x = rng.random((60, 5))
        y = (x[:, 1] > 0.5).astype(float)
        y[:6] = 1.0 - y[:6]
        config = SvrConfig(epsilon=0.05, cost=10.0)
        with mock.patch.object(lqts.svr, "SHRINK_EVERY", 2), rows_left() as left:
            got = train(training_table(x, y), config)
        assert left  # rows did leave
        gap, slack = kkt_certificate(x, y, got)
        assert got.kkt_violation == pytest.approx(gap, abs=slack)
        assert gap <= config.kkt_tolerance


class TestShrinkingMatchesEagerSolver:
    """train with rows leaving every few updates and a row cache of a few
    rows, so that evictions mix with shrinks, returns exactly what the
    solver it replaced returns: that one narrowed every cached row at
    every shrinking pass, with numpy scalars and two criterion arrays."""

    @given(shrink_problems(), st.integers(0, 8 * 40 * 6))
    @settings(max_examples=200, deadline=None)
    def test_property_exact(self, problem, cache_bytes):
        x, y, config, every = problem
        table = training_table(x, y)
        with (
            mock.patch.object(lqts.svr, "SHRINK_EVERY", every),
            mock.patch.object(lqts.svr, "ROW_CACHE_BYTES", cache_bytes),
        ):
            got = train(table, config)
            want = eager_train(table, config)
        assert_same_model(got, want)

    def test_stale_reads_and_evictions_mix(self, rng):
        x = rng.random((60, 5))
        y = (x[:, 1] > 0.5).astype(float)
        y[:6] = 1.0 - y[:6]
        config = SvrConfig(epsilon=0.05, cost=10.0)
        table = training_table(x, y)
        seen = {"stale": 0, "evicted": 0}
        row = _RowCache.row

        def spy(cache, i):
            cached, held = cache.rows.get(i), len(cache.rows)
            r = row(cache, i)
            if cached is None:
                seen["evicted"] += len(cache.rows) == held
            else:
                seen["stale"] += cached[0] < len(cache.masks)
            return r

        with (
            mock.patch.object(lqts.svr, "SHRINK_EVERY", 2),
            mock.patch.object(lqts.svr, "ROW_CACHE_BYTES", 8 * 60 * 4),
            mock.patch.object(_RowCache, "row", spy),
        ):
            got = train(table, config)
            want = eager_train(table, config)
        assert seen["stale"] > 0 and seen["evicted"] > 0
        assert_same_model(got, want)


@st.composite
def cache_runs(draw):
    """Points, a row-cache budget of a few rows, and a sequence of row reads
    and keep masks (each keeping at least one point)."""
    n = draw(st.integers(1, 30))
    x = np.random.default_rng(draw(st.integers(0, 2**32 - 1))).random((n, 3))
    ops = []
    for _ in range(draw(st.integers(0, 40))):
        if n > 1 and draw(st.integers(0, 3)) == 0:
            mask = np.array(draw(st.lists(st.booleans(), min_size=n, max_size=n)))
            mask[draw(st.integers(0, n - 1))] = True
            ops.append(mask)
            n = int(mask.sum())
        else:
            ops.append(draw(st.integers(0, n - 1)))
    return x, draw(st.integers(0, 8 * 30 * 5)), ops


class TestRowCacheNarrowsOnRead:
    """After any sequence of keep masks, every row the cache reads back is
    the row narrowed at every keep, and it holds the same keys in the same
    FIFO order as the cache that narrowed every row at every keep."""

    @given(cache_runs())
    @settings(max_examples=300, deadline=None)
    def test_equals_eager_narrowing(self, run):
        x, cache_bytes, ops = run
        with mock.patch.object(lqts.svr, "ROW_CACHE_BYTES", cache_bytes):
            got, want = _RowCache(x, 0.7), EagerRowCache(x, 0.7)
            for op in ops:
                if isinstance(op, np.ndarray):
                    got.keep(op)
                    want.keep(op)
                else:
                    assert np.array_equal(got.row(op), want.row(op))
                assert list(got.rows) == list(want.rows)
        for i, r in want.rows.items():
            assert np.array_equal(got.row(i), r)


class TestNoisyCorpusConverges:
    """On noisy labels the maximal-violating-pair rule stalls far from the
    optimum; at the same budget the second-order rule gets closer."""

    def test_lower_objective_and_gap_than_mvp(self):
        rng = np.random.default_rng(8)
        x = rng.random((400, 5))
        y = (x[:, 0] > 0.5).astype(float)
        flip = rng.choice(400, size=40, replace=False)
        y[flip] = 1.0 - y[flip]
        config = SvrConfig(max_passes=20_000)
        table = training_table(x, y)
        got = train(table, config)
        mvp = reference_train(table, config)
        assert got.objective < mvp.objective
        assert got.kkt_violation < mvp.kkt_violation
