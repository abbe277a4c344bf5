"""Benchmark objectives: values, gradients, metadata, noise wrapper."""

from __future__ import annotations

import math
import re

import numpy as np
import pytest

from threepoint import optimizers
from threepoint.directions import DirectionDistribution
from threepoint.objectives import (
    NoiseSpec,
    Objective,
    coord_L_from_spec,
    make_lqr,
    make_quadratic,
    make_rosenbrock,
    wrap_noise,
)
from threepoint.schedules import Constant


def _max_fd_gradient_error(obj, n_points: int) -> float:
    """Max relative error of the gradient oracle against central differences
    of step 1e-6, at points drawn uniformly from [-2, 2]^d."""
    h = 1e-6
    rng = np.random.default_rng(0)
    worst = 0.0
    for _ in range(n_points):
        x = rng.uniform(-2.0, 2.0, size=obj.dimension)
        g = obj.gradient(x)
        fd = np.array([(obj.value(x + e) - obj.value(x - e)) / (2.0 * h)
                       for e in np.eye(obj.dimension) * h])
        worst = max(worst, float(np.linalg.norm(fd - g)) / max(float(np.linalg.norm(g)), 1e-12))
    return worst


class TestQuadratic:
    def test_value_oracle(self):
        obj = make_quadratic(np.array([1.0, 100.0]))
        # 0.5 * (1 * 1 + 100 * 1) = 50.5, exact
        assert obj.value(np.array([1.0, -1.0])) == 50.5
        np.testing.assert_array_equal(
            obj.gradient(np.array([1.0, -1.0])), np.array([1.0, -100.0]))

    def test_metadata(self):
        L = np.array([2.0, 5.0, 3.0])
        obj = make_quadratic(L)
        info = obj.smoothness
        assert info.L == 5.0
        assert info.mu == 2.0
        assert info.f_star == 0.0
        np.testing.assert_array_equal(info.coord_L, L)
        np.testing.assert_array_equal(info.x_star, np.zeros(3))
        assert info.box_halfwidth is None

    def test_shift(self):
        shift = np.array([1.0, -2.0])
        obj = make_quadratic(np.array([3.0, 4.0]), shift)
        assert obj.value(shift) == 0.0
        np.testing.assert_array_equal(obj.gradient(shift), np.zeros(2))
        np.testing.assert_array_equal(obj.smoothness.x_star, shift)

    def test_gradient_identity(self):
        # for the separable quadratic, ||grad f||^2 >= 2 mu (f - f_star)
        obj = make_quadratic(np.array([2.0, 5.0]))
        rng = np.random.default_rng(0)
        for _ in range(100):
            x = rng.standard_normal(2) * 3.0
            g = obj.gradient(x)
            assert float(g @ g) >= 2.0 * obj.smoothness.mu * obj.value(x) - 1e-12

    def test_equal_curvature_is_tight(self):
        obj = make_quadratic(np.array([3.0, 3.0]))
        x = np.array([0.7, -1.3])
        g = obj.gradient(x)
        assert float(g @ g) == pytest.approx(2.0 * 3.0 * obj.value(x), rel=1e-14)

    def test_finite_differences(self):
        obj = make_quadratic(np.array([1.0, 4.0, 9.0]))
        assert _max_fd_gradient_error(obj, n_points=20) < 1e-6

    def test_validation(self):
        with pytest.raises(ValueError):
            make_quadratic(np.array([1.0, -1.0]))
        with pytest.raises(ValueError):
            make_quadratic(np.array([1.0, 2.0]), shift=np.zeros(3))


class TestRosenbrock:
    def test_value_oracles(self):
        obj = make_rosenbrock(2)
        assert obj.value(np.zeros(2)) == 1.0
        assert obj.value(np.array([-1.0, 1.0])) == 4.0
        assert obj.value(np.ones(2)) == 0.0

    def test_minimum_in_higher_dimension(self):
        obj = make_rosenbrock(5)
        assert obj.value(np.ones(5)) == 0.0
        np.testing.assert_array_equal(obj.gradient(np.ones(5)), np.zeros(5))

    def test_metadata(self):
        obj = make_rosenbrock(4)
        assert obj.smoothness.f_star == 0.0
        assert obj.smoothness.box_halfwidth == 2.0
        assert obj.smoothness.L == 7402.0
        assert obj.smoothness.mu is None

    def test_finite_differences(self):
        obj = make_rosenbrock(5)
        assert _max_fd_gradient_error(obj, n_points=50) < 1e-5

    def test_needs_two_dimensions(self):
        with pytest.raises(ValueError):
            make_rosenbrock(1)


def _scalar_dare_root() -> float:
    # p = a^2 p - a^2 p^2/(1+p) + 1 with a = 0.9 reduces to p^2 - 0.81 p - 1 = 0
    return (0.81 + math.sqrt(0.81 * 0.81 + 4.0)) / 2.0


def _static_policy_cost(theta: np.ndarray, horizon: int, d_state: int, d_ctrl: int) -> float:
    """Independent oracle: cost of u = -Theta x via backward value recursion."""
    A = 0.9 * np.eye(d_state)
    B = np.eye(d_state)[:, :d_ctrl]
    from scipy.linalg import solve_discrete_are

    P = solve_discrete_are(A, B, np.eye(d_state), np.eye(d_ctrl))
    closed = A - B @ theta
    M = P.copy()
    for _ in range(horizon):
        M = np.eye(d_state) + theta.T @ theta + closed.T @ M @ closed
    x0 = np.ones(d_state)
    return float(x0 @ M @ x0)


class TestLQR:
    def test_scalar_closed_form(self):
        obj = make_lqr(horizon=3, d_state=1, d_ctrl=1)
        p = _scalar_dare_root()
        assert obj.smoothness.f_star == pytest.approx(p, rel=1e-12)
        # the optimal scalar gain is 0.9 p / (1 + p)
        k = 0.9 * p / (1.0 + p)
        assert obj.smoothness.x_star[0] == pytest.approx(k, rel=1e-12)
        assert obj.value(obj.smoothness.x_star) == pytest.approx(p, rel=1e-12)

    def test_deadbeat_policy_oracle(self):
        # theta = 0.9 zeroes the state after one step: cost = x0'x0 (1 + 0.81)
        obj = make_lqr(horizon=5, d_state=3, d_ctrl=3)
        theta = 0.9 * np.eye(3)
        assert obj.value(theta.reshape(-1)) == pytest.approx(3.0 * 1.81, rel=1e-12)

    def test_backward_recursion_oracle(self):
        horizon, d_state, d_ctrl = 7, 3, 2
        obj = make_lqr(horizon, d_state, d_ctrl)
        rng = np.random.default_rng(2)
        for _ in range(5):
            theta = 0.3 * rng.standard_normal((d_ctrl, d_state))
            expected = _static_policy_cost(theta, horizon, d_state, d_ctrl)
            assert obj.value(theta.reshape(-1)) == pytest.approx(expected, rel=1e-9)

    def test_fstar_is_floor(self):
        obj = make_lqr(horizon=10, d_state=2, d_ctrl=1)
        f_star = obj.smoothness.f_star
        assert obj.value(obj.smoothness.x_star) == pytest.approx(f_star, rel=1e-9)
        rng = np.random.default_rng(3)
        for _ in range(20):
            theta = obj.smoothness.x_star + 0.1 * rng.standard_normal(2)
            assert obj.value(theta) >= f_star - 1e-9

    def test_fstar_constant_in_horizon(self):
        # with the terminal value as tail cost the optimum is horizon-free
        f3 = make_lqr(3, 2, 2).smoothness.f_star
        f9 = make_lqr(9, 2, 2).smoothness.f_star
        assert f3 == pytest.approx(f9, rel=1e-12)

    def test_dimension_and_validation(self):
        obj = make_lqr(4, 3, 2)
        assert obj.dimension == 6
        assert not obj.has_gradient
        with pytest.raises(ValueError):
            make_lqr(0, 2, 1)
        with pytest.raises(ValueError):
            make_lqr(4, 2, 3)


class TestEvaluationCounter:
    def test_value_counts_gradient_does_not(self):
        obj = make_quadratic(np.array([1.0, 2.0]))
        assert obj.eval_counter == 0
        obj.value(np.ones(2))
        obj(np.ones(2))
        assert obj.eval_counter == 2
        obj.gradient(np.ones(2))
        assert obj.eval_counter == 2


class TestNoiseWrapper:
    def test_zero_sigma_is_identity(self):
        base = make_quadratic(np.array([1.0, 3.0]))
        noisy = wrap_noise(base, NoiseSpec(0.0, 1), np.random.default_rng(0))
        x = np.array([0.3, -0.7])
        assert noisy.value(x) == base._fn(x)

    def test_counters(self):
        base = make_quadratic(np.array([1.0, 3.0]))
        noisy = wrap_noise(base, NoiseSpec(0.1, 4), np.random.default_rng(0))
        noisy.value(np.ones(2))
        # one query makes k = 4 oracle calls, and both counters say so
        assert noisy.eval_counter == 4
        assert base.eval_counter == 4

    def test_seeded_reproducibility(self):
        base = make_quadratic(np.array([1.0, 3.0]))
        x = np.array([0.5, 0.5])
        a = wrap_noise(base, NoiseSpec(0.3, 2), np.random.default_rng(9)).value(x)
        b = wrap_noise(base, NoiseSpec(0.3, 2), np.random.default_rng(9)).value(x)
        assert a == b

    def test_averaging_shrinks_noise(self):
        base = make_quadratic(np.array([1.0]))
        x = np.array([1.0])
        truth = 0.5
        sigma = 0.5
        single = wrap_noise(base, NoiseSpec(sigma, 1), np.random.default_rng(1))
        avg16 = wrap_noise(base, NoiseSpec(sigma, 16), np.random.default_rng(2))
        n = 2000
        err1 = np.std([single.value(x) - truth for _ in range(n)])
        err16 = np.std([avg16.value(x) - truth for _ in range(n)])
        assert err1 == pytest.approx(sigma, rel=0.1)
        assert err16 == pytest.approx(sigma / 4.0, rel=0.1)

    def test_validation(self):
        with pytest.raises(ValueError):
            NoiseSpec(-0.1)
        with pytest.raises(ValueError):
            NoiseSpec(0.1, 0)


def _objectives(d: int):
    """Every objective at dimension d, by name; LQR's d is d_state * d_ctrl."""
    rng = np.random.default_rng(d)
    coord_L, shift = rng.uniform(0.5, 20.0, d), rng.standard_normal(d)
    out = {"quadratic": lambda: make_quadratic(coord_L),
           "shifted_quadratic": lambda: make_quadratic(coord_L, shift),
           "noisy": lambda: wrap_noise(make_quadratic(coord_L), NoiseSpec(0.1, 3),
                                       np.random.default_rng(5))}
    if d >= 2:
        out["rosenbrock"] = lambda: make_rosenbrock(d)
    d_ctrl = {10: 2, 33: 3}.get(d, 1)
    out["lqr"] = lambda: make_lqr(2, d // d_ctrl, d_ctrl)
    return out


class TestBatch:
    @pytest.mark.parametrize("d", [1, 2, 10, 33])
    def test_value_batch_equals_value_bitwise(self, d):
        # the block loop evaluates batches through fn_batch; a trace equals the
        # one-point run's only if every row's value is bit for bit value()'s
        rng = np.random.default_rng(100 + d)
        batched = 0
        for name, build in _objectives(d).items():
            obj = build()
            if obj.fn_batch is None:
                continue
            batched += 1
            # up to the largest candidate table optimizers.block_supports admits:
            # 2 d points of each of its most coordinate rows
            rows = optimizers._TABLE_FLOATS // (2 * d * d)
            law = DirectionDistribution("coord_uniform", d)
            assert optimizers.block_supports(obj, Constant(0.1), law, rows)
            assert not optimizers.block_supports(obj, Constant(0.1), law, rows + 1)
            for size in [*range(1, 65), 2 * d * rows]:
                X = rng.standard_normal((size, d)) * 10.0 ** rng.integers(-4, 2)
                got = obj.fn_batch(X)
                assert got.shape == (size,), name
                for r in range(size):
                    assert got[r] == obj.value(X[r]), (name, size, r)
        assert batched == 2  # the quadratic, shifted or not

    @pytest.mark.parametrize("d", [2, 10, 33])
    def test_gradient_batch_equals_gradient_bitwise(self, d):
        X = np.random.default_rng(d).standard_normal((9, d))
        for name, build in _objectives(d).items():
            obj = build()
            if obj.has_gradient:
                G = obj.gradient_batch(X)
                for r in range(len(X)):
                    np.testing.assert_array_equal(G[r], obj.gradient(X[r]), err_msg=name)


class TestCoordLSpec:
    def test_explicit_list(self):
        np.testing.assert_array_equal(
            coord_L_from_spec("1,2.5,3", 3), np.array([1.0, 2.5, 3.0]))

    def test_logspace(self):
        vals = coord_L_from_spec("logspace:1,100", 3)
        np.testing.assert_allclose(vals, np.array([1.0, 10.0, 100.0]), rtol=1e-12)

    def test_errors(self):
        with pytest.raises(ValueError):
            coord_L_from_spec("1,2", 3)
        with pytest.raises(ValueError):
            coord_L_from_spec("logspace:0,10", 3)
        with pytest.raises(ValueError):
            coord_L_from_spec("logspace:1,2,3", 4)


@pytest.mark.parametrize("call, message", [
    (lambda: Objective(lambda x: 0.0, 0), "dimension must be >= 1"),
    (lambda: make_lqr(2, 2, 1).gradient(np.zeros(2)), "objective 'lqr' has no gradient oracle"),
    (lambda: make_quadratic(np.ones((2, 2))), "coord_L must be a nonempty vector"),
    (lambda: make_quadratic(np.array([])), "coord_L must be a nonempty vector"),
], ids=["dimension_0", "no_gradient", "coord_L_matrix", "coord_L_empty"])
def test_library_arguments_are_checked(call, message):
    with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
        call()
