"""Envelopes, rate fits, and inequality verification."""

from __future__ import annotations

import math
from array import array

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from threepoint import harness
from threepoint.diagnostics import (
    bound_envelope,
    fit_linear_rate,
    verify_trace_inequalities,
)
from threepoint.objectives import (Objective, SmoothnessInfo, make_lqr, make_quadratic,
                                   make_rosenbrock)
from threepoint.optimizers import (
    PLUS,
    OptimizerState,
    RunTrace,
    smtp_is_run,
    smtp_run,
)
from threepoint.directions import DirectionDistribution
from threepoint.schedules import Constant, Decreasing, PerCoordinate


def _synthetic_trace(gaps, beta=0.0, f_star=0.0):
    """A trace whose gap sequence is exactly `gaps` (first entry is f0)."""
    n = len(gaps) - 1
    d = 1
    state = OptimizerState(np.zeros(d), np.zeros(d), np.zeros(d),
                           f_star + gaps[-1], n, beta)
    return RunTrace(array("d", [f_star + g for g in gaps[1:]]), array("d", [0.1] * n),
                    array("b", [PLUS] * n), array("q", range(3, 3 + 2 * n, 2)),
                    state, 0, f_star + gaps[0], "max_iters")


class TestBoundEnvelope:
    def test_sc_free_geometric_oracle(self):
        # mu_d^2 mu / L = 0.1 and t = 0 give exactly 0.9^k
        env = bound_envelope("SC-FREE",
                             dict(gap=1.0, mu_d=1.0, mu=1.0, L=10.0, t=0.0), 6)
        np.testing.assert_allclose(env.values, 0.9 ** np.arange(7), rtol=1e-15)

    def test_floor_shifts_the_start(self):
        env = bound_envelope("SC-FREE",
                             dict(gap=2.0, mu_d=1.0, mu=1.0, L=10.0, t=0.02), 3)
        floor = 100.0 * 0.02**2 / 8.0
        assert env.values[0] == pytest.approx(2.0 + floor, rel=1e-15)
        assert env.values[3] == pytest.approx(2.0 * 0.9**3 + floor, rel=1e-15)

    def test_nc_repeats_first_value(self):
        env = bound_envelope("NC", dict(gap=2.0, L=5.0, gamma_d=1.0, mu_d=0.5), 9)
        assert env.values[0] == env.values[1]
        scale = math.sqrt(2.0 * 2.0 * 5.0) / 0.5
        assert env.values[4] == pytest.approx(scale / 2.0, rel=1e-15)

    def test_sc_dep_matches_sc_free_contraction(self):
        # theta_k = 1 with unit gamma_d collapses both rates to 1 - mu_d^2 mu / L
        params = dict(gap=1.0, mu_d=0.6, mu=1.0, L=4.0)
        dep = bound_envelope("SC-DEP", dict(params, theta_k=1.0, gamma_d=1.0), 5)
        free = bound_envelope("SC-FREE", dict(params, t=0.0), 5)
        np.testing.assert_allclose(dep.values, free.values, rtol=1e-15)

    def test_cvx_const_structure(self):
        env = bound_envelope("CVX-CONST",
                             dict(gap=1.0, beta=0.5, r0=2.0, mu_d=0.5, L=1.0,
                                  gamma_d=1.0, gamma=0.1), 4)
        rate = 1.0 - 0.1 * 0.5 / (0.5 * 2.0)
        floor = 1.0 * 0.1 * 1.0 * 2.0 / (2.0 * 0.5 * 0.5)
        np.testing.assert_allclose(env.values, rate ** np.arange(5) + floor, rtol=1e-14)

    def test_cvx_dec_is_inverse_linear(self):
        env = bound_envelope("CVX-DEC",
                             dict(gap=1.0, beta=0.0, alpha=1.0, theta=2.0, L=1.0,
                                  gamma_d=1.0), 10)
        cap = max(1.0, 2.0 / 2.0)
        np.testing.assert_allclose(env.values, cap / (0.5 * np.arange(11) + 1.0),
                                   rtol=1e-15)

    def test_is_envelopes(self):
        p = np.array([0.5, 0.5])
        w = np.array([1.0, 1.0])
        coord_L = np.array([1.0, 3.0])
        env = bound_envelope("IS-NC", dict(gap=1.0, p=p, w=w, coord_L=coord_L), 4)
        s_w = 2.0  # sum L_i p_i / w_i^2
        assert env.values[1] == pytest.approx(math.sqrt(2.0 * s_w) / 0.5, rel=1e-14)

        env2 = bound_envelope("IS-SC-FREE",
                              dict(gap=1.0, mu=1.0, t=0.0, p=p, coord_L=coord_L), 4)
        rate = 1.0 - np.min(p / coord_L)
        np.testing.assert_allclose(env2.values, rate ** np.arange(5), rtol=1e-14)

    def test_missing_parameter(self):
        with pytest.raises(ValueError, match="missing parameter"):
            bound_envelope("SC-FREE", dict(gap=1.0, mu_d=1.0, mu=1.0), 3)

    def test_non_contractive_rejected(self):
        with pytest.raises(ValueError):
            bound_envelope("SC-FREE", dict(gap=1.0, mu_d=1.0, mu=100.0, L=1.0, t=0.0), 3)
        with pytest.raises(ValueError, match="contractive"):
            bound_envelope("CVX-CONST",
                           dict(gap=1.0, beta=0.0, r0=1.0, mu_d=1.0, L=1.0,
                                gamma_d=1.0, gamma=5.0), 3)

    def test_other_validations(self):
        with pytest.raises(ValueError, match="unknown theorem"):
            bound_envelope("XX", dict(gap=1.0), 3)
        with pytest.raises(ValueError, match="n_iters"):
            bound_envelope("NC", dict(gap=1.0, L=1.0, gamma_d=1.0, mu_d=1.0), 0)


class TestRateFit:
    def test_exact_geometric(self):
        gaps = [0.5**k for k in range(40)]
        fit = fit_linear_rate(_synthetic_trace(gaps), 0.0)
        assert fit.kind == "linear"
        assert fit.rate == pytest.approx(0.5, abs=1e-9)
        assert fit.r_squared == pytest.approx(1.0, abs=1e-12)
        assert not fit.hit_zero

    def test_constant_trace(self):
        fit = fit_linear_rate(_synthetic_trace([3.0] * 30), 0.0)
        assert fit.rate == 1.0
        assert fit.r_squared == 1.0

    def test_zero_gap_flag(self):
        gaps = [2.0**-k for k in range(20)] + [0.0] * 10
        fit = fit_linear_rate(_synthetic_trace(gaps), 0.0)
        assert fit.hit_zero
        assert fit.rate == 0.0

    def test_burn_in_skips_transient(self):
        gaps = [7.0] * 10 + [0.5**k for k in range(30)]
        fit = fit_linear_rate(_synthetic_trace(gaps), 0.0, burn_in=10)
        assert fit.rate == pytest.approx(0.5, abs=1e-9)

    def test_needs_enough_points(self):
        with pytest.raises(ValueError, match=">= 10"):
            fit_linear_rate(_synthetic_trace([1.0, 0.5, 0.25]), 0.0)

    def test_rejects_negative_gap(self):
        with pytest.raises(ValueError, match="negative"):
            fit_linear_rate(_synthetic_trace([1.0] * 15), 1.5)

    @pytest.mark.parametrize("seed, steps, burn_in", [(1, 20000, None), (2, 20000, None),
                                                      (3, 3000, 250)])
    def test_fit_is_bitwise_the_out_of_place_form(self, seed, steps, burn_in):
        # the fit works in place with the out-of-place form's ufuncs in its
        # order, so summary.txt's rate and R^2 keep every bit on quad_run's
        # traces.  The bits rest on the BLAS dot kernel: on seed 1 the rate is
        # 0x1.fcd06036d5654p-1 under OpenBLAS's SkylakeX kernel and
        # 0x1.fcd04677878fep-1 under its Haswell one, so the form is rebuilt here
        text = "\n".join(["method = smtp", "beta = 0.5", "objective = quadratic", "dimension = 10",
                          "coord_L = logspace:1,10", "distribution = sphere",
                          "schedule.kind = solution_dependent", f"max_iters = {steps}"])
        trace, obj = harness.run_once(harness.parse_config(text), seed)
        f_star = obj.smoothness.f_star
        fit = fit_linear_rate(trace, f_star, burn_in)
        gaps = np.concatenate(([trace.f0], np.asarray(trace.f_z))) - f_star
        start = len(gaps) // 10 if burn_in is None else burn_in
        kc = np.arange(start, len(gaps), dtype=float)
        kc = kc - kc.mean()
        logs = np.log(gaps[start:])
        dev = logs - logs.mean()
        slope = np.dot(kc, dev) / np.dot(kc, kc)
        r2 = 1.0 - float(np.sum((dev - slope * kc) ** 2)) / float(np.dot(dev, dev))
        assert (fit.rate.hex(), fit.r_squared.hex()) == (float(np.exp(slope)).hex(), r2.hex())

    @settings(max_examples=200, deadline=None, database=None)
    @given(data=st.data(), n=st.integers(12, 5000), sigma=st.floats(0.0, 0.5),
           seed=st.integers(0, 2**32 - 1), default_burn_in=st.booleans())
    def test_closed_form_matches_polyfit(self, data, n, sigma, seed, default_burn_in):
        # the closed-form line gives np.polyfit's rate and R^2; rho is kept
        # where rho^n stays above 1e-300, so no gap underflows to zero
        rho = data.draw(st.floats(max(0.5, 1e-300 ** (1.0 / n)), 0.99999), label="rho")
        burn_in = None if default_burn_in else data.draw(st.integers(0, n - 10), label="burn_in")
        noise = np.exp(sigma * np.random.default_rng(seed).standard_normal(n))
        gaps = rho ** np.arange(n) * noise
        fit = fit_linear_rate(_synthetic_trace(gaps.tolist()), 0.0, burn_in)
        start = n // 10 if burn_in is None else burn_in
        ks = np.arange(start, n, dtype=float)
        logs = np.log(gaps[start:])
        slope, intercept = np.polyfit(ks, logs, 1)
        ss_tot = np.sum((logs - np.mean(logs)) ** 2)
        r2 = 1.0 if ss_tot == 0.0 else 1.0 - np.sum((logs - slope * ks - intercept) ** 2) / ss_tot
        assert fit.n_points == n - start and not fit.hit_zero
        assert fit.rate == pytest.approx(np.exp(slope), rel=1e-12, abs=0.0)
        assert fit.r_squared == pytest.approx(r2, rel=0.0, abs=1e-12)


class TestVerifyInequalities:
    def test_clean_quadratic_run(self):
        obj = make_quadratic(np.linspace(1.0, 5.0, 4))
        trace = smtp_run(obj, DirectionDistribution("sphere", 4),
                         Decreasing(alpha=0.5, theta=4.0), 0.5, np.ones(4),
                         max_iters=300, seed=0, retain_internals=True)
        report = verify_trace_inequalities(trace, obj)
        assert report.ok
        assert report.n_checked == 300
        assert report.out_of_domain == []

    def test_clean_is_run(self):
        coord_L = np.array([1.0, 4.0, 9.0])
        obj = make_quadratic(coord_L)
        p = coord_L / coord_L.sum()
        trace = smtp_is_run(obj, p, PerCoordinate(Constant(0.1), coord_L), 0.5, np.ones(3),
                            max_iters=300, seed=1, retain_internals=True)
        report = verify_trace_inequalities(trace, obj)
        assert report.ok

    def test_detects_tampering(self):
        obj = make_quadratic(np.ones(3))
        trace = smtp_run(obj, DirectionDistribution("sphere", 3), Constant(0.1),
                         0.5, np.ones(3), max_iters=50, seed=2, retain_internals=True)
        trace.f_z[7] += 1.0
        report = verify_trace_inequalities(trace, obj)
        assert not report.ok
        assert 7 in [k for k, _ in report.violations]

    def test_requires_retention_and_gradient(self):
        obj = make_quadratic(np.ones(2))
        trace = smtp_run(obj, DirectionDistribution("sphere", 2), Constant(0.1),
                         0.5, np.ones(2), max_iters=5, seed=0)
        with pytest.raises(ValueError, match="retain"):
            verify_trace_inequalities(trace, obj)

        lqr = make_lqr(3, 2, 1)
        lqr_trace = smtp_run(lqr, DirectionDistribution("sphere", 2), Constant(0.1),
                             0.5, np.zeros(2), max_iters=5, seed=0,
                             retain_internals=True)
        with pytest.raises(ValueError, match="gradient"):
            verify_trace_inequalities(lqr_trace, lqr)

    @pytest.mark.parametrize("record_index, message", [
        (True, "importance-sampled trace needs coord_L metadata"),
        (False, "objective has no smoothness constant L"),
    ], ids=["coord_L", "L"])
    def test_requires_the_smoothness_constant_it_reads(self, record_index, message):
        obj = make_quadratic(np.ones(3))
        trace = smtp_run(obj, DirectionDistribution("coord_uniform", 3), Constant(0.1), 0.5,
                         np.ones(3), max_iters=5, seed=0, retain_internals=True,
                         record_index=record_index)
        obj.smoothness = SmoothnessInfo()  # a gradient oracle, and no constant
        with pytest.raises(ValueError, match=f"^{message}$"):
            verify_trace_inequalities(trace, obj)

    def _handmade_trace(self, obj, z, f_after, beta=0.0, gamma=1.0):
        s = np.zeros(obj.dimension)
        s[0] = 1.0
        f0 = obj._fn(z)
        state = OptimizerState(z, np.zeros_like(z), z, f_after, 1, beta)
        return RunTrace(array("d", [f_after]), array("d", [gamma]), array("b", [PLUS]),
                        array("q", [3]), state, 0, f0, "max_iters", z_before=[z], drawn=[s])

    def test_box_exit_classified_separately(self):
        obj = make_rosenbrock(2)
        inside = np.array([0.5, 0.5])
        outside = np.array([3.0, 0.0])
        # impossibly low f_after violates the bound at both points
        t_in = self._handmade_trace(obj, inside, obj._fn(inside) + 1e6)
        rep_in = verify_trace_inequalities(t_in, obj)
        assert rep_in.violations and not rep_in.out_of_domain

        t_out = self._handmade_trace(obj, outside, obj._fn(outside) + 1e6)
        rep_out = verify_trace_inequalities(t_out, obj)
        assert rep_out.out_of_domain and not rep_out.violations
