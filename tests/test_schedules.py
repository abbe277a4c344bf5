"""Stepsize rules, tuning helpers, and iteration-count formulas."""

from __future__ import annotations

import hashlib
import math
import re

import numpy as np
import pytest

from threepoint.diagnostics import bound_envelope
from threepoint.directions import DirectionDistribution, constants
from threepoint.schedules import (
    THEOREM_IDS,
    Constant,
    Decreasing,
    FixedHorizon,
    ISSolutionDependent,
    ISSolutionFree,
    PerCoordinate,
    SolutionDependent,
    SolutionFree,
    StepContext,
    is_min_ratio,
    is_substitution,
    is_sum_weighted_L,
    optimal_gamma0,
    quadratic_level_radius,
    required_iterations,
    row_stepsizes,
    solution_free_t_max,
    solution_free_t_max_is,
    stepsize,
)


def _ctx(k=0, f_z=1.0, probe=None, index=None, direction=None):
    return StepContext(k, f_z, probe, index, direction)


class TestRowStepsizes:
    @pytest.mark.parametrize("make", [
        lambda r: SolutionDependent(mu=0.5 + r, L=7.0, mu_d=0.3, f_star=0.1, beta=0.2 * r),
        lambda r: SolutionDependent(mu=1.0, L=3.0, mu_d=0.4, f_star=0.0, beta=0.5,
                                    theta_k=0.5 + 0.3 * r),
    ], ids=["solution_dependent", "constant_theta_k"])
    def test_rows_equal_scalar_stepsizes_bitwise(self, make):
        # the block loop's stepsizes: every row bit for bit what stepsize() gives it
        # at any iteration, whatever each row's own parameters
        rng = np.random.default_rng(3)
        rules = [make(r) for r in range(4)]
        step = row_stepsizes(rules)
        for k in (0, 1, 7, 300):
            f_z = 0.1 + rng.random(4) * 10.0 ** rng.integers(-6, 3, 4)
            got = step(f_z)
            for r, rule in enumerate(rules):
                assert got[r] == stepsize(rule, StepContext(k, float(f_z[r]))), (r, k)

    def test_rows_fail_as_stepsize_fails(self):
        rule = SolutionDependent(2.0, 1.0, 1.0, f_star=1.0, beta=0.0)
        step = row_stepsizes([rule] * 3)
        with pytest.raises(ValueError, match="below the declared f_star"):
            step(np.array([2.0, 0.5, 3.0]))
        # 2 mu (f_z - f_star) overflows: inf, as the scalar rule gives
        f_z = np.array([2.0, 1e308, 3.0])
        with pytest.raises(ValueError, match="invalid stepsize inf") as scalar:
            stepsize(rule, StepContext(0, 1e308))
        with pytest.raises(ValueError) as rows, np.errstate(over="ignore"):  # as run_block
            step(f_z)
        assert str(rows.value) == str(scalar.value)

    def test_rows_refuse_a_callable_theta_k(self):
        # the rows' stepsize has no iteration to give theta_k
        rules = [SolutionDependent(1.0, 3.0, 0.4, 0.0, 0.5),
                 SolutionDependent(1.0, 3.0, 0.4, 0.0, 0.5, theta_k=lambda k: 1.0)]
        with pytest.raises(ValueError, match="constant theta_k"):
            row_stepsizes(rules)


class TestRules:
    def test_constant(self):
        assert stepsize(Constant(1.005), _ctx()) == 1.005

    def test_fixed_horizon(self):
        assert stepsize(FixedHorizon(1.0, 100), _ctx()) == 0.1

    def test_decreasing(self):
        rule = Decreasing(alpha=2.0, theta=2.0)
        assert stepsize(rule, _ctx(k=0)) == 1.0
        assert stepsize(rule, _ctx(k=1)) == 0.5
        gammas = [stepsize(rule, _ctx(k=k)) for k in range(50)]
        assert all(a > b for a, b in zip(gammas, gammas[1:]))
        assert max(gammas) == 2.0 / rule.theta

    def test_solution_dependent(self):
        rule = SolutionDependent(mu=2.0, L=4.0, mu_d=0.5, f_star=1.0, beta=0.5)
        # (1-0.5) * 1 * 0.5 * sqrt(2 * 2 * 2) / 4 = sqrt(2)/8
        assert stepsize(rule, _ctx(f_z=3.0)) == pytest.approx(math.sqrt(2.0) / 8.0, rel=1e-15)
        assert stepsize(rule, _ctx(f_z=1.0)) == 0.0

    def test_solution_dependent_theta_schedule(self):
        rule = SolutionDependent(mu=1.0, L=1.0, mu_d=1.0, f_star=0.0, beta=0.0,
                                 theta_k=lambda k: 1.0 if k == 0 else 0.5)
        g0 = stepsize(rule, _ctx(k=0, f_z=0.5))
        g1 = stepsize(rule, _ctx(k=1, f_z=0.5))
        assert g1 == pytest.approx(0.5 * g0, rel=1e-15)

    def test_solution_free(self):
        rule = SolutionFree(L=2.0, t=0.5, beta=0.5)
        s = np.array([1.0, 0.0])
        assert stepsize(rule, _ctx(f_z=1.0, probe=2.0, direction=s)) == 0.5
        assert rule.needs_probe

    def test_solution_free_checks_the_direction(self):
        rule = SolutionFree(L=2.0, t=0.5, beta=0.5)
        with pytest.raises(ValueError, match="needs the direction"):
            stepsize(rule, StepContext(3, 1.0, 2.0))
        with pytest.raises(ValueError, match="requires"):
            stepsize(rule, _ctx(probe=2.0, direction=np.array([1.0, 1.0])))
        # e_i, or a law checked once per run: no direction to check
        assert stepsize(rule, _ctx(probe=2.0, index=1)) == 0.5
        assert stepsize(rule, StepContext(3, 1.0, 2.0, unit_checked=True)) == 0.5

    def test_is_constant(self):
        rule = PerCoordinate(Constant(0.05), np.array([1.0, 10.0]))
        assert stepsize(rule, _ctx(index=1)) == 0.005
        assert stepsize(rule, _ctx(index=0)) == 0.05

    def test_is_decreasing(self):
        rule = PerCoordinate(Decreasing(alpha=1.0, theta=2.0), np.array([1.0, 4.0]))
        assert stepsize(rule, _ctx(k=0, index=1)) == 0.25
        assert stepsize(rule, _ctx(k=2, index=0)) == 0.5

    def test_is_solution_dependent(self):
        p = np.array([0.5, 0.5])
        w = np.array([1.0, 2.0])
        coord_L = np.array([1.0, 2.0])
        rule = ISSolutionDependent(mu=1.0, p=p, w=w, coord_L=coord_L, f_star=0.0, beta=0.0)
        m = 0.25
        s_w = 0.5 * 1.0 / 1.0 + 0.5 * 2.0 / 4.0  # = 0.75
        expected = m / (w[1] * s_w) * math.sqrt(2.0 * 2.0)
        assert stepsize(rule, _ctx(f_z=2.0, index=1)) == pytest.approx(expected, rel=1e-14)

    def test_is_solution_free(self):
        rule = ISSolutionFree(coord_L=np.array([1.0, 4.0]), t=0.25, beta=0.0)
        assert stepsize(rule, _ctx(f_z=1.0, probe=2.0, index=1)) == 1.0


class TestRuleValidation:
    def test_beta_message(self):
        with pytest.raises(ValueError, match=r"beta must lie in \[0,1\)"):
            SolutionDependent(mu=1.0, L=1.0, mu_d=1.0, f_star=0.0, beta=1.0)

    def test_positive_parameters(self):
        with pytest.raises(ValueError):
            Constant(0.0)
        with pytest.raises(ValueError):
            FixedHorizon(1.0, 0)
        with pytest.raises(ValueError):
            SolutionFree(L=0.0, t=0.1, beta=0.0)
        with pytest.raises(ValueError):
            SolutionFree(L=1.0, t=0.0, beta=0.0)

    def test_decreasing_theta_floor(self):
        with pytest.raises(ValueError, match="2/alpha"):
            Decreasing(alpha=1.0, theta=1.0)

    def test_theta_k_range(self):
        with pytest.raises(ValueError, match="theta_k"):
            SolutionDependent(mu=1.0, L=1.0, mu_d=1.0, f_star=0.0, beta=0.0, theta_k=2.0)

    def test_below_fstar_rejected(self):
        rule = SolutionDependent(mu=1.0, L=1.0, mu_d=1.0, f_star=1.0, beta=0.0)
        with pytest.raises(ValueError, match="f_star"):
            stepsize(rule, _ctx(f_z=0.5))

    def test_probe_and_unit_requirements(self):
        rule = SolutionFree(L=1.0, t=0.1, beta=0.0)
        with pytest.raises(ValueError, match="probe"):
            stepsize(rule, _ctx(direction=np.array([1.0])))
        with pytest.raises(ValueError, match="1"):
            stepsize(rule, _ctx(probe=2.0, direction=np.array([2.0, 0.0])))
        # an index alone stands for e_i, which has unit norm
        assert stepsize(rule, _ctx(probe=1.5, index=1)) == pytest.approx(5.0)

    def test_is_rules_need_index(self):
        with pytest.raises(ValueError, match="direction_index"):
            stepsize(PerCoordinate(Constant(0.1), np.array([1.0])), _ctx())

    def test_p_w_validation(self):
        with pytest.raises(ValueError, match="sum to 1"):
            is_min_ratio(np.array([0.5, 0.6]), np.array([1.0, 1.0]))
        with pytest.raises(ValueError, match="positive"):
            is_sum_weighted_L(np.array([1.0, 0.0]), np.array([1.0, 1.0]),
                              np.array([1.0, 1.0]))

    @pytest.mark.parametrize("call, message", [
        (lambda: SolutionDependent(mu=0.0, L=1.0, mu_d=1.0, f_star=0.0, beta=0.0),
         "mu, L, mu_d must be > 0"),
        (lambda: PerCoordinate(Constant(0.1), np.array([1.0, 0.0])), "w must be strictly positive"),
        (lambda: is_min_ratio(np.array([0.5, 0.5]), np.array([1.0])),
         "p and w must be vectors of equal length"),
        (lambda: is_sum_weighted_L(np.array([0.5, 0.5]), np.ones(2), np.ones(3)),
         "coord_L must match p in length"),
        (lambda: PerCoordinate(SolutionFree(L=1.0, t=0.1, beta=0.0), np.ones(2)),
         "a probing rule scales by L_i, not w_i: use ISSolutionFree"),
        (lambda: ISSolutionDependent(mu=0.0, p=np.array([0.5, 0.5]), w=np.ones(2),
                                     coord_L=np.ones(2), f_star=0.0, beta=0.0), "mu must be > 0"),
        (lambda: stepsize(ISSolutionDependent(mu=1.0, p=np.array([0.5, 0.5]), w=np.ones(2),
                                              coord_L=np.ones(2), f_star=1.0, beta=0.0),
                          _ctx(f_z=0.5, index=0)), "f_z = 0.5 is below the declared f_star = 1.0"),
        (lambda: ISSolutionFree(coord_L=np.ones(2), t=0.0, beta=0.0), "t must be > 0"),
        (lambda: optimal_gamma0(0.0, 1.0, 0.0, 1.0), "L and gamma_d must be > 0"),
        (lambda: optimal_gamma0(0.0, -1.0, 1.0, 1.0), "f0_gap must be >= 0"),
        (lambda: solution_free_t_max(0.0, 1.0, 1.0, 1.0), "epsilon, mu_d, mu, L must be > 0"),
        (lambda: solution_free_t_max_is(1e-3, 0.0, np.array([0.5, 0.5]), np.ones(2)),
         "epsilon and mu must be > 0"),
        (lambda: quadratic_level_radius(np.ones(2), -1.0,
                                        constants(DirectionDistribution("sphere", 2))),
         "f0_gap must be >= 0"),
        (lambda: required_iterations("NC", dict(epsilon=0.1, gap=-1.0, L=1.0, gamma_d=1.0,
                                                mu_d=1.0)), "gap must be >= 0"),
    ], ids=["solution_dependent_mu", "w_positive", "p_w_lengths", "coord_L_length",
            "probing_rule_over_w", "is_solution_dependent_mu", "is_below_f_star",
            "is_solution_free_t", "optimal_gamma0_L", "optimal_gamma0_gap", "t_max",
            "t_max_is", "level_radius_gap", "required_iterations_gap"])
    def test_library_arguments_are_checked(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_wrapper_rejects_bad_output(self):
        class Broken:
            needs_probe = False

            def stepsize(self, ctx):
                return float("nan")

        with pytest.raises(ValueError, match="invalid stepsize"):
            stepsize(Broken(), _ctx())


class TestTuningHelpers:
    def test_optimal_gamma0(self):
        # sqrt(2 * 1 * 0.5 / 1) = 1 and sqrt(2 * 0.25 * 2 / 1) = 1
        assert optimal_gamma0(0.0, 0.5, 1.0, 1.0) == 1.0
        assert optimal_gamma0(0.5, 2.0, 1.0, 1.0) == 1.0

    def test_solution_free_t_max(self):
        # sqrt(4 * 1e-4 * 1 * 1) / 1 = 0.02
        assert solution_free_t_max(1e-4, 1.0, 1.0, 1.0) == pytest.approx(0.02, rel=1e-15)

    def test_t_max_warns_outside_guarantee(self):
        with pytest.warns(UserWarning, match="does not apply"):
            solution_free_t_max(1e-4, 2.0, 1.0, 1.0)

    def test_solution_free_t_max_is(self):
        p = np.array([0.5, 0.5])
        coord_L = np.array([1.0, 1.0])
        # ratio = 0.5, sum p L = 1 -> sqrt(4 eps mu 0.5)
        got = solution_free_t_max_is(1e-4, 1.0, p, coord_L)
        assert got == pytest.approx(math.sqrt(2e-4), rel=1e-15)

    def test_level_radius_l2(self):
        c = constants(DirectionDistribution("sphere", 2))
        assert quadratic_level_radius(np.array([1.0, 4.0]), 2.0, c) == 2.0

    def test_level_radius_weighted(self):
        c = constants(DirectionDistribution(
            "coord_weighted", 2, weights=np.array([0.5, 0.5])))
        # max(sqrt(4/1)/0.5, sqrt(4/4)/0.5) = 4
        assert quadratic_level_radius(np.array([1.0, 4.0]), 2.0, c) == 4.0

    def test_level_radius_rejects_rotation(self):
        gen = np.random.default_rng(0)
        q, _ = np.linalg.qr(gen.standard_normal((2, 2)))
        c = constants(DirectionDistribution(
            "orthonormal_weighted", 2, weights=np.array([0.5, 0.5]), basis=q))
        with pytest.raises(ValueError, match="rotated"):
            quadratic_level_radius(np.array([1.0, 4.0]), 2.0, c)


class TestRequiredIterations:
    def test_nc_exact(self):
        # 2 * 1 * 1 * 1 / (0.25 * 0.0625) = 128, all powers of two
        params = dict(gap=1.0, L=1.0, gamma_d=1.0, mu_d=0.5, epsilon=0.25)
        assert required_iterations("NC", params) == 128

    def test_sc_dep(self):
        params = dict(gap=1.0, kappa=8.0, theta=1.0, mu_d=0.5, epsilon=0.25)
        # 32 * ln(4) = 44.36 -> 45
        assert required_iterations("SC-DEP", params) == 45

    def test_sc_free_accepts_L_mu(self):
        params = dict(gap=1.0, L=8.0, mu=1.0, mu_d=0.5, epsilon=0.25)
        # 32 * ln(8) = 66.5 -> 67
        assert required_iterations("SC-FREE", params) == 67

    def test_cvx_const(self):
        params = dict(gap=1.0, L=1.0, gamma_d=1.0, mu_d=1.0, r0=1.0, epsilon=0.5)
        # (1/0.5) * ln(4) = 2.77 -> 3
        assert required_iterations("CVX-CONST", params) == 3

    def test_cvx_const_epsilon_cap(self):
        params = dict(gap=1.0, L=1.0, gamma_d=1.0, mu_d=1.0, r0=1.0, epsilon=2.0)
        with pytest.raises(ValueError, match="admissible"):
            required_iterations("CVX-CONST", params)

    def test_cvx_dec_exact(self):
        params = dict(gap=1.0, L=1.0, gamma_d=1.0, mu_d=1.0, r0=1.0,
                      beta=0.0, epsilon=0.125)
        # 2/0.125 * max(1, 1) - 2 = 14, dyadic-exact
        assert required_iterations("CVX-DEC", params) == 14

    def test_target_already_met(self):
        params = dict(gap=1.0, kappa=8.0, theta=1.0, mu_d=0.5, epsilon=2.0)
        assert required_iterations("SC-DEP", params) == 0

    def test_is_sc_free(self):
        params = dict(gap=1.0, mu=1.0, p=np.array([0.5, 0.5]),
                      coord_L=np.array([1.0, 1.0]), epsilon=0.25)
        # (1/0.5) * ln(8) = 4.16 -> 5
        assert required_iterations("IS-SC-FREE", params) == 5

    def test_is_importance_count_identity(self):
        # p proportional to L makes min p_i/L_i = 1/sum(L), so the count is
        # (sum L / mu) ln(2 gap / eps)
        coord_L = np.array([1.0, 3.0, 6.0])
        p = coord_L / coord_L.sum()
        assert float(np.min(p / coord_L)) == pytest.approx(1.0 / 10.0, rel=1e-15)
        params = dict(gap=1.0, mu=1.0, p=p, coord_L=coord_L, epsilon=0.25)
        expected = math.ceil(10.0 * math.log(8.0))
        assert required_iterations("IS-SC-FREE", params) == expected

    def test_monotone_in_epsilon_and_kappa(self):
        base = dict(gap=1.0, kappa=10.0, mu_d=0.5)
        counts = [required_iterations("SC-FREE", dict(base, epsilon=e))
                  for e in (0.5, 0.1, 0.01, 0.001)]
        assert counts == sorted(counts)
        kappas = [required_iterations("SC-FREE", dict(gap=1.0, kappa=k, mu_d=0.5,
                                                      epsilon=0.01))
                  for k in (2.0, 10.0, 50.0)]
        assert kappas == sorted(kappas)

    def test_missing_parameter_message(self):
        with pytest.raises(ValueError, match="missing parameter 'mu_d'"):
            required_iterations("NC", dict(gap=1.0, L=1.0, gamma_d=1.0, epsilon=0.1))

    def test_unknown_theorem(self):
        with pytest.raises(ValueError, match="unknown theorem"):
            required_iterations("NC-2", dict(gap=1.0, epsilon=0.1))

    def test_epsilon_positive(self):
        with pytest.raises(ValueError, match="epsilon"):
            required_iterations("NC", dict(gap=1.0, L=1.0, gamma_d=1.0, mu_d=1.0,
                                           epsilon=0.0))


def _is_reference(theorem_id, q, ks):
    """The IS counts and envelopes as separate closed forms (S_w, m written
    out), against which the substitution onto the plain forms is checked.
    None marks a count above the admissible epsilon or a refused envelope."""
    s_w = float(np.sum(q["coord_L"] * q["p"] / (q["w"] * q["w"])))
    m = float(np.min(q["p"] / q["w"]))
    gap, eps, beta, r0 = q["gap"], q["epsilon"], q["beta"], q["r0"]
    log2 = max(0.0, math.log(2.0 * gap / eps))
    if theorem_id == "IS-NC":
        count = 2.0 * gap * s_w / (m**2 * eps**2)
        env = math.sqrt(2.0 * gap * s_w) / m / np.sqrt(np.maximum(ks, 1.0))
    elif theorem_id == "IS-CVX-CONST":
        cap = r0**2 * s_w / m**2
        count = cap / eps * log2 if eps <= cap else None
        rate = 1.0 - q["gamma"] * m / ((1.0 - beta) * r0)
        env = rate**ks * gap + q["gamma"] * r0 * s_w / (2.0 * (1.0 - beta) * m)
        env = env if 0.0 <= rate < 1.0 else None
    elif theorem_id == "IS-CVX-DEC":
        lead = 2.0 * r0**2 / m**2
        count = lead / eps * max((1.0 - beta) ** 2 * gap, s_w) - lead * (1.0 - beta) ** 2
        cap = max(gap, 2.0 * s_w / (q["alpha"] * q["theta"] * (1.0 - beta) ** 2))
        env = cap / (q["alpha"] / q["theta"] * ks + 1.0)
    else:
        count = s_w / (q["theta"] * q["mu"] * m**2) * max(0.0, math.log(gap / eps))
        rate = 1.0 - q["theta"] * q["mu"] * m**2 / s_w
        env = rate**ks * gap if 0.0 <= rate < 1.0 else None
    return (None if count is None else max(0, math.ceil(count))), env


class TestISSubstitution:
    def test_plain_forms_reproduce_is_forms(self):
        # IS-NC, IS-CVX-CONST, IS-CVX-DEC and IS-SC-DEP are computed as the
        # plain guarantees with L = S_w, gamma_d = 1, mu_d = m.  Over random
        # parameters the counts equal the IS closed forms exactly and the
        # envelopes to rounding: IS-SC-DEP associates theta mu m^2 in another
        # order, so its contraction factor may move by 2 ulp (4.4e-16), which
        # k steps carry into rate^k at most k-fold
        rng = np.random.default_rng(5)
        ks = np.arange(41, dtype=float)
        checked = 0
        for _ in range(1000):
            d = int(rng.integers(1, 9))
            p = rng.random(d) + 0.01
            q = dict(p=p / p.sum(), w=np.exp(rng.uniform(-3, 3, d)),
                     coord_L=np.exp(rng.uniform(-3, 5, d)), gap=rng.uniform(0.0, 10.0),
                     epsilon=np.exp(rng.uniform(-12, 2)), r0=np.exp(rng.uniform(-2, 3)),
                     beta=rng.uniform(0.0, 0.95), mu=np.exp(rng.uniform(-6, 1)),
                     gamma=np.exp(rng.uniform(-8, 0)), alpha=np.exp(rng.uniform(-3, 1)),
                     kappa=5.0)  # ignored by the IS ids
            q["theta"] = rng.uniform(0.01, 1.0) if rng.random() < 0.5 else 2.0 / q["alpha"]
            for theorem_id in ("IS-NC", "IS-CVX-CONST", "IS-CVX-DEC", "IS-SC-DEP"):
                count, ref = _is_reference(theorem_id, q, ks)
                if count is None:
                    with pytest.raises(ValueError, match="admissible"):
                        required_iterations(theorem_id, q)
                else:
                    assert required_iterations(theorem_id, q) == count, (theorem_id, q)
                if ref is None:
                    with pytest.raises(ValueError):
                        bound_envelope(theorem_id, q, 40)
                    continue
                env = bound_envelope(theorem_id, q, 40).values
                if theorem_id == "IS-SC-DEP":
                    tol = 4.5e-16 * q["gap"] * np.maximum(ks, 1.0) + 2.3e-16 * ref
                    assert np.all(np.abs(env - ref) <= tol), q
                else:
                    np.testing.assert_allclose(env, ref, rtol=1e-15, atol=0.0)
                checked += 1
        assert checked > 3000

    def test_mapping_and_passthrough(self):
        q = dict(p=np.array([0.25, 0.75]), w=np.array([1.0, 2.0]),
                 coord_L=np.array([2.0, 8.0]), kappa=3.0, mu=0.5)
        name, mapped = is_substitution("IS-SC-DEP", q)
        assert name == "SC-DEP" and "kappa" not in mapped
        assert mapped["L"] == 0.5 + 1.5 and mapped["gamma_d"] == 1.0
        assert mapped["mu_d"] == 0.25
        assert is_substitution("IS-SC-FREE", q) == ("IS-SC-FREE", q)
        assert is_substitution("SC-DEP", q) == ("SC-DEP", q)
        with pytest.raises(ValueError, match="required_iterations\\('IS-NC'\\) missing parameter 'w'"):
            required_iterations("IS-NC", dict(gap=1.0, epsilon=0.1, p=q["p"], coord_L=q["coord_L"]))


# one parameter set every guarantee accepts, of non-dyadic values, and what
# the counts and envelopes were on it before the THEOREMS table: a reordered
# float operation moves an envelope's bytes even where rtol = 1e-15 passes
_PINNED_PARAMS = dict(
    gap=3.7, epsilon=0.013, L=7.3, mu=0.37, mu_d=0.61, gamma_d=1.3, r0=2.9, beta=0.3,
    gamma=0.07, alpha=0.45, theta=0.7, theta_k=0.9, t=0.011, p=np.array([0.15, 0.35, 0.5]),
    w=np.array([1.3, 0.7, 2.1]), coord_L=np.array([1.7, 5.3, 11.0]))
_PINNED_COUNTS = {
    "NC": 1116739, "CVX-CONST": 104675, "CVX-DEC": 32976, "SC-DEP": 429, "SC-FREE": 337,
    "IS-NC": 17048835, "IS-CVX-CONST": 1598031, "IS-CVX-DEC": 503151, "IS-SC-DEP": 8496,
    "IS-SC-FREE": 378,
}
# sha256 of bound_envelope(id, _PINNED_PARAMS, 50).values.tobytes(); "/theta_k"
# drops theta, so the SC-DEP envelopes take their contraction from theta_k
_PINNED_ENVELOPES = {
    "NC": "3d6f6cf23a913bf308106c6273cb4a38254a7b03662ae9b3e8a85c99f16e97bb",
    "CVX-CONST": "4b4f433cd5caf5316b1a1375eb976f8a7e1569a5fdc373a7c4f338964879d781",
    "CVX-DEC": "7acece1b4fdddf4fef2fb28f924b3c61370b53812d7e078d1dcb50e6c5835260",
    "SC-DEP": "090ed91e99195c616874a2672c6ee0af5e7f1742e5bc7bde832a9a52f3c56af6",
    "SC-FREE": "30a4360d62be1cf1010bb998927f2d04bb90b311f829e9c6b0495c56df63663b",
    "IS-NC": "fac4408b4acd40c264d6261eaeb55716cbe98baf11e8ade5c33d92bcdd85b6ff",
    "IS-CVX-CONST": "c36790cae43e255ccef0628e5eb54f0a586eeff5674166e8cf5a501a750cbb8a",
    "IS-CVX-DEC": "2f36b72b9dd823fe343c66ac945ea9bb214f16960500d218e33b5d67789cefe6",
    "IS-SC-DEP": "427643bc4852985e81926a5ffdc98b4f9aaedbc39f9db9a22871a9bd23918ad3",
    "IS-SC-FREE": "71c6351e70df9026461067aff2b5d8ddfe6fd27fb1a1625d801e6b0d42b12bd8",
    "SC-DEP/theta_k": "fb68e040e3f40ee3572e8baeefb84164fd8f9ed8470ad035dfff42eb967d3e19",
    "IS-SC-DEP/theta_k": "2b2eca2f333623ccffb84ca53ae979bfaf2261d1980b6587238f102f51f6d36c",
}


def test_counts_and_envelopes_are_pinned_bitwise():
    counts = {i: required_iterations(i, _PINNED_PARAMS) for i in THEOREM_IDS}
    assert counts == _PINNED_COUNTS
    without_theta = {k: v for k, v in _PINNED_PARAMS.items() if k != "theta"}
    digests = {}
    for key in _PINNED_ENVELOPES:
        theorem_id, _, variant = key.partition("/")
        params = without_theta if variant else _PINNED_PARAMS
        values = bound_envelope(theorem_id, params, 50).values
        digests[key] = hashlib.sha256(values.tobytes()).hexdigest()
    assert digests == _PINNED_ENVELOPES
    # the IS-SC-FREE probe offset shares the envelope's min_i p_i / L_i
    p, coord_L = _PINNED_PARAMS["p"], _PINNED_PARAMS["coord_L"]
    assert solution_free_t_max_is(0.013, 0.37, p, coord_L).hex() == "0x1.5f46b8f6b23c9p-7"


def test_is_sc_free_envelope_rejects_p_off_the_simplex():
    # the count already rejected it; the envelope shares its is_min_ratio
    params = dict(gap=1.0, mu=1.0, t=0.0, p=np.array([0.5, 0.6]), coord_L=np.array([1.0, 3.0]))
    with pytest.raises(ValueError, match="p must sum to 1"):
        required_iterations("IS-SC-FREE", dict(params, epsilon=0.1))
    with pytest.raises(ValueError, match="p must sum to 1"):
        bound_envelope("IS-SC-FREE", params, 4)
