"""Three-point steps and run loops: oracles, invariants, stopping, counters."""

from __future__ import annotations

import re
import sys
from array import array
from dataclasses import fields

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from threepoint.directions import (KINDS, DirectionDistribution, categorical_index, constants,
                                   sample)
from threepoint.objectives import (
    NoiseSpec,
    Objective,
    SmoothnessInfo,
    make_quadratic,
    make_rosenbrock,
    wrap_noise,
)
from threepoint.optimizers import (
    BRANCHES,
    MINUS,
    PLUS,
    STAY,
    IterationRecord,
    NonFiniteObjectiveError,
    RunTrace,
    candidate_points,
    init_state,
    is_keywords,
    run_block,
    smtp_is_run,
    smtp_run,
    smtp_step,
    stp_run,
)
from threepoint.schedules import (
    Constant,
    Decreasing,
    FixedHorizon,
    ISSolutionFree,
    PerCoordinate,
    SolutionDependent,
    SolutionFree,
)

SPHERE2 = DirectionDistribution("sphere", 2)
COORD10 = DirectionDistribution("coord_uniform", 10)


def _step_record(step, state, obj, *args, **kwargs) -> IterationRecord:
    """Take one step and return its row as a run's records view shows it."""
    k = state.k
    branch, gamma = step(state, obj, *args, **kwargs)
    return IterationRecord(k, state.f_z, gamma, BRANCHES[branch], obj.eval_counter)


class TestSingleStep:
    def test_plus_branch_oracle_beta0(self):
        obj = make_quadratic(np.array([1.0]))
        state = init_state(obj, np.array([1.0]), beta=0.0)
        rng = np.random.default_rng(0)
        branch, gamma = smtp_step(state, obj, None, Constant(0.1), rng, s=np.array([1.0]))
        # z_plus = 1 - 0.1 = 0.9, f = 0.405 exactly
        assert branch == PLUS and gamma == 0.1
        assert state.f_z == 0.405
        assert state.z[0] == 0.9
        assert state.x[0] == 0.9
        assert state.v[0] == 1.0
        assert state.k == 1
        assert obj.eval_counter == 3  # init + two candidates

    def test_plus_branch_oracle_with_momentum(self):
        obj = make_quadratic(np.array([1.0, 1.0]))
        state = init_state(obj, np.array([1.0, 0.0]), beta=0.5)
        branch, _ = smtp_step(state, obj, None, Constant(0.125),
                              np.random.default_rng(0), s=np.array([1.0, 0.0]))
        # effective step 0.125/0.5 = 0.25: z = (0.75, 0), f = 0.28125, all dyadic
        assert branch == PLUS
        assert state.f_z == 0.28125
        np.testing.assert_array_equal(state.z, np.array([0.75, 0.0]))
        np.testing.assert_array_equal(state.v, np.array([1.0, 0.0]))
        # anchor: x = 1 - gamma v = 0.875, and z = x - 0.125 v holds exactly
        np.testing.assert_array_equal(state.x, np.array([0.875, 0.0]))

    def test_minus_branch(self):
        obj = make_quadratic(np.array([1.0]))
        state = init_state(obj, np.array([-1.0]), beta=0.0)
        branch, _ = smtp_step(state, obj, None, Constant(0.1),
                              np.random.default_rng(0), s=np.array([1.0]))
        assert branch == MINUS
        assert state.z[0] == -0.9

    def test_stay_freezes_everything(self):
        obj = make_quadratic(np.array([1.0, 1.0]))
        state = init_state(obj, np.zeros(2), beta=0.5)
        before = (state.x.copy(), state.v.copy(), state.z.copy(), state.f_z)
        branch, _ = smtp_step(state, obj, None, Constant(0.3),
                              np.random.default_rng(0), s=np.array([1.0, 0.0]))
        assert branch == STAY
        assert state.f_z == before[3]
        np.testing.assert_array_equal(state.x, before[0])
        np.testing.assert_array_equal(state.v, before[1])
        np.testing.assert_array_equal(state.z, before[2])
        assert state.k == 1

    def test_zero_gamma_stays(self):
        # at the optimum the solution-dependent rule returns gamma = 0 and
        # both candidates coincide with z: a stay, not an accept
        obj = make_quadratic(np.array([2.0]))
        rule = SolutionDependent(mu=2.0, L=2.0, mu_d=1.0, f_star=0.0, beta=0.0)
        state = init_state(obj, np.zeros(1), beta=0.0)
        branch, gamma = smtp_step(state, obj, None, rule,
                                  np.random.default_rng(0), s=np.array([1.0]))
        assert branch == STAY
        assert gamma == 0.0

    def test_tie_prefers_plus(self):
        # symmetric objective around z makes f_plus == f_minus < f_z impossible
        # for a quadratic centered at z; build a custom even function instead
        obj = Objective(lambda x: float(abs(abs(x[0]) - 1.0)), 1)
        state = init_state(obj, np.zeros(1), beta=0.0)
        branch, _ = smtp_step(state, obj, None, Constant(0.5),
                              np.random.default_rng(0), s=np.array([1.0]))
        assert branch == PLUS
        assert state.z[0] == -0.5

    def test_probe_consumes_one_eval(self):
        obj = make_quadratic(np.array([1.0]))
        rule = SolutionFree(L=1.0, t=1e-3, beta=0.0)
        state = init_state(obj, np.array([1.0]), beta=0.0)
        smtp_step(state, obj, None, rule, np.random.default_rng(0), s=np.array([1.0]))
        assert obj.eval_counter == 4  # init + probe + two candidates


class TestCandidateConstruction:
    def test_full_chain_matches_shortcut(self):
        rng = np.random.default_rng(12)
        for _ in range(50):
            z = rng.standard_normal(4)
            v = rng.standard_normal(4)
            s = rng.standard_normal(4)
            gamma = float(rng.uniform(0.01, 2.0))
            beta = float(rng.uniform(0.0, 0.95))
            v_p, v_m, x_p, x_m, z_p, z_m = candidate_points(z, v, s, gamma, beta)
            h = gamma / (1.0 - beta)
            np.testing.assert_allclose(z_p, z - h * s, atol=1e-12)
            np.testing.assert_allclose(z_m, z + h * s, atol=1e-12)
            c = gamma * beta / (1.0 - beta)
            np.testing.assert_allclose(z_p, x_p - c * v_p, atol=1e-12)
            np.testing.assert_allclose(z_m, x_m - c * v_m, atol=1e-12)

    def test_virtual_identity_along_varying_stepsize_run(self):
        obj = make_quadratic(np.linspace(1.0, 5.0, 6))
        dist = DirectionDistribution("coord_uniform", 6)
        rule = Decreasing(alpha=0.5, theta=4.0)
        state = init_state(obj, np.ones(6), beta=0.7)
        rng = np.random.default_rng(3)
        accepted = 0
        for _ in range(400):
            s = sample(dist, rng)
            branch, gamma = smtp_step(state, obj, dist, rule, rng, s=s)
            if branch != STAY:
                accepted += 1
                c = gamma * state.beta / (1.0 - state.beta)
                np.testing.assert_allclose(state.z, state.x - c * state.v, atol=1e-12)
        assert accepted > 50


class TestEquivalenceAndDeterminism:
    def test_beta_zero_matches_stp_exactly(self):
        dist = DirectionDistribution("coord_uniform", 5)
        rule = Constant(0.07)
        x0 = np.ones(5)
        coord_L = np.array([1.0, 2.0, 4.0, 8.0, 16.0])
        a = smtp_run(make_quadratic(coord_L), dist, rule, 0.0, x0,
                     max_iters=500, seed=11)
        b = stp_run(make_quadratic(coord_L), dist, rule, x0, max_iters=500, seed=11)
        assert len(a.records) == len(b.records)
        for ra, rb in zip(a.records, b.records):
            assert (ra.k, ra.f_z_after, ra.gamma, ra.branch, ra.evals_cumulative) == \
                   (rb.k, rb.f_z_after, rb.gamma, rb.branch, rb.evals_cumulative)
        np.testing.assert_array_equal(a.final_state.z, b.final_state.z)

    def test_same_seed_same_trace(self):
        obj_a = make_quadratic(np.linspace(1, 3, 4))
        obj_b = make_quadratic(np.linspace(1, 3, 4))
        dist = DirectionDistribution("sphere", 4)
        a = smtp_run(obj_a, dist, Constant(0.1), 0.5, np.ones(4), max_iters=100, seed=5)
        b = smtp_run(obj_b, dist, Constant(0.1), 0.5, np.ones(4), max_iters=100, seed=5)
        assert [r.f_z_after for r in a.records] == [r.f_z_after for r in b.records]
        c = smtp_run(make_quadratic(np.linspace(1, 3, 4)), dist, Constant(0.1), 0.5,
                     np.ones(4), max_iters=100, seed=6)
        assert [r.f_z_after for r in a.records] != [r.f_z_after for r in c.records]

    def test_run_matches_manual_steps(self):
        # the run loops draw directions in chunks, build coordinate candidates
        # by index and evaluate context-free rules once; none of that may move
        # a bit away from one sample() plus one step per iteration.  1100
        # iterations cross the first chunk boundary.
        d, iters = 5, 1100
        coord_L = np.linspace(1.0, 4.0, d)
        p = np.array([0.1, 0.15, 0.2, 0.25, 0.3])
        basis, _ = np.linalg.qr(np.random.default_rng(0).standard_normal((d, d)))
        dists = [DirectionDistribution("sphere", d), DirectionDistribution("gaussian", d),
                 DirectionDistribution("coord_uniform", d),
                 DirectionDistribution("coord_weighted", d, weights=p),
                 DirectionDistribution("orthonormal_weighted", d, weights=p, basis=basis)]
        for method, step, beta in (("smtp", smtp_step, 0.5), ("stp", smtp_step, 0.0)):
            for dist in dists:
                rules = [Constant(0.05), Decreasing(alpha=0.5, theta=4.0)]
                if dist.kind != "gaussian":  # the probe rule needs ||s||_2 = 1
                    rules.append(SolutionFree(L=4.0, t=0.01, beta=beta))
                for rule in rules:
                    if method == "smtp":
                        trace = smtp_run(make_quadratic(coord_L), dist, rule, beta, np.ones(d),
                                         max_iters=iters, seed=21)
                    else:
                        trace = stp_run(make_quadratic(coord_L), dist, rule, np.ones(d),
                                        max_iters=iters, seed=21)
                    obj = make_quadratic(coord_L)
                    state = init_state(obj, np.ones(d), beta=beta)
                    rng = np.random.default_rng(21)
                    manual = []
                    for _ in range(iters):
                        s = sample(dist, rng)
                        manual.append(_step_record(step, state, obj, dist, rule, rng, s=s))
                    where = f"{method}/{dist.kind}/{type(rule).__name__}"
                    assert trace.records == manual, where
                    np.testing.assert_array_equal(trace.final_state.z, state.z, err_msg=where)
                    np.testing.assert_array_equal(trace.final_state.x, state.x, err_msg=where)
                    np.testing.assert_array_equal(trace.final_state.v, state.v, err_msg=where)


# smtp's candidates are z -/+ h s with h = gamma / (1 - beta), and z moves only to
# one, so beta reaches f_z, branch and evals through h alone: a Constant rule at
# any beta; and where 1 - beta is a power of two, so that scaling by it is exact
# in either order, the IS form, fixed_horizon, and the rules that scale their
# gamma by 1 - beta themselves, which step by their beta-0 build's h
_HALVES = st.sampled_from([0.5, 0.75])
_STEP_FORMS = st.one_of(
    st.tuples(st.just("constant"), st.sampled_from(KINDS), st.floats(0.0, 0.99, exclude_max=True)),
    st.tuples(st.just("per_coordinate"), st.sampled_from(["coord_uniform", "coord_weighted"]),
              _HALVES),
    st.tuples(st.just("fixed_horizon"), st.sampled_from(KINDS), _HALVES),
    st.tuples(st.just("solution_dependent"), st.sampled_from(KINDS), _HALVES),
    st.tuples(st.just("solution_free"), st.sampled_from([k for k in KINDS if k != "gaussian"]),
              _HALVES))
# the forms the block runs, over these laws
_BLOCK_FORMS = {("constant", "coord_uniform"), ("constant", "sphere"),
                ("solution_dependent", "sphere")}


def _rules(form: str, gamma: float, beta: float, obj, dist):
    """The rule smtp runs at beta, and the one stp runs at beta 0 to take the
    same h: gamma / (1 - beta), or the same constants built at beta 0."""
    info = obj.smoothness
    if form == "solution_dependent":  # gamma is theta_k
        return [SolutionDependent(info.mu, info.L, constants(dist).mu_d, info.f_star, b, gamma)
                for b in (beta, 0.0)]
    if form == "solution_free":  # gamma is the probe's t
        return [SolutionFree(info.L, gamma, b) for b in (beta, 0.0)]
    make = {"constant": Constant, "fixed_horizon": lambda g: FixedHorizon(g, 50),
            "per_coordinate": lambda g: PerCoordinate(Constant(g), info.coord_L)}[form]
    return [make(gamma), make(gamma / (1.0 - beta))]


@settings(max_examples=100, deadline=None, database=None)
@given(case=_STEP_FORMS, d=st.integers(1, 6), gamma=st.floats(1e-3, 0.5),
       seed=st.integers(0, 2**32 - 1), steps=st.integers(0, 200))
# each block form, which the draws above reach only now and then
@example(case=("constant", "coord_uniform", 0.3), d=4, gamma=0.05, seed=1, steps=150)
@example(case=("constant", "sphere", 0.9), d=3, gamma=0.05, seed=2, steps=150)
@example(case=("solution_dependent", "sphere", 0.5), d=4, gamma=0.5, seed=3, steps=150)
@example(case=("solution_dependent", "sphere", 0.75), d=2, gamma=1e-3, seed=4, steps=150)
def test_smtp_is_stp_at_the_step_gamma_over_one_minus_beta(case, d, gamma, seed, steps):
    form, kind, beta = case
    gen = np.random.default_rng(seed)
    coord_L = 10.0 ** gen.uniform(0.0, 2.0, d)
    shift, x0 = gen.standard_normal(d), gen.standard_normal(d)
    weighted = kind in ("coord_weighted", "orthonormal_weighted")
    weights = coord_L / coord_L.sum() if weighted else None
    basis = np.linalg.qr(gen.standard_normal((d, d)))[0] if kind == "orthonormal_weighted" else None
    dist = DirectionDistribution(kind, d, weights=weights, basis=basis)
    rules = _rules(form, gamma, beta, make_quadratic(coord_L, shift), dist)
    smtp, stp = (smtp_run(make_quadratic(coord_L, shift), dist, rule, b, x0, steps, seed)
                 for rule, b in zip(rules, (beta, 0.0)))
    assert smtp.f_z.tobytes() == stp.f_z.tobytes()
    assert smtp.branch == stp.branch and smtp.evals == stp.evals
    assert smtp.final_state.z.tobytes() == stp.final_state.z.tobytes()
    if (form, kind) in _BLOCK_FORMS:  # and so must the rows of a block
        seeds = [seed, seed + 1, seed + 2]
        smtp, stp = (run_block([make_quadratic(coord_L, shift) for _ in seeds], [rule] * 3, b, x0,
                               steps, seeds, None, False, [dist] * 3, constants(dist))
                     for rule, b in zip(rules, (beta, 0.0)))
        for smtp_row, stp_row in zip(smtp, stp):
            assert smtp_row.f_z.tobytes() == stp_row.f_z.tobytes()
            assert smtp_row.branch == stp_row.branch and smtp_row.evals == stp_row.evals
            assert smtp_row.f_last == stp_row.f_last


class TestRunLoop:
    def test_monotone_f(self):
        trace = smtp_run(make_rosenbrock(4), DirectionDistribution("sphere", 4),
                         Constant(0.002), 0.5, np.zeros(4), max_iters=500, seed=2)
        fs = [trace.f0] + [r.f_z_after for r in trace.records]
        assert all(a >= b for a, b in zip(fs, fs[1:]))

    def test_max_iters_zero(self):
        obj = make_quadratic(np.array([1.0]))
        trace = smtp_run(obj, DirectionDistribution("sphere", 1), Constant(0.1),
                         0.0, np.ones(1), max_iters=0, seed=0)
        assert trace.records == []
        assert trace.stop_reason == "max_iters"
        assert trace.final_state.f_z == trace.f0 == 0.5

    def test_epsilon_gap_stop(self):
        # constant steps stall at a gap floor near (h/2)^2 L/2; target above it
        trace = smtp_run(make_quadratic(np.array([1.0, 1.0])), SPHERE2,
                         Constant(0.1), 0.5, np.ones(2), max_iters=5000, seed=1,
                         epsilon_gap=0.05)
        assert trace.stop_reason == "epsilon_gap"
        assert trace.final_state.f_z <= 0.05
        assert len(trace.records) < 5000

    def test_record_index_needs_a_coordinate_law(self):
        # a vector law draws no index to record: the run fails before f(x0)
        obj = make_quadratic(np.ones(2))
        with pytest.raises(ValueError, match="record_index needs a coordinate law"):
            smtp_run(obj, SPHERE2, Constant(0.1), 0.5, np.ones(2), max_iters=50, seed=0,
                     record_index=True)
        assert obj.eval_counter == 0

    def test_epsilon_needs_fstar(self):
        obj = Objective(lambda x: float(x @ x), 2)
        with pytest.raises(ValueError, match="f_star"):
            smtp_run(obj, SPHERE2, Constant(0.1), 0.0, np.ones(2),
                     max_iters=10, epsilon_gap=0.1)

    @pytest.mark.parametrize("call, message", [
        (lambda: init_state(make_quadratic(np.ones(3)), np.ones(2), 0.5),
         "x0 must have shape (3,), got (2,)"),
        (lambda: smtp_run(make_quadratic(np.ones(2)), SPHERE2, Constant(0.1), 0.5, np.ones(2), -1),
         "max_iters must be >= 0"),
        (lambda: run_block([make_quadratic(np.ones(2))] * 3, [Constant(0.1)] * 3, 0.5, np.ones(2),
                           -1, [0, 1, 2], None, False, [SPHERE2] * 3, constants(SPHERE2)),
         "max_iters must be >= 0"),
        (lambda: run_block([Objective(lambda x: 0.0, 2)] * 3, [Constant(0.1)] * 3, 0.5, np.ones(2),
                           10, [0, 1, 2], 0.1, False, [SPHERE2] * 3, constants(SPHERE2)),
         "epsilon_gap stopping needs a known f_star"),
        (lambda: run_block([make_quadratic(np.ones(2))] * 3, [Constant(0.1)] * 3, 0.5, np.ones(2),
                           10, [0, 1, 2], None, False,
                           [SPHERE2, SPHERE2, DirectionDistribution("coord_uniform", 2)],
                           constants(SPHERE2)),
         "the rows of a block share one dimension and a coordinate or vector law"),
        (lambda: run_block([make_quadratic(np.ones(2))] * 3,
                           [Constant(0.1), PerCoordinate(Constant(0.1), np.ones(2)), Constant(0.1)],
                           0.5, np.ones(2), 10, [0, 1, 2], None, False,
                           [DirectionDistribution("coord_uniform", 2)] * 3, constants(SPHERE2)),
         "the rows of a block share one rule class"),
    ], ids=["x0_shape", "max_iters", "block_max_iters", "block_epsilon_needs_f_star",
            "block_laws", "block_rule_classes"])
    def test_library_arguments_are_checked(self, call, message):
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            call()

    def test_eval_budget_stop(self):
        obj = make_quadratic(np.ones(3))
        trace = smtp_run(obj, DirectionDistribution("sphere", 3), Constant(0.05),
                         0.0, np.ones(3), max_iters=1000, seed=0, eval_budget=21)
        # init + 2 per iteration: budget 21 is hit at the 10th iteration
        assert trace.stop_reason == "eval_budget"
        assert len(trace.records) == 10
        assert obj.eval_counter == 21

    def test_capped_run_is_prefix_of_uncapped(self):
        # a run stopped early returns exactly the leading records and the
        # state of the same seed's uncapped run: directions drawn ahead in
        # chunks shift nothing at a stop, inside or past the first chunk
        coord_L = np.linspace(1.0, 4.0, 4)
        rule = Decreasing(alpha=0.5, theta=4.0)  # keeps improving past k = 1024

        def run(dist, **kw):
            kw.setdefault("max_iters", 3000)
            return smtp_run(make_quadratic(coord_L), dist, rule, 0.5, np.ones(4), seed=3, **kw)

        for kind in ("sphere", "coord_uniform"):
            dist = DirectionDistribution(kind, 4)
            full = run(dist)
            gaps = [r.f_z_after for r in full.records]
            for cap, past_first_chunk in ((dict(eval_budget=41), False),
                                          (dict(eval_budget=2501), True),
                                          (dict(epsilon_gap=gaps[15]), False),
                                          (dict(epsilon_gap=gaps[1500]), True)):
                capped = run(dist, **cap)
                n = len(capped.records)
                assert capped.stop_reason == next(iter(cap)), (kind, cap)
                assert 0 < n < 3000 and (n > 1024) == past_first_chunk, (kind, cap, n)
                assert capped.records == full.records[:n], (kind, cap)
                upto = run(dist, max_iters=n)
                np.testing.assert_array_equal(capped.final_state.z, upto.final_state.z)
                np.testing.assert_array_equal(capped.final_state.x, upto.final_state.x)
                np.testing.assert_array_equal(capped.final_state.v, upto.final_state.v)

    def test_eval_budget_counts_probes(self):
        obj = make_quadratic(np.ones(3))
        rule = SolutionFree(L=1.0, t=1e-3, beta=0.0)
        trace = smtp_run(obj, DirectionDistribution("sphere", 3), rule,
                         0.0, np.ones(3), max_iters=1000, seed=0, eval_budget=22)
        # init + 3 per iteration: budget 22 is hit at the 7th iteration
        assert trace.stop_reason == "eval_budget"
        assert len(trace.records) == 7

    @pytest.mark.parametrize("n_obs", [1, 4])
    @pytest.mark.parametrize("probe", [False, True])
    def test_eval_budget_overshoot_is_bounded(self, n_obs, probe):
        # the budget is checked after each whole iteration, so once it
        # exceeds f(x0)'s n_obs calls a run ends at most one iteration's
        # oracle calls minus one past it, and a budget of n_obs + 1 gets there
        rule = SolutionFree(L=1.0, t=1e-3, beta=0.5) if probe else Constant(0.05)
        per_iteration = (3 if probe else 2) * n_obs
        worst = 0
        for budget in range(n_obs + 1, 61):
            obj = wrap_noise(make_quadratic(np.ones(3)), NoiseSpec(1e-6, n_obs),
                             np.random.default_rng(budget))
            trace = smtp_run(obj, DirectionDistribution("sphere", 3), rule, 0.5, np.ones(3),
                             max_iters=1000, seed=0, eval_budget=budget)
            assert trace.stop_reason == "eval_budget", budget
            overshoot = obj.eval_counter - budget
            assert 0 <= overshoot <= per_iteration - 1, budget
            worst = max(worst, overshoot)
        assert worst == per_iteration - 1

    def test_record_bookkeeping(self):
        trace = smtp_run(make_quadratic(np.ones(3)), DirectionDistribution("sphere", 3),
                         Constant(0.05), 0.5, np.ones(3), max_iters=40, seed=4)
        assert [r.k for r in trace.records] == list(range(40))
        evals = [r.evals_cumulative for r in trace.records]
        assert evals == list(range(3, 83, 2))
        assert all(r.grad_norm_D is None for r in trace.records)

    @pytest.mark.parametrize("rule, n_obs", [
        (Constant(0.05), 1), (SolutionFree(L=1.0, t=1e-3, beta=0.5), 1),
        (Decreasing(alpha=1.0, theta=4.0), 3), (SolutionFree(L=1.0, t=1e-3, beta=0.5), 3)])
    def test_evals_range_is_the_counter(self, rule, n_obs, monkeypatch):
        # evals is computed, not recorded: it must be the counter after every step
        from threepoint import optimizers

        counters = []
        step = optimizers.smtp_step

        def counting_step(state, objective, *args):
            out = step(state, objective, *args)
            counters.append(objective.eval_counter)
            return out

        monkeypatch.setattr(optimizers, "smtp_step", counting_step)
        obj = wrap_noise(make_quadratic(np.linspace(1.0, 3.0, 3)), NoiseSpec(0.01, n_obs),
                         np.random.default_rng(0))
        obj.eval_counter = 7  # setup calls made before the run show in evals too
        trace = smtp_run(obj, DirectionDistribution("sphere", 3), rule, 0.5, np.ones(3),
                         max_iters=2500, seed=1, track_grad_norm=True)
        assert isinstance(trace.evals, range)
        assert list(trace.evals) == counters and len(counters) == 2500
        assert trace.evals[-1] == obj.eval_counter

    def test_unit_law_is_checked_once_per_run(self):
        # SolutionFree needs unit directions: a gaussian law fails before any step
        obj = make_quadratic(np.ones(3))
        with pytest.raises(ValueError, match="requires \\|\\|s\\|\\|_2 = 1; gaussian"):
            smtp_run(obj, DirectionDistribution("gaussian", 3), SolutionFree(1.0, 1e-3, 0.0),
                     0.0, np.ones(3), max_iters=10, seed=0)
        assert obj.eval_counter == 0
        # and a direct step still checks the direction it is given
        state = init_state(obj, np.ones(3), 0.0)
        with pytest.raises(ValueError, match="requires"):
            smtp_step(state, obj, None, SolutionFree(1.0, 1e-3, 0.0), None,
                      s=np.array([2.0, 0.0, 0.0]))

    def test_nonfinite_objective_raises(self):
        def fn(x):
            return float(x[0] ** 2) if x[0] > -0.5 else float("nan")

        obj = Objective(fn, 1, SmoothnessInfo(f_star=None))
        with pytest.raises(NonFiniteObjectiveError) as err:
            smtp_run(obj, DirectionDistribution("sphere", 1), Constant(1.0),
                     0.0, np.zeros(1), max_iters=50, seed=0)
        assert err.value.k >= 0

    def test_track_grad_norm_l2(self):
        coord_L = np.array([1.0, 2.0, 3.0])
        trace = smtp_run(make_quadratic(coord_L), DirectionDistribution("sphere", 3),
                         Constant(0.05), 0.5, np.ones(3), max_iters=3, seed=0,
                         track_grad_norm=True)
        # gradient at x0 = coord_L, measured in L2 for the sphere
        assert trace.records[0].grad_norm_D == pytest.approx(
            float(np.linalg.norm(coord_L)), rel=1e-14)

    def test_retained_internals(self):
        trace = smtp_run(make_quadratic(np.ones(2)), SPHERE2, Constant(0.1),
                         0.5, np.ones(2), max_iters=30, seed=9, retain_internals=True)
        assert len(trace.z_before) == len(trace.records) == len(trace.s)
        np.testing.assert_array_equal(trace.z_before[0], np.ones(2))


class TestImportanceSampling:
    def test_step_oracle(self):
        # an importance-sampled step is smtp_step along e_1, the index
        # handed to the rule
        obj = make_quadratic(np.array([1.0, 4.0]))
        rule = PerCoordinate(Constant(0.5), np.array([1.0, 4.0]))
        state = init_state(obj, np.ones(2), beta=0.5)
        branch, gamma = smtp_step(state, obj, None, rule, np.random.default_rng(0), index=1)
        # gamma = 0.5/4, effective step 0.25: z = (1, 0.75), f = 1.625, all dyadic
        assert branch == PLUS
        assert gamma == 0.125
        assert state.f_z == 1.625
        np.testing.assert_array_equal(state.z, np.array([1.0, 0.75]))

    def test_run_matches_manual_steps(self):
        # the run draws indices in chunks; the records, including the index
        # and the L1 gradient norm, must equal a loop that draws i ~ p by its
        # own inverse cdf and takes one smtp step along e_i, past the first
        # chunk boundary
        coord_L = np.array([1.0, 2.0, 4.0, 8.0])
        p = coord_L / coord_L.sum()
        for rule in (PerCoordinate(Constant(0.05), coord_L), ISSolutionFree(coord_L, 0.01, 0.5)):
            trace = smtp_is_run(make_quadratic(coord_L), p, rule, 0.5, np.ones(4),
                                max_iters=1100, seed=8, track_grad_norm=True)
            obj = make_quadratic(coord_L)
            state = init_state(obj, np.ones(4), beta=0.5)
            rng = np.random.default_rng(8)
            cdf = np.cumsum(p)
            manual = []
            for _ in range(1100):
                i = categorical_index(cdf, rng.random())
                grad_l1 = float(np.sum(np.abs(obj.gradient(state.z))))
                rec = _step_record(smtp_step, state, obj, None, rule, rng, index=i)
                manual.append(rec._replace(grad_norm_D=grad_l1, direction_index=i))
            assert trace.records == manual, type(rule).__name__
            np.testing.assert_array_equal(trace.final_state.z, state.z)
            np.testing.assert_array_equal(trace.final_state.x, state.x)

    def test_grad_norm_is_l1(self):
        coord_L = np.array([1.0, 2.0, 3.0])
        trace = smtp_is_run(make_quadratic(coord_L), np.full(3, 1 / 3),
                            PerCoordinate(Constant(0.1), np.ones(3)), 0.5, np.ones(3),
                            max_iters=2, seed=0, track_grad_norm=True)
        assert trace.records[0].grad_norm_D == 6.0

    def test_p_validation(self):
        obj = make_quadratic(np.ones(2))
        rule = PerCoordinate(Constant(0.1), np.ones(2))
        with pytest.raises(ValueError, match="sum to 1"):
            smtp_is_run(obj, np.array([0.5, 0.6]), rule, 0.0, np.ones(2), max_iters=1)
        with pytest.raises(ValueError, match="shape"):
            smtp_is_run(obj, np.array([1.0]), rule, 0.0, np.ones(2), max_iters=1)

    def test_index_frequency_tracks_p(self):
        p = np.array([0.8, 0.15, 0.05])
        trace = smtp_is_run(make_quadratic(np.ones(3)), p,
                            PerCoordinate(Constant(0.01), np.ones(3)), 0.0, np.ones(3),
                            max_iters=4000, seed=13)
        counts = np.bincount([r.direction_index for r in trace.records], minlength=3)
        np.testing.assert_allclose(counts / 4000.0, p, atol=0.03)

    def test_degenerate_p_always_picks_that_coordinate(self):
        d = 3
        p = np.array([1.0 - 2e-13, 1e-13, 1e-13])
        p = p / p.sum()
        trace = smtp_is_run(make_quadratic(np.ones(d)), p, PerCoordinate(Constant(0.05), np.ones(d)),
                            0.0, np.ones(d), max_iters=50, seed=7)
        assert all(r.direction_index == 0 for r in trace.records)

    def test_retained_direction_is_unit_coordinate(self):
        trace = smtp_is_run(make_quadratic(np.ones(2)), np.array([0.5, 0.5]),
                            PerCoordinate(Constant(0.05), np.ones(2)), 0.5, np.ones(2),
                            max_iters=10, seed=1, retain_internals=True)
        for rec, s in zip(trace.records, trace.s):
            assert s[rec.direction_index] == 1.0
            assert float(s @ s) == 1.0


class TestColumnarTrace:
    def _runs(self):
        coord_L = np.linspace(1.0, 4.0, 4)
        p = coord_L / coord_L.sum()
        for track in (False, True):
            yield smtp_run(make_quadratic(coord_L), DirectionDistribution("sphere", 4),
                           Decreasing(alpha=0.5, theta=4.0), 0.5, np.ones(4), max_iters=300,
                           seed=5, track_grad_norm=track)
            yield smtp_is_run(make_quadratic(coord_L), p, PerCoordinate(Constant(0.05), coord_L),
                              0.5, np.ones(4), max_iters=300, seed=5, track_grad_norm=track)

    def test_records_view_equals_columns(self):
        for trace in self._runs():
            records = trace.records
            assert len(records) == len(trace.f_z) == 300
            assert list(records) == [records[k] for k in range(300)] == records[:]
            for k, rec in enumerate(records):
                assert rec.k == k
                assert rec.f_z_after == trace.f_z[k]
                assert rec.gamma == trace.gamma[k]
                assert rec.branch == BRANCHES[trace.branch[k]]
                assert rec.evals_cumulative == trace.evals[k]
                assert rec.grad_norm_D == (None if trace.grad_norm is None else trace.grad_norm[k])
                assert rec.direction_index == (None if trace.index is None else trace.index[k])
            assert records[-1] == records[299]
            assert records[10:20] == [records[k] for k in range(10, 20)]
            with pytest.raises(IndexError):
                records[300]

    def test_columns_stay_small(self):
        # every column recorded, for 2e4 iterations: a fixed cost per row,
        # far below one object per iteration
        coord_L = np.linspace(1.0, 4.0, 4)
        trace = smtp_is_run(make_quadratic(coord_L), coord_L / coord_L.sum(),
                            PerCoordinate(Constant(0.01), coord_L), 0.5, np.ones(4),
                            max_iters=20_000, seed=1, track_grad_norm=True)
        columns = (trace.f_z, trace.gamma, trace.branch, trace.grad_norm, trace.index)
        assert all(isinstance(c, array) and len(c) == 20_000 for c in columns)
        # evals is exact arithmetic: a range, whatever the run length
        assert isinstance(trace.evals, range) and len(trace.evals) == 20_000
        assert trace.index.typecode == "b"  # d = 4 indices fit one byte
        assert sum(sys.getsizeof(c) for c in (*columns, trace.evals)) / 20_000 <= 64

    def test_every_run_keeps_a_plain_gamma_column(self):
        # gamma is a dataclass field that each run fills as it goes, whatever
        # its rule, with each step's stepsize bit for bit; only a column-free
        # block row keeps none
        assert "steps" not in {f.name for f in fields(RunTrace)}
        assert "gamma" in {f.name for f in fields(RunTrace)}
        coord_L = np.linspace(1.0, 4.0, 4)
        sphere = DirectionDistribution("sphere", 4)
        weighted = DirectionDistribution("coord_weighted", 4, weights=coord_L / coord_L.sum())
        is_rule = PerCoordinate(Constant(0.01), coord_L)

        def block(dist, rule, columns=True):  # 3 rows, seeds 5-7
            loop = is_keywords(4) if dist is weighted else dict(norm_constants=constants(dist))
            return run_block([make_quadratic(coord_L) for _ in range(3)], [rule] * 3, 0.5,
                             np.ones(4), 300, [5, 6, 7], None, False, [dist] * 3,
                             columns=columns, **loop)

        plain = [smtp_run(make_quadratic(coord_L), sphere, Constant(0.05), 0.5, np.ones(4),
                          max_iters=300, seed=5), *block(sphere, Constant(0.05))]
        is_runs = [smtp_is_run(make_quadratic(coord_L), coord_L / coord_L.sum(), is_rule, 0.5,
                               np.ones(4), max_iters=300, seed=5),
                   *block(weighted, is_rule)]
        decreasing = smtp_run(make_quadratic(coord_L), sphere, Decreasing(alpha=0.5, theta=4.0),
                              0.5, np.ones(4), max_iters=30, seed=5)
        for trace in (*plain, *is_runs, decreasing):
            assert isinstance(vars(trace)["gamma"], array) and trace.gamma.typecode == "d"
            assert len(trace.gamma) == len(trace.f_z)
        for trace in plain:
            assert trace.gamma == array("d", [0.05] * 300)
        for trace in is_runs:
            assert list(trace.gamma) == [0.01 / coord_L[i] for i in trace.index]
        assert len(decreasing.gamma) == 30
        for trace in (*block(sphere, Constant(0.05), columns=False),
                      *block(weighted, is_rule, columns=False)):
            assert trace.gamma is None and trace.f_z is None

    def test_retained_coordinate_draws_are_indices(self):
        dist = DirectionDistribution("coord_uniform", 5)
        trace = smtp_run(make_quadratic(np.ones(5)), dist, Constant(0.05), 0.5, np.ones(5),
                         max_iters=50, seed=4, retain_internals=True)
        assert isinstance(trace.drawn, array) and len(trace.drawn) == 50
        rng = np.random.default_rng(4)
        s = trace.s
        assert len(s) == 50
        for k in range(50):
            expected = sample(dist, rng)  # the dense e_i the run's stream stands for
            np.testing.assert_array_equal(s[k], expected)
            assert expected[trace.drawn[k]] == 1.0
