"""Acceptance gates: one test per shipped guarantee, one pass/fail line each.

Each test prints a PASS line with the measured margins; pytest -v/-rA shows
one PASSED/FAILED line per criterion.  Budgets are wall-clock limits in
seconds on the run phase of each criterion, and they must hold on the
project's 2-core development machine.
"""

from __future__ import annotations

import math
import time

import numpy as np
import pytest

from threepoint import harness
from threepoint.diagnostics import verify_trace_inequalities
from threepoint.directions import (
    DirectionDistribution,
    constants,
    mc_validate,
)
from threepoint.objectives import make_lqr, make_quadratic, make_rosenbrock
from threepoint.optimizers import STAY, init_state, smtp_is_run, smtp_run, smtp_step, stp_run
from threepoint.schedules import (
    Constant,
    Decreasing,
    FixedHorizon,
    ISSolutionDependent,
    ISSolutionFree,
    PerCoordinate,
    SolutionDependent,
    SolutionFree,
    is_min_ratio,
    optimal_gamma0,
    required_iterations,
    solution_free_t_max,
)

BETA = 0.5
QUAD_L = np.linspace(1.0, 10.0, 10)  # kappa = 10 testbed spectrum

# ----------------------------------------------------------------------------
# shared test matrix: 3 objectives x 4 distributions x 5 schedules x 5 seeds.
# all four kinds draw unit-norm directions, so every schedule (including the
# probe-based one, which requires ||s||_2 = 1) is valid in every cell
# ----------------------------------------------------------------------------


def _objective_cell(name):
    if name == "quadratic":
        return make_quadratic(QUAD_L), np.ones(10), 800
    if name == "rosenbrock":
        return make_rosenbrock(4), np.zeros(4), 200
    return make_lqr(15, 3, 2), np.zeros(6), 100


def _schedule_cells(name, obj, x0, iters, nc):
    # rosenbrock and lqr do not publish every constant; the missing ones are
    # replaced by fixed surrogates, which only shapes the stepsize sequence
    # (acceptance of a move never depends on the schedule being well tuned)
    info = obj.smoothness
    gap0 = obj.value(x0) - (info.f_star if info.f_star is not None else 0.0)
    if name == "quadratic":
        mu, L = 1.0, 10.0
        con, dec = Constant(0.05), Decreasing(0.5, 4.0)
    elif name == "rosenbrock":
        mu, L = 1.0, info.L
        con, dec = Constant(0.001), Decreasing(50.0, 2000.0)
    else:
        mu, L = 1.0, 100.0
        con, dec = Constant(0.01), Decreasing(5.0, 20.0)
    return [
        ("constant", con),
        ("fixed_horizon", FixedHorizon(optimal_gamma0(BETA, gap0, L, nc.gamma_d), iters)),
        ("decreasing", dec),
        ("solution_dependent", SolutionDependent(mu, L, nc.mu_d, info.f_star, BETA)),
        ("solution_free", SolutionFree(L, 0.01, BETA)),
    ]


def _distribution_cells(d):
    w = np.linspace(1.0, 3.0, d)
    w = w / w.sum()
    basis, _ = np.linalg.qr(np.random.default_rng(d).standard_normal((d, d)))
    return [
        ("sphere", DirectionDistribution("sphere", d)),
        ("coord_uniform", DirectionDistribution("coord_uniform", d)),
        ("coord_weighted", DirectionDistribution("coord_weighted", d, weights=w)),
        ("orthonormal_weighted",
         DirectionDistribution("orthonormal_weighted", d, weights=w, basis=basis)),
    ]


def _matrix_cells():
    for name in ("quadratic", "rosenbrock", "lqr"):
        _, x0, iters = _objective_cell(name)
        for dist_name, dist in _distribution_cells(x0.size):
            nc = constants(dist)
            obj0, _, _ = _objective_cell(name)
            for sched_name, sched in _schedule_cells(name, obj0, x0, iters, nc):
                for seed in range(5):
                    yield name, dist_name, sched_name, seed, dist, sched, x0, iters


@pytest.fixture(scope="module")
def matrix():
    t0 = time.perf_counter()
    runs = []
    for name, dist_name, sched_name, seed, dist, sched, x0, iters in _matrix_cells():
        obj, _, _ = _objective_cell(name)
        trace = smtp_run(obj, dist, sched, BETA, x0, max_iters=iters, seed=seed,
                         retain_internals=(name == "quadratic"))
        runs.append((name, dist_name, sched_name, seed, trace, obj))
    return {"runs": runs, "build_seconds": time.perf_counter() - t0}


@pytest.fixture(scope="module")
def is_runs():
    p = QUAD_L / QUAD_L.sum()
    w = QUAD_L.copy()
    cells = [
        ("is_constant", PerCoordinate(Constant(0.05), w)),
        ("is_decreasing", PerCoordinate(Decreasing(0.5, 4.0), w)),
        ("is_solution_dependent", ISSolutionDependent(1.0, p, w, QUAD_L, 0.0, BETA)),
        ("is_solution_free", ISSolutionFree(QUAD_L, 0.01, BETA)),
    ]
    runs = []
    for sched_name, sched in cells:
        for seed in range(5):
            obj = make_quadratic(QUAD_L)
            trace = smtp_is_run(obj, p, sched, BETA, np.ones(10), max_iters=800,
                                seed=seed, retain_internals=True)
            runs.append((sched_name, seed, trace, obj))
    return runs


def _is_monotone(trace):
    fs = [trace.f0] + [r.f_z_after for r in trace.records]
    return all(b <= a for a, b in zip(fs, fs[1:]))


def test_01_beta_zero_matches_plain_search_bitwise():
    # momentum with beta=0 must reproduce the three-point baseline exactly:
    # same branches, same stepsizes, same f values, same evaluation counters
    dist = DirectionDistribution("coord_uniform", 10)
    x0 = np.ones(10)
    budget = 2.0

    t0 = time.perf_counter()
    pairs = []
    for seed in range(10):
        a = smtp_run(make_quadratic(QUAD_L), dist, Constant(0.05), 0.0, x0,
                     max_iters=10_000, seed=seed)
        b = stp_run(make_quadratic(QUAD_L), dist, Constant(0.05), x0,
                    max_iters=10_000, seed=seed)
        pairs.append((a, b))
    elapsed = time.perf_counter() - t0

    for a, b in pairs:
        assert [(r.k, r.f_z_after, r.gamma, r.branch, r.evals_cumulative)
                for r in a.records] == \
               [(r.k, r.f_z_after, r.gamma, r.branch, r.evals_cumulative)
                for r in b.records]
        assert np.array_equal(a.final_state.z, b.final_state.z)
    iters = sum(len(a.records) + len(b.records) for a, b in pairs)
    assert elapsed < budget, (f"run phase took {elapsed:.2f}s, budget {budget}s "
                              f"({iters} iterations, {1e6 * elapsed / iters:.2f} us/iteration)")
    print(f"PASS 01: 10 seeds x 10^4 iterations bitwise identical "
          f"({elapsed:.2f}s < {budget}s)")


def test_02_matrix_traces_never_increase(matrix):
    budget = 30.0
    runs = matrix["runs"]
    steps = sum(len(t.records) for *_, t, _ in runs)
    assert len(runs) == 300  # 3 objectives x 4 distributions x 5 schedules x 5 seeds
    assert steps >= 100_000
    for name, dist_name, sched_name, seed, trace, _ in runs:
        assert _is_monotone(trace), \
            f"f_z increased: {name}/{dist_name}/{sched_name}/seed{seed}"
    assert matrix["build_seconds"] < budget, \
        f"matrix took {matrix['build_seconds']:.2f}s, budget {budget}s"
    print(f"PASS 02: {len(runs)} runs / {steps} steps all nonincreasing "
          f"({matrix['build_seconds']:.2f}s < {budget}s)")


def test_03_descent_inequality_zero_violations(matrix, is_runs):
    # every accepted or rejected move on the quadratic must satisfy the
    # per-step expected-descent inequality within slack -1e-10, for both the
    # random-direction and the coordinate importance-sampling updates
    checked = 0
    for name, dist_name, sched_name, seed, trace, obj in matrix["runs"]:
        if name != "quadratic":
            continue
        report = verify_trace_inequalities(trace, obj, slack_tol=-1e-10)
        assert report.ok, \
            f"violations in {dist_name}/{sched_name}/seed{seed}: {report.violations[:3]}"
        assert not report.out_of_domain
        checked += report.n_checked
    for sched_name, seed, trace, obj in is_runs:
        assert _is_monotone(trace)
        report = verify_trace_inequalities(trace, obj, slack_tol=-1e-10)
        assert report.ok, \
            f"violations in {sched_name}/seed{seed}: {report.violations[:3]}"
        checked += report.n_checked
    print(f"PASS 03: 0 violations over {checked} verified steps")


def test_04_virtual_iterate_identity():
    # after every accepted move, z must equal x - (gamma beta/(1-beta)) v
    tol = 1e-12
    total = accepted = 0
    worst = 0.0
    for name, dist_name, sched_name, seed, dist, sched, x0, iters in _matrix_cells():
        obj, _, _ = _objective_cell(name)
        rng = np.random.default_rng(seed)
        state = init_state(obj, x0, BETA)
        for k in range(iters):
            branch, gamma = smtp_step(state, obj, dist, sched, rng)
            total += 1
            if branch == STAY:
                continue
            accepted += 1
            c = gamma * BETA / (1.0 - BETA)
            resid = float(np.max(np.abs(state.z - (state.x - c * state.v))))
            scale = max(1.0, float(np.max(np.abs(state.z))))
            worst = max(worst, resid / scale)
            assert resid <= tol * scale, \
                f"{name}/{dist_name}/{sched_name}/seed{seed} k={k}: {resid:.3e}"
    assert total >= 100_000
    print(f"PASS 04: identity held after {accepted} accepted moves of {total} "
          f"steps (worst {worst:.2e} <= {tol})")


def test_05_strongly_convex_target_accuracy():
    # run exactly the prescribed iteration count for target accuracy 1e-3
    # with the probe-based stepsize rule; the seed-mean final gap must land
    # at or below the target
    epsilon = 1e-3
    budget = 60.0
    dist = DirectionDistribution("sphere", 10)
    nc = constants(dist)
    x0 = np.ones(10)
    gap0 = 0.5 * QUAD_L.sum()
    t = solution_free_t_max(epsilon, nc.mu_d, 1.0, 10.0)
    K = required_iterations(
        "SC-FREE", dict(epsilon=epsilon, gap=gap0, mu=1.0, L=10.0, mu_d=nc.mu_d))

    t0 = time.perf_counter()
    finals = []
    for seed in range(30):
        obj = make_quadratic(QUAD_L)
        trace = smtp_run(obj, dist, SolutionFree(10.0, t, BETA), BETA, x0,
                         max_iters=K, seed=seed)
        finals.append(trace.final_state.f_z)
    elapsed = time.perf_counter() - t0

    mean_gap = float(np.mean(finals))
    assert mean_gap <= epsilon, f"mean gap {mean_gap:.3e} > {epsilon}"
    assert elapsed < budget, f"took {elapsed:.2f}s, budget {budget}s"
    print(f"PASS 05: K={K} iterations -> mean gap {mean_gap:.2e} <= {epsilon} "
          f"over 30 seeds ({elapsed:.2f}s < {budget}s)")


def test_06_gradient_norm_envelope_scaling():
    # with the horizon-tuned base step, the trace-average direction-norm of
    # the gradient must sit under sqrt(2 gap L gamma_d)/(mu_d sqrt(K)) x 1.05
    # at every horizon, seed-averaged
    budget = 60.0
    tol = 1.05
    dist = DirectionDistribution("sphere", 10)
    nc = constants(dist)
    x0 = np.ones(10)
    gap0 = 0.5 * QUAD_L.sum()

    t0 = time.perf_counter()
    ratios = []
    for K in (100, 1_000, 10_000):
        g0 = optimal_gamma0(BETA, gap0, 10.0, nc.gamma_d)
        sched = FixedHorizon(g0, K)
        means = []
        for seed in range(30):
            obj = make_quadratic(QUAD_L)
            trace = smtp_run(obj, dist, sched, BETA, x0, max_iters=K, seed=seed,
                             track_grad_norm=True)
            means.append(np.mean([r.grad_norm_D for r in trace.records]))
        envelope = math.sqrt(2.0 * gap0 * 10.0 * nc.gamma_d) / (nc.mu_d * math.sqrt(K))
        seed_mean = float(np.mean(means))
        ratios.append(seed_mean / envelope)
        assert seed_mean <= tol * envelope, \
            f"K={K}: mean {seed_mean:.4f} > {tol} x {envelope:.4f}"
    elapsed = time.perf_counter() - t0

    assert elapsed < budget, f"took {elapsed:.2f}s, budget {budget}s"
    print(f"PASS 06: envelope ratios {[f'{r:.2f}' for r in ratios]} all <= {tol} "
          f"({elapsed:.2f}s < {budget}s)")


def test_07_decreasing_stepsize_gap_envelope():
    # gamma_k = 2/(alpha k + theta) with theta = 2/alpha and the level-set
    # radius choice of alpha: checkpoint gaps must track the inverse-linear
    # envelope within 5 percent, seed-averaged
    cfg = harness.parse_config("\n".join([
        "method = smtp",
        "beta = 0.5",
        "objective = quadratic",
        "dimension = 10",
        "coord_L = logspace:1,10",
        "distribution = sphere",
        "schedule.kind = decreasing",
        "schedule.alpha = auto",
        "schedule.theta = auto",
        "r0 = auto",
        "max_iters = 2000",
        "seeds = 30",
        "theorem = CVX-DEC",
    ]), label="decreasing_gap_envelope")

    obj = harness.build_objective(cfg, 0)
    x0 = harness.build_x0(cfg, obj.dimension)
    nc = constants(harness.build_distribution(cfg, obj.dimension))
    sched = harness.build_schedule(cfg, obj, x0, norm_constants=nc)
    assert sched.theta == pytest.approx(2.0 / sched.alpha, rel=1e-12)

    summary = harness.run_experiment(cfg, write=False)
    assert summary.envelope_ok is True
    print(f"PASS 07: 30-seed mean gap under 1.05 x inverse-linear envelope "
          f"at checkpoints (alpha={sched.alpha:.4f})")


def test_08_importance_sampling_beats_uniform():
    # smoothness-proportional coordinate probabilities must reach the target
    # gap in fewer median evaluations than uniform probabilities; and the
    # probability/smoothness ratio identity must hold to 1e-12
    base = "\n".join([
        "method = smtp_is",
        "beta = 0.5",
        "objective = quadratic",
        "dimension = 10",
        "coord_L = logspace:1,1000",
        "x0 = ones",
        "x0_scale = 0.1",
        "is.w = coord_L",
        "schedule.kind = constant",
        "schedule.gamma = 0.01",
        "epsilon = 0.001",
        "max_iters = 80000",
        "seeds = 30",
    ])
    prop = harness.parse_config(base + "\nis.p = prop_L", label="is_prop")
    uni = harness.parse_config(base + "\nis.p = uniform", label="is_uniform")
    rows = harness.compare_methods([prop, uni])

    assert rows[0]["n_reached"] == 30 and rows[1]["n_reached"] == 30
    assert rows[0]["median_evals"] < rows[1]["median_evals"]

    obj = harness.build_objective(prop, 0)
    p, w = harness.build_is_vectors(prop, obj)
    coord_L = obj.smoothness.coord_L
    assert abs(is_min_ratio(p, coord_L) - 1.0 / float(coord_L.sum())) <= 1e-12

    print(f"PASS 08: median evals {rows[0]['median_evals']:.0f} (proportional) "
          f"< {rows[1]['median_evals']:.0f} (uniform); min ratio identity holds")


def test_09_direction_constants_monte_carlo():
    # 10^6-sample estimates must match the catalogued constants: second
    # moment within 1% (bit-exact 1 for sure-unit kinds), coordinate
    # alignment within 1%, scaled-gaussian alignment within 2%, and the
    # sphere lower bound must hold
    budget = 20.0
    n = 1_000_000
    t0 = time.perf_counter()
    lines = []
    for di, d in enumerate((2, 10, 100)):
        g = np.random.default_rng(2026 + di).standard_normal(d)
        raw = np.linspace(1.0, 3.0, d)
        kinds = [
            ("sphere", None),
            ("gaussian", None),
            ("coord_uniform", None),
            ("coord_weighted", raw / raw.sum()),
        ]
        for ki, (kind, w) in enumerate(kinds):
            dist = DirectionDistribution(kind, d, weights=w)
            mc = mc_validate(dist, g, n, np.random.default_rng([d, ki]))
            assert mc.mu_lower_ok, f"{kind} d={d}: alignment lower bound failed"
            if kind == "gaussian":
                assert abs(mc.gamma_hat - 1.0) <= 0.01
                target = math.sqrt(2.0 / (d * math.pi)) * float(np.linalg.norm(g))
                rel = abs(mc.inner_hat - target) / target
                assert rel <= 0.02, f"gaussian d={d}: rel {rel:.4f}"
            else:
                assert abs(mc.gamma_hat - 1.0) <= 1e-9
                if kind != "sphere":
                    probs = w if w is not None else np.full(d, 1.0 / d)
                    target = float(np.sum(probs * np.abs(g)))
                    rel = abs(mc.inner_hat - target) / target
                    assert rel <= 0.01, f"{kind} d={d}: rel {rel:.4f}"
            lines.append(f"{kind}/d={d}")
    elapsed = time.perf_counter() - t0
    assert elapsed < budget, f"took {elapsed:.2f}s, budget {budget}s"
    print(f"PASS 09: {len(lines)} kind/dimension cells within tolerance "
          f"({elapsed:.2f}s < {budget}s)")


def test_10_stepsize_rule_error_bound():
    # the probe-based stepsize never strays from the gradient-aligned ideal
    # step by more than (1-beta) t / 2, checked against the analytic gradient
    dist = DirectionDistribution("sphere", 10)
    sched = SolutionFree(10.0, 0.01, BETA)
    bound = (1.0 - BETA) * sched.t / 2.0
    checked = 0
    worst = 0.0
    for seed in range(3):
        obj = make_quadratic(QUAD_L)
        trace = smtp_run(obj, dist, sched, BETA, np.ones(10), max_iters=2000,
                         seed=seed, retain_internals=True)
        for rec, z, s in zip(trace.records, trace.z_before, trace.s):
            ideal = (1.0 - BETA) * abs(float(np.dot(obj.gradient(z), s))) / 10.0
            err = abs(rec.gamma - ideal)
            assert err <= bound, f"seed {seed} k={rec.k}: {err:.3e} > {bound:.3e}"
            worst = max(worst, err)
            checked += 1
    print(f"PASS 10: |gamma - ideal| <= {bound:.1e} on all {checked} steps "
          f"(worst {worst:.2e})")
