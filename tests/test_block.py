"""Blocks of seeds: a block run must equal one-seed runs byte for byte.

harness.run_block advances the seeds of a config together as the rows of
(S, d) arrays; harness.run_once runs one seed through the scalar loop, which
is the reference.  The properties draw random laws, rules, beta, stops and
seed lists of the shapes the block admits (optimizers.block_supports).
compare runs the rows of several configs together, each row with its own
law, and must equal each config run alone.  Every other shape runs per seed
through run_once, with the same traces.
"""

from __future__ import annotations

import gc
import os
import pickle
import tempfile
import weakref

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from threepoint import directions, harness, objectives, optimizers, schedules
from threepoint.harness import parse_config, run_experiment, run_once

LAWS = ("sphere", "gaussian", "coord_uniform", "coord_weighted", "orthonormal_weighted")
# the rules the block admits: the fixed ones over any law, solution_dependent
# over vector laws
KINDS = ("constant", "fixed_horizon", "solution_dependent")
FIXED_KINDS = KINDS[:2]
VECTOR_LAWS = ("sphere", "gaussian", "orthonormal_weighted")


def _weights(d: int) -> str:
    w = np.arange(1.0, d + 1.0)
    return ",".join(repr(v) for v in (w / w.sum()).tolist())


@st.composite
def configs(draw) -> str:
    """A small config that parses, over any method, law, fixed or
    solution_dependent rule and epsilon stop the block admits (a
    solution_dependent rule over a vector law): a quadratic, shifted or not,
    with no noise, eval_budget or retained internals."""
    method = draw(st.sampled_from(("smtp", "stp", "smtp_is")))
    betas = (0.0,) if method == "stp" else (0.0, 0.3, 0.5, 0.9)  # stp takes beta 0 alone
    max_iters = draw(st.integers(0, 300))
    d = draw(st.integers(2, 12))
    lines = [f"method = {method}", f"beta = {draw(st.sampled_from(betas))}",
             f"max_iters = {max_iters}", "objective = quadratic", f"dimension = {d}",
             f"coord_L = logspace:1,{draw(st.sampled_from((1, 10, 100)))}",
             f"x0_scale = {draw(st.sampled_from((0.1, 1.0, 3.0)))}",
             f"track_grad_norm = {draw(st.booleans())}"]
    if draw(st.booleans()):
        lines.append("shift = " + ",".join(repr(0.25 * (-1) ** i) for i in range(d)))
    law = None if method == "smtp_is" else draw(st.sampled_from(LAWS))
    rule = draw(st.sampled_from(KINDS if law in VECTOR_LAWS else FIXED_KINDS))
    if law is not None:
        lines.append(f"distribution = {law}")
        if law in ("coord_weighted", "orthonormal_weighted"):
            lines.append(f"weights = {_weights(d)}")
        if law == "orthonormal_weighted":
            lines.append(f"basis = random:{draw(st.integers(0, 9))}")
    else:
        lines.append(f"is.p = {draw(st.sampled_from(('uniform', 'prop_L')))}")
    lines.append(f"schedule.kind = {rule}")
    lines += {
        "constant": [f"schedule.gamma = {draw(st.sampled_from((1e-3, 0.01, 0.05)))}"],
        "fixed_horizon": [f"schedule.gamma0 = {'optimal' if draw(st.booleans()) else 0.05}"]
        # the horizon defaults to max_iters, which must then be at least 1
        + ([f"schedule.horizon = {draw(st.integers(1, 400))}"]
           if max_iters == 0 or draw(st.booleans()) else []),
        "solution_dependent": [],
    }[rule]
    if draw(st.booleans()):
        lines.append(f"epsilon = {draw(st.sampled_from((0.5, 0.05, 1e-3)))}")
    return "\n".join(lines)


def _csv(trace) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        harness._write_trace(trace, path)
        with open(path, "rb") as fh:
            return fh.read()


def _fingerprint(trace, obj) -> tuple:
    """Everything a run leaves: the trace CSV, its columns (whole, as the CSV
    stops at the f_z column's length) and stop, the final state and the
    objective's counter."""
    state = trace.final_state
    retained = None
    if trace.z_before is not None:
        retained = (b"".join(z.tobytes() for z in trace.z_before),
                    b"".join(np.asarray(s).tobytes() for s in trace.s))
    return (_csv(trace), trace.stop_reason, trace.seed, trace.f0, list(trace.evals),
            list(trace.gamma), None if trace.grad_norm is None else list(trace.grad_norm),
            None if trace.index is None else (trace.index.typecode, list(trace.index)),
            state.z.tobytes(), state.v.tobytes(), state.x.tobytes(), state.f_z, state.k,
            obj.eval_counter, retained)


@settings(max_examples=50, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=configs(),
       seeds=st.lists(st.integers(0, 10**6), min_size=1, max_size=7, unique=True),
       extra=st.integers(0, 10**6))
def test_block_equals_per_seed_runs(text, seeds, extra):
    cfg = parse_config(text)
    cfg.seeds = tuple(seeds)
    try:
        expected = [_fingerprint(*run_once(cfg, seed)) for seed in seeds]
    except Exception:  # noqa: BLE001 - a seed the scalar loop fails fails the block
        with pytest.raises(Exception):
            harness.run_block([cfg] * len(seeds), seeds)
        return
    traces, objs = harness.run_block([cfg] * len(seeds), seeds)
    assert [_fingerprint(t, o) for t, o in zip(traces, objs)] == expected
    # adding a seed leaves the existing seeds' bytes unchanged
    if extra not in seeds:
        more, more_objs = harness.run_block([cfg] * (len(seeds) + 1), [*seeds, extra])
        assert [_fingerprint(t, o) for t, o in zip(more[:-1], more_objs)] == expected


@pytest.mark.parametrize("text, block", [
    ("method = smtp_is\nbeta = 0.5\nis.p = prop_L\nschedule.kind = constant\n"
     "schedule.gamma = 0.02", True),
    ("method = smtp\nbeta = 0.5\ndistribution = coord_uniform\nschedule.kind = fixed_horizon\n"
     "schedule.gamma0 = optimal", True),
    ("method = stp\ndistribution = sphere\nschedule.kind = solution_dependent", True),
    ("method = smtp_is\nbeta = 0.5\nis.w = ones\nschedule.kind = decreasing\n"
     "schedule.alpha = 1\nschedule.theta = 4", False),
    ("method = smtp\nbeta = 0.5\ndistribution = coord_uniform\nschedule.kind = fixed_horizon\n"
     "schedule.gamma0 = optimal\nnoise.sigma = 1e-4\nnoise.k = 2", False),
    ("method = stp\ndistribution = sphere\nschedule.kind = solution_free\nschedule.t = 1e-3",
     False),
], ids=["is_table", "coord_fixed", "sphere_dependent", "is_decreasing", "coord_fixed_noisy",
        "sphere_probe"])
def test_block_with_staggered_stops(text, block, monkeypatch):
    # a dozen seeds that reach epsilon at scattered steps: rows leave one or
    # several at a time, often within one draw chunk, down to the last row;
    # the shapes the block declines never reach it, and each seed runs
    # through run_once instead
    cfg = parse_config(text + "\nobjective = quadratic\ndimension = 6\n"
                       "coord_L = logspace:1,30\nepsilon = 1e-3\nmax_iters = 3000\nseeds = 12")
    runs = [run_once(cfg, seed) for seed in cfg.seeds]
    assert len({len(trace.f_z) for trace, _ in runs}) > 6  # the stops are scattered
    expected = [_fingerprint(*run) for run in runs]
    calls = _counting(monkeypatch)
    got = harness._run_seeds([(cfg, seed) for seed in cfg.seeds])
    assert [_fingerprint(t, o) for t, o, _ in got] == expected
    assert calls == ([("block", 12)] if block else [("once", "run", s) for s in cfg.seeds])


def _artifacts(out: str) -> dict:
    found = {}
    for name in sorted(os.listdir(out)):
        with open(os.path.join(out, name), "rb") as fh:
            data = fh.read()
        if name == "summary.txt":  # wall times differ from run to run
            data = b"\n".join(line for line in data.splitlines() if b"wall_time" not in line)
        found[name] = data
    return found


@settings(max_examples=3, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=configs(),
       seeds=st.lists(st.integers(0, 10**6), min_size=4, max_size=8, unique=True))
def test_serial_equals_two_jobs(text, seeds):
    # serial runs one block; two jobs run two groups, each a block from BLOCK_MIN_ROWS seeds on
    cfg = parse_config(text + f"\nseeds = {','.join(map(str, seeds))}", label="p")
    with tempfile.TemporaryDirectory() as tmp:
        try:
            run_experiment(cfg, out_dir=os.path.join(tmp, "serial"), jobs=1)
        except Exception as exc:  # noqa: BLE001 - then two jobs fail as the first failing seed
            with pytest.raises(type(exc)) as raised:
                run_experiment(cfg, out_dir=os.path.join(tmp, "jobs2"), jobs=2)
            assert str(raised.value) == str(exc)
            return
        run_experiment(cfg, out_dir=os.path.join(tmp, "jobs2"), jobs=2)
        assert _artifacts(os.path.join(tmp, "serial", "p")) == \
            _artifacts(os.path.join(tmp, "jobs2", "p"))


def test_run_experiment_runs_blocks_from_the_crossover(monkeypatch):
    # below BLOCK_MIN_ROWS seeds go one by one through run_once, from it on as one block
    calls = {"block": 0, "once": 0}
    block, once = harness.run_block, harness.run_once

    def counting_block(cfgs, seeds):
        calls["block"] += 1
        return block(cfgs, seeds)

    def counting_once(cfg, seed):
        calls["once"] += 1
        return once(cfg, seed)

    monkeypatch.setattr(harness, "run_block", counting_block)
    monkeypatch.setattr(harness, "run_once", counting_once)
    base = ("objective = quadratic\ndimension = 4\ndistribution = sphere\n"
            "schedule.kind = constant\nschedule.gamma = 0.01\nmax_iters = 50\n")
    n = optimizers.BLOCK_MIN_ROWS
    run_experiment(parse_config(base + f"seeds = {n - 1}"), write=False)
    assert calls == {"block": 0, "once": n - 1}
    run_experiment(parse_config(base + f"seeds = {n}"), write=False)
    assert calls == {"block": 1, "once": n - 1}


DECLINED_BASE = ("method = smtp\nbeta = 0.5\nobjective = quadratic\ndimension = 4\n"
                 "coord_L = logspace:1,10\ndistribution = sphere\nschedule.kind = constant\n"
                 "schedule.gamma = 0.01\nmax_iters = 200\nepsilon = 1e-3\nseeds = 4\n")


@pytest.mark.parametrize("old, new, message", [
    ("seeds = 4", "seeds = 4\nnoise.sigma = 1e-4", "block_supports"),
    ("objective = quadratic\ndimension = 4\ncoord_L = logspace:1,10",
     "objective = rosenbrock\ndimension = 4\nx0_scale = 0.5", "block_supports"),
    ("seeds = 4", "seeds = 4\neval_budget = 150", "eval_budget"),
    ("seeds = 4", "seeds = 4\nretain_internals = true", "retains"),
    ("schedule.kind = constant\nschedule.gamma = 0.01", "schedule.kind = solution_free\n"
     "schedule.t = 1e-3", "block_supports"),
    ("schedule.kind = constant\nschedule.gamma = 0.01", "schedule.kind = decreasing\n"
     "schedule.alpha = 1\nschedule.theta = 4", "block_supports"),
    ("method = smtp\nbeta = 0.5\nobjective = quadratic\ndimension = 4\n"
     "coord_L = logspace:1,10\ndistribution = sphere\nschedule.kind = constant\n"
     "schedule.gamma = 0.01", "method = smtp_is\nbeta = 0.5\nobjective = quadratic\n"
     "dimension = 4\ncoord_L = logspace:1,10\nschedule.kind = solution_dependent",
     "block_supports"),
    ("dimension = 4\ncoord_L = logspace:1,10\ndistribution = sphere",
     "dimension = 100\ncoord_L = logspace:1,10\ndistribution = coord_uniform", "block_supports"),
    # block_supports takes solution_dependent over vector laws alone
    ("distribution = sphere\nschedule.kind = constant\nschedule.gamma = 0.01",
     "distribution = coord_uniform\nschedule.kind = solution_dependent\n"
     "track_grad_norm = true", "block_supports"),
    ("schedule.kind = constant\nschedule.gamma = 0.01", "schedule.kind = solution_dependent",
     "block_supports"),
], ids=["noisy", "rosenbrock", "eval_budget", "retain_internals", "solution_free",
        "decreasing", "is_solution_dependent", "wide_table", "coord_solution_dependent",
        "callable_theta_k"])
def test_declined_shapes_run_per_seed(old, new, message, monkeypatch, request):
    # the block declines these shapes, and a 4-seed run sends every row through
    # run_once, with the traces of the one-seed runs
    cfg = parse_config(DECLINED_BASE.replace(old, new))
    if request.node.callspec.id == "callable_theta_k":  # no config key gives one
        cfg.schedule_theta_k = lambda k: 1.0 + 0.5 / (k + 1)
    expected = [_fingerprint(*run_once(cfg, seed)) for seed in cfg.seeds]
    with pytest.raises(ValueError, match=message):
        harness.run_block([cfg] * len(cfg.seeds), cfg.seeds)
    calls, got, run_seeds = _counting(monkeypatch), [], harness._run_seeds

    def recording(rows):
        runs = run_seeds(rows)
        got.extend(_fingerprint(t, o) for t, o, _ in runs)
        return runs

    monkeypatch.setattr(harness, "_run_seeds", recording)
    run_experiment(cfg, write=False)
    assert [call for call in calls if call[0] == "once"] == [("once", "run", s) for s in cfg.seeds]
    assert got == expected


def test_failing_block_reports_the_one_seed_error():
    # a step along coordinate 2 (L = 1e20) overflows f, and each seed first
    # draws it at its own step (seed 6 at step 4, seed 2 at step 0); a step
    # along coordinate 0 or 1 reaches the shift and moves, which ends a row's
    # walk: seed 2 fails first in the block, in its first walk, but a run
    # reports seed 6's error, the one its one-seed run raises, named by label
    # and seed
    text = ("objective = quadratic\ndimension = 3\ncoord_L = 1,1,1e20\nshift = 1e150,1e150,0\n"
            "distribution = coord_uniform\nschedule.kind = constant\nschedule.gamma = 5e149\n"
            "max_iters = 200\nseeds = 6,9,2,11\n")
    cfg = parse_config(text)
    with pytest.raises(optimizers.NonFiniteObjectiveError, match="iteration 4") as alone:
        run_once(cfg, 6)
    with pytest.raises(optimizers.NonFiniteObjectiveError) as block:
        harness.run_block([cfg] * len(cfg.seeds), cfg.seeds)
    assert str(block.value) != str(alone.value)
    with pytest.raises(optimizers.NonFiniteObjectiveError) as run:
        run_experiment(cfg, write=False)
    assert type(run.value) is type(alone.value)
    assert str(run.value) == f"run seed 6: {alone.value}"


def test_coordinate_block_overflow_reports_the_one_seed_error():
    # a step of 1e300 overflows f at a drawn cell of every row
    cfg = parse_config("objective = quadratic\ndimension = 5\ndistribution = coord_uniform\n"
                       "schedule.kind = constant\nschedule.gamma = 1e300\nmax_iters = 50\n"
                       "seeds = 3,1,4,5,9")
    with pytest.raises(optimizers.NonFiniteObjectiveError) as alone:
        run_once(cfg, 3)
    with pytest.raises(optimizers.NonFiniteObjectiveError):
        harness.run_block([cfg] * len(cfg.seeds), cfg.seeds)
    with pytest.raises(optimizers.NonFiniteObjectiveError) as run:
        run_experiment(cfg, write=False)
    assert str(run.value) == f"run seed 3: {alone.value}"


def test_a_block_error_no_seed_reproduces_is_raised(monkeypatch):
    # a block that fails where each seed runs fine alone has a fault of its
    # own: the seeds rerun one by one, and then the block's error is raised
    def boom(*args, **kwargs):
        raise ValueError("boom")

    monkeypatch.setattr(optimizers, "run_block", boom)
    calls = _counting(monkeypatch)
    cfg = parse_config(DECLINED_BASE.replace("seeds = 4", "seeds = 3"))
    with pytest.raises(ValueError, match="^boom$"):
        run_experiment(cfg, write=False)
    assert calls == [("block", 3)] + [("once", "run", s) for s in cfg.seeds]


def test_coordinate_block_with_subnormal_momentum():
    # coordinate 0 is drawn about once in 1e4 steps: after a move there, its v
    # decays by beta = 0.9 at every later move, into the subnormals, while the
    # rows stop on epsilon at scattered steps inside a draw chunk
    cfg = parse_config("method = smtp\nbeta = 0.9\nobjective = quadratic\ndimension = 3\n"
                       "coord_L = 1,10,100\ndistribution = coord_weighted\n"
                       "weights = 0.0001,0.4999,0.5\nschedule.kind = constant\n"
                       "schedule.gamma = 1e-5\nepsilon = 0.5001\nmax_iters = 60000\nseeds = 4")
    runs = [run_once(cfg, seed) for seed in cfg.seeds]
    tiny = np.finfo(float).tiny
    assert any(0.0 < abs(trace.final_state.v[0]) < tiny for trace, _ in runs)
    rows = directions.chunk_rows(3, len(cfg.seeds))
    assert {trace.stop_reason for trace, _ in runs} == {"epsilon_gap"}
    assert len({len(trace.f_z) % rows for trace, _ in runs}) > 1
    expected = [_fingerprint(*run) for run in runs]
    traces, objs = harness.run_block([cfg] * len(cfg.seeds), cfg.seeds)
    assert [_fingerprint(t, o) for t, o in zip(traces, objs)] == expected


@pytest.mark.parametrize("law", ["coord_uniform", "sphere"])
def test_block_breaks_ties_as_the_scalar_step(law):
    # f peaks at x0 = 0 and is even, so both first candidates tie below f(x0):
    # smtp_step takes z+ then, and so must every row of a block
    def fn_batch(X):
        return 1.0 / (1.0 + np.vecdot(X, X))

    def make():
        return objectives.Objective(lambda x: float(fn_batch(x[None])[0]), 3, fn_batch=fn_batch)

    dist, rule, seeds = directions.DirectionDistribution(law, 3), schedules.Constant(0.1), [0, 1, 2]
    nc = directions.constants(dist)
    objs = [make() for _ in seeds]
    expected = [_fingerprint(optimizers.smtp_run(o, dist, rule, 0.5, np.zeros(3), 20, seed=s,
                                                 norm_constants=nc), o)
                for o, s in zip(objs, seeds)]
    objs = [make() for _ in seeds]
    traces = optimizers.run_block(objs, [rule] * 3, 0.5, np.zeros(3), 20, seeds, None, False,
                                  [dist] * 3, nc)
    assert {trace.branch[0] for trace in traces} == {optimizers.PLUS}
    assert [_fingerprint(t, o) for t, o in zip(traces, objs)] == expected


def test_wide_coordinate_block():
    # 40 rows of d = 5: the momentum replay's flat cells of the (40, 5) block
    # pass the int8 range, and every row still ends where it does alone
    dist, rule, seeds = directions.DirectionDistribution("coord_uniform", 5), \
        schedules.Constant(0.01), list(range(40))
    nc, x0 = directions.constants(dist), np.ones(5)
    objs = [objectives.make_quadratic(np.logspace(0, 1, 5)) for _ in seeds]
    expected = [_fingerprint(optimizers.smtp_run(o, dist, rule, 0.5, x0, 300, seed=s,
                                                 norm_constants=nc), o)
                for o, s in zip(objs, seeds)]
    objs = [objectives.make_quadratic(np.logspace(0, 1, 5)) for _ in seeds]
    traces = optimizers.run_block(objs, [rule] * 40, 0.5, x0, 300, seeds, None, False,
                                  [dist] * 40, nc)
    assert [_fingerprint(t, o) for t, o in zip(traces, objs)] == expected


# --- configs of a compare share blocks -------------------------------------

BETAS = (0.0, 0.3, 0.5, 0.9)


@st.composite
def compares(draw) -> list[str]:
    """Two to four configs over one noise-free quadratic and epsilon, of the
    shapes the block admits or, for solution_dependent over a coordinate law,
    runs per seed.  Most share the method, beta, rule kind,
    max_iters and track_grad_norm, so their rows share a block across uniform
    and prop_L is.p and laws of one shape; the rest, stp beside smtp among
    them, force separate groups."""
    d = draw(st.integers(2, 8))
    shared = ["objective = quadratic", f"dimension = {d}",
              f"coord_L = logspace:1,{draw(st.sampled_from((10, 100)))}",
              f"x0_scale = {draw(st.sampled_from((0.3, 1.0)))}",
              f"epsilon = {draw(st.sampled_from((0.05, 1e-3)))}"]
    kind, max_iters, track = (draw(st.sampled_from(KINDS)), draw(st.integers(1, 200)),
                              draw(st.booleans()))
    methods = ("stp", "smtp", "smtp_is")
    shared_method, shared_beta = draw(st.sampled_from(methods)), draw(st.sampled_from(BETAS))
    texts = []
    for _ in range(draw(st.integers(2, 4))):
        method = shared_method if draw(st.booleans()) else draw(st.sampled_from(methods))
        rule = kind if draw(st.integers(0, 3)) else draw(st.sampled_from(KINDS))
        if method == "smtp_is" and rule == "solution_dependent":  # no row formula
            rule = "constant"
        lines = [*shared, f"method = {method}",
                 f"max_iters = {max_iters if draw(st.integers(0, 3)) else draw(st.integers(1, 200))}",
                 f"track_grad_norm = {track if draw(st.integers(0, 3)) else not track}",
                 "seeds = " + ",".join(map(str, draw(st.lists(st.integers(0, 50), min_size=2,
                                                              max_size=5, unique=True))))]
        if method != "stp":
            beta = shared_beta if draw(st.integers(0, 3)) else draw(st.sampled_from(BETAS))
            lines.append(f"beta = {beta}")
        if method == "smtp_is":
            lines += [f"is.p = {draw(st.sampled_from(('uniform', 'prop_L')))}",
                      f"is.w = {draw(st.sampled_from(('coord_L', 'ones')))}"]
        else:
            law = draw(st.sampled_from(LAWS))
            lines.append(f"distribution = {law}")
            if law in ("coord_weighted", "orthonormal_weighted"):
                lines.append(f"weights = {_weights(d)}")
            if law == "orthonormal_weighted":
                lines.append(f"basis = random:{draw(st.integers(0, 2))}")
        lines.append(f"schedule.kind = {rule}")
        lines += {
            "constant": [f"schedule.gamma = {draw(st.sampled_from((0.01, 0.05)))}"],
            "fixed_horizon": [f"schedule.gamma0 = {draw(st.sampled_from(('optimal', '0.05')))}"],
            "solution_dependent": [],
        }[rule]
        texts.append("\n".join(lines))
    return texts


def _table_row(cfg, runs) -> dict:
    """A compare row computed from one-seed runs."""
    evals = np.array([t.evals[-1] if t.stop_reason == "epsilon_gap" else np.inf
                      for t, _ in runs])
    return {"label": cfg.label, "n_seeds": len(cfg.seeds),
            "n_reached": int(np.sum(np.isfinite(evals))), "median_evals": float(np.median(evals)),
            "min_evals": float(np.min(evals)), "max_evals": float(np.max(evals))}


@settings(max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(texts=compares())
def test_mixed_compare_equals_configs_alone(texts):
    configs = [parse_config(text, label=f"c{i}") for i, text in enumerate(texts)]
    try:
        alone = [[run_once(cfg, seed) for seed in cfg.seeds] for cfg in configs]
    except Exception:  # noqa: BLE001 - a row that fails alone fails the compare
        with pytest.raises(Exception):
            harness.compare_methods(configs)
        return
    runs = harness._run_seeds([(cfg, seed) for cfg in configs for seed in cfg.seeds])
    assert [_fingerprint(t, o) for t, o, _ in runs] == \
        [_fingerprint(*run) for per_config in alone for run in per_config]
    assert harness.compare_methods(configs) == \
        [_table_row(cfg, per_config) for cfg, per_config in zip(configs, alone)]


def _counting(monkeypatch) -> list:
    """Record ("block", n rows) and ("once", label, seed) as harness runs rows."""
    calls = []
    block, once = harness.run_block, harness.run_once

    def counting_block(cfgs, seeds):
        calls.append(("block", len(seeds)))
        return block(cfgs, seeds)

    def counting_once(cfg, seed):
        calls.append(("once", cfg.label, seed))
        return once(cfg, seed)

    monkeypatch.setattr(harness, "run_block", counting_block)
    monkeypatch.setattr(harness, "run_once", counting_once)
    return calls


IS_PAIR = ("method = smtp_is\nbeta = 0.5\nobjective = quadratic\ndimension = 10\n"
           "coord_L = logspace:1,1000\nx0_scale = 0.1\nis.w = coord_L\nschedule.kind = constant\n"
           "schedule.gamma = 0.01\nepsilon = 0.001\nmax_iters = 80000\n")


def test_compare_runs_a_pair_as_one_block(monkeypatch):
    # prop_L and uniform rows share one block; prop_L's rows leave it first
    calls = _counting(monkeypatch)
    configs = [parse_config(IS_PAIR + f"is.p = {p}\nseeds = 5", label=p)
               for p in ("prop_L", "uniform")]
    rows = harness.compare_methods(configs)
    assert calls == [("block", 10)]
    assert [row["n_reached"] for row in rows] == [5, 5]
    assert rows[0]["median_evals"] < rows[1]["median_evals"]


def test_run_and_compare_never_rerun_a_block_row(monkeypatch, tmp_path):
    # run and compare read a row's final gap from its f_z column: no block
    # trace's final state is run, written traces and summaries included
    calls = _counting(monkeypatch)
    reruns = []
    smtp_run = optimizers.smtp_run

    def counting_smtp_run(*args, **kwargs):
        reruns.append(args)
        return smtp_run(*args, **kwargs)

    monkeypatch.setattr(optimizers, "smtp_run", counting_smtp_run)
    run_experiment(parse_config("objective = quadratic\ndimension = 4\ndistribution = sphere\n"
                                "schedule.kind = solution_dependent\nmax_iters = 200\nseeds = 4"),
                   out_dir=str(tmp_path), write=True)
    harness.compare_methods([parse_config(IS_PAIR + f"is.p = {p}\nseeds = 2", label=p)
                             for p in ("prop_L", "uniform")])
    assert (calls, reruns) == ([("block", 4), ("block", 4)], [])


def test_compare_below_the_crossover_runs_rows_in_config_order(monkeypatch):
    # perfbench's replay pairs run_once's calls with the table rows in this order
    calls = _counting(monkeypatch)
    short = IS_PAIR.replace("max_iters = 80000", "max_iters = 300")
    configs = [parse_config(short + f"is.p = {p}\nseeds = {seeds}", label=p)
               for p, seeds in (("prop_L", "1"), ("uniform", "1"))]  # 1: seed 0 alone
    harness.compare_methods(configs)
    assert calls == [("once", "prop_L", 0), ("once", "uniform", 0)]
    # a group under the crossover runs alone, in row order, beside a block
    calls.clear()
    sphere = short.replace("method = smtp_is", "method = smtp").replace(
        "is.w = coord_L\n", "distribution = sphere\n")
    configs = [parse_config(short + "is.p = prop_L\nseeds = 1,2", label="a"),
               parse_config(sphere + "seeds = 1", label="b"),
               parse_config(short + "is.p = uniform\nseeds = 5,6", label="c")]
    harness.compare_methods(configs)
    assert calls == [("block", 4), ("once", "b", 0)]
    # rules of two kinds run as two groups, however many rows they have together
    calls.clear()
    configs = [parse_config(short.replace("schedule.kind = constant",
                                          "schedule.kind = fixed_horizon")
                            .replace("schedule.gamma = 0.01", "schedule.gamma0 = 0.5")
                            + "is.p = prop_L\nseeds = 4", label="a"),
               parse_config(short + "is.p = prop_L\nseeds = 4", label="b")]
    harness.compare_methods(configs)
    assert calls == [("block", 4), ("block", 4)]


@st.composite
def blocks(draw):
    """Rows of one admitted shape and beta with their own law and rule
    parameters, over coordinate laws or over vector laws."""
    d = draw(st.integers(2, 7))
    n = draw(st.integers(1, 6))
    coord = draw(st.booleans())
    kind = draw(st.sampled_from(FIXED_KINDS if coord else KINDS))
    beta = draw(st.sampled_from(BETAS))
    dists, rules = [], []
    for _ in range(n):
        w = np.array(draw(st.lists(st.floats(0.1, 1.0), min_size=d, max_size=d)))
        w = w / w.sum()
        if coord:
            law = draw(st.sampled_from(("coord_uniform", "coord_weighted")))
        else:
            law = draw(st.sampled_from(VECTOR_LAWS))
        basis = None
        if law == "orthonormal_weighted":  # the identity's exact zeros reach v, signed
            gen = np.random.default_rng(draw(st.integers(0, 9)))
            basis = np.eye(d) if draw(st.booleans()) else np.linalg.qr(
                gen.standard_normal((d, d)))[0]
        dists.append(directions.DirectionDistribution(
            law, d, weights=w if law in ("coord_weighted", "orthonormal_weighted") else None,
            basis=basis))
        gamma = draw(st.sampled_from((0.005, 0.02)))
        rules.append({
            "constant": schedules.Constant(gamma),
            "fixed_horizon": schedules.FixedHorizon(gamma, 50),
            "solution_dependent": schedules.SolutionDependent(1.0, 100.0, 0.5, 0.0, beta),
        }[kind])
    seeds = draw(st.lists(st.integers(0, 10**6), min_size=n, max_size=n))
    stops = (draw(st.integers(0, 150)), draw(st.sampled_from((None, 0.05, 1e-3))))
    record_index = coord and draw(st.booleans())  # a vector law draws no index
    return d, beta, dists, rules, seeds, stops, (draw(st.booleans()), record_index)


def _runs(d, beta, dists, rules, seeds, stops, recording, block, make=None):
    """Each row's (trace, objective), from run_block's rows or smtp_run alone."""
    (max_iters, eps), (track, index) = stops, recording
    coord_L = np.logspace(0, 2, d)
    make = make or (lambda: objectives.make_quadratic(coord_L))
    nc = directions.constants(dists[0])
    x0 = np.ones(d)
    objs = [make() for _ in seeds]
    if block:
        traces = optimizers.run_block(objs, rules, beta, x0, max_iters, seeds, eps, track, dists,
                                      nc, index)
    else:
        traces = [optimizers.smtp_run(o, dist, r, beta, x0, max_iters, seed=s, epsilon_gap=eps,
                                      track_grad_norm=track, norm_constants=nc,
                                      record_index=index)
                  for o, r, s, dist in zip(objs, rules, seeds, dists)]
    return list(zip(traces, objs))


def _block_equals_runs(*case, make=None):
    """run_block's traces, final states and counters equal smtp_run's per
    row; returns the traces."""
    expected = [_fingerprint(*run) for run in _runs(*case, block=False, make=make)]
    runs = _runs(*case, block=True, make=make)
    assert [_fingerprint(*run) for run in runs] == expected
    return [trace for trace, _ in runs]


@settings(max_examples=60, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=blocks())
def test_run_block_equals_run_loop_per_row(case):
    _block_equals_runs(*case)


# --- the coordinate walk: a table of candidates per row, rows on their own --

@settings(max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow, HealthCheck.function_scoped_fixture])
@given(case=blocks())
def test_walks_cross_draw_chunks(case, monkeypatch):
    # blocks() stops by 150 steps and configs() by 300, below a chunk of
    # draws at 1 << 16 floats; at 64 floats a chunk holds at most 32 draws,
    # and walks, of either law, run across refills of their rows' draws
    monkeypatch.setattr(directions, "_DRAW_FLOATS", 64)
    _block_equals_runs(*case)


# --- a block row's final state: smtp_run's over the row, run on first read

def _state_bytes(state) -> tuple:
    """A final state's class, v, last move, x and z, byte for byte; the move
    is read first, as reading x drops it."""
    move = state.move
    if move is not None:
        z, v, gamma, v_new = move
        move = (z.tobytes(), v.tobytes(), float(gamma), v_new.tobytes(), v_new is state.v)
    return type(state), state.v.tobytes(), move, state.x.tobytes(), state.z.tobytes()


def _pickled(trace):
    trace = pickle.loads(pickle.dumps(trace))
    assert type(trace.final_state) is optimizers.OptimizerState  # replayed when pickled
    return trace


def _new_x(trace):
    trace.final_state.x = np.full(trace.final_state.z.size, 0.25)
    return trace


def _new_v(trace):
    trace.final_state.v = np.full(trace.final_state.z.size, -0.5)
    return trace


def _states_equal_per_seed_states(case) -> None:
    """A block row's final state, read, printed, pickled, or given a new x or v
    before any read, equals smtp_run's treated the same way, byte for byte."""
    assert [repr(trace.final_state) for trace, _ in _runs(*case, block=True)] == \
        [repr(trace.final_state) for trace, _ in _runs(*case, block=False)]
    for touch in (lambda trace: trace, _pickled, _new_x, _new_v):
        expected = [_state_bytes(touch(trace).final_state)
                    for trace, _ in _runs(*case, block=False)]
        got = [_state_bytes(touch(trace).final_state) for trace, _ in _runs(*case, block=True)]
        assert got == expected


@settings(max_examples=40, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(case=blocks())
def test_block_states_equal_per_seed_states(case):
    _states_equal_per_seed_states(case)


@pytest.mark.parametrize("max_iters", [0, 40])
@pytest.mark.parametrize("law", ["coord_uniform", "sphere"])
def test_block_state_of_a_row_with_no_moves(law, max_iters):
    # from x0 = 1 every step of 10 stays: v stays 0 and x is x0, with no move
    dist = directions.DirectionDistribution(law, 4)
    case = (4, 0.5, [dist] * 3, [schedules.Constant(10.0)] * 3, [0, 1, 2], (max_iters, None),
            (False, False))
    for trace, _ in _runs(*case, block=True):
        assert list(trace.branch) == [optimizers.STAY] * max_iters
        assert trace.final_state.move is None
    _states_equal_per_seed_states(case)


@pytest.mark.parametrize("law", ["coord_uniform", "sphere"])
def test_a_dropped_block_trace_is_freed_by_refcount(law):
    # a row's rerun data refers to neither its trace nor the other rows, so
    # each trace goes with its last reference, its state run or not, as
    # _seeds_worker lets each trace go once its result is written; with the
    # collector off, a reference cycle would keep it
    dist = directions.DirectionDistribution(law, 4)
    case = (4, 0.5, [dist] * 3, [schedules.Constant(0.05)] * 3, [0, 1, 2], (100, None),
            (False, False))
    gc.disable()
    try:
        runs = _runs(*case, block=True)
        refs = [weakref.ref(trace) for trace, _ in runs] + [weakref.ref(runs[1][0].final_state)]
        assert [trace.rerun is None for trace, _ in runs] == [False, True, False]  # one row run
        del runs
        assert [ref() for ref in refs] == [None] * 4
    finally:
        gc.enable()


def _guarded(bound: float):
    """A d = 4 quadratic that is inf where x_2 > bound."""
    L = np.linspace(1.0, 4.0, 4)

    def fn_batch(X):
        return np.where(X[:, 2] > bound, np.inf, 0.5 * np.vecdot(X * X, L))

    return objectives.Objective(lambda x: float(fn_batch(x[None])[0]), 4, fn_batch=fn_batch)


# coordinate 2 is drawn about once in 1e9 steps
RARE_2 = directions.DirectionDistribution("coord_weighted", 4,
                                          weights=np.array([0.4, 0.3, 1e-9, 0.3 - 1e-9]))
UNIFORM_4 = directions.DirectionDistribution("coord_uniform", 4)


def test_an_undrawn_non_finite_candidate_does_not_raise():
    # from x_2 = 1 every table holds z + h e_2, where f is inf, but no row
    # draws coordinate 2, and the rows run as they do alone
    rules = [schedules.Constant(g) for g in (0.05, 0.02, 0.05)]
    traces = _block_equals_runs(4, 0.5, [RARE_2] * 3, rules, [0, 1, 2], (300, None),
                                (False, True), make=lambda: _guarded(1.0))
    assert all(2 not in trace.index and len(trace.f_z) == 300 for trace in traces)


def test_a_drawn_non_finite_value_raises_the_one_seed_error():
    # seed 13 first draws coordinate 2 at step 12, after moves that each ended
    # a walk; the other rows never draw it
    rule, x0 = schedules.Constant(0.05), np.ones(4)
    nc = directions.constants(UNIFORM_4)
    with pytest.raises(optimizers.NonFiniteObjectiveError) as alone:
        optimizers.smtp_run(_guarded(1.0), UNIFORM_4, rule, 0.5, x0, 300, seed=13,
                            norm_constants=nc)
    assert alone.value.k == 12
    with pytest.raises(optimizers.NonFiniteObjectiveError) as block:
        optimizers.run_block([_guarded(1.0) for _ in range(3)], [rule] * 3, 0.5, x0, 300,
                             [0, 13, 2], None, False, [RARE_2, UNIFORM_4, RARE_2], nc)
    assert (block.value.k, block.value.value) == (alone.value.k, alone.value.value)
    assert str(block.value) == str(alone.value)


@pytest.mark.parametrize("max_iters, eps", [(37, None), (400, 100.0)], ids=["max_iters", "epsilon"])
def test_rows_stop_in_the_middle_of_a_walk(max_iters, eps):
    # from x0 = 1, a step of 10 stays at every draw, and one of 0.3 moves a
    # few times along each coordinate, then stays.  At max_iters a row stops
    # after a stay, within a walk; from an f(x0) within epsilon every row
    # stops after its first step, a move or a stay
    d = 5
    rules = [schedules.Constant(g) for g in (0.3, 10.0, 0.3, 10.0)]
    traces = _block_equals_runs(d, 0.5, [directions.DirectionDistribution("coord_uniform", d)] * 4,
                                rules, [3, 1, 4, 5], (max_iters, eps), (True, False))
    branches = [list(trace.branch) for trace in traces]
    if eps is None:
        assert all(len(b) == max_iters and b[-1] == optimizers.STAY for b in branches)
        assert any(optimizers.STAY != code for code in branches[0])
    else:
        assert {trace.stop_reason for trace in traces} == {"epsilon_gap"}
        assert [b[0] == optimizers.STAY for b in branches] == [False, True, False, True]
        assert all(len(b) == 1 for b in branches)


def test_block_record_index_needs_a_coordinate_law():
    # as in the scalar loop: a vector law draws no index, and the block fails
    # before any f(x0)
    dist, rule = directions.DirectionDistribution("sphere", 3), schedules.Constant(0.1)
    objs = [objectives.make_quadratic(np.ones(3)) for _ in range(3)]
    with pytest.raises(ValueError, match="record_index needs a coordinate law"):
        optimizers.run_block(objs, [rule] * 3, 0.5, np.ones(3), 50, [0, 1, 2], None, False,
                             [dist] * 3, directions.constants(dist), record_index=True)
    assert [o.eval_counter for o in objs] == [0, 0, 0]


def test_block_admission_of_coordinate_rows():
    # coordinate rows need a fixed rule and candidate tables that fit
    # _TABLE_FLOATS together; vector rows need no table, and take
    # solution_dependent with a constant theta_k
    obj, d = objectives.make_quadratic(np.ones(20)), 20
    coord, sphere = (directions.DirectionDistribution(k, d) for k in ("coord_uniform", "sphere"))
    dependent = schedules.SolutionDependent(1.0, 1.0, 0.05, 0.0, 0.5)
    assert not optimizers.block_supports(obj, dependent, coord)
    assert optimizers.block_supports(obj, dependent, sphere)
    moving = schedules.SolutionDependent(1.0, 1.0, 0.05, 0.0, 0.5, theta_k=lambda k: 1.0)
    assert not optimizers.block_supports(obj, moving, sphere)
    rule, most = schedules.Constant(0.1), optimizers._TABLE_FLOATS // (2 * d * d)
    assert optimizers.block_supports(obj, rule, coord, most)
    assert not optimizers.block_supports(obj, rule, coord, most + 1)
    assert optimizers.block_supports(obj, rule, sphere, 10 * most)
