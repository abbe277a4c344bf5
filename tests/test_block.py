"""Lockstep seeds: a block run must equal one-seed runs byte for byte.

harness.run_block advances the seeds of a config together as the rows of
(S, d) arrays; harness.run_once runs one seed through the scalar loop, which
is the reference.  The properties draw random laws, rules, beta, stops,
noise and seed lists.
"""

from __future__ import annotations

import os
import tempfile

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from threepoint import harness, optimizers
from threepoint.harness import parse_config, run_experiment, run_once

LAWS = ("sphere", "gaussian", "coord_uniform", "coord_weighted", "orthonormal_weighted")


def _weights(d: int) -> str:
    w = np.arange(1.0, d + 1.0)
    return ",".join(repr(v) for v in (w / w.sum()).tolist())


@st.composite
def configs(draw) -> str:
    """A small config over any method, law, rule and stop that parses."""
    method = draw(st.sampled_from(("smtp", "stp", "smtp_is")))
    objective = draw(st.sampled_from(("quadratic", "shifted", "rosenbrock", "lqr")))
    if method == "smtp_is":
        objective = draw(st.sampled_from(("quadratic", "shifted")))  # IS rules read coord_L
    lines = [f"method = {method}", f"beta = {draw(st.sampled_from((0.0, 0.3, 0.5, 0.9)))}",
             f"max_iters = {draw(st.integers(0, 300))}"]
    if objective == "lqr":
        d_state, d_ctrl = draw(st.sampled_from(((2, 1), (3, 1), (3, 2))))
        d = d_state * d_ctrl
        lines += ["objective = lqr", f"horizon = {draw(st.integers(1, 3))}",
                  f"d_state = {d_state}", f"d_ctrl = {d_ctrl}", "x0 = zeros"]
        rules = ("constant", "fixed_horizon", "decreasing")
    else:
        d = draw(st.integers(2, 12))
        lines += [f"objective = {'quadratic' if objective == 'shifted' else objective}",
                  f"dimension = {d}"]
        if objective == "rosenbrock":
            lines.append(f"x0_scale = {draw(st.sampled_from((-1.0, 0.5, 1.5)))}")
            rules = ("constant", "fixed_horizon", "decreasing", "solution_free")
        else:
            lines += [f"coord_L = logspace:1,{draw(st.sampled_from((1, 10, 100)))}",
                      f"x0_scale = {draw(st.sampled_from((0.1, 1.0, 3.0)))}"]
            if objective == "shifted":
                lines.append("shift = " + ",".join(repr(0.25 * (-1) ** i) for i in range(d)))
            rules = ("constant", "fixed_horizon", "decreasing", "solution_dependent",
                     "solution_free")
        lines.append(f"track_grad_norm = {draw(st.booleans())}")
    rule = draw(st.sampled_from(rules))
    if method != "smtp_is":
        law = draw(st.sampled_from(LAWS))
        if rule == "solution_free" and law == "gaussian":
            law = "sphere"
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
        "fixed_horizon": [f"schedule.gamma0 = "
                          f"{'optimal' if objective != 'lqr' and draw(st.booleans()) else 0.05}"],
        "decreasing": ["schedule.alpha = 1", "schedule.theta = 4"],
        "solution_dependent": [],
        "solution_free": [f"schedule.t = {draw(st.sampled_from((1e-4, 1e-3)))}"],
    }[rule]
    if draw(st.booleans()):
        lines.append(f"epsilon = {draw(st.sampled_from((0.5, 0.05, 1e-3)))}")
    if draw(st.booleans()):
        lines.append(f"eval_budget = {draw(st.integers(1, 700))}")
    if draw(st.booleans()):
        lines += [f"noise.sigma = {draw(st.sampled_from((0.0, 1e-4, 1e-2)))}",
                  f"noise.k = {draw(st.integers(1, 3))}"]
    lines.append(f"retain_internals = {draw(st.booleans())}")
    return "\n".join(lines)


def _csv(trace) -> bytes:
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "trace.csv")
        harness._write_trace(trace, path)
        with open(path, "rb") as fh:
            return fh.read()


def _fingerprint(trace, obj) -> tuple:
    """Everything a run leaves: the trace CSV, its columns and stop, the
    final state and the objective's counter."""
    state = trace.final_state
    retained = None
    if trace.z_before is not None:
        retained = (b"".join(z.tobytes() for z in trace.z_before),
                    b"".join(np.asarray(s).tobytes() for s in trace.s))
    return (_csv(trace), trace.stop_reason, trace.seed, trace.f0, list(trace.evals),
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
            harness.run_block(cfg, seeds)
        return
    traces, objs = harness.run_block(cfg, seeds)
    assert [_fingerprint(t, o) for t, o in zip(traces, objs)] == expected
    # adding a seed leaves the existing seeds' bytes unchanged
    if extra not in seeds:
        more, more_objs = harness.run_block(cfg, [*seeds, extra])
        assert [_fingerprint(t, o) for t, o in zip(more[:-1], more_objs)] == expected


@pytest.mark.parametrize("text", [
    "method = smtp_is\nis.p = prop_L\nschedule.kind = constant\nschedule.gamma = 0.02",
    "method = smtp_is\nis.w = ones\nschedule.kind = decreasing\nschedule.alpha = 1\n"
    "schedule.theta = 4",
    "method = smtp\ndistribution = coord_uniform\nschedule.kind = fixed_horizon\n"
    "schedule.gamma0 = optimal\nnoise.sigma = 1e-4\nnoise.k = 2",
    "method = stp\ndistribution = sphere\nschedule.kind = solution_free\nschedule.t = 1e-3",
], ids=["is_table", "is_decreasing", "coord_fixed_noisy", "sphere_probe"])
def test_block_with_staggered_stops(text):
    # a dozen seeds that reach epsilon at scattered steps: rows leave one or
    # several at a time, often within one draw chunk, down to the last row
    cfg = parse_config(text + "\nbeta = 0.5\nobjective = quadratic\ndimension = 6\n"
                       "coord_L = logspace:1,30\nepsilon = 1e-3\nmax_iters = 3000\nseeds = 12")
    runs = [run_once(cfg, seed) for seed in cfg.seeds]
    assert len({len(trace.f_z) for trace, _ in runs}) > 6  # the stops are scattered
    expected = [_fingerprint(*run) for run in runs]
    traces, objs = harness.run_block(cfg, cfg.seeds)
    assert [_fingerprint(t, o) for t, o in zip(traces, objs)] == expected


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
    # serial runs one block; two jobs run two groups, each a block from 4 seeds on
    cfg = parse_config(text + f"\nseeds = {','.join(map(str, seeds))}", label="p")
    try:
        harness.prepare(cfg)
        run_once(cfg, seeds[0])
    except Exception:  # noqa: BLE001 - a config no run accepts has nothing to compare
        return
    with tempfile.TemporaryDirectory() as tmp:
        run_experiment(cfg, out_dir=os.path.join(tmp, "serial"), jobs=1)
        run_experiment(cfg, out_dir=os.path.join(tmp, "jobs2"), jobs=2)
        assert _artifacts(os.path.join(tmp, "serial", "p")) == \
            _artifacts(os.path.join(tmp, "jobs2", "p"))


def test_run_experiment_runs_blocks_from_the_crossover(monkeypatch):
    # below BLOCK_MIN_ROWS seeds go one by one through run_once, from it on as one block
    calls = {"block": 0, "once": 0}
    block, once = harness.run_block, harness.run_once

    def counting_block(cfg, seeds):
        calls["block"] += 1
        return block(cfg, seeds)

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


def test_failing_block_reports_the_one_seed_error():
    # noise drives f below f_star = 0: seed 1 fails first in the block, but a run
    # reports seed 0's error, the one its one-seed run raises
    text = ("objective = quadratic\ndimension = 3\ndistribution = sphere\n"
            "schedule.kind = solution_dependent\nmax_iters = 200\nseeds = 4\n"
            "noise.sigma = 0.3\n")
    cfg = parse_config(text)
    with pytest.raises(ValueError, match="below the declared f_star") as alone:
        run_once(cfg, 0)
    with pytest.raises(ValueError, match="below the declared f_star") as block:
        harness.run_block(cfg, cfg.seeds)
    assert str(block.value) != str(alone.value)
    with pytest.raises(ValueError) as run:
        run_experiment(cfg, write=False)
    assert str(run.value) == str(alone.value)
