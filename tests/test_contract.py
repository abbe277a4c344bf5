"""The config contract, fuzzed: a config that parses runs its first seed, and
a config that does not is rejected with a ConfigError that cites a line.
(That every key set is read holds by construction: prepare rejects the rest.)

Configs are drawn from a value pool per key, over every ExperimentConfig
field, valid values and invalid ones alike.  objective, method and
schedule.kind are always set: a config that leaves out objective or
schedule.kind (neither has a default), or method and distribution both, is
refused for a key it lacks, and no line holds that key.
"""

from __future__ import annotations

import re
from dataclasses import fields

from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from threepoint import harness, schedules
from threepoint.harness import ConfigError, parse_config, run_once
from threepoint.optimizers import NonFiniteObjectiveError

ALWAYS = ("objective", "method", "schedule.kind")

# each key's (good, bad) values: a good one fits most of the configs drawn, a
# bad one few or none.
# Vectors come in the sizes the pools' dimensions make: 1, 2 and 4 for the
# quadratic and rosenbrock, d_state * d_ctrl = 2, 3, 4 and 6 under lqr
POOLS = {
    "label": (("fuzz",), ()),
    "method": (("stp", "smtp", "smtp_is"), ("sgd",)),
    "beta": (("0", "0.5", "0.9"), ("1",)),
    "seeds": (("1", "2", "3,0"), ("3,3", "0", "-1,0")),
    "max_iters": (("1", "5"), ("0", "-1")),
    "epsilon": (("0.5", "1e-3"), ("0", "-1")),
    "eval_budget": (("4", "40"), ("0", "-1")),
    "track_grad_norm": (("true", "false"), ("maybe",)),
    "retain_internals": (("true", "false"), ()),
    "x0": (("ones", "zeros", "0.5", "1,-2", "0.5,1,1.5,2", "1,2,3,4,5,6"), ("a,b",)),
    "x0_scale": (("1", "0.1", "3"), ()),
    "objective": (("quadratic", "rosenbrock", "lqr"), ("cubic",)),
    "dimension": (("2", "4"), ("1", "0")),
    "coord_L": (("logspace:1,4", "1", "1,2", "1,2,3,4"), ("-1,2", "logspace:0,1", "a,b")),
    "shift": (("zeros", "0.5", "0.5,-0.5", "1,2,3,4"), ()),
    "horizon": (("3",), ("0",)),
    "d_state": (("2", "3"), ()),
    "d_ctrl": (("1", "2"), ("4",)),
    "noise.sigma": (("0", "0.1"), ("-1",)),
    "noise.k": (("1", "3"), ("0",)),
    "distribution": (("sphere", "gaussian", "coord_uniform", "coord_weighted",
                      "orthonormal_weighted"), ("cauchy",)),
    "weights": (("1", "0.5,0.5", "0.25,0.25,0.25,0.25"), ("0.1,0.2,0.3,0.5", "1,0", "x")),
    "basis": (("identity", "random:3"), ("foo",)),
    "is.p": (("uniform", "prop_L", "1", "0.5,0.5", "0.1,0.2,0.3,0.4"), ("0.1,0.2,0.3,0.5",)),
    "is.w": (("coord_L", "ones", "2", "1,2", "1,2,3,4"), ("-1,1",)),
    "schedule.kind": (schedules.SCHEDULE_KINDS, ("warmup",)),
    "schedule.gamma": (("0.01", "1e300"), ("-1",)),
    "schedule.gamma0": (("optimal", "0.05"), ("0", "x")),
    "schedule.alpha": (("auto", "1", "0.5"), ("-1", "0")),
    "schedule.theta": (("auto", "4"), ("0.5",)),
    "schedule.t": (("auto", "1e-3"), ("-1",)),
    "schedule.theta_k": (("0.5", "1"), ("3",)),
    "schedule.horizon": (("5",), ("0",)),
    "r0": (("auto", "1.5"), ("0", "-1", "one")),
    "theorem": (schedules.THEOREM_IDS, ("bogus",)),
    "checkpoints": (("1",), ("1,5", "1,5000")),
    "out": (("elsewhere",), ()),
    "jobs": (("1", "2"), ("0",)),
}

# what a drawn key or value needs (set always) and reads (set often), and the
# COMMON keys any run may read (set often too), so that a good share of the
# configs drawn run.  These tables only weight the draws: the assertions
# below do not read them, so a stale entry cannot hide a failure.
NEEDS = {
    "quadratic": ("dimension",), "rosenbrock": ("dimension",),
    "lqr": ("horizon", "d_state", "d_ctrl"), "stp": ("distribution",), "smtp": ("distribution",),
    "coord_weighted": ("weights",), "orthonormal_weighted": ("weights",),
    "constant": ("schedule.gamma",), "fixed_horizon": ("schedule.gamma0",),
    "decreasing": ("schedule.alpha",), "solution_free": ("schedule.t",),
    **dict.fromkeys(("CVX-CONST", "CVX-DEC", "IS-CVX-CONST", "IS-CVX-DEC"), ("r0",)),
}
READS = {
    "quadratic": ("coord_L", "shift"), "smtp_is": ("is.p", "is.w"), "noise.sigma": ("noise.k",),
    "orthonormal_weighted": ("basis",), "fixed_horizon": ("schedule.horizon",),
    "decreasing": ("schedule.theta", "r0"), "solution_dependent": ("schedule.theta_k",),
    "solution_free": ("epsilon",), "SC-DEP": ("schedule.theta_k",),
    "IS-SC-DEP": ("schedule.theta_k",), "theorem": ("checkpoints",),
}
COMMON = ("label", "beta", "seeds", "epsilon", "eval_budget", "track_grad_norm",
          "retain_internals", "x0", "x0_scale", "noise.sigma", "theorem", "out", "jobs")
# the order keys are drawn in, so that a key's needs and reads come after it
ORDER = (*ALWAYS, "max_iters", "theorem", "noise.sigma", *POOLS)


def test_pools_cover_every_field():
    assert set(POOLS) == {harness._key(f.name) for f in fields(harness.ExperimentConfig)}
    assert all(int(v) <= 5 for v in sum(POOLS["max_iters"], ()))  # the runs below stay short


@st.composite
def configs(draw) -> str:
    """A config, in POOLS order, of the keys in ALWAYS, max_iters and the keys
    the values drawn need, about a third of the keys they read and of COMMON,
    and one in 64 of the rest; a bad value spoils a quarter of the configs."""
    chosen, needed, likely = {}, {*ALWAYS, "max_iters"}, set(COMMON)
    for key in dict.fromkeys(ORDER):
        if key in needed or key in likely and draw(st.integers(0, 2)) == 0 or draw(
                st.integers(0, 63)) == 0:
            chosen[key] = value = draw(st.sampled_from(POOLS[key][0]))
            needed.update(NEEDS.get(value, ()))
            likely.update(READS.get(key, ()), READS.get(value, ()))
    if draw(st.integers(0, 3)) == 0:
        spoilt = draw(st.sampled_from([key for key in chosen if POOLS[key][1]]))
        chosen[spoilt] = draw(st.sampled_from(POOLS[spoilt][1]))
    return "\n".join(f"{key} = {chosen[key]}" for key in POOLS if key in chosen)


@settings(max_examples=1000, deadline=None, database=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(text=configs())
# theta = auto is 2 / alpha, so alpha = 0 once failed with a bare ZeroDivisionError
@example(text="method = smtp\nobjective = quadratic\ndimension = 2\ndistribution = sphere\n"
              "schedule.kind = decreasing\nschedule.alpha = 0\nmax_iters = 5")
# a budget that buys no step and a target no gap reaches once ran as if meant
@example(text="method = smtp\nmax_iters = 5\neval_budget = -1\nobjective = quadratic\n"
              "dimension = 2\ndistribution = sphere\nschedule.kind = constant\nschedule.gamma = 0.01")
@example(text="method = smtp\nmax_iters = 5\nepsilon = 0\nobjective = quadratic\n"
              "dimension = 2\ndistribution = sphere\nschedule.kind = constant\nschedule.gamma = 0.01")
def test_a_config_that_parses_runs_and_one_that_does_not_cites_a_line(text):
    try:
        cfg = parse_config(text)
    except ConfigError as exc:
        assert re.match(r"line \d+: ", str(exc)), f"{exc}\n---\n{text}"
        return
    try:
        run_once(cfg, cfg.seeds[0])
    except NonFiniteObjectiveError:
        pass  # a step of 1e300 overflows f: the one fault a run may still meet
