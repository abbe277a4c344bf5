"""Momentum three-point descent (smtp), its importance-sampling variant
(smtp_is), and the momentum-free baseline (stp).

One step, smtp_step, serves all three: stp is smtp at beta = 0, and smtp_is
is smtp over coord_weighted(p).  It evaluates the two candidates
z -/+ (gamma/(1-beta)) s and keeps the best of {current, plus, minus}, with
ties resolved stay > plus > minus.  A "stay" freezes the point, the momentum
buffer, and the cached objective value.  Every iteration costs exactly two
evaluations plus one probe when the stepsize rule requires it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from itertools import repeat
from typing import NamedTuple

import numpy as np

from .directions import (
    DirectionDistribution,
    categorical_index,  # noqa: F401 - perfbench's traced runs wrap this name here
    constants,
    d_norm,
    draws,
    sample,
)
from .schedules import StepContext, stepsize

BRANCHES = ("plus", "minus", "stay")
PLUS, MINUS, STAY = range(3)  # branch codes: indices into BRANCHES


class NonFiniteObjectiveError(RuntimeError):
    """The objective returned NaN or inf; the run cannot continue."""

    def __init__(self, k: int, value: float):
        super().__init__(f"non-finite objective value {value!r} at iteration {k}")
        self.k = k
        self.value = value


@dataclass
class OptimizerState:
    """x: anchor iterate, v: momentum buffer, z: evaluated iterate.

    smtp_step stores its move as move = (z, v, gamma, v_new), the iterate and
    buffer it moved from, and x is derived from it when read: nothing reads
    the anchor while a run goes on.
    """

    x: np.ndarray
    v: np.ndarray
    z: np.ndarray
    f_z: float
    k: int
    beta: float
    move: tuple | None = field(default=None, repr=False, compare=False)


def _anchor(state: OptimizerState) -> np.ndarray:
    if state.move is not None:
        z, v, gamma, v_new = state.move
        c = gamma * state.beta / (1.0 - state.beta)
        state.x = (z + c * v) - gamma * v_new
    return state._x


def _set_anchor(state: OptimizerState, x: np.ndarray) -> None:
    state._x = x
    state.move = None


# a property after the class body, so the dataclass keeps x as a field
OptimizerState.x = property(_anchor, _set_anchor)


class IterationRecord(NamedTuple):
    """One row of a trace, as RunTrace.records builds it from the columns."""

    k: int
    f_z_after: float
    gamma: float
    branch: str
    evals_cumulative: int
    grad_norm_D: float | None = None
    direction_index: int | None = None


@dataclass
class RunTrace:
    """A run's outcomes, one typed column per quantity; row k is iteration k.

    f_z holds f(z^{k+1}), branch a code into BRANCHES, and evals the
    objective's counter after the step; grad_norm (||grad f(z^k)||_D) and
    index (the drawn coordinate) are None unless recorded.  With
    retain_internals, z_before keeps each z^k and drawn each direction, as
    the index alone for a coordinate law: s builds the e_i on read.
    """

    f_z: array
    gamma: array
    branch: array
    evals: array
    final_state: OptimizerState
    seed: int | None
    f0: float
    stop_reason: str
    grad_norm: array | None = None
    index: array | None = None
    z_before: list[np.ndarray] | None = None
    drawn: list[np.ndarray] | array | None = None

    @property
    def beta(self) -> float:
        return self.final_state.beta

    @property
    def records(self) -> list[IterationRecord]:
        """The rows as IterationRecords, built from the columns on each read."""
        none = repeat(None)
        return [IterationRecord(k, *row) for k, row in enumerate(zip(
            self.f_z, self.gamma, map(BRANCHES.__getitem__, self.branch), self.evals,
            none if self.grad_norm is None else self.grad_norm,
            none if self.index is None else self.index))]

    @property
    def s(self) -> list[np.ndarray] | None:
        if not isinstance(self.drawn, array):
            return self.drawn
        return list(np.eye(self.final_state.z.size)[np.asarray(self.drawn)])


def _check_beta(beta: float) -> None:
    if not (0.0 <= beta < 1.0):
        raise ValueError("beta must lie in [0,1)")


def init_state(objective, x0, beta: float) -> OptimizerState:
    _check_beta(beta)
    x0 = np.array(x0, dtype=float)
    if x0.shape != (objective.dimension,):
        raise ValueError(f"x0 must have shape ({objective.dimension},), got {x0.shape}")
    f0 = objective.value(x0)
    if not math.isfinite(f0):
        raise NonFiniteObjectiveError(0, f0)
    return OptimizerState(x=x0, v=np.zeros_like(x0), z=x0, f_z=f0, k=0, beta=beta)


def candidate_points(z, v, s, gamma: float, beta: float):
    """Full candidate construction: momentum buffers, anchored x, and z.

    Builds v_pm = beta v +/- s, x_pm = x_k - gamma v_pm from the anchor
    x_k = z + (gamma beta / (1-beta)) v, and z_pm = x_pm - (gamma beta /
    (1-beta)) v_pm.  Algebraically z_pm = z -/+ (gamma/(1-beta)) s, which is
    the cheap form smtp_step uses; tests pin both forms together.
    """
    c = gamma * beta / (1.0 - beta)
    x_anchor = z + c * v
    v_p = beta * v + s
    v_m = beta * v - s
    x_p = x_anchor - gamma * v_p
    x_m = x_anchor - gamma * v_m
    z_p = x_p - c * v_p
    z_m = x_m - c * v_m
    return v_p, v_m, x_p, x_m, z_p, z_m


def _rule_stepsize(objective, schedule, k: int, z, f_z: float, s, index: int | None) -> float:
    """Stepsize for iteration k, probing f(z + t s) first if the rule needs it.

    index = i says s = e_i, and s is then None: the probe point changes
    coordinate i alone, and the rule sees i (the importance-sampling rules
    scale by it).
    """
    probe = None
    if schedule.needs_probe:
        if index is None:
            zt = z + schedule.t * s
        else:
            zt = z.copy()
            zt[index] += schedule.t
        probe = objective.value(zt)
        if not math.isfinite(probe):
            raise NonFiniteObjectiveError(k, probe)
    return stepsize(schedule, StepContext(k, f_z, probe, index, s))


def smtp_step(
    state: OptimizerState,
    objective,
    dist: DirectionDistribution,
    schedule,
    rng: np.random.Generator,
    s: np.ndarray | None = None,
    index: int | None = None,
    gamma: float | None = None,
) -> tuple[int, float]:
    """One momentum three-point iteration; mutates state and returns the
    branch code and the stepsize.  At beta = 0 it is the momentum-free stp
    step over z -/+ gamma s.

    Pass a pre-sampled s to control the direction (the run loop does this);
    otherwise one direction is drawn from rng.  index = i says the direction
    is the coordinate vector e_i: s is then left out, and the candidates and
    the momentum update change coordinate i alone.  A given gamma replaces
    the schedule's stepsize; the run loop passes the value of a context-free
    rule.
    """
    if s is None and index is None:
        s = sample(dist, rng)
    z = state.z
    f_z = state.f_z
    k = state.k
    beta = state.beta

    if gamma is None:
        gamma = _rule_stepsize(objective, schedule, k, z, f_z, s, index)

    h = gamma / (1.0 - beta)
    if index is None:
        hs = h * s
        z_p = z - hs
        z_m = z + hs
    else:
        zi = z.item(index)
        z_p = z.copy()
        z_p[index] = zi - h
        z_m = z.copy()
        z_m[index] = zi + h
    f_p = objective.value(z_p)
    f_m = objective.value(z_m)
    if not (math.isfinite(f_p) and math.isfinite(f_m)):
        raise NonFiniteObjectiveError(k, f_p if not math.isfinite(f_p) else f_m)

    if f_p < f_z or f_m < f_z:
        if f_p <= f_m:
            branch, z_new, f_new, sign = PLUS, z_p, f_p, 1.0
        else:
            branch, z_new, f_new, sign = MINUS, z_m, f_m, -1.0
        v = state.v
        if index is None:  # a + (-b) == a - b exactly, signed zeros too
            v_new = beta * v + s if sign > 0.0 else beta * v - s
        else:
            v_new = beta * v
            v_new[index] += sign
        state.move = (z, v, gamma, v_new)
        state.v = v_new
        state.z = z_new
        state.f_z = f_new
    else:
        branch = STAY
    state.k = k + 1
    return branch, gamma


def _run_loop(objective, dist, schedule, beta, x0, max_iters, seed, epsilon_gap, eval_budget,
              retain_internals, track_grad_norm, norm_constants, record_index=False):
    """Drive smtp_step over max_iters directions of dist.

    Directions come from draws(), a bounded chunk at a time.  A context-free
    rule is evaluated once, still through stepsize() so its validity check
    holds, and its value is handed to every step.  Over coordinate
    directions an index-only rule is evaluated so once per coordinate, and
    each step gets the drawn coordinate's entry.  smtp_step moves; the loop
    appends each outcome to the trace's columns, with track_grad_norm the
    gradient norm at z before the step, measured by norm_constants, and with
    record_index the drawn coordinate.
    """
    if max_iters < 0:
        raise ValueError("max_iters must be >= 0")
    f_star = objective.smoothness.f_star
    if epsilon_gap is not None and f_star is None:
        raise ValueError("epsilon_gap stopping needs a known f_star")
    start_evals = objective.eval_counter
    state = init_state(objective, x0, beta)
    coord = dist.kind in ("coord_uniform", "coord_weighted")
    f_z, gammas, branches, evals = array("d"), array("d"), array("b"), array("q")
    grad_norm = array("d") if track_grad_norm else None
    index = array("q") if record_index else None
    z_before = [] if retain_internals else None
    drawn = (array("q") if coord else []) if retain_internals else None
    f0 = state.f_z
    gamma = table = None
    if max_iters > 0 and getattr(schedule, "context_free", False):
        gamma = stepsize(schedule, StepContext(0, f0))
    elif max_iters > 0 and getattr(schedule, "index_only", False) and coord:
        table = [float(stepsize(schedule, StepContext(0, f0, None, i))) for i in range(dist.dim)]
    rng = np.random.default_rng(seed)
    stop_reason = "max_iters"
    for s, i in draws(dist, rng, max_iters):
        if retain_internals:
            z_before.append(state.z)
            drawn.append(i if s is None else s)
        if track_grad_norm:
            grad_norm.append(d_norm(norm_constants, objective.gradient(state.z)))
        if table is not None:
            gamma = table[i]
        branch, step_gamma = smtp_step(state, objective, dist, schedule, rng, s, i, gamma)
        f_z.append(state.f_z)
        gammas.append(step_gamma)
        branches.append(branch)
        evals.append(objective.eval_counter)
        if record_index:
            index.append(i)
        if epsilon_gap is not None and state.f_z - f_star <= epsilon_gap:
            stop_reason = "epsilon_gap"
            break
        if eval_budget is not None and objective.eval_counter - start_evals >= eval_budget:
            stop_reason = "eval_budget"
            break
    return RunTrace(f_z, gammas, branches, evals, state, seed, f0, stop_reason,
                    grad_norm, index, z_before, drawn)


def smtp_run(
    objective,
    dist: DirectionDistribution,
    schedule,
    beta: float,
    x0,
    max_iters: int,
    seed: int | None = None,
    epsilon_gap: float | None = None,
    eval_budget: int | None = None,
    retain_internals: bool = False,
    track_grad_norm: bool = False,
) -> RunTrace:
    """Run smtp from x0 for up to max_iters iterations.

    Deterministic given seed.  Stops early when the optimality gap reaches
    epsilon_gap (requires known f_star) or when the evaluations consumed by
    this run reach eval_budget.
    """
    return _run_loop(objective, dist, schedule, beta, x0, max_iters, seed, epsilon_gap,
                     eval_budget, retain_internals, track_grad_norm, constants(dist))


def stp_run(
    objective,
    dist: DirectionDistribution,
    schedule,
    x0,
    max_iters: int,
    seed: int | None = None,
    epsilon_gap: float | None = None,
    eval_budget: int | None = None,
    retain_internals: bool = False,
    track_grad_norm: bool = False,
) -> RunTrace:
    """Run the momentum-free baseline, which is smtp at beta = 0."""
    return _run_loop(objective, dist, schedule, 0.0, x0, max_iters, seed, epsilon_gap,
                     eval_budget, retain_internals, track_grad_norm, constants(dist))


def smtp_is_run(
    objective,
    p,
    schedule,
    beta: float,
    x0,
    max_iters: int,
    seed: int | None = None,
    epsilon_gap: float | None = None,
    eval_budget: int | None = None,
    retain_internals: bool = False,
    track_grad_norm: bool = False,
) -> RunTrace:
    """Run smtp_is with coordinate probabilities p (importance sampling).

    This is smtp over coord_weighted(p): the direction is e_i with i ~ p, and
    an importance-sampling rule scales the step by coordinate i.  The trace
    records the drawn index, and the tracked gradient norm is the plain L1 norm.
    """
    dist = DirectionDistribution("coord_weighted", objective.dimension, weights=p)
    l1 = constants(DirectionDistribution("coord_uniform", objective.dimension))
    return _run_loop(objective, dist, schedule, beta, x0, max_iters, seed, epsilon_gap,
                     eval_budget, retain_internals, track_grad_norm, l1,
                     record_index=True)


def select_uniform_random_iterate(trace: RunTrace, rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """Uniform draw over the visited iterates z^0 .. z^{K-1}.

    Needs a trace recorded with retain_internals=True.
    """
    if trace.z_before is None or len(trace.f_z) == 0:
        raise ValueError("trace has no retained iterates; rerun with retain_internals=True")
    idx = int(rng.integers(len(trace.f_z)))
    return idx, trace.z_before[idx].copy()
