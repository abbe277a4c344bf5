"""Momentum three-point descent (smtp), its importance-sampling variant
(smtp_is), and the momentum-free baseline (stp).

One step, smtp_step, and one loop, smtp_run, serve all three: stp is smtp
at beta = 0, and smtp_is is smtp over coord_weighted(p).  The step evaluates
the two candidates z -/+ (gamma/(1-beta)) s and keeps the best of {current,
plus, minus}, with ties resolved stay > plus > minus.  A "stay" freezes the
point, the momentum buffer, and the cached objective value.  Every iteration
costs exactly two evaluations plus one probe when the stepsize rule requires
it.
"""

from __future__ import annotations

import math
from array import array
from dataclasses import dataclass, field
from itertools import chain, repeat
from typing import Iterator, NamedTuple

import numpy as np

from .directions import (
    COORD_KINDS,
    DirectionDistribution,
    DistributionConstants,
    chunk_rows,
    chunks,
    constants,
    d_norm,
    d_norm_rows,
    draws,
    sample,
)
from .schedules import (SolutionDependent, StepContext, _check_beta, require_unit_law,
                        row_stepsizes, stepsize)

BRANCHES = ("plus", "minus", "stay")
PLUS, MINUS, STAY = range(3)  # branch codes: indices into BRANCHES


class NonFiniteObjectiveError(RuntimeError):
    """The objective returned NaN or inf; the run cannot continue.  z_norm is
    ||z||_2 of the point the failing step started from (x0 at setup)."""

    def __init__(self, k: int, value: float, z_norm: float, message: str | None = None):
        super().__init__(message or f"non-finite objective value {value!r} at iteration {k}, "
                                    f"from z with ||z||_2 = {z_norm!r}")
        self.k, self.value, self.z_norm = k, value, z_norm

    def __reduce__(self):  # through a process pool with its message, prefixed or not
        return type(self), (self.k, self.value, self.z_norm, str(self))


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
    objective's counter after the step: a range, as every step costs the
    same oracle calls.  grad_norm (||grad f(z^k)||_D) and index (the drawn
    coordinate, in the smallest typecode that holds it) are None unless
    recorded.  With
    retain_internals, z_before keeps each z^k and drawn each direction, as
    the index alone for a coordinate law: s builds the e_i on read.

    Under a fixed rule every step's gamma is known up front: a run of a
    context-free rule keeps its one stepsize, and of an index-only rule over
    a recorded index its per-coordinate table, in steps (gamma then None);
    the gamma column is built from them when first read.

    A block row's trace (run_block) holds no final_state but the
    (objective, dist, rule, beta, x0) of its row in rerun: its final state
    is smtp_run's over the row's steps with its seed, run when final_state
    is first read or the trace is pickled, with the objective's
    eval_counter left as the block set it.  f_last is f(z) at the end, or
    f0 at k = 0.  A block run without columns keeps no per-step record:
    f_z, gamma and branch are None, and evals, the stop and f_last tell
    the run.
    """

    f_z: array
    gamma: array | None
    branch: array
    evals: range
    final_state: OptimizerState
    seed: int | None
    f0: float
    stop_reason: str
    grad_norm: array | None = None
    index: array | None = None
    z_before: list[np.ndarray] | None = None
    drawn: list[np.ndarray] | array | None = None
    steps: float | list[float] | np.ndarray | None = field(default=None, repr=False)
    rerun: tuple | None = field(default=None, repr=False, compare=False)
    f_last: float | None = None

    def __getstate__(self) -> dict:
        self.final_state  # a block row's, run before it is pickled
        return self.__dict__

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


def _gamma_column(trace: RunTrace) -> array:
    if trace._gamma is None and trace.f_z is not None:
        if np.ndim(trace.steps) == 0:  # a context-free rule's one stepsize
            trace._gamma = array("d", [trace.steps]) * len(trace.f_z)
        else:  # an index-only rule's table at each drawn coordinate
            steps = np.asarray(trace.steps, dtype=float)
            trace._gamma = array("d", steps.take(np.asarray(trace.index)).tobytes())
    return trace._gamma


def _set_gamma_column(trace: RunTrace, column: array | None) -> None:
    trace._gamma = column


def _final_state(trace: RunTrace) -> OptimizerState:
    if trace.rerun is not None:
        objective, dist, rule, beta, x0 = trace.rerun
        counter = objective.eval_counter
        trace._final_state = smtp_run(objective, dist, rule, beta, x0, len(trace.evals),
                                      trace.seed).final_state
        objective.eval_counter = counter
        trace.rerun = None
    return trace._final_state


def _set_final_state(trace: RunTrace, state: OptimizerState | None) -> None:
    trace._final_state = state


# properties after the class body, so the dataclass keeps gamma and final_state as fields
RunTrace.gamma = property(_gamma_column, _set_gamma_column)
RunTrace.final_state = property(_final_state, _set_final_state)


def init_state(objective, x0, beta: float) -> OptimizerState:
    _check_beta(beta)
    x0 = np.array(x0, dtype=float)
    if x0.shape != (objective.dimension,):
        raise ValueError(f"x0 must have shape ({objective.dimension},), got {x0.shape}")
    f0 = objective.value(x0)
    if not math.isfinite(f0):
        raise NonFiniteObjectiveError(0, f0, float(np.linalg.norm(x0)))
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


def _rule_stepsize(objective, schedule, k: int, z, f_z: float, s, index: int | None,
                   unit_checked: bool = False) -> float:
    """Stepsize for iteration k, probing f(z + t s) first if the rule needs it.

    index = i says s = e_i, and s is then None: the probe point changes
    coordinate i alone, and the rule sees i (the importance-sampling rules
    scale by it).  unit_checked says the law was checked once per run
    (require_unit_law), so the rule does not check s again.
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
            raise NonFiniteObjectiveError(k, probe, float(np.linalg.norm(z)))
    return stepsize(schedule, StepContext(k, f_z, probe, index, s, unit_checked))


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
        raise NonFiniteObjectiveError(k, f_p if not math.isfinite(f_p) else f_m,
                                      float(np.linalg.norm(z)))

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


def _index_code(dim: int) -> str:
    """The smallest array typecode that holds every coordinate index of R^dim."""
    return next(code for code in "bhiq" if dim - 1 < 1 << (8 * array(code).itemsize - 1))


def _fixed_steps(schedule, coord: bool, f0: float, dim: int):
    """A context-free rule's stepsize, or an index-only rule's per-coordinate
    table over coordinate directions; (None, None) for rules the loop
    evaluates at every step.  Both go through stepsize(), so its validity
    check holds."""
    if getattr(schedule, "context_free", False):
        return stepsize(schedule, StepContext(0, f0)), None
    if getattr(schedule, "index_only", False) and coord:
        return None, [float(stepsize(schedule, StepContext(0, f0, None, i))) for i in range(dim)]
    return None, None


def _kept_steps(gamma, table, indexed: bool):
    """What a trace keeps in place of a gamma column: a context-free rule's
    stepsize, or an index-only rule's table when the index is recorded."""
    return gamma if gamma is not None else table if indexed else None


def _evals(after_init: int, per_step: int, n: int) -> range:
    """The evals column: the objective's counter after each of n steps."""
    return range(after_init + per_step, after_init + per_step * (n + 1), per_step)


@np.errstate(over="ignore", invalid="ignore")  # the checks raise on a non-finite value
def smtp_run(objective, dist: DirectionDistribution, schedule, beta: float, x0, max_iters: int,
             seed: int | None = None, epsilon_gap: float | None = None,
             eval_budget: int | None = None, retain_internals: bool = False,
             track_grad_norm: bool = False, norm_constants: DistributionConstants | None = None,
             record_index: bool = False) -> RunTrace:
    """Run smtp from x0 for up to max_iters iterations: the scalar loop over
    directions of dist, and the reference for every trace.

    Deterministic given seed.  Stops early when the optimality gap reaches
    epsilon_gap (requires known f_star) or when the evaluations consumed by
    this run reach eval_budget.  A context-free rule is evaluated once, and
    over coordinate directions an index-only rule once per coordinate
    (_fixed_steps).  With track_grad_norm the trace records the gradient
    norm at z before each step, measured by norm_constants (dist's own by
    default), and with record_index the drawn coordinate, which only a
    coordinate law draws (ValueError otherwise).
    """
    if max_iters < 0:
        raise ValueError("max_iters must be >= 0")
    f_star = objective.smoothness.f_star
    if epsilon_gap is not None and f_star is None:
        raise ValueError("epsilon_gap stopping needs a known f_star")
    coord = dist.kind in COORD_KINDS
    if record_index and not coord:
        raise ValueError("record_index needs a coordinate law")
    require_unit_law(schedule, dist.kind)
    if norm_constants is None:
        norm_constants = constants(dist)
    start_evals = objective.eval_counter
    state = init_state(objective, x0, beta)
    after_init = objective.eval_counter
    gamma = table = None
    if max_iters > 0:
        gamma, table = _fixed_steps(schedule, coord, state.f_z, dist.dim)
    steps = _kept_steps(gamma, table, record_index)
    code = _index_code(dist.dim)
    f_z, gammas, branches = array("d"), None if steps is not None else array("d"), array("b")
    grad_norm = array("d") if track_grad_norm else None
    index = array(code) if record_index else None
    z_before = [] if retain_internals else None
    drawn = (array(code) if coord else []) if retain_internals else None
    f0 = state.f_z
    fixed = gamma is not None or table is not None
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
        elif not fixed:
            gamma = _rule_stepsize(objective, schedule, state.k, state.z, state.f_z, s, i,
                                   unit_checked=True)
        branch, step_gamma = smtp_step(state, objective, None, schedule, None, s, i, gamma)
        f_z.append(state.f_z)
        if gammas is not None:
            gammas.append(step_gamma)
        branches.append(branch)
        if record_index:
            index.append(i)
        if epsilon_gap is not None and state.f_z - f_star <= epsilon_gap:
            stop_reason = "epsilon_gap"
            break
        if eval_budget is not None and objective.eval_counter - start_evals >= eval_budget:
            stop_reason = "eval_budget"
            break
    per_step = (2 + (schedule.needs_probe and not fixed)) * objective.calls_per_value
    return RunTrace(f_z, gammas, branches, _evals(after_init, per_step, len(f_z)), state, seed, f0,
                    stop_reason, grad_norm, index, z_before, drawn, steps, f_last=state.f_z)


def stp_run(objective, dist: DirectionDistribution, schedule, x0, max_iters: int,
            seed: int | None = None, epsilon_gap: float | None = None,
            eval_budget: int | None = None, retain_internals: bool = False,
            track_grad_norm: bool = False) -> RunTrace:
    """Run the momentum-free baseline, which is smtp at beta = 0."""
    return smtp_run(objective, dist, schedule, 0.0, x0, max_iters, seed, epsilon_gap, eval_budget,
                    retain_internals, track_grad_norm)


def smtp_is_run(objective, p, schedule, beta: float, x0, max_iters: int,
                seed: int | None = None, epsilon_gap: float | None = None,
                eval_budget: int | None = None, retain_internals: bool = False,
                track_grad_norm: bool = False) -> RunTrace:
    """Run smtp_is with coordinate probabilities p (importance sampling): smtp
    over coord_weighted(p), so the direction is e_i with i ~ p and an
    importance-sampling rule scales the step by coordinate i, with the
    keywords of is_keywords."""
    dist = DirectionDistribution("coord_weighted", objective.dimension, weights=p)
    return smtp_run(objective, dist, schedule, beta, x0, max_iters, seed, epsilon_gap, eval_budget,
                    retain_internals, track_grad_norm, **is_keywords(objective.dimension))


def is_keywords(dim: int) -> dict:
    """smtp_is's smtp_run keywords, set here alone: the tracked gradient norm
    is the plain L1 norm of R^dim, and the trace records the drawn index."""
    return dict(norm_constants=constants(DirectionDistribution("coord_uniform", dim)),
                record_index=True)


# The scalar loop (smtp_run) is the general path and the reference: every
# trace is defined by it.  The block is a fast path for the rows block_supports
# admits, from this many rows on.  Scalar-loop over block time per row-step on
# a 2-core VM (numpy 2.4).  Over a vector law a round is one step of each row
# and costs about 16 us plus about 1.5 us per row (median of the ratios of 15
# interleaved pairs of runs of 4000 steps, harness.run_once against run_block):
#   rows                                        1     2     3     4     5     8    30
#   sphere, solution_dependent, d = 10          0.65  1.17  1.58  1.85  2.27  2.82  4.76
# Over a coordinate law a round costs about 20 us of numpy calls for the table
# of 2 d points per row, plus about 2 us of Python per row and a list lookup per
# stay.  By rows, move rate and d (best of 3 runs of 4000 steps; coord_uniform,
# constant, beta 0.5, each coordinate moving about rate * 4000 / d times from
# x0, then staying):
#   rows                                        1     2     3     5     10
#   d = 10,   2% moves                          8.8   13.1  15.3  16.2  33.0
#   d = 10,  30% moves                          0.97  1.70  2.02  2.39  1.99
#   d = 10, 100% moves                          0.52  0.85  1.02  1.32  1.03
#   d = 30,   2% moves                          7.2   9.9   17.8  23.2  24.3
#   d = 30,  30% moves                          0.83  1.23  1.45  1.67  2.03
#   d = 30, 100% moves                          0.30  0.45  0.48  0.58  0.65
#   d = 60,   3% moves                          3.6   4.7   4.1   6.2   6.0
#   d = 60,  30% moves                          0.49  0.70  0.83  0.87  0.87
#   d = 60, 100% moves                          0.18  0.24  0.30  0.27  0.29
# One row does not repay a block at high move rates, and two barely do over
# a vector law.  3 is the floor: perfbench's replay counts each is_compare
# seed through run_once as a 2-row compare.  Rows that stop leave the block
# and the rest stay in it: handing the last three or fewer to the scalar loop
# instead made is_compare's two runs no faster (median 1.93 s against 1.82 s
# over 10 interleaved pairs).
BLOCK_MIN_ROWS = 3
# The coordinate rows' tables hold at most this many floats together: at 10
# rows d <= 57, about where the walk stops beating the scalar loop at 30%
# moves (0.87 at d = 60 above).  It bounds the table's memory, as _DRAW_FLOATS
# bounds a chunk of draws, and the batch fn_batch must be bitwise at; below 10
# rows it admits a larger d, which pays only at lower move rates.
_TABLE_FLOATS = 1 << 16


def block_supports(objective, rule, dist, rows: int = 1) -> bool:
    """Whether run_block runs a row of this objective, rule and law in a
    block of this many rows: the objective evaluates a batch at once
    (fn_batch), and the stepsize is known up front, or over a vector law is
    SolutionDependent's with a constant theta_k, which row_stepsizes gives for
    all rows at once.  Over a coordinate law the rule is fixed (context-free,
    or index-only: a table of d stepsizes), and the rows' candidate tables
    hold at most _TABLE_FLOATS floats together.  Every other row runs through
    the scalar loop, with the same trace."""
    if objective.fn_batch is None:
        return False
    if dist.kind not in COORD_KINDS:
        return getattr(rule, "context_free", False) or (
            isinstance(rule, SolutionDependent) and not callable(rule.theta_k))
    return 2 * rows * dist.dim * dist.dim <= _TABLE_FLOATS and (
        getattr(rule, "context_free", False) or getattr(rule, "index_only", False))


@np.errstate(over="ignore", invalid="ignore")  # the checks raise on a non-finite value
def run_block(objectives, rules, beta, x0, max_iters, seeds, epsilon_gap, track_grad_norm,
              dists, norm_constants, record_index=False, columns=True) -> list[RunTrace]:
    """Run many seeds together, as the rows of (S, d) arrays.

    Row r runs seed seeds[r] over objectives[r] (one function, one copy per
    seed) under rules[r] and direction law dists[r], and its trace, final
    state and eval_counter are bit for bit the ones smtp_run gives that
    seed alone with the same arguments.  Every row must be one block_supports
    admits in a block of len(seeds) rows (ValueError otherwise).  The rows
    share the rest: beta, the dimension, a coordinate or a vector law, the
    rule class, the stop, the recording and the norm constants.

    The rows go in rounds.  Live row p steps by G[p, i] along coordinate i,
    or by G[p, 0] along a vector; G is None when max_iters is 0, and under
    SolutionDependent, whose row_stepsizes gives it each round.  A stay
    leaves z and f(z) as they are, so until a row moves, each candidate it
    can draw is known, and its table holds them all: over a coordinate law
    the 2 d points z -/+ h_i e_i, with h_i = G[p, i] / (1 - beta); over a
    vector law the 2 points z -/+ h s of its next draw, so its walk is one
    step.  One fn_batch call a round evaluates the tables of all m live rows,
    w = d points per row and branch over a coordinate law and w = 1 over a
    vector law: point p w + i is row p's plus candidate along coordinate i
    (i = 0 along s), and point (m + p) w + i its minus one.  Each row then
    walks its own draws on those values to its first move or its stop.  Bit
    for bit, because:
    - each row draws from its own generator, in chunks that together hold
      at most _DRAW_FLOATS floats;
    - fn_batch gives every point the value the one-point call gives it;
    - stepsizes come from the per-row value or table of a fixed rule, or
      from row_stepsizes, which keeps the scalar formula's operation order;
    - each row is decided on Python floats by smtp_step's rule and tie
      order, moved with smtp_step's arithmetic, and raises at a drawn
      non-finite value as smtp_step does.
    A row records f(z) and the branch at the end of each round, and the
    tracked grad_norm and a SolutionDependent gamma at its start: a vector
    row's round is one step, so these are its columns, and a coordinate
    row's runs to a move, so they are expanded over the round's steps when
    the row finishes.  Every step costs the same oracle calls, the method's
    two, whatever the block evaluates, so a row's eval_counter is set when
    it finishes.  A row that stops on epsilon_gap leaves the block and the
    others go on.  No candidate reads v, so a row holds z alone, and its
    trace's final state is rerun by smtp_run when first read (RunTrace).
    Without columns a row records nothing per step, and its trace holds
    its evals, stop and f_last alone (RunTrace): for callers that read no more.
    """
    if max_iters < 0:
        raise ValueError("max_iters must be >= 0")
    n, d = len(seeds), dists[0].dim
    if not all(block_supports(o, r, dist, n) for o, r, dist in zip(objectives, rules, dists)):
        raise ValueError(f"block_supports declines a row of this block of {n} rows")
    f_star = objectives[0].smoothness.f_star
    if epsilon_gap is not None and f_star is None:
        raise ValueError("epsilon_gap stopping needs a known f_star")
    coord = dists[0].kind in COORD_KINDS
    if any(dist.dim != d or (dist.kind in COORD_KINDS) != coord for dist in dists):
        raise ValueError("the rows of a block share one dimension and a coordinate or vector law")
    if record_index and not coord:
        raise ValueError("record_index needs a coordinate law")
    states = [init_state(o, x0, beta) for o in objectives]
    after_init = [o.eval_counter for o in objectives]
    fixed, G = [(None, None)] * n, None
    if max_iters > 0:
        fixed = [_fixed_steps(r, coord, st.f_z, d) for r, st in zip(rules, states)]
        if len({(g is None, t is None) for g, t in fixed}) > 1:
            raise ValueError("the rows of a block share one rule class")
        if fixed[0][0] is not None:
            G = np.broadcast_to(np.array([g for g, _ in fixed])[:, None], (n, d))
        elif fixed[0][1] is not None:
            G = np.array([t for _, t in fixed])
    per_step = 2 * objectives[0].calls_per_value

    code = _index_code(d)
    keep_steps = _kept_steps(*fixed[0], record_index) is not None  # no gamma column
    track_grad_norm = track_grad_norm and columns
    cols = [(array("d"), None if keep_steps else array("d"), array("b"),
             array("d") if track_grad_norm else None,
             array(code) if record_index else None) if columns else (None,) * 5 for _ in seeds]
    traces: list[RunTrace | None] = [None] * n
    streams = [chunks(dist, np.random.default_rng(seed), max_iters, chunk_rows(d, n))
               for dist, seed in zip(dists, seeds)]
    w = d if coord else 1
    dependent = G is None
    Z = np.array([st.z for st in states])  # the live rows' z
    F = [st.f_z for st in states]  # the live rows' f(z)
    limit = [max_iters] * n
    if epsilon_gap is not None:  # a row already within epsilon stops after its first step
        limit = [min(max_iters, 1) if f - f_star <= epsilon_gap else max_iters for f in F]
    # a coordinate row's round ends
    ends = [array(_index_code(max_iters + 1)) if columns else None for _ in seeds]
    # one list per live row: its seed position, steps taken, where it stops,
    # its draws as the table cells they read, and the appenders of its f_z,
    # branch, round-end, grad_norm and gamma records (None when not kept)
    rows = [[r, 0, limit[r], None] + [getattr(c, "append", None)
                                      for c in (f_col, branch, ends[r], norm, gamma)]
            for r, (f_col, gamma, branch, norm, _) in enumerate(cols)]
    evaluate, gradient = objectives[0].fn_batch, objectives[0].gradient_batch  # counted at finish

    def coordinates(r: int, steps) -> Iterator[list]:
        """Row r's drawn coordinates, a chunk at a time, with its recorded
        index column (and an index-only rule's gamma column, from its steps)
        filled a chunk ahead."""
        gamma_col, index_col = cols[r][1], cols[r][4]
        for raw in streams[r]:
            if gamma_col is not None:
                gamma_col.frombytes(steps.take(raw).tobytes())
            if index_col is not None:
                index_col.frombytes(raw.astype(code).tobytes())
            yield raw.tolist()

    def finish(p: int) -> None:
        """Live row p's trace, from its records and f(z)."""
        r, k = rows[p][:2]
        f_col, gamma, branch, grad_norm, index = cols[r]
        for col in (gamma, index):  # filled a chunk ahead
            if col is not None:
                del col[k:]
        if coord and columns:  # a round's records, once for each of its steps
            last_steps = np.frombuffer(ends[r], ends[r].typecode) - 1
            spans = np.diff(last_steps, prepend=-1)
            f_after = np.frombuffer(f_col)
            f_steps = np.repeat(np.r_[states[r].f_z, f_after][:-1], spans)
            f_steps[last_steps] = f_after
            codes = np.full(k, STAY, np.int8)
            codes[last_steps] = np.frombuffer(branch, np.int8)
            if grad_norm is not None:
                grad_norm = array("d", np.repeat(grad_norm, spans).tobytes())
            f_col, branch = array("d"), array("b")
            f_col.frombytes(memoryview(f_steps).cast("B"))
            branch.frombytes(memoryview(codes).cast("B"))
        rows[p] = ends[r] = cols[r] = None  # frees the records before the other rows finish
        reason = "epsilon_gap" if k and epsilon_gap is not None and F[p] - f_star <= epsilon_gap \
            else "max_iters"
        objectives[r].eval_counter = after_init[r] + per_step * k
        traces[r] = RunTrace(f_col, gamma, branch, _evals(after_init[r], per_step, k), None,
                             seeds[r], states[r].f_z, reason, grad_norm, index,
                             steps=_kept_steps(*fixed[r], record_index),
                             rerun=(objectives[r], dists[r], rules[r], beta, states[r].z),
                             f_last=F[p])

    if not max_iters:
        for p in range(n):
            finish(p)
        return traces
    for row in rows:  # a vector row's draw reads cell 0: its table holds that draw alone
        row[3] = chain.from_iterable(coordinates(row[0], G[row[0]])) if coord else repeat(0)
    # a vector row's chunk of directions is column p of D; vector rows step
    # once a round, so all are at place t of chunks of one length
    D, t, end = None if coord else np.empty((chunk_rows(d, n), n, d)), 0, 0
    one_minus_beta = 1.0 - beta
    if dependent:
        step = row_stepsizes(rules)
    else:
        H = G / one_minus_beta  # the live rows' h
        if coord:  # +h on the PLUS diagonal, -h on the MINUS one, 0 elsewhere
            offs = np.zeros((2, n, d, d))
            offs.reshape(2, n, d * d)[:, :, ::d + 1] = H, -H
    while rows:
        m = len(rows)
        if track_grad_norm:
            for row, norm in zip(rows, d_norm_rows(norm_constants, gradient(Z)).tolist()):
                row[7](norm)
        if dependent:  # exact once a round, as f(z) changes only at moves
            g = step(F)
            if columns:
                for row, gamma in zip(rows, g):
                    row[8](gamma)
            H = np.divide(g, one_minus_beta)[:, None]
        if coord:  # z - (-h) == z + h and z - 0.0 == z, so these are z -/+ h e_i exactly
            T = (Z[:, None] - offs).reshape(2 * m * d, d)
        else:  # z, then its plus and minus candidates
            if t == end:
                for p, row in enumerate(rows):
                    raw = next(streams[row[0]])
                    D[:len(raw), p] = raw
                t, end = 0, len(raw)
            S = D[t]
            t += 1
            hs = H * S
            X = np.empty((3 * m, d))
            np.subtract(Z, hs, out=X[m:2 * m])
            np.add(Z, hs, out=X[2 * m:])
            T = X[m:]
        values = evaluate(T).tolist()
        checked = not math.isfinite(sum(values))  # finite whenever every value is, bar an overflow
        ended, pick, a, b = [], None, 0, w * m
        for p, row in enumerate(rows):
            r, k, lim, draws, record_f, record_branch, record_end, _, _ = row
            f, s = F[p], STAY
            stop = lim if coord else k + 1  # a vector row's table holds its next draw alone
            for i in draws:
                k += 1
                f_p = values[a + i]
                f_m = values[b + i]
                if checked and not (math.isfinite(f_p) and math.isfinite(f_m)):
                    raise NonFiniteObjectiveError(k - 1, f_p if not math.isfinite(f_p) else f_m,
                                                  float(np.linalg.norm(Z[p])))
                # smtp_step's rule and tie order: move when a candidate beats
                # f(z), to z+ unless z- is strictly lower
                if f_p < f or f_m < f:
                    if f_p <= f_m:
                        f, s = f_p, PLUS
                    else:
                        f, s = f_m, MINUS
                    if coord:
                        Z[p, i] = T.item((b if s else a) + i, i)
                    else:
                        if pick is None:
                            pick = list(range(m))
                        pick[p] = (1 + s) * m + p  # X[m:] holds z+ (PLUS) then z- (MINUS)
                    if epsilon_gap is not None and f - f_star <= epsilon_gap:
                        lim = row[2] = k
                    break
                if k == stop:
                    break
            if columns:
                record_f(f)
                record_branch(s)
                if coord:
                    record_end(k)
            row[1] = k
            F[p] = f
            if k == lim:
                ended.append(p)
            a += w
            b += w
        if pick is not None:  # the moved vector rows' z, the others' as they are
            X[:m] = Z
            Z = X.take(pick, 0)
        for p in ended:
            finish(p)
        if ended:
            keep = [p for p in range(m) if p not in ended]
            rows, F = [rows[p] for p in keep], [F[p] for p in keep]
            Z = Z[keep]
            if coord:
                offs = offs[:, keep]
            else:
                D = D[:, keep]
            if dependent:
                step = row_stepsizes([rules[row[0]] for row in rows])
            else:
                H = H[keep]
    return traces
