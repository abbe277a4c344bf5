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
    COORD_KINDS,
    DirectionDistribution,
    categorical_index,  # noqa: F401 - perfbench's traced runs wrap this name here
    chunk_rows,
    chunks,
    constants,
    d_norm,
    d_norm_rows,
    draws,
    sample,
)
from .schedules import SolutionDependent, StepContext, require_unit_law, row_stepsizes, stepsize

BRANCHES = ("plus", "minus", "stay")
PLUS, MINUS, STAY = range(3)  # branch codes: indices into BRANCHES


class NonFiniteObjectiveError(RuntimeError):
    """The objective returned NaN or inf; the run cannot continue."""

    def __init__(self, k: int, value: float, message: str | None = None):
        super().__init__(message or f"non-finite objective value {value!r} at iteration {k}")
        self.k = k
        self.value = value

    def __reduce__(self):  # through a process pool with its message, prefixed or not
        return type(self), (self.k, self.value, str(self))


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
    if trace._gamma is None:
        if np.ndim(trace.steps) == 0:  # a context-free rule's one stepsize
            trace._gamma = array("d", [trace.steps]) * len(trace.f_z)
        else:  # an index-only rule's table at each drawn coordinate
            steps = np.asarray(trace.steps, dtype=float)
            trace._gamma = array("d", steps.take(np.asarray(trace.index)).tobytes())
    return trace._gamma


def _set_gamma_column(trace: RunTrace, column: array | None) -> None:
    trace._gamma = column


# a property after the class body, so the dataclass keeps gamma as a field
RunTrace.gamma = property(_gamma_column, _set_gamma_column)


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
            raise NonFiniteObjectiveError(k, probe)
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
def _run_loop(objective, schedule, beta, x0, max_iters, seed, epsilon_gap, eval_budget,
              retain_internals, track_grad_norm, dist, norm_constants, record_index=False):
    """Drive smtp_step over max_iters directions of dist.

    Directions come from draws(), a bounded chunk at a time.  A context-free
    rule is evaluated once, and over coordinate directions an index-only
    rule once per coordinate (_fixed_steps); each step gets the value, or
    the drawn coordinate's entry.  A rule that needs unit directions checks
    the law once.  With track_grad_norm the trace records the gradient norm
    at z before each step, measured by norm_constants, and with
    record_index the drawn coordinate.
    """
    if max_iters < 0:
        raise ValueError("max_iters must be >= 0")
    f_star = objective.smoothness.f_star
    if epsilon_gap is not None and f_star is None:
        raise ValueError("epsilon_gap stopping needs a known f_star")
    require_unit_law(schedule, dist.kind)
    start_evals = objective.eval_counter
    state = init_state(objective, x0, beta)
    after_init = objective.eval_counter
    coord = dist.kind in COORD_KINDS
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
                    stop_reason, grad_norm, index, z_before, drawn, steps)


def _check_finite(k: int, values: np.ndarray) -> list[float]:
    """values as a list, each checked finite."""
    listed = values.tolist()
    if not math.isfinite(sum(listed)):  # finite whenever every value is, bar an overflow
        bad = [value for value in listed if not math.isfinite(value)]
        if bad:
            raise NonFiniteObjectiveError(k, bad[0])
    return listed


# The scalar loop (_run_loop) is the general path and the reference: every
# trace is defined by it.  The block is a fast path for the rows block_supports
# admits, from this many rows on.  Scalar-loop over block time per
# seed-iteration, best of 7 interleaved runs of 4000 iterations on a 2-core VM
# (numpy 2.4), by seeds in the block:
#   seeds                                          1     2     3     4     5     8    30
#   coord_uniform, constant, stp, d = 10 (test_01) 0.67  1.57  1.54  1.97  2.83  3.56  6.38
#   sphere, solution_dependent, d = 10 (quad_run)  0.52  0.79  1.22  1.75  1.83  2.52  5.29
#   smtp_is, constant, d = 10 (is_compare)         0.45  0.76  1.22  1.11  1.59  2.15  3.51
# A block step costs about 10 us plus about 1 us of Python per row, which one
# row does not repay (CHANGES.md has the per-step floor).  3 is the floor:
# perfbench's replay counts each is_compare seed through run_once as a 2-row
# compare.  Rows that stop leave the block and the rest stay in it: handing
# the last three or fewer to the scalar loop instead made is_compare's two
# runs no faster (median 1.93 s against 1.82 s over 10 interleaved pairs).
BLOCK_MIN_ROWS = 3


def block_supports(objective, rule, dist) -> bool:
    """Whether run_block runs a row of this objective, rule and law: the
    objective evaluates a batch at once (fn_batch), and the stepsize is known
    up front (a context-free rule, or an index-only table over a coordinate
    law) or is SolutionDependent's, which row_stepsizes gives for all rows at
    once.  Every other row runs through the scalar loop, with the same trace."""
    return objective.fn_batch is not None and (
        getattr(rule, "context_free", False) or isinstance(rule, SolutionDependent)
        or (getattr(rule, "index_only", False) and dist.kind in COORD_KINDS))


@np.errstate(over="ignore", invalid="ignore")  # the checks raise on a non-finite value
def run_block(objectives, rules, beta, x0, max_iters, seeds, epsilon_gap, track_grad_norm,
              dists, norm_constants, record_index=False) -> list[RunTrace]:
    """Run many seeds in lockstep, as the rows of (S, d) arrays.

    Row r runs seed seeds[r] over objectives[r] (one function, one copy per
    seed) under rules[r] and direction law dists[r], and its trace, final
    state and eval_counter are bit for bit the ones _run_loop gives that
    seed alone with the same arguments.  Every row must be one block_supports
    admits (ValueError otherwise).  The rows share the rest: beta, the
    dimension, a coordinate or a vector law, the rule class, the stop, the
    recording and the norm constants.  Bit for bit, because:
    - each row draws from its own generator, in chunks that together hold
      at most _DRAW_FLOATS floats;
    - every row's two candidates are evaluated in one fn_batch call, whose
      values equal the one-point ones;
    - stepsizes come from the per-row value or table of a fixed rule, or
      from row_stepsizes, which keeps the scalar formula's operation order;
    - each row is decided on Python floats by smtp_step's rule and tie
      order, and moved with smtp_step's arithmetic.
    Every step costs the same oracle calls, so a row's eval_counter is set
    when it finishes.  A row that stops on epsilon_gap leaves the block and
    the others go on.
    """
    if max_iters < 0:
        raise ValueError("max_iters must be >= 0")
    if not all(map(block_supports, objectives, rules, dists)):
        raise ValueError("run_block runs an objective with fn_batch under a fixed or "
                         "solution_dependent rule; run other rows through the scalar loop")
    f_star = objectives[0].smoothness.f_star
    if epsilon_gap is not None and f_star is None:
        raise ValueError("epsilon_gap stopping needs a known f_star")
    coord = dists[0].kind in COORD_KINDS
    n, d = len(seeds), dists[0].dim
    if any(dist.dim != d or (dist.kind in COORD_KINDS) != coord for dist in dists):
        raise ValueError("the rows of a block share one dimension and a coordinate or vector law")
    states = [init_state(o, x0, beta) for o in objectives]
    after_init = [o.eval_counter for o in objectives]
    gammas = table = step = None
    if max_iters > 0:
        fixed = [_fixed_steps(r, coord, st.f_z, d) for r, st in zip(rules, states)]
        if len({(g is None, t is None) for g, t in fixed}) > 1:
            raise ValueError("the rows of a block share one rule class")
        if fixed[0][0] is not None:
            gammas = np.array([g for g, _ in fixed])
        elif fixed[0][1] is not None:
            table = np.array([t for _, t in fixed])
        else:
            step = row_stepsizes(list(rules))
    per_step = 2 * objectives[0].calls_per_value

    code = _index_code(d)
    keep_steps = _kept_steps(gammas, table, record_index) is not None  # no gamma column
    columns = [(array("d"), None if keep_steps else array("d"), array("b"),
                array("d") if track_grad_norm else None,
                array(code) if record_index or coord else None) for _ in seeds]
    traces: list[RunTrace | None] = [None] * n
    rows = chunk_rows(d, n)
    streams = [chunks(dist, np.random.default_rng(seed), max_iters, rows)
               for dist, seed in zip(dists, seeds)]
    # rows p, m + p and 2m + p of XW[0] and XW[1] hold z, z+, z- and v, v+, v-
    # of live row p.  Over a coordinate law the z+ and z- rows hold z between
    # steps, and v is replayed at the end (XW[1] goes unused).  Over a vector
    # law ZV is z and v, a new array at each step with a move.  last[r] is row
    # r's last move: (i, old z_i, gamma), or (p, the ZV it left, gamma).
    ZV = np.array([[st.z for st in states], [st.v for st in states]])
    XW = np.tile(ZV, (1, 3, 1))
    F = [st.f_z for st in states]
    last = [None] * n
    gradient = objectives[0].gradient_batch
    evaluate = objectives[0].fn_batch  # counted when a row finishes
    one_minus_beta = 1.0 - beta
    live = list(range(n))  # the seed position of each row
    G = None  # a fixed rule's steps over the chunk, (chunk rows, live rows)

    def finish(p: int, r: int, reason: str) -> None:
        """Row p's trace, from its columns and final state."""
        f_z, gamma, branch, grad_norm, index = columns[r]
        n_steps = len(f_z)
        for col in (gamma, index):  # filled a chunk ahead
            if col is not None:
                del col[n_steps:]
        objectives[r].eval_counter = after_init[r] + per_step * n_steps
        z, v = XW[0, p].copy(), XW[1, p].copy()  # over coordinates, v is replayed at the end
        move = None
        if last[r] is not None and not coord:
            at, moved_from, g = last[r]
            move = (*moved_from[:, at], g, v)
        state = OptimizerState(x=states[r].x, v=v, z=z, f_z=F[p], k=n_steps, beta=beta, move=move)
        steps = _kept_steps(None if gammas is None else float(gammas[p]),
                            None if table is None else table[p], record_index)
        traces[r] = RunTrace(f_z, gamma, branch, _evals(after_init[r], per_step, n_steps), state,
                             seeds[r], states[r].f_z, reason, grad_norm,
                             index if record_index else None, steps=steps)

    def shape():
        """What depends on the live rows and the chunk: views of XW, the
        rows' column appenders, over coordinates the drawn indices and their
        flat cells in the z+ and z- rows of XW[0], and given a fixed rule's
        steps G, h = gamma / (1 - beta) and the candidates' change (-h, h)
        over coordinates, h otherwise."""
        m = len(live)
        appends = [(columns[r][0].append, columns[r][2].append) for r in live]
        gamma_appends = None if G is not None or keep_steps else [
            columns[r][1].append for r in live]
        index = block.tolist() if coord else None
        cells = np.tile(block, 2) + np.arange(m, 3 * m) * d if coord else None
        H = delta = None
        if G is not None:
            H = G / one_minus_beta
            delta = np.concatenate((-H, H), axis=1) if coord else H
        return (m, XW[0, :m], XW[0, m:], XW[0].reshape(-1), appends, gamma_appends, index,
                cells, H, delta)

    for k in range(max_iters):
        j = k % rows
        if j == 0:
            first = next(streams[0])  # (rows[, d]); the block holds every row's
            block = np.empty(first.shape[:1] + (len(live),) + first.shape[1:], first.dtype)
            block[:, 0] = first
            for p in range(1, len(live)):
                block[:, p] = next(streams[p])
            if step is None:  # a fixed rule: the chunk's steps are known
                G = (np.broadcast_to(gammas, block.shape[:2]) if table is None
                     else table.take(block + np.arange(len(live)) * d))
            for p, r in enumerate(live):  # columns known for the chunk, cut at finish
                gamma_col, index_col = columns[r][1], columns[r][4]
                if gamma_col is not None and G is not None:
                    gamma_col.frombytes(np.ascontiguousarray(G[:, p]).tobytes())
                if index_col is not None:
                    index_col.frombytes(block[:, p].astype(code).tobytes())
            m, Z, C, flat, appends, gamma_appends, index, cells, H, delta = shape()
        drawn = block[j]
        if track_grad_norm:
            for r, norm in zip(live, d_norm_rows(norm_constants, gradient(Z)).tolist()):
                columns[r][3].append(norm)
        if step is None:
            g, h, change = G[j], H[j], delta[j]
        else:
            g = step(k, np.array(F))
            h = g / one_minus_beta
            change = np.concatenate((-h, h)) if coord else h
            for append, gamma in zip(gamma_appends, g):
                append(gamma)
        if coord:  # z_i + -h and z_i + h: the scalar step's z_i - h and z_i + h
            cand = cells[j]
            z_i = flat.take(cand)
            flat[cand] = z_i + change
        else:
            hs = change[:, None] * drawn
            np.subtract(Z, hs, out=XW[0, m:2 * m])
            np.add(Z, hs, out=XW[0, 2 * m:])
            bv = beta * ZV[1]  # a + (-b) == a - b exactly, signed zeros too
            np.add(bv, drawn, out=XW[1, m:2 * m])
            np.subtract(bv, drawn, out=XW[1, 2 * m:])
        values = _check_finite(k, evaluate(C))
        if coord:  # z back in the candidate rows; a moved row writes its new z_i
            flat[cand] = z_i
            drawn_i, md = index[j], m * d
        else:
            pick = None
        # smtp_step's rule and tie order: move when a candidate beats f(z),
        # to z+ unless z- is strictly lower
        for p, (r, f_z, f_p, f_m, (append_f, append_branch)) in enumerate(
                zip(live, F, values, values[m:], appends)):
            if f_p < f_z or f_m < f_z:
                plus = f_p <= f_m
                f_z = F[p] = f_p if plus else f_m
                if coord:
                    i, z = drawn_i[p], z_i.item(p)
                    cell = p * d + i  # and cell + md, cell + 2 md in the z+ and z- rows
                    flat[cell] = flat[cell + md] = flat[cell + 2 * md] = (
                        z - h[p] if plus else z + h[p])
                    last[r] = (i, z, g[p])
                else:
                    last[r] = (p, ZV, g[p])
                    if pick is None:
                        pick = list(range(m))
                    pick[p] = p + m if plus else p + 2 * m
                append_branch(PLUS if plus else MINUS)
            else:
                append_branch(STAY)
            append_f(f_z)
        if not coord and pick is not None:  # the moved rows' candidates are the new z and v
            ZV = XW[:, :m] = XW.take(pick, 1)
        # some row is done exactly when the least f(z) is, as x - f_star is monotone
        if epsilon_gap is not None and min(F) - f_star <= epsilon_gap:
            keep = []
            for p, r in enumerate(live):
                if F[p] - f_star <= epsilon_gap:
                    finish(p, r, "epsilon_gap")
                else:
                    keep.append(p)
            if not keep:
                break
            live = [live[p] for p in keep]
            streams = [streams[p] for p in keep]
            F = [F[p] for p in keep]
            ZV = XW[:, keep]
            XW = np.tile(ZV, (1, 3, 1))
            block = block[:, keep]
            gammas, table = (None if a is None else a[keep] for a in (gammas, table))
            if step is not None:
                step = row_stepsizes([rules[r] for r in live])
            G = None if G is None else G[:, keep]
            m, Z, C, flat, appends, gamma_appends, index, cells, H, delta = shape()
    else:
        for p, r in enumerate(live):
            finish(p, r, "max_iters")
    if coord:
        _replay_momenta(traces, columns, last, beta)
    return traces


def _replay_momenta(traces, columns, last, beta) -> None:
    """Set the final v and last move of a coordinate-law block's traces by
    replaying smtp_step's v = beta v, then + 1 at i on a plus and - 1 on a
    minus, from each row's branch and index columns (last[r]: row r's last
    move as (i, old z_i, gamma)), move by move for all rows at once."""
    moves = []
    for _, _, branch, _, index in columns:
        codes = np.frombuffer(branch, np.int8)
        moved = codes != STAY  # PLUS, MINUS = 0, 1: the sign is 1 - 2 code
        moves.append((np.frombuffer(index, index.typecode)[moved], 1 - 2 * codes[moved]))
    n, d = len(traces), traces[0].final_state.z.size
    order = sorted(range(n), key=lambda r: -moves[r][0].size)  # the most moves first
    ends = [moves[r][0].size - 1 for r in order]  # each row's last move
    width, code = ends[0] + 1, np.min_scalar_type(-n * d)  # a signed type that holds n d
    cells, signs = np.zeros((n, width), code), np.zeros((n, width), np.int8)
    for q, r in enumerate(order):
        cells[q, :ends[q] + 1], signs[q, :ends[q] + 1] = moves[r]
    cells += np.arange(0, n * d, d, dtype=code)[:, None]  # flat cells of V
    V, live = np.zeros((n, d)), n
    flat = V.reshape(-1)
    for t in range(ends[0]):  # every move but each row's last
        while ends[live - 1] <= t:
            live -= 1
        V[:live] *= beta
        flat[cells[:live, t]] += signs[:live, t]
    before, live = V.copy(), sum(e >= 0 for e in ends)
    V[:live] *= beta
    flat[cells[range(live), ends[:live]]] += signs[range(live), ends[:live]]
    for q, r in enumerate(order):
        state = traces[r].final_state
        state.v = V[q].copy()
        if ends[q] >= 0:
            i, z_i, g = last[r]
            state.move = (state.z.copy(), before[q], g, state.v)
            state.move[0][i] = z_i  # the move changed coordinate i alone


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
    return _run_loop(objective, schedule, beta, x0, max_iters, seed, epsilon_gap, eval_budget,
                     retain_internals, track_grad_norm, **loop_args(dist))


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
    return _run_loop(objective, schedule, 0.0, x0, max_iters, seed, epsilon_gap, eval_budget,
                     retain_internals, track_grad_norm, **loop_args(dist))


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
    return _run_loop(objective, schedule, beta, x0, max_iters, seed, epsilon_gap, eval_budget,
                     retain_internals, track_grad_norm, **loop_args(dist, importance=True))


def loop_args(dist: DirectionDistribution, importance: bool = False) -> dict:
    """The run loop's arguments a method sets: the law dist, the constants of
    the norm the tracked gradient norm is measured in, and whether the trace
    records the drawn index.  smtp and stp measure dist's own norm; smtp_is
    (importance) the plain L1 norm, and it records the index."""
    if not importance:
        return dict(dist=dist, norm_constants=constants(dist))
    l1 = constants(DirectionDistribution("coord_uniform", dist.dim))
    return dict(dist=dist, norm_constants=l1, record_index=True)


def select_uniform_random_iterate(trace: RunTrace, rng: np.random.Generator) -> tuple[int, np.ndarray]:
    """Uniform draw over the visited iterates z^0 .. z^{K-1}.

    Needs a trace recorded with retain_internals=True.
    """
    if trace.z_before is None or len(trace.f_z) == 0:
        raise ValueError("trace has no retained iterates; rerun with retain_internals=True")
    idx = int(rng.integers(len(trace.f_z)))
    return idx, trace.z_before[idx].copy()
