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
from .objectives import value_rows
from .schedules import StepContext, require_unit_law, row_stepsizes, stepsize

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
        if trace.index is None:  # a context-free rule's one stepsize
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


def _check_finite(k: int, values: np.ndarray) -> None:
    total = sum(values.tolist())  # finite whenever every value is, bar an overflow
    if not math.isfinite(total):
        bad = [value for value in values.tolist() if not math.isfinite(value)]
        if bad:
            raise NonFiniteObjectiveError(k, bad[0])


# A config's seeds run as one block from this many on; fewer go one by one
# through the scalar loop.  Scalar-loop over block time per seed-iteration,
# best of 5 interleaved runs of 4000 iterations on a 2-core VM (numpy 2.4), by
# seeds in the block:
#   seeds                                          2     3     4     5     8    30
#   sphere, solution_dependent, d = 10 (quad_run)  0.65  1.03  1.43  1.58  2.38  6.01
#   smtp_is, constant, d = 10 (is_compare)         0.55  0.91  1.21  1.25  2.02  5.98
# A block step has a fixed cost of about 20 us, which too few rows do not repay.
# Rows that stop leave the block and the rest stay in it: handing the last
# three or fewer to the scalar loop instead made is_compare's two runs no
# faster (median 1.93 s against 1.82 s over 10 interleaved pairs).
BLOCK_MIN_ROWS = 4

# the branch of each position in (f(z), f(z+), f(z-)): the first minimum of the
# three is the scalar step's choice, ties resolved stay > plus > minus
_BRANCH_AT = np.array([STAY, PLUS, MINUS], dtype=np.int8)


def run_block(objectives, rules, beta, x0, max_iters, seeds, epsilon_gap, eval_budget,
              retain_internals, track_grad_norm, dist, norm_constants,
              record_index=False) -> list[RunTrace]:
    """Run many seeds in lockstep, as the rows of (S, d) arrays.

    Row r runs seed seeds[r] over objectives[r] (one function, one copy per
    seed, each counting its own calls) under rules[r], and its trace is bit
    for bit the one _run_loop gives that seed alone with the same
    arguments:
    - each row draws from its own generator, in chunks that together hold
      at most _DRAW_FLOATS floats;
    - every row's probe, then every row's two candidates, are evaluated in
      one value_rows call, whose batch forms equal the one-point ones;
    - stepsizes come from row_stepsizes, which keeps the scalar formula's
      operation order, or from the per-row value or table of a fixed rule;
    - each row keeps the first minimum of (f(z), f(z+), f(z-)), which is
      the scalar step's choice and tie order.
    A row that stops on epsilon_gap leaves the block and the others go on;
    an eval_budget stops every row at the same step, since every step costs
    the same oracle calls.
    """
    if max_iters < 0:
        raise ValueError("max_iters must be >= 0")
    f_star = objectives[0].smoothness.f_star
    if epsilon_gap is not None and f_star is None:
        raise ValueError("epsilon_gap stopping needs a known f_star")
    require_unit_law(rules[0], dist.kind)
    start_evals = [o.eval_counter for o in objectives]
    states = [init_state(o, x0, beta) for o in objectives]
    after_init = [o.eval_counter for o in objectives]
    coord = dist.kind in COORD_KINDS
    n, d = len(seeds), dist.dim
    gammas = table = None
    if max_iters > 0:
        fixed = [_fixed_steps(r, coord, st.f_z, d) for r, st in zip(rules, states)]
        if fixed[0][0] is not None:
            gammas = np.array([g for g, _ in fixed])
        elif fixed[0][1] is not None:
            table = np.array([t for _, t in fixed])
    probe = rules[0].needs_probe and gammas is None and table is None
    per_step = (3 if probe else 2) * objectives[0].calls_per_value
    n_iter, end_reason = max_iters, "max_iters"
    if eval_budget is not None and max_iters > 0:
        # the check after step k sees the setup call and k + 1 steps' calls
        steps = max(1, -(-(eval_budget - (after_init[0] - start_evals[0])) // per_step))
        if steps <= max_iters:
            n_iter, end_reason = steps, "eval_budget"

    code = _index_code(d)
    keep_steps = _kept_steps(gammas, table, record_index) is not None  # no gamma column
    columns = [(array("d"), None if keep_steps else array("d"), array("b"),
                array("d") if track_grad_norm else None, array(code) if record_index else None)
               for _ in seeds]
    kept = [([], array(code) if coord else []) if retain_internals else (None, None)
            for _ in seeds]
    traces: list[RunTrace | None] = [None] * n
    rows = chunk_rows(d, n)
    streams = [chunks(dist, np.random.default_rng(seed), n_iter, rows) for seed in seeds]
    # ZV[0] and ZV[1] hold z and v, one row per seed; F f(z); the last move's
    # z, v and gamma (< 0: none yet)
    ZV = np.stack((np.array([st.z for st in states]), np.zeros((n, d))))
    F = np.array([st.f_z for st in states])
    last_zv, last_g = ZV.copy(), np.full(n, -1.0)
    t = np.array([r.t for r in rules]) if probe else None
    step = None if gammas is not None or table is not None else row_stepsizes(list(rules))
    gradient = objectives[0].gradient_batch
    one_minus_beta = 1.0 - beta
    f_buf, g_buf, b_buf = np.empty((n, rows)), np.empty((n, rows)), np.empty((n, rows), np.int8)
    n_buf = np.empty((n, rows)) if track_grad_norm else None
    i_buf = np.empty((n, rows), np.dtype(code)) if record_index else None
    live = list(range(n))  # the seed position of each row
    live_objectives = [objectives[r] for r in live]
    flushed, G = 0, None  # G: a fixed rule's steps over the chunk, (chunk rows, live rows)

    def flush(upto: int) -> None:
        for p, r in enumerate(live):
            for col, buf in zip(columns[r], (f_buf, g_buf, b_buf, n_buf, i_buf)):
                if col is not None:
                    col.frombytes(buf[p, flushed:upto].tobytes())

    def finish(p: int, r: int, reason: str) -> None:
        """Row p's trace, from its flushed columns and final state."""
        f_z, gamma, branch, grad_norm, index = columns[r]
        n_steps = len(f_z)
        v = ZV[1, p].copy()
        move = None
        if last_g[p] >= 0.0:
            move = (last_zv[0, p].copy(), last_zv[1, p].copy(), float(last_g[p]), v)
        state = OptimizerState(x=states[r].x, v=v, z=ZV[0, p].copy(), f_z=float(F[p]),
                               k=n_steps, beta=beta, move=move)
        steps = _kept_steps(None if gammas is None else float(gammas[p]),
                            None if table is None else table[p], record_index)
        traces[r] = RunTrace(f_z, gamma, branch, _evals(after_init[r], per_step, n_steps), state,
                             seeds[r], states[r].f_z, reason, grad_norm, index, *kept[r], steps)

    def shape(block, G):
        """What depends on the live rows and the chunk: the candidate buffer
        and, over coordinates, the flat index of coordinate i in the z+, z-,
        v+ and v- rows of every step, with the changes made there (all
        known up front given a fixed rule's steps G, the unit signs alone
        otherwise)."""
        m = len(live)
        ar = np.arange(m)
        XW = np.empty((2, 3 * m, d))  # rows r, m + r, 2m + r: z, z+, z- and v, v+, v-
        XW3 = XW.reshape(2, 3, m, d)  # a view: C order, as the flat indices below assume
        at = moves = None
        if coord:
            base = np.concatenate(((ar + m) * d, (ar + 2 * m) * d))
            at = np.tile(block, 4) + np.concatenate((base, base + 3 * m * d))
            # z[i] + -h and z[i] + h, beta v[i] + 1 and + -1: the scalar step's sums
            moves = np.repeat([1.0, -1.0], m)
            if G is not None:
                H = G / one_minus_beta
                moves = np.concatenate((-H, H, np.broadcast_to(moves, H.shape[:1] + moves.shape)),
                                       axis=1)
        return ar, XW, XW3, at, moves

    for k in range(n_iter):
        j = k % rows
        m = len(live)
        if j == 0:
            first = next(streams[0])  # (rows[, d]); the block holds every row's
            block = np.empty(first.shape[:1] + (m,) + first.shape[1:], first.dtype)
            block[:, 0] = first
            for p in range(1, m):
                block[:, p] = next(streams[p])
            flushed = 0
            if step is None:  # a fixed rule: the chunk's steps are known
                G = (np.broadcast_to(gammas, block.shape[:2]) if table is None
                     else table.take(block + np.arange(m) * d))
                g_buf[:, :len(G)] = G.T
            ar, XW, XW3, at, moves = shape(block, G)
        Z, V = ZV
        drawn = block[j]
        if retain_internals:
            for p, r in enumerate(live):
                kept[r][0].append(Z[p])
                kept[r][1].append(int(drawn[p]) if coord else drawn[p])
        if track_grad_norm:
            n_buf[:, j] = d_norm_rows(norm_constants, gradient(Z))
        if gammas is not None:
            g = gammas
        elif table is not None:
            g = None  # in moves and g_buf
        else:
            P = None
            if probe:
                if coord:
                    Zt = Z.copy()
                    Zf = Zt.reshape(-1)
                    cell = drawn + ar * d
                    Zf[cell] = Zf.take(cell) + t
                else:
                    Zt = Z + t[:, None] * drawn
                P = value_rows(live_objectives, Zt)
                _check_finite(k, P)
            g = step(k, F, P, drawn if coord else None)
            g_buf[:, j] = g
        if coord:
            XW3[...] = ZV[:, None]
            XW[1, m:] *= beta  # beta v, exact as the scalar step's beta * v
            if moves.ndim == 2:
                delta = moves[j]
            else:
                h = g / one_minus_beta
                delta = np.concatenate((-h, h, moves))
            flat = XW.reshape(-1)
            flat[at[j]] = flat.take(at[j]) + delta
        else:
            s = drawn
            hs = (g / one_minus_beta)[:, None] * s
            XW[:, :m] = ZV
            np.subtract(Z, hs, out=XW[0, m:2 * m])
            np.add(Z, hs, out=XW[0, 2 * m:])
            bv = beta * V
            np.add(bv, s, out=XW[1, m:2 * m])
            np.subtract(bv, s, out=XW[1, 2 * m:])
        values = value_rows(live_objectives, XW[0, m:])
        _check_finite(k, values)
        T = np.concatenate((F, values))
        choice = T.reshape(3, m).argmin(0)
        moved = choice > 0
        np.copyto(last_zv, ZV, where=moved[:, None])
        np.copyto(last_g, g_buf[:, j], where=moved)
        pick = choice * m + ar
        ZV = XW.take(pick, 1)
        F = T.take(pick)
        f_buf[:, j] = F
        b_buf[:, j] = _BRANCH_AT.take(choice)
        if record_index:
            i_buf[:, j] = drawn
        if j == rows - 1:
            flush(rows)
            flushed = rows
        if epsilon_gap is not None:
            done = F - f_star <= epsilon_gap
            if True in done.tolist():
                flush(j + 1)
                flushed = j + 1
                for p in np.flatnonzero(done).tolist():
                    finish(p, live[p], "epsilon_gap")
                keep = np.flatnonzero(~done)
                if keep.size == 0:
                    break
                live = [live[p] for p in keep.tolist()]
                live_objectives = [objectives[r] for r in live]
                streams = [streams[p] for p in keep.tolist()]
                ZV, last_zv = ZV[:, keep], last_zv[:, keep]
                F, last_g, block = F[keep], last_g[keep], block[:, keep]
                f_buf, g_buf, b_buf, n_buf, i_buf = (
                    None if b is None else b[keep] for b in (f_buf, g_buf, b_buf, n_buf, i_buf))
                t, gammas, table = (None if a is None else a[keep] for a in (t, gammas, table))
                if step is not None:
                    step = row_stepsizes([rules[r] for r in live])
                G = None if G is None else G[:, keep]
                ar, XW, XW3, at, moves = shape(block, G)
    else:
        if n_iter:
            flush(j + 1)
        for p, r in enumerate(live):
            finish(p, r, end_reason)
    return traces


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
