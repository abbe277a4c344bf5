"""Rate envelopes, empirical rate fits, and per-step inequality checks.

The envelopes' closed forms live in schedules, beside the iteration counts
and the THEOREMS table; bound_envelope checks their values.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import repeat

import numpy as np

from .optimizers import RunTrace
from .schedules import envelope_values

SLACK_TOL = -1e-10


@dataclass(frozen=True)
class BoundEnvelope:
    """values[k] bounds the tracked quantity after k iterations: the gap
    E[f(z^k) - f_star], or under a grad_norm guarantee (schedules.THEOREMS)
    the running mean of the distribution-norm gradient."""

    theorem_id: str
    values: np.ndarray
    params: dict


def bound_envelope(theorem_id: str, params: dict, n_iters: int) -> BoundEnvelope:
    """Theoretical envelope values at k = 0 .. n_iters.

    Raises KeyError-style ValueErrors on missing parameters and refuses
    non-contractive parameter combinations.
    """
    if n_iters < 1:
        raise ValueError("n_iters must be >= 1")
    try:
        values = envelope_values(theorem_id, params, n_iters)
    except KeyError as exc:
        raise ValueError(f"bound_envelope({theorem_id!r}) missing parameter {exc}") from None
    if np.any(~np.isfinite(values)) or np.any(values < 0.0):
        raise ValueError("envelope must be finite and nonnegative")
    return BoundEnvelope(theorem_id, values, dict(params))


@dataclass(frozen=True)
class RateFit:
    """Least-squares fit of log(gap) against k.

    kind is always "linear": geometric decay, rate = per-iteration
    contraction.  hit_zero marks traces that reached gap 0 exactly, where
    the fit is replaced by contraction 0.
    """

    kind: str
    rate: float
    r_squared: float
    n_points: int
    hit_zero: bool = False


def fit_linear_rate(trace: RunTrace, f_star: float, burn_in: int | None = None) -> RateFit:
    """Fit gap_k ~ C rho^k after a burn-in (default: first 10%).

    Needs at least 10 post-burn-in points.  A zero gap anywhere after the
    burn-in yields contraction 0 with hit_zero set.
    """
    gaps = np.concatenate(([trace.f0], np.asarray(trace.f_z))) - f_star
    if burn_in is None:
        burn_in = len(gaps) // 10
    tail = gaps[burn_in:]
    if len(tail) < 10:
        raise ValueError(f"need >= 10 points after burn-in, have {len(tail)}")
    if np.any(tail < 0.0):
        raise ValueError("gap became negative; f_star is not a lower bound")
    if np.any(tail == 0.0):
        return RateFit("linear", 0.0, 1.0, len(tail), hit_zero=True)
    ks = np.arange(burn_in, len(gaps), dtype=float)
    logs = np.log(tail)
    slope, intercept = np.polyfit(ks, logs, 1)
    pred = slope * ks + intercept
    ss_res = float(np.sum((logs - pred) ** 2))
    ss_tot = float(np.sum((logs - np.mean(logs)) ** 2))
    # ss_tot == 0 means a flat series: rho = 1 describes it exactly and any
    # residual is polyfit round-off, so report a perfect fit.
    r2 = 1.0 if ss_tot == 0.0 else 1.0 - ss_res / ss_tot
    return RateFit("linear", float(np.exp(slope)), float(r2), len(tail))


@dataclass(frozen=True)
class InequalityReport:
    """Per-step descent-bound violations, split by domain validity.

    violations: steps whose slack fell below the tolerance while all points
    involved stayed inside the objective's documented smoothness box.
    out_of_domain: violating steps that left the box (the local L does not
    apply there, so these are informational, not failures).
    """

    violations: list[tuple[int, float]]
    out_of_domain: list[tuple[int, float]]
    n_checked: int

    @property
    def ok(self) -> bool:
        return not self.violations


def verify_trace_inequalities(trace: RunTrace, objective, slack_tol: float = SLACK_TOL) -> InequalityReport:
    """Check the per-step descent bound on a retained trace.

    For each step k: f(z^{k+1}) <= f(z^k) - (gamma/(1-beta)) |<grad f(z^k), s^k>|
    + L gamma^2 ||s^k||^2 / (2 (1-beta)^2), with L_i in place of L for
    importance-sampled coordinate steps.  slack = rhs - f(z^{k+1}); entries
    below slack_tol are reported.
    """
    if trace.z_before is None or trace.drawn is None:
        raise ValueError("trace was not recorded with retain_internals=True")
    if not objective.has_gradient:
        raise ValueError("objective needs a gradient oracle for inequality checks")
    info = objective.smoothness
    if trace.index is not None and info.coord_L is None:
        raise ValueError("importance-sampled trace needs coord_L metadata")
    if trace.index is None and info.L is None:
        raise ValueError("objective has no smoothness constant L")
    Ls = repeat(info.L) if trace.index is None else info.coord_L[np.asarray(trace.index)]
    beta = trace.beta
    one_m = 1.0 - beta
    box = info.box_halfwidth
    violations: list[tuple[int, float]] = []
    out_of_domain: list[tuple[int, float]] = []
    f_before = trace.f0
    for k, (f_after, gamma, L, z, s) in enumerate(
            zip(trace.f_z, trace.gamma, Ls, trace.z_before, trace.s)):
        g = objective.gradient(z)
        h = gamma / one_m
        inner = abs(float(np.dot(g, s)))
        s_sq = float(np.dot(s, s))
        rhs = f_before - h * inner + L * gamma * gamma * s_sq / (2.0 * one_m * one_m)
        slack = rhs - f_after
        if slack < slack_tol:
            if box is not None and (
                float(np.max(np.abs(z))) > box
                or float(np.max(np.abs(z - h * s))) > box
                or float(np.max(np.abs(z + h * s))) > box
            ):
                out_of_domain.append((k, slack))
            else:
                violations.append((k, slack))
        f_before = f_after
    return InequalityReport(violations, out_of_domain, len(trace.f_z))
