"""Stepsize rules, and the paper's guarantees: THEOREMS, their iteration
counts and their rate envelopes' closed forms (diagnostics.bound_envelope
checks and returns the latter).

Every rule is a frozen dataclass with a pure stepsize(ctx) method: same
context in, same stepsize out.  Rules whose stepsize depends on a probe
evaluation f(z + t s) set needs_probe and expose t; the optimizer supplies
the probe value through the context.  Rules that read nothing from the
context set context_free, and the run loops evaluate them once per run.
An importance-sampling rule is a plain rule over a w divisor (PerCoordinate);
over a context-free rule its value depends on the drawn coordinate alone, and
the run loops tabulate it once per run.
"""

from __future__ import annotations

import math
import warnings
from dataclasses import dataclass
from typing import Callable, NamedTuple

import numpy as np

from .directions import UNIT_KINDS, DistributionConstants, L1, L2, WEIGHTED_L1

_UNIT_TOL = 1e-9


class StepContext(NamedTuple):
    """Per-iteration facts a stepsize rule may consume."""

    k: int
    f_z: float
    probe_value: float | None = None
    direction_index: int | None = None
    direction: np.ndarray | None = None
    unit_checked: bool = False  # the law gives unit directions (require_unit_law)


def _check_beta(beta: float) -> None:
    if not (0.0 <= beta < 1.0):
        raise ValueError("beta must lie in [0,1)")


def _theta_k_value(theta_k, k: int) -> float:
    t = theta_k(k) if callable(theta_k) else float(theta_k)
    if not (0.0 < t < 2.0):
        raise ValueError(f"theta_k must lie in (0,2), got {t!r} at k={k}")
    return t


def _require_probe(ctx: StepContext) -> float:
    if ctx.probe_value is None:
        raise ValueError("solution-free rule needs a probe value in the context")
    return ctx.probe_value


def _require_index(ctx: StepContext) -> int:
    if ctx.direction_index is None:
        raise ValueError("importance-sampling rule needs direction_index in the context")
    return ctx.direction_index


def _require_unit(ctx: StepContext) -> None:
    if ctx.unit_checked or (ctx.direction is None and ctx.direction_index is not None):
        return  # a unit law, checked once per run, or s = e_i
    if ctx.direction is None:
        raise ValueError("solution-free rule needs the direction in the context")
    n = float(np.dot(ctx.direction, ctx.direction))
    if abs(n - 1.0) > _UNIT_TOL:
        raise ValueError(f"solution-free rule requires ||s||_2 = 1, got ||s||^2 = {n!r}")


@dataclass(frozen=True)
class Constant:
    """gamma^k = gamma."""

    gamma: float
    needs_probe = False
    context_free = True

    def __post_init__(self):
        if self.gamma <= 0.0:
            raise ValueError("gamma must be > 0")

    def stepsize(self, ctx: StepContext) -> float:
        return self.gamma


@dataclass(frozen=True)
class FixedHorizon:
    """gamma^k = gamma0 / sqrt(horizon), constant over a run of known length."""

    gamma0: float
    horizon: int
    needs_probe = False
    context_free = True

    def __post_init__(self):
        if self.gamma0 <= 0.0:
            raise ValueError("gamma0 must be > 0")
        if self.horizon < 1:
            raise ValueError("horizon must be >= 1")

    def stepsize(self, ctx: StepContext) -> float:
        return self.gamma0 / math.sqrt(self.horizon)


@dataclass(frozen=True)
class Decreasing:
    """gamma^k = 2 / (alpha k + theta) with theta >= 2/alpha."""

    alpha: float
    theta: float
    needs_probe = False

    def __post_init__(self):
        if self.alpha <= 0.0:
            raise ValueError("alpha must be > 0")
        if self.theta < 2.0 / self.alpha:
            raise ValueError("theta must be >= 2/alpha")

    def stepsize(self, ctx: StepContext) -> float:
        return 2.0 / (self.alpha * ctx.k + self.theta)


@dataclass(frozen=True)
class SolutionDependent:
    """gamma^k = (1-beta) theta_k mu_d sqrt(2 mu (f_z - f_star)) / L."""

    mu: float
    L: float
    mu_d: float
    f_star: float
    beta: float
    theta_k: float | Callable[[int], float] = 1.0
    needs_probe = False

    def __post_init__(self):
        if self.mu <= 0.0 or self.L <= 0.0 or self.mu_d <= 0.0:
            raise ValueError("mu, L, mu_d must be > 0")
        _check_beta(self.beta)
        if not callable(self.theta_k):
            _theta_k_value(self.theta_k, 0)

    def stepsize(self, ctx: StepContext) -> float:
        gap = ctx.f_z - self.f_star
        if gap < 0.0:
            raise ValueError(f"f_z = {ctx.f_z!r} is below the declared f_star = {self.f_star!r}")
        th = _theta_k_value(self.theta_k, ctx.k)
        return (1.0 - self.beta) * th * self.mu_d * math.sqrt(2.0 * self.mu * gap) / self.L


@dataclass(frozen=True)
class SolutionFree:
    """gamma^k = (1-beta) |f(z + t s) - f(z)| / (L t); requires ||s||_2 = 1.

    The direction in the context is checked for unit length, unless the
    context says its law was checked once per run (require_unit_law).
    """

    L: float
    t: float
    beta: float
    needs_probe = True
    needs_unit = True

    def __post_init__(self):
        if self.L <= 0.0:
            raise ValueError("L must be > 0")
        if self.t <= 0.0:
            raise ValueError("t must be > 0")
        _check_beta(self.beta)

    def stepsize(self, ctx: StepContext) -> float:
        probe = _require_probe(ctx)
        _require_unit(ctx)
        return (1.0 - self.beta) * abs(probe - ctx.f_z) / (self.L * self.t)


def _positive(v, name: str) -> np.ndarray:
    v = np.asarray(v, dtype=float)
    if np.any(v <= 0.0):
        raise ValueError(f"{name} must be strictly positive")
    return v


def _check_pw(p, w, coord_L=None):
    p = np.asarray(p, dtype=float)
    w = np.asarray(w, dtype=float)
    if p.shape != w.shape or p.ndim != 1:
        raise ValueError("p and w must be vectors of equal length")
    if np.any(p <= 0.0) or np.any(w <= 0.0):
        raise ValueError("p and w must be strictly positive")
    if abs(float(np.sum(p)) - 1.0) > 1e-12:
        raise ValueError("p must sum to 1")
    if coord_L is not None:
        if np.shape(coord_L) != p.shape:
            raise ValueError("coord_L must match p in length")
        coord_L = _positive(coord_L, "coord_L")
    return p, w, coord_L


def is_sum_weighted_L(p, w, coord_L) -> float:
    """S_w = sum_i L_i p_i / w_i^2, the IS analogue of L gamma_d."""
    p, w, coord_L = _check_pw(p, w, coord_L)
    return float(np.sum(coord_L * p / (w * w)))


def is_min_ratio(p, w) -> float:
    """m = min_i p_i / w_i, the IS analogue of mu_d."""
    p, w, _ = _check_pw(p, w)
    return float(np.min(p / w))


@dataclass(frozen=True)
class PerCoordinate:
    """gamma_i^k = gamma^k / w_i: a plain rule's step over the drawn coordinate's w_i.

    Over a context-free rule (Constant, FixedHorizon) the value depends on i
    alone, so index_only is set and the run loops tabulate it.
    """

    rule: Constant | FixedHorizon | Decreasing
    w: np.ndarray
    needs_probe = False

    def __post_init__(self):
        if self.rule.needs_probe:
            raise ValueError("a probing rule scales by L_i, not w_i: use ISSolutionFree")
        object.__setattr__(self, "w", _positive(self.w, "w"))

    @property
    def index_only(self) -> bool:
        return getattr(self.rule, "context_free", False)

    def stepsize(self, ctx: StepContext) -> float:
        return self.rule.stepsize(ctx) / self.w[_require_index(ctx)]


@dataclass(frozen=True)
class ISSolutionDependent:
    """gamma_i^k = (1-beta) theta_k (m / (w_i S_w)) sqrt(2 mu (f_z - f_star)).

    Not SolutionDependent(L = S_w, mu_d = m) over w: that divides by S_w and
    w_i in another order, which moves about a third of the steps by an ulp.
    """

    mu: float
    p: np.ndarray
    w: np.ndarray
    coord_L: np.ndarray
    f_star: float
    beta: float
    theta_k: float | Callable[[int], float] = 1.0
    needs_probe = False

    def __post_init__(self):
        if self.mu <= 0.0:
            raise ValueError("mu must be > 0")
        _check_beta(self.beta)
        p, w, coord_L = _check_pw(self.p, self.w, self.coord_L)
        object.__setattr__(self, "p", p)
        object.__setattr__(self, "w", w)
        object.__setattr__(self, "coord_L", coord_L)
        object.__setattr__(self, "_m", is_min_ratio(p, w))
        object.__setattr__(self, "_s_w", is_sum_weighted_L(p, w, coord_L))
        if not callable(self.theta_k):
            _theta_k_value(self.theta_k, 0)

    def stepsize(self, ctx: StepContext) -> float:
        i = _require_index(ctx)
        gap = ctx.f_z - self.f_star
        if gap < 0.0:
            raise ValueError(f"f_z = {ctx.f_z!r} is below the declared f_star = {self.f_star!r}")
        th = _theta_k_value(self.theta_k, ctx.k)
        return (1.0 - self.beta) * th * self._m / (self.w[i] * self._s_w) * math.sqrt(2.0 * self.mu * gap)


@dataclass(frozen=True)
class ISSolutionFree:
    """gamma_i^k = (1-beta) |f(z + t e_i) - f(z)| / (L_i t)."""

    coord_L: np.ndarray
    t: float
    beta: float
    needs_probe = True

    def __post_init__(self):
        if self.t <= 0.0:
            raise ValueError("t must be > 0")
        object.__setattr__(self, "coord_L", _positive(self.coord_L, "coord_L"))
        _check_beta(self.beta)

    def stepsize(self, ctx: StepContext) -> float:
        probe = _require_probe(ctx)
        i = _require_index(ctx)
        return (1.0 - self.beta) * abs(probe - ctx.f_z) / (self.coord_L[i] * self.t)


SCHEDULE_KINDS = (
    "constant",
    "fixed_horizon",
    "decreasing",
    "solution_dependent",
    "solution_free",
)


def stepsize(schedule, ctx: StepContext) -> float:
    """Evaluate a rule: nonnegative, no state, no side effects."""
    gamma = schedule.stepsize(ctx)
    if gamma < 0.0 or not math.isfinite(gamma):
        raise ValueError(f"schedule produced an invalid stepsize {gamma!r}")
    return gamma


def require_unit_law(schedule, kind: str) -> None:
    """A rule that needs ||s||_2 = 1 accepts a direction law once per run,
    if every draw of it has unit length."""
    if getattr(schedule, "needs_unit", False) and kind not in UNIT_KINDS:
        raise ValueError(f"solution-free rule requires ||s||_2 = 1; {kind} directions "
                         "do not have unit length")


def row_stepsizes(rules: list):
    """SolutionDependent's stepsize of many rows at once, row r under rules[r],
    each with a constant theta_k (ValueError for a callable one).

    Returns step(f_z): the rows' gammas from their f(z), checked as stepsize()
    checks them, on floats in the scalar form's order, so each row gets bit
    for bit what stepsize() gives its rule at any iteration.
    """
    if any(callable(r.theta_k) for r in rules):
        raise ValueError("row_stepsizes needs a constant theta_k")
    f_star, mu, L, beta, theta_k, mu_d = ([float(getattr(r, name)) for r in rules] for name in
                                          ("f_star", "mu", "L", "beta", "theta_k", "mu_d"))
    # ((1-beta) theta_k) mu_d: the scalar form's head
    head = [(1.0 - b) * t * m for b, t, m in zip(beta, theta_k, mu_d)]

    def step(f_z):
        gaps = [f - s for f, s in zip(f_z, f_star)]
        if min(gaps) < 0.0:
            r = gaps.index(min(gaps))
            raise ValueError(f"f_z = {float(f_z[r])!r} is below the declared f_star = "
                             f"{f_star[r]!r}")
        gammas = [h * math.sqrt(2.0 * m * g) / l for h, m, g, l in zip(head, mu, gaps, L)]
        if not math.isfinite(sum(gammas)):  # finite whenever every value is, bar an overflow
            for g in gammas:
                if not math.isfinite(g):
                    raise ValueError(f"schedule produced an invalid stepsize {g!r}")
        return gammas

    return step


def optimal_gamma0(beta: float, f0_gap: float, L: float, gamma_d: float) -> float:
    """sqrt(2 (1-beta)^2 f0_gap / (L gamma_d)), the horizon-tuned base step.

    For importance sampling pass L = S_w and gamma_d = 1.
    """
    _check_beta(beta)
    if L <= 0.0 or gamma_d <= 0.0:
        raise ValueError("L and gamma_d must be > 0")
    if f0_gap < 0.0:
        raise ValueError("f0_gap must be >= 0")
    return math.sqrt(2.0 * (1.0 - beta) ** 2 * f0_gap / (L * gamma_d))


def solution_free_t_max(epsilon: float, mu_d: float, mu: float, L: float) -> float:
    """Largest probe offset t with noise floor <= epsilon: sqrt(4 eps mu_d^2 mu / L^2)."""
    if epsilon <= 0.0 or mu_d <= 0.0 or mu <= 0.0 or L <= 0.0:
        raise ValueError("epsilon, mu_d, mu, L must be > 0")
    if mu_d * mu_d > L / mu:
        warnings.warn(
            f"mu_d^2 = {mu_d * mu_d:.6g} exceeds L/mu = {L / mu:.6g}; "
            "the solution-free rate guarantee does not apply",
            stacklevel=2,
        )
    return math.sqrt(4.0 * epsilon * mu_d * mu_d * mu) / L


def solution_free_t_max_is(epsilon: float, mu: float, p, coord_L) -> float:
    """IS probe offset bound: sqrt(4 eps mu min_i(p_i/L_i) / sum_i p_i L_i)."""
    if epsilon <= 0.0 or mu <= 0.0:
        raise ValueError("epsilon and mu must be > 0")
    p, coord_L, _ = _check_pw(p, coord_L)
    return math.sqrt(4.0 * epsilon * mu * is_min_ratio(p, coord_L) / float(np.sum(p * coord_L)))


def quadratic_level_radius(coord_L, f0_gap: float, c: DistributionConstants) -> float:
    """R0 = max dual-norm distance to x_star over the f(x0) level set of the
    separable quadratic 1/2 sum L_i (x_i - shift_i)^2."""
    coord_L = _positive(coord_L, "coord_L")
    if f0_gap < 0.0:
        raise ValueError("f0_gap must be >= 0")
    if c.norm_tag in (L2, L1):
        return math.sqrt(2.0 * f0_gap / float(np.min(coord_L)))
    if c.norm_tag == WEIGHTED_L1:
        if c.basis is not None and not np.allclose(c.basis, np.eye(coord_L.size)):
            raise ValueError("level radius for a rotated basis is not supported")
        return float(np.max(np.sqrt(2.0 * f0_gap / coord_L) / c.weights))
    raise ValueError(f"unknown norm tag {c.norm_tag!r}")


class Theorem(NamedTuple):
    """One of the paper's guarantees, as the harness checks it."""

    plain: str | None = None  # the smtp guarantee an IS one restates (is_substitution)
    grad_norm: bool = False  # bounds the running mean of grad_norm, not the gap
    reads: tuple[str, ...] = ()  # the constants the harness adds to the run's own


THEOREMS = {
    "NC": Theorem(grad_norm=True),
    "CVX-CONST": Theorem(reads=("r0", "gamma")),
    "CVX-DEC": Theorem(reads=("r0", "alpha", "theta")),
    "SC-DEP": Theorem(reads=("theta_k",)),
    "SC-FREE": Theorem(reads=("t",)),
    "IS-NC": Theorem("NC", grad_norm=True),
    "IS-CVX-CONST": Theorem("CVX-CONST", reads=("r0", "gamma")),
    "IS-CVX-DEC": Theorem("CVX-DEC", reads=("r0", "alpha", "theta")),
    "IS-SC-DEP": Theorem("SC-DEP", reads=("theta_k",)),
    "IS-SC-FREE": Theorem(reads=("t",)),
}
THEOREM_IDS = tuple(THEOREMS)


def is_substitution(theorem_id: str, params: dict) -> tuple[str, dict]:
    """Map an importance-sampling guarantee onto the plain one it restates.

    The THEOREMS rows with a plain id are that smtp guarantee with L gamma_d
    replaced by S_w and mu_d by m: the plain id is returned with params
    carrying L = S_w, gamma_d = 1, mu_d = m (and no kappa, which would
    override L).  Other ids, IS-SC-FREE among them, pass through.  An unknown
    id raises ValueError, a missing p, w or coord_L KeyError.
    """
    if theorem_id not in THEOREMS:
        raise ValueError(f"unknown theorem id {theorem_id!r}")
    plain = THEOREMS[theorem_id].plain
    if plain is None:
        return theorem_id, params
    p, w = params["p"], params["w"]
    mapped = {k: v for k, v in params.items() if k != "kappa"}
    mapped.update(L=is_sum_weighted_L(p, w, params["coord_L"]), gamma_d=1.0,
                  mu_d=is_min_ratio(p, w))
    return plain, mapped


def _kappa(p: dict) -> float:
    return float(p["kappa"]) if "kappa" in p else float(p["L"]) / float(p["mu"])


def _pos_log(x: float) -> float:
    return max(0.0, math.log(x))


def required_iterations(theorem_id: str, params: dict) -> int:
    """Iterations sufficient for accuracy epsilon under the named guarantee.

    Returns ceil of the closed-form count, clamped at 0 when the target is
    already met.  Raises on unknown ids, missing parameters, or epsilon
    outside the admissible range of the constant-stepsize rules.
    """
    try:
        return max(0, math.ceil(_iterations(*is_substitution(theorem_id, params))))
    except KeyError as exc:
        raise ValueError(f"required_iterations({theorem_id!r}) missing parameter {exc}") from None


def _iterations(kind: str, params: dict) -> float:
    get = params.__getitem__
    eps, gap = float(get("epsilon")), float(get("gap"))
    if eps <= 0.0:
        raise ValueError("epsilon must be > 0")
    if gap < 0.0:
        raise ValueError("gap must be >= 0")
    if kind == "NC":
        L, gamma_d, mu_d = map(get, ("L", "gamma_d", "mu_d"))
        return 2.0 * gap * L * gamma_d / (mu_d**2 * eps**2)
    if kind == "CVX-CONST":
        L, gamma_d, mu_d, r0 = map(get, ("L", "gamma_d", "mu_d", "r0"))
        cap = L * gamma_d * r0**2 / mu_d**2
        if eps > cap:
            raise ValueError(f"epsilon = {eps!r} above admissible bound {cap!r}")
        return cap / eps * _pos_log(2.0 * gap / eps)
    if kind == "CVX-DEC":
        L, gamma_d, mu_d, r0, beta = map(get, ("L", "gamma_d", "mu_d", "r0", "beta"))
        lead = 2.0 * r0**2 / mu_d**2
        return lead / eps * max((1.0 - beta) ** 2 * gap, L * gamma_d) - lead * (1.0 - beta) ** 2
    if kind == "SC-DEP":
        mu_d, theta = get("mu_d"), get("theta")
        return _kappa(params) / (theta * mu_d**2) * _pos_log(gap / eps)
    if kind == "SC-FREE":
        mu_d = get("mu_d")
        return _kappa(params) / mu_d**2 * _pos_log(2.0 * gap / eps)
    # IS-SC-FREE, which is_substitution passes through
    p, coord_L, mu = map(get, ("p", "coord_L", "mu"))
    return 1.0 / (float(mu) * is_min_ratio(p, coord_L)) * _pos_log(2.0 * gap / eps)


def envelope_values(theorem_id: str, params: dict, n_iters: int) -> np.ndarray:
    """The named guarantee's bound at k = 0 .. n_iters, which
    diagnostics.bound_envelope checks.  Raises ValueError on unknown ids and
    non-contractive constants, KeyError on missing ones."""
    kind, params = is_substitution(theorem_id, params)
    get = params.__getitem__
    ks = np.arange(n_iters + 1, dtype=float)
    gap = get("gap")
    if kind == "NC":  # k = 0 repeats k = 1: the rate diverges at zero iterations
        scale = math.sqrt(2.0 * gap * get("L") * get("gamma_d")) / get("mu_d")
        return scale / np.sqrt(np.maximum(ks, 1.0))
    if kind == "CVX-CONST":
        beta, r0, mu_d, L, gamma_d, gamma = map(
            get, ("beta", "r0", "mu_d", "L", "gamma_d", "gamma"))
        rate = 1.0 - gamma * mu_d / ((1.0 - beta) * r0)
        if not (0.0 <= rate < 1.0):
            raise ValueError(f"stepsize gamma = {gamma!r} outside the contractive range")
        return rate**ks * gap + L * gamma * gamma_d * r0 / (2.0 * (1.0 - beta) * mu_d)
    if kind == "CVX-DEC":
        beta, alpha, theta = map(get, ("beta", "alpha", "theta"))
        cap = max(gap, 2.0 * get("L") * get("gamma_d") / (alpha * theta * (1.0 - beta) ** 2))
        return cap / (alpha / theta * ks + 1.0)
    if kind == "SC-DEP":
        mu_d, mu, L = map(get, ("mu_d", "mu", "L"))
        theta = params.get("theta")
        if theta is None:
            theta_k = get("theta_k")
            theta = 2.0 * theta_k - get("gamma_d") * theta_k**2
        return _contraction(1.0 - theta * mu_d**2 * mu / L, gap, ks)
    if kind == "SC-FREE":
        mu_d, mu, L, t = map(get, ("mu_d", "mu", "L", "t"))
        return _contraction(1.0 - mu_d**2 * mu / L, gap, ks) + L**2 * t**2 / (8.0 * mu_d**2 * mu)
    # IS-SC-FREE, which is_substitution passes through
    mu, t = get("mu"), get("t")
    p, coord_L = (np.asarray(get(key), dtype=float) for key in ("p", "coord_L"))
    ratio = is_min_ratio(p, coord_L)
    return (_contraction(1.0 - mu * ratio, gap, ks)
            + t**2 / (8.0 * mu * ratio) * float(np.sum(p * coord_L)))


def _contraction(rate: float, gap, ks: np.ndarray) -> np.ndarray:
    """rate^k gap, for a contraction factor rate in [0,1)."""
    if not (0.0 <= rate < 1.0):
        raise ValueError(f"contraction factor {rate!r} outside [0,1)")
    return rate**ks * gap
