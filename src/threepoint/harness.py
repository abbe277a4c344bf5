"""Config-driven experiment runner.

Configs are flat key=value text with '#' comments.  Every run of a config
with the same seed list reproduces byte-identical trace CSVs: floats are
serialized with 17 significant digits and each seed's generator derives
solely from its own seed value (directions from SeedSequence(seed), noise
from SeedSequence([seed, 1])), so extending the seed list never perturbs
existing runs.
"""

from __future__ import annotations

import hashlib
import math
import os
import time
from dataclasses import dataclass, field, fields
from itertools import islice, repeat

import numpy as np

from . import diagnostics, directions, objectives, optimizers, schedules

ENV_OUT = "THREEPOINT_OUT"
DEFAULT_OUT = "runs"
CSV_HEADER = "k,f_z,gamma,branch,evals,grad_norm_D"
CSV_CHUNK = 4096  # trace rows formatted per write

METHODS = ("stp", "smtp", "smtp_is")


class ConfigError(ValueError):
    pass


@dataclass
class ExperimentConfig:
    label: str = "run"
    method: str = "smtp"
    beta: float = 0.5
    seeds: tuple[int, ...] = (0, 1, 2, 3, 4)
    max_iters: int = 1000
    epsilon: float | None = None
    eval_budget: int | None = None
    track_grad_norm: bool = False
    retain_internals: bool = False
    x0: str = "ones"
    x0_scale: float = 1.0
    objective: str = ""
    dimension: int | None = None
    coord_L: str | None = None
    shift: str | None = None
    horizon: int | None = None
    d_state: int | None = None
    d_ctrl: int | None = None
    noise_sigma: float | None = None
    noise_obs: int = 1
    distribution: str | None = None
    weights: str | None = None
    basis: str = "identity"
    is_p: str = "uniform"
    is_w: str = "coord_L"
    schedule_kind: str = ""
    schedule_gamma: float | None = None
    schedule_gamma0: str | None = None
    schedule_alpha: str | None = None
    schedule_theta: str | None = None
    schedule_t: str | None = None
    schedule_theta_k: float = 1.0
    schedule_horizon: int | None = None
    r0: str | None = None
    theorem: str | None = None
    checkpoints: tuple[int, ...] | None = None
    out: str | None = None
    jobs: int = 1
    # parse_config's key -> line map, for errors found once a run is built;
    # a plain attribute, so neither fields() nor fingerprint() reads it
    _lines = {}

    def fingerprint(self) -> str:
        parts = []
        for f in sorted(fields(self), key=lambda f: f.name):
            if f.name in ("out", "jobs", "label"):
                continue  # execution details, not run identity
            parts.append(f"{f.name}={getattr(self, f.name)!r}")
        digest = hashlib.sha256("\n".join(parts).encode()).hexdigest()
        return digest[:12]


def _key(field_name: str) -> str:
    """A field's config key: the noise_, is_ and schedule_ groups are dotted."""
    if field_name == "noise_obs":
        return "noise.k"
    group, _, rest = field_name.partition("_")
    return f"{group}.{rest}" if group in ("noise", "is", "schedule") else field_name


def _parse_bool(raw: str) -> bool:
    if raw.lower() in ("true", "1", "yes"):
        return True
    if raw.lower() in ("false", "0", "no"):
        return False
    raise ValueError(f"expected a boolean, got {raw!r}")


def _parse_ints(raw: str) -> tuple[int, ...]:
    return tuple(int(p) for p in raw.split(","))


# annotations are strings (postponed evaluation), so convert by their text;
# a field of any other type fails here, at import
_CONVERTERS = {"str": str, "int": int, "float": float, "bool": _parse_bool,
               "tuple[int, ...]": _parse_ints}
_KEY_TO_FIELD = {_key(f.name): f.name for f in fields(ExperimentConfig)}
_FIELD_CONVERTER = {f.name: _CONVERTERS[f.type.removesuffix(" | None")]
                    for f in fields(ExperimentConfig)}


def _parse_scalar(field_name: str, raw: str, lineno: int):
    try:
        if field_name == "seeds" and "," not in raw:
            return tuple(range(int(raw)))  # a seed count
        return _FIELD_CONVERTER[field_name](raw)
    except ValueError as exc:
        raise ConfigError(f"line {lineno}: bad value for {field_name}: {exc}") from None


def parse_config(text: str, label: str | None = None) -> ExperimentConfig:
    """Parse a flat key=value config, then prepare it; errors cite lines."""
    cfg = ExperimentConfig()
    seen_lines: dict[str, int] = {}
    for lineno, rawline in enumerate(text.splitlines(), start=1):
        line = rawline.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ConfigError(f"line {lineno}: expected key=value, got {rawline!r}")
        key, _, raw = line.partition("=")
        key = key.strip()
        raw = raw.strip()
        if key not in _KEY_TO_FIELD:
            raise ConfigError(f"line {lineno}: unknown key {key!r}")
        if not raw:
            raise ConfigError(f"line {lineno}: empty value for {key!r}")
        field_name = _KEY_TO_FIELD[key]
        if field_name in seen_lines:
            raise ConfigError(
                f"line {lineno}: duplicate key {key!r}, first set on line {seen_lines[field_name]}")
        setattr(cfg, field_name, _parse_scalar(field_name, raw, lineno))
        seen_lines[field_name] = lineno
    cfg._lines = seen_lines
    if label is not None and "label" not in seen_lines:
        cfg.label = label
    prepare(cfg)
    return cfg


def load_config(path: str) -> ExperimentConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    stem = os.path.splitext(os.path.basename(path))[0]
    return parse_config(text, label=stem)


def _line_of(seen: dict, name: str) -> str:
    return f"line {seen[name]}: " if name in seen else ""


def _validate(cfg: ExperimentConfig) -> None:
    """The structural checks, and those of a key's value alone; prepare's
    builds check the rest."""

    def fail(name: str, message: str):
        raise ConfigError(f"{_line_of(cfg._lines, name)}{message}")

    if cfg.method not in METHODS:
        fail("method", f"unknown method {cfg.method!r}")
    if not (0.0 <= cfg.beta < 1.0):
        fail("beta", "beta must lie in [0,1)")
    if cfg.method == "stp" and cfg.beta != 0.0 and "beta" in cfg._lines:
        fail("beta", "method stp has no momentum and reads no beta: set beta = 0 or drop it")
    if cfg.objective not in ("quadratic", "rosenbrock", "lqr"):
        fail("objective", f"unknown objective {cfg.objective!r}")
    if cfg.objective in ("quadratic", "rosenbrock") and cfg.dimension is None:
        fail("objective", f"objective {cfg.objective!r} needs dimension")
    if cfg.objective == "lqr":
        for key in ("horizon", "d_state", "d_ctrl"):
            if getattr(cfg, key) is None:
                fail("objective", f"objective lqr needs {key}")
        if cfg.horizon < 1:
            fail("horizon", "horizon must be >= 1")
        if not 1 <= cfg.d_ctrl <= cfg.d_state:
            fail("d_ctrl", "need 1 <= d_ctrl <= d_state")
        if cfg.track_grad_norm:
            fail("track_grad_norm", "objective lqr has no gradient oracle for track_grad_norm")
    if cfg.dimension is not None and cfg.dimension < 1:
        fail("dimension", "dimension must be >= 1")
    if cfg.objective == "rosenbrock" and cfg.dimension < 2:
        fail("dimension", "rosenbrock needs d >= 2")
    if cfg.method != "smtp_is":
        if cfg.distribution is None:
            fail("method", f"method {cfg.method!r} needs a distribution")
        if cfg.distribution not in directions.KINDS:
            fail("distribution", f"unknown distribution {cfg.distribution!r}")
        if cfg.schedule_kind == "solution_free" and cfg.distribution == "gaussian":
            fail("schedule_kind", "solution_free needs unit-norm directions; "
                 "the gaussian distribution does not provide them")
    elif cfg.schedule_kind == "solution_free" and "is_w" in cfg._lines:
        fail("is_w", "schedule.kind = solution_free takes no is.w: its steps scale by coord_L")
    if cfg.max_iters < 0:
        fail("max_iters", "max_iters must be >= 0")
    if cfg.schedule_kind == "fixed_horizon":
        if cfg.schedule_horizon is None and cfg.max_iters < 1:
            fail("max_iters", "schedule.kind = fixed_horizon takes its horizon from max_iters, "
                 "which is 0 here: set schedule.horizon >= 1")
        if cfg.schedule_horizon is not None and cfg.schedule_horizon < 1:
            fail("schedule_horizon", "schedule.horizon must be >= 1")
    if len(cfg.seeds) < 1:
        fail("seeds", "need at least one seed")
    if len(set(cfg.seeds)) != len(cfg.seeds):
        fail("seeds", "seeds must not repeat")
    if min(cfg.seeds) < 0:
        fail("seeds", "seeds must be >= 0")
    if cfg.noise_sigma is not None and cfg.noise_sigma < 0:
        fail("noise_sigma", "noise.sigma must be >= 0")
    if cfg.noise_obs < 1:
        fail("noise_obs", "noise.k must be >= 1")
    if cfg.theorem is not None:
        if cfg.theorem not in schedules.THEOREM_IDS:
            fail("theorem", f"unknown theorem {cfg.theorem!r}")
        if cfg.theorem.startswith("IS-") != (cfg.method == "smtp_is"):
            fail("theorem", f"theorem {cfg.theorem!r} does not apply to method {cfg.method!r}; "
                 "the IS- theorems are smtp_is's, the others stp's and smtp's")
        if cfg.max_iters < 1:
            fail("max_iters", "an envelope check needs max_iters >= 1")
        if schedules.THEOREMS[cfg.theorem].grad_norm and not cfg.track_grad_norm:
            fail("theorem", f"theorem {cfg.theorem!r} bounds the gradient norm: "
                 "it needs track_grad_norm = true")
    # the string-typed fields that hold a number or one keyword
    for name, keyword in (("r0", "auto"), ("schedule_gamma0", "optimal"),
                          ("schedule_alpha", "auto"), ("schedule_theta", "auto"),
                          ("schedule_t", "auto")):
        raw = getattr(cfg, name)
        if raw is not None and raw != keyword:
            try:
                float(raw)
            except ValueError:
                fail(name, f"{_key(name)} must be a number or {keyword!r}, got {raw!r}")
    reads_r0 = cfg.theorem is not None and "r0" in schedules.THEOREMS[cfg.theorem].reads
    if reads_r0 or (cfg.schedule_kind == "decreasing" and cfg.schedule_alpha == "auto"):
        if cfg.r0 is None:  # a CVX theorem or schedule.alpha = auto reads r0
            cause = "theorem" if reads_r0 else "schedule_alpha"
            fail(cause, f"{_key(cause)} = {getattr(cfg, cause)} needs r0 "
                 "(set r0 = <float> or r0 = auto)")
        if cfg.r0 == "auto" and cfg.objective != "quadratic":
            fail("r0", "r0 = auto is only available for the quadratic objective")
    if cfg.checkpoints and not all(1 <= k <= cfg.max_iters for k in cfg.checkpoints):
        fail("checkpoints", "checkpoints must lie in [1, max_iters]")
    if cfg.jobs < 1:
        fail("jobs", "jobs must be >= 1")


# the key each schedule.kind cannot do without
_SCHEDULE_KEY_NEEDED = {"constant": "schedule_gamma", "fixed_horizon": "schedule_gamma0",
                        "decreasing": "schedule_alpha", "solution_free": "schedule_t"}


def _parse_vector(cfg: ExperimentConfig, name: str, dimension: int, law=False) -> np.ndarray:
    """The comma list a vector-valued field holds, of the run's dimension;
    with law, a distribution over the directions."""
    line = _line_of(cfg._lines, name)
    try:
        vals = np.asarray([float(p) for p in getattr(cfg, name).split(",")], dtype=float)
        if law and vals.size == dimension:
            directions._check_weights(vals, dimension)
    except ValueError as exc:
        raise ConfigError(f"{line}bad {_key(name)}: {exc}") from None
    if vals.size != dimension:
        raise ConfigError(f"{line}{_key(name)} has {vals.size} entries, expected {dimension}")
    return vals


def build_objective(cfg: ExperimentConfig, seed: int) -> objectives.Objective:
    if cfg.objective == "quadratic":
        d = cfg.dimension
        try:
            coord_L = (objectives.coord_L_from_spec(cfg.coord_L, d)
                       if cfg.coord_L is not None else np.ones(d))
        except ValueError as exc:
            raise ConfigError(f"{_line_of(cfg._lines, 'coord_L')}{exc}") from None
        shift = None
        if cfg.shift is not None and cfg.shift != "zeros":
            shift = _parse_vector(cfg, "shift", d)
        obj = objectives.make_quadratic(coord_L, shift)
    elif cfg.objective == "rosenbrock":
        obj = objectives.make_rosenbrock(cfg.dimension)
    else:
        obj = objectives.make_lqr(cfg.horizon, cfg.d_state, cfg.d_ctrl)
    if cfg.noise_sigma is not None:
        spec = objectives.NoiseSpec(cfg.noise_sigma, cfg.noise_obs)
        obj = objectives.wrap_noise(obj, spec, np.random.default_rng([seed, 1]))
    return obj


def build_x0(cfg: ExperimentConfig, dimension: int) -> np.ndarray:
    if cfg.x0 == "ones":
        base = np.ones(dimension)
    elif cfg.x0 == "zeros":
        base = np.zeros(dimension)
    else:
        base = _parse_vector(cfg, "x0", dimension)
    return cfg.x0_scale * base


def build_distribution(cfg: ExperimentConfig, dimension: int) -> directions.DirectionDistribution:
    kind = cfg.distribution
    weights = basis = None
    if kind in ("coord_weighted", "orthonormal_weighted"):
        if cfg.weights is None:
            raise ConfigError(f"{_line_of(cfg._lines, 'distribution')}"
                              f"distribution {kind!r} needs weights")
        weights = _parse_vector(cfg, "weights", dimension, law=True)
    if kind == "orthonormal_weighted":
        if cfg.basis == "identity":
            basis = np.eye(dimension)
        elif cfg.basis.startswith("random:") and cfg.basis[7:].isdecimal():
            gen = np.random.default_rng(int(cfg.basis[7:]))
            basis, _ = np.linalg.qr(gen.standard_normal((dimension, dimension)))
        else:
            raise ConfigError(f"{_line_of(cfg._lines, 'basis')}bad basis spec {cfg.basis!r}: "
                              "expected identity or random:<seed>")
    return directions.DirectionDistribution(kind, dimension, weights=weights, basis=basis)


def build_is_vectors(cfg: ExperimentConfig, obj: objectives.Objective):
    coord_L = obj.smoothness.coord_L
    d = obj.dimension
    for name, keyword in (("is_p", "prop_L"), ("is_w", "coord_L")):
        if coord_L is None and getattr(cfg, name) == keyword:
            # is.w = coord_L is the default: then method smtp_is is what reads it
            raise ConfigError(f"{_line_of(cfg._lines, name) or _line_of(cfg._lines, 'method')}"
                              f"{_key(name)} = {keyword} needs coordinate smoothness metadata")
    if cfg.is_p == "uniform":
        p = np.full(d, 1.0 / d)
    elif cfg.is_p == "prop_L":
        p = coord_L / float(np.sum(coord_L))
    else:
        p = _parse_vector(cfg, "is_p", d, law=True)
    if cfg.is_w == "coord_L":
        w = coord_L.copy()
    elif cfg.is_w == "ones":
        w = np.ones(d)
    else:
        w = _parse_vector(cfg, "is_w", d)
    return p, w


def _resolve_r0(cfg: ExperimentConfig, obj: objectives.Objective, x0, norm_constants) -> float:
    line = _line_of(cfg._lines, "r0")
    if cfg.r0 != "auto":
        r0 = float(cfg.r0)
    else:  # a quadratic's (_validate)
        gap0 = obj.value(x0) - obj.smoothness.f_star
        try:
            r0 = schedules.quadratic_level_radius(obj.smoothness.coord_L, gap0, norm_constants)
        except ValueError as exc:  # a rotated basis, or a noisy draw of f(x0) below f_star
            raise ConfigError(f"{line}r0 = auto: {exc}") from None
    if not r0 > 0.0:
        # the convex rules and envelopes divide by r0; auto gives 0 at a minimiser
        raise ConfigError(f"{line}r0 = {cfg.r0} resolves to {r0!r}; r0 must be > 0")
    return r0


def _beta(cfg: ExperimentConfig) -> float:
    """The momentum the rules and envelopes assume, 0 under stp (which may set beta = 0)."""
    beta = cfg.beta  # read under stp too
    return 0.0 if cfg.method == "stp" else beta


@dataclass
class RunParts:
    """What a run is built from, for every method.

    smtp_is runs over coord_weighted(p), so its norm constants are that
    law's; p and w are set for smtp_is only.  loop holds the smtp_run and
    run_block keywords: the law's norm constants, or optimizers.is_keywords.
    """

    dist: directions.DirectionDistribution
    norm_constants: directions.DistributionConstants
    schedule: object
    p: np.ndarray | None = None
    w: np.ndarray | None = None
    loop: dict = field(default_factory=dict)


def build_run(cfg: ExperimentConfig, obj: objectives.Objective, x0) -> RunParts:
    """Direction law, norm constants, stepsize rule and IS vectors of a run."""
    p = w = None
    if cfg.method == "smtp_is":
        p, w = build_is_vectors(cfg, obj)
        dist = directions.DirectionDistribution("coord_weighted", obj.dimension, weights=p)
    else:
        dist = build_distribution(cfg, obj.dimension)
    nc = directions.constants(dist)
    loop = dict(norm_constants=nc) if p is None else optimizers.is_keywords(obj.dimension)
    return RunParts(dist, nc, build_schedule(cfg, obj, x0, nc, p, w), p, w, loop)


def _build_row(cfg: ExperimentConfig, seed: int):
    """A (config, seed) row's objective, x0 and run parts, built as every run
    builds them.  The builders trust _validate's checks (prepare makes them
    first) and check the rest themselves."""
    obj = build_objective(cfg, seed)
    x0 = build_x0(cfg, obj.dimension)
    return obj, x0, build_run(cfg, obj, x0)


def build_schedule(cfg: ExperimentConfig, obj: objectives.Objective, x0,
                   norm_constants=None, p=None, w=None):
    """Construct the stepsize rule a config describes.

    Given w (smtp_is), each kind builds its importance-sampling rule, with
    S_w and m = min p_i / w_i standing in for L gamma_d and mu_d: constant,
    fixed_horizon and decreasing are the plain rule over the divisor w.  Derived
    choices ('auto'/'optimal') may evaluate f(x0) once; those evaluations
    happen before the run starts and are counted like any query.  A rule's
    own ValueError (a stepsize <= 0, say) cites schedule.kind's line.
    """
    line = _line_of(cfg._lines, "schedule_kind")
    kind = cfg.schedule_kind
    if kind not in schedules.SCHEDULE_KINDS:
        raise ConfigError(f"{line}unknown schedule.kind {kind!r}")
    needed = _SCHEDULE_KEY_NEEDED.get(kind)
    if needed is not None and getattr(cfg, needed) is None:
        raise ConfigError(f"{line}schedule.kind = {kind} needs {_key(needed)}")
    info = obj.smoothness
    beta = _beta(cfg)
    is_mode = w is not None

    def need(value, what: str):
        if value is None:
            raise ConfigError(f"{line}objective {cfg.objective!r} has no {what}")
        return value

    def need_L() -> float:
        return need(info.L, "smoothness constant L")

    def need_coord_L() -> np.ndarray:
        return need(info.coord_L, "coordinate smoothness constants")

    def over_w(rule):
        return schedules.PerCoordinate(rule, w) if is_mode else rule

    try:
        if kind == "constant":
            return over_w(schedules.Constant(cfg.schedule_gamma))
        if kind == "fixed_horizon":
            if cfg.schedule_gamma0 == "optimal":
                if is_mode:
                    L, gamma_d = schedules.is_sum_weighted_L(p, w, need_coord_L()), 1.0
                else:
                    L, gamma_d = need_L(), norm_constants.gamma_d
                g0 = schedules.optimal_gamma0(beta, obj.value(x0) - info.f_star, L, gamma_d)
            else:
                g0 = float(cfg.schedule_gamma0)
            horizon = cfg.schedule_horizon if cfg.schedule_horizon is not None else cfg.max_iters
            return over_w(schedules.FixedHorizon(g0, horizon))
        if kind == "decreasing":
            mu_like = schedules.is_min_ratio(p, w) if is_mode else norm_constants.mu_d
            alpha, theta = _resolve_alpha_theta(cfg, obj, x0, mu_like, norm_constants)
            return over_w(schedules.Decreasing(alpha, theta))
        if kind == "solution_dependent":
            mu = need(info.mu, "strong convexity constant mu")
            if is_mode:
                return schedules.ISSolutionDependent(
                    mu, p, w, need_coord_L(), info.f_star, beta, cfg.schedule_theta_k)
            return schedules.SolutionDependent(
                mu, need_L(), norm_constants.mu_d, info.f_star, beta, cfg.schedule_theta_k)
        t = _resolve_t(cfg, obj, norm_constants, p)  # solution_free, the last of SCHEDULE_KINDS
        if is_mode:
            return schedules.ISSolutionFree(need_coord_L(), t, beta)
        return schedules.SolutionFree(need_L(), t, beta)
    except ConfigError:
        raise
    except ValueError as exc:  # the rule's own check of its constants
        raise ConfigError(f"{line}schedule.kind = {kind}: {exc}") from None


def _resolve_alpha_theta(cfg, obj, x0, mu_like, norm_constants):
    if cfg.schedule_alpha == "auto":
        r0 = _resolve_r0(cfg, obj, x0, norm_constants)
        alpha = mu_like / ((1.0 - _beta(cfg)) * r0)
    else:
        alpha = float(cfg.schedule_alpha)
    if cfg.schedule_theta is None or cfg.schedule_theta == "auto":
        theta = 2.0 / alpha
    else:
        theta = float(cfg.schedule_theta)
    return alpha, theta


def _resolve_t(cfg, obj, norm_constants, p=None) -> float:
    if cfg.schedule_t != "auto":
        return float(cfg.schedule_t)
    line = _line_of(cfg._lines, "schedule_t")
    if cfg.epsilon is None:
        raise ConfigError(f"{line}schedule.t = auto needs epsilon")
    info = obj.smoothness
    if p is not None:
        if info.mu is None or info.coord_L is None:
            raise ConfigError(f"{line}schedule.t = auto needs mu and coord_L metadata")
        return schedules.solution_free_t_max_is(cfg.epsilon, info.mu, p, info.coord_L)
    if info.mu is None or info.L is None:
        raise ConfigError(f"{line}schedule.t = auto needs mu and L metadata")
    return schedules.solution_free_t_max(cfg.epsilon, norm_constants.mu_d, info.mu, info.L)


def _format(x) -> str:
    if x is None:
        return ""
    return format(x, ".17g")


def _write_trace(trace: optimizers.RunTrace, path: str) -> None:
    """Write a trace CSV straight from the columns, CSV_CHUNK rows at a time,
    each rendered in numpy by render.rows as '%d' and format(x, '.17g') give it."""
    from . import render  # imported here alone, so that validate and compare skip it

    n = len(trace.f_z)
    with open(path, "wb") as fh:
        fh.write(CSV_HEADER.encode() + b"\n")
        for lo in range(0, n, CSV_CHUNK):
            fh.write(render.rows(trace, lo, min(lo + CSV_CHUNK, n)))


@dataclass
class SeedResult:
    seed: int
    iterations: int
    evals: int
    stop_reason: str
    final_gap: float
    contraction: float | None
    r_squared: float | None
    envelope_ok: bool | None
    wall_time: float
    branch_mix: tuple[float, float, float] | None = None  # plus, minus, stay rates
    gamma_range: tuple[float, float, float] | None = None  # min, median, max stepsize
    final_gap_noise_free: float | None = None  # noisy: the true gap at the final z
    last_move: int | None = None  # noisy: the k of the last plus or minus step


@dataclass
class RunSummary:
    label: str
    fingerprint: str
    seed_results: list[SeedResult]
    envelope_ok: bool | None
    out_dir: str | None


def run_once(cfg: ExperimentConfig, seed: int) -> tuple[optimizers.RunTrace, objectives.Objective]:
    """Build everything a seed needs and run it through the scalar loop, stp
    at beta 0; returns the trace and the objective."""
    obj, x0, parts = _build_row(cfg, seed)
    trace = optimizers.smtp_run(obj, parts.dist, parts.schedule, _beta(cfg), x0, cfg.max_iters,
                                seed, cfg.epsilon, cfg.eval_budget, cfg.retain_internals,
                                cfg.track_grad_norm, **parts.loop)
    return trace, obj


def _envelope_params(cfg: ExperimentConfig, obj, x0, parts: RunParts) -> dict:
    """The constants a theorem's envelope reads: the run's own, and those its
    schedules.THEOREMS row reads, the stepsize's (gamma, alpha and theta, or
    t) from the plain rule under a w divisor.  An IS theorem maps p, w and
    coord_L onto L, gamma_d and mu_d itself, so one set serves both kinds.
    The gap and r0 = auto come from the noise-free objective, not a noisy draw."""
    info = obj.smoothness
    nc = parts.norm_constants
    rule = getattr(parts.schedule, "rule", parts.schedule)
    if isinstance(rule, schedules.FixedHorizon):  # a constant gamma over its horizon
        rule = schedules.Constant(rule.gamma0 / math.sqrt(rule.horizon))
    params = {
        "gap": obj.base.value(x0) - info.f_star, "beta": _beta(cfg), "L": info.L, "mu": info.mu,
        "mu_d": nc.mu_d, "gamma_d": nc.gamma_d, "p": parts.p, "w": parts.w, "coord_L": info.coord_L,
    }
    for key in schedules.THEOREMS[cfg.theorem].reads:
        if key == "r0":
            params["r0"] = _resolve_r0(cfg, obj.base, x0, nc)
        elif key == "theta_k":
            params["theta_k"] = cfg.schedule_theta_k
        elif hasattr(rule, key):
            params[key] = getattr(rule, key)
        else:
            raise ConfigError(f"{_line_of(cfg._lines, 'theorem')}theorem {cfg.theorem!r} reads the "
                              f"stepsize's {key}, which schedule.kind = {cfg.schedule_kind} lacks")
    return {k: v for k, v in params.items() if v is not None}


# the fields a seed run reads, besides those prepare's builds read
_RUN_KEYS = ("label", "seeds", "max_iters", "epsilon", "eval_budget", "track_grad_norm",
             "retain_internals", "out", "jobs")


class _Reads:
    """A config read through a recorder: names holds each attribute read."""

    def __init__(self, cfg: ExperimentConfig):
        self.cfg, self.names = cfg, set()

    def __getattr__(self, name: str):
        self.names.add(name)
        return getattr(self.cfg, name)


def prepare(cfg: ExperimentConfig) -> tuple[list[int] | None, np.ndarray | None]:
    """Check a config and do what a run does before its first seed: build that
    seed's objective, x0 and run parts, and with a theorem its envelope, all
    through _Reads.  A key the config sets that neither these builds nor the
    seed runs (_RUN_KEYS) read is rejected, citing its line.  Returns the
    checkpoints and the envelope's values there, both None without a theorem."""
    _validate(cfg)
    lines, seen = cfg._lines, _Reads(cfg)
    obj, x0, parts = _build_row(seen, cfg.seeds[0])
    ks = bounds = None
    if seen.theorem is not None:
        params = _envelope_params(seen, obj, x0, parts)
        m = cfg.max_iters  # default checkpoints: K/4, K/2, K
        ks = sorted(set(seen.checkpoints or (max(1, m // 4), max(1, m // 2), m)))
        try:
            bounds = diagnostics.bound_envelope(cfg.theorem, params, m).values[ks]
        except ValueError as exc:  # the theorem refuses these constants
            raise ConfigError(f"{_line_of(lines, 'theorem')}{exc}") from None
    name = min(set(lines) - seen.names - set(_RUN_KEYS), key=lines.get, default=None)
    if name is not None:  # the first unread key
        hint = ("; smtp_is draws coordinates by is.p" if cfg.method == "smtp_is"
                and name in ("distribution", "weights", "basis") else "")
        raise ConfigError(f"{_line_of(lines, name)}{_key(name)} is set, but nothing "
                          f"this config runs reads it{hint}")
    return ks, bounds


def run_block(cfgs, seeds, columns: bool = True
              ) -> tuple[list[optimizers.RunTrace], list[objectives.Objective]]:
    """Build each row's objective and run parts as run_once does, then run
    the rows as one block; each trace equals that row's run_once trace, or
    without columns keeps its evals, stop and f_last alone (RunTrace).
    cfgs holds one config per seed, all with one _block_key.  Raises
    ValueError for rows the block does not run: with eval_budget or
    retain_internals, or those optimizers.block_supports declines."""
    first = cfgs[0]
    if first.eval_budget is not None or first.retain_internals:
        raise ValueError("a block neither stops on eval_budget nor retains internals")
    objs, x0s, parts = zip(*map(_build_row, cfgs, seeds))
    traces = optimizers.run_block(
        list(objs), [p.schedule for p in parts], _beta(first), x0s[0], first.max_iters,
        list(seeds), first.epsilon, first.track_grad_norm, [p.dist for p in parts],
        **parts[0].loop, columns=columns)
    return traces, list(objs)


def _block_key(cfg: ExperimentConfig) -> tuple:
    """What the rows of one block share (optimizers.run_block): the
    objective and x0; beta; a coordinate or a vector law; the rule class
    and whether it is fixed (schedule.kind, and whether smtp_is wraps it);
    the stops and the recording; and, when tracked, the gradient norm's
    law."""
    importance = cfg.method == "smtp_is"
    norm = (cfg.distribution, cfg.weights, cfg.basis) if cfg.track_grad_norm else None
    return (_objective_signature(cfg), _beta(cfg), importance, importance or cfg.distribution in
            directions.COORD_KINDS, cfg.schedule_kind, cfg.max_iters, cfg.eval_budget,
            cfg.epsilon, cfg.retain_internals, cfg.track_grad_norm, norm)


def _block_admits(cfg: ExperimentConfig, seed: int, rows: int) -> bool:
    """Whether run_block takes rows of cfg's _block_key: no eval_budget, no
    retained internals, and a row (cfg, seed) block_supports admits in a block
    of that many rows; the key fixes the objective, the rule class and the
    kind of law."""
    if cfg.eval_budget is not None or cfg.retain_internals:
        return False
    obj, _, parts = _build_row(cfg, seed)
    return optimizers.block_supports(obj, parts.schedule, parts.dist, rows)


def _run_seeds(rows, columns: bool = True) -> list[tuple]:
    """(trace, objective, wall time) of each (config, seed) row, in order.

    Rows with one _block_key run as one block once there are
    BLOCK_MIN_ROWS of them (the measured crossover) and _block_admits
    them; the rest go one by one through run_once, in row order.  A block's
    wall time is shared out by iterations, and without columns its traces
    keep no per-step record (optimizers.run_block).  A block that fails as
    a run fails (a ValueError or a non-finite value) is run row by row, so the
    error is the one a one-seed run raises, for the first row that fails,
    with that row's config label and seed put in front of its message; if
    no row fails alone, the block's own error is raised.
    """
    runs = [None] * len(rows)
    groups: dict[tuple, list[int]] = {}
    for at, (cfg, _) in enumerate(rows):
        groups.setdefault(_block_key(cfg), []).append(at)
    failed = []  # the errors of blocks whose rows rerun alone
    for group in groups.values():
        if len(group) < optimizers.BLOCK_MIN_ROWS or not _block_admits(*rows[group[0]],
                                                                      len(group)):
            continue
        t0 = time.perf_counter()
        try:
            traces, objs = run_block([rows[at][0] for at in group], [rows[at][1] for at in group],
                                     columns)
        except (ValueError, optimizers.NonFiniteObjectiveError) as exc:
            failed.append(exc)
            continue
        wall = time.perf_counter() - t0
        total = max(1, sum(len(t.evals) for t in traces))
        for at, trace, obj in zip(group, traces, objs):
            runs[at] = (trace, obj, wall * len(trace.evals) / total)
    for at, (cfg, seed) in enumerate(rows):
        if runs[at] is None:
            t0 = time.perf_counter()
            try:
                # through the module global, so that wrappers of run_once see every seed it runs
                trace, obj = run_once(cfg, seed)
            except Exception as exc:
                exc.args = (f"{cfg.label} seed {seed}: {exc}",)
                raise
            runs[at] = (trace, obj, time.perf_counter() - t0)
    if failed:
        raise failed[0]
    return runs


def _seeds_worker(rows, out_dir: str | None, ks: list[int] | None):
    # only the trace CSVs and summary.txt (out_dir) and the envelope's checkpoints (ks) read
    # the per-step columns
    runs = _run_seeds(rows, out_dir is not None or ks is not None)
    runs.reverse()
    # each trace is let go once its CSV and result are written
    return [_seed_result(cfg, seed, *runs.pop(), out_dir, ks) for cfg, seed in rows]


def _row_results(rows, jobs: int, out_dir: str | None = None, ks: list[int] | None = None):
    """_seeds_worker's (result, checked) of each (config, seed) row, in order.
    With jobs > 1 the rows are split into up to jobs contiguous groups, one
    per worker process."""
    n = len(rows)
    if jobs > 1 and n > 1:
        parts = min(jobs, n)
        groups = [rows[i * n // parts:(i + 1) * n // parts] for i in range(parts)]
        with _process_pool(jobs) as pool:
            return [payload for group in pool.map(
                _seeds_worker, groups, repeat(out_dir), repeat(ks)) for payload in group]
    return _seeds_worker(rows, out_dir, ks)


def _seed_result(cfg: ExperimentConfig, seed: int, trace, obj, wall: float,
                 out_dir: str | None, ks: list[int] | None):
    f_star = obj.smoothness.f_star
    n = len(trace.evals)
    final_gap = trace.f_last - f_star
    contraction = r_squared = branch_mix = gamma_range = last_move = None
    # summary.txt alone, written with the traces, reads the fit, branch mix, gammas and last move
    if out_dir is not None:
        _write_trace(trace, os.path.join(out_dir, f"trace_seed{seed}.csv"))
        if n >= 12 and final_gap >= 0.0:
            try:
                fit = diagnostics.fit_linear_rate(trace, f_star)
                contraction, r_squared = fit.rate, fit.r_squared
            except ValueError:
                pass
        if n:
            branch_mix = tuple((np.bincount(np.asarray(trace.branch), minlength=3) / n).tolist())
            gammas = np.asarray(trace.gamma)
            gamma_range = (float(gammas.min()), _median(gammas), float(gammas.max()))
            if obj.base is not obj:
                moved = np.flatnonzero(np.asarray(trace.branch) != optimizers.STAY)
                last_move = int(moved[-1]) if moved.size else None
    # the grad_norm guarantees (NC) bound the running mean gradient norm, the others the gap
    checked = None
    if ks is not None:
        if schedules.THEOREMS[cfg.theorem].grad_norm:
            grad_norm = np.asarray(trace.grad_norm)
            checked = [float(np.mean(grad_norm[:k])) for k in ks]
        else:  # a trace that stopped early is padded with its last gap (conservative)
            checked = [trace.f_z[min(k, n) - 1] - f_star for k in ks]
    result = SeedResult(
        seed=seed,
        iterations=n,
        evals=trace.evals[-1] if n else obj.eval_counter,
        stop_reason=trace.stop_reason,
        final_gap=final_gap,
        contraction=contraction,
        r_squared=r_squared,
        envelope_ok=None,
        wall_time=wall,
        branch_mix=branch_mix,
        gamma_range=gamma_range,
        final_gap_noise_free=(None if obj.base is obj
                              else obj.base.value(trace.final_state.z) - f_star),
        last_move=last_move,
    )
    return result, checked


def _median(a: np.ndarray) -> float:
    """np.median of a NaN-free 1-d array, bit for bit, without its numpy.ma NaN check."""
    half, odd = divmod(len(a), 2)
    part = np.partition(a, half if odd else (half - 1, half))
    return float(part[half] if odd else (part[half - 1] + part[half]) / 2)


def _process_pool(workers: int):
    """A process pool; concurrent.futures is imported only when one is used."""
    from concurrent.futures import ProcessPoolExecutor

    return ProcessPoolExecutor(max_workers=workers)


def run_experiment(cfg: ExperimentConfig, out_dir: str | None = None,
                   jobs: int | None = None, write: bool = True) -> RunSummary:
    """Run every seed of a config, write trace CSVs and a summary.

    With jobs > 1 the seeds are split into up to jobs contiguous groups, one
    per worker process; each process runs its seeds through _run_seeds.
    Returns a RunSummary; envelope_ok is None when no theorem is configured,
    otherwise the seed-mean trajectory is compared against 1.05 x envelope
    at the checkpoints.  Without write, contraction, r_squared, branch_mix
    and gamma_range stay None: summary.txt alone reads them.
    """
    ks, bounds = prepare(cfg)
    if write:
        base = out_dir or cfg.out or os.environ.get(ENV_OUT) or DEFAULT_OUT
        target = os.path.join(base, cfg.label)
        os.makedirs(target, exist_ok=True)
    else:
        target = None
    jobs = jobs if jobs is not None else cfg.jobs

    payloads = _row_results([(cfg, seed) for seed in cfg.seeds], jobs, target, ks)

    results = [p[0] for p in payloads]
    envelope_ok = None
    if bounds is not None:
        tol = 1.05
        series = np.array([p[1] for p in payloads])
        means = series.mean(axis=0)
        envelope_ok = bool(np.all(means <= tol * bounds))
        for result, row in zip(results, series):
            result.envelope_ok = bool(np.all(row <= tol * bounds))

    summary = RunSummary(cfg.label, cfg.fingerprint(), results, envelope_ok, target)
    if write:
        _write_summary(summary, cfg, target)
    return summary


def _write_summary(summary: RunSummary, cfg: ExperimentConfig, out_dir: str) -> None:
    lines = [
        f"label={summary.label}",
        f"fingerprint={summary.fingerprint}",
        f"method={cfg.method}",
        f"objective={cfg.objective}",
        f"n_seeds={len(summary.seed_results)}",
        f"envelope={_verdict(summary.envelope_ok)}",
    ]
    for r in summary.seed_results:
        prefix = f"seed{r.seed}"
        lines.append(f"{prefix}.iterations={r.iterations}")
        lines.append(f"{prefix}.evals={r.evals}")
        lines.append(f"{prefix}.stop={r.stop_reason}")
        lines.append(f"{prefix}.final_gap={_format(r.final_gap)}")
        if r.final_gap_noise_free is not None:
            lines.append(f"{prefix}.final_gap_noise_free={_format(r.final_gap_noise_free)}")
            lines.append(f"{prefix}.last_move={_format(r.last_move)}")
        lines.append(f"{prefix}.contraction={_format(r.contraction)}")
        lines.append(f"{prefix}.r_squared={_format(r.r_squared)}")
        for name, value in zip(optimizers.BRANCHES, r.branch_mix or repeat(None)):
            lines.append(f"{prefix}.branch.{name}={_format(value)}")
        for name, value in zip(("min", "median", "max"), r.gamma_range or repeat(None, 3)):
            lines.append(f"{prefix}.gamma.{name}={_format(value)}")
        lines.append(f"{prefix}.envelope={_verdict(r.envelope_ok)}")
        lines.append(f"{prefix}.wall_time={r.wall_time:.6f}")
    with open(os.path.join(out_dir, "summary.txt"), "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")


def _verdict(ok: bool | None) -> str:
    if ok is None:
        return "none"
    return "pass" if ok else "fail"


def _objective_signature(cfg: ExperimentConfig) -> tuple:
    return (cfg.objective, cfg.dimension, cfg.coord_L, cfg.shift, cfg.horizon,
            cfg.d_state, cfg.d_ctrl, cfg.noise_sigma, cfg.noise_obs,
            cfg.x0, cfg.x0_scale)


def compare_methods(configs: list[ExperimentConfig], out_dir: str | None = None) -> list[dict]:
    """Evaluations-to-target table across configs sharing one objective.

    Every config must declare the same objective block and the same epsilon
    (the gap target).  Each config is prepared as run prepares it; then the
    rows of every config (config order, then seed order) run through
    _run_seeds together, unwritten, so rows of configs with one _block_key
    share a block, in one process pool of the largest jobs.  Rows report
    median/min/max evaluations over seeds; seeds that never reach the target
    count as inf.
    """
    if len(configs) < 2:
        raise ValueError("compare needs at least two configs")
    sig = _objective_signature(configs[0])
    for cfg in configs[1:]:
        if _objective_signature(cfg) != sig:
            raise ValueError("mismatched objectives: compare needs a shared objective block")
    eps = configs[0].epsilon
    if eps is None or any(cfg.epsilon != eps for cfg in configs):
        raise ValueError("compare needs the same epsilon target in every config")

    for cfg in configs:
        prepare(cfg)
    payloads = iter(_row_results([(cfg, seed) for cfg in configs for seed in cfg.seeds],
                                 max(cfg.jobs for cfg in configs)))
    rows = []
    for cfg in configs:
        # a seed stops at the first record within epsilon
        evals_arr = np.array([r.evals if r.stop_reason == "epsilon_gap" else math.inf
                              for r, _ in islice(payloads, len(cfg.seeds))], dtype=float)
        rows.append({
            "label": cfg.label,
            "n_seeds": len(cfg.seeds),
            "n_reached": int(np.sum(np.isfinite(evals_arr))),
            "median_evals": _median(evals_arr),
            "min_evals": float(np.min(evals_arr)),
            "max_evals": float(np.max(evals_arr)),
        })

    if out_dir is not None:
        os.makedirs(out_dir, exist_ok=True)
        with open(os.path.join(out_dir, "compare.csv"), "w", encoding="utf-8") as fh:
            fh.write("\n".join(compare_table(rows)) + "\n")
    return rows


def compare_table(rows: list[dict]) -> list[str]:
    """The lines of compare.csv, header first; the CLI prints the same lines."""
    lines = ["label,n_seeds,n_reached,median_evals,min_evals,max_evals"]
    for row in rows:
        lines.append(
            f"{row['label']},{row['n_seeds']},{row['n_reached']},"
            f"{_num(row['median_evals'])},{_num(row['min_evals'])},{_num(row['max_evals'])}")
    return lines


def _num(x: float) -> str:
    if math.isinf(x):
        return "inf"
    if float(x).is_integer():
        return str(int(x))
    return format(x, ".17g")
