"""Benchmark objectives with evaluation counting and smoothness metadata."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Callable

import numpy as np


@dataclass(frozen=True)
class SmoothnessInfo:
    """What is known about an objective.

    L: global (or box-local) smoothness constant, None if unknown.
    coord_L: per-coordinate smoothness constants, None if unknown.
    mu: strong convexity constant, None if not strongly convex / unknown.
    f_star / x_star: optimal value and a minimizer when known.
    box_halfwidth: half-width b of the box [-b, b]^d on which L is valid,
    None when L holds globally.
    """

    L: float | None = None
    coord_L: np.ndarray | None = None
    mu: float | None = None
    f_star: float | None = None
    x_star: np.ndarray | None = None
    box_halfwidth: float | None = None


@dataclass(frozen=True)
class NoiseSpec:
    """Additive Gaussian observation noise, averaged over n_obs draws."""

    sigma: float
    n_obs: int = 1

    def __post_init__(self):
        if self.sigma < 0.0:
            raise ValueError("sigma must be >= 0")
        if self.n_obs < 1:
            raise ValueError("n_obs must be >= 1")


class Objective:
    """A black-box function R^d -> R with an evaluation counter.

    eval_counter counts oracle calls: value() adds calls_per_value, the
    calls one query of fn makes (1 unless fn averages several); gradient()
    does not count (it is a diagnostic oracle, not part of the black-box
    budget).  fn_batch, when given, maps a (B, d) batch to its rows' values,
    each row bit for bit what fn gives it, and counts nothing: its caller
    (run_block) sets the counter.  base is the noise-free objective a noise
    wrapper observes, and the objective itself otherwise.
    """

    def __init__(
        self,
        fn: Callable[[np.ndarray], float],
        dimension: int,
        smoothness: SmoothnessInfo | None = None,
        grad: Callable[[np.ndarray], np.ndarray] | None = None,
        name: str = "",
        calls_per_value: int = 1,
        fn_batch: Callable[[np.ndarray], np.ndarray] | None = None,
    ):
        if dimension < 1:
            raise ValueError("dimension must be >= 1")
        self._fn = fn
        self._grad = grad
        self.fn_batch = fn_batch
        self.dimension = dimension
        self.smoothness = smoothness if smoothness is not None else SmoothnessInfo()
        self.name = name
        self.calls_per_value = calls_per_value
        self.eval_counter = 0
        self.base = self

    def value(self, x: np.ndarray) -> float:
        self.eval_counter += self.calls_per_value
        return self._fn(x)

    __call__ = value

    @property
    def has_gradient(self) -> bool:
        return self._grad is not None

    def gradient(self, x: np.ndarray) -> np.ndarray:
        if self._grad is None:
            raise ValueError(f"objective {self.name!r} has no gradient oracle")
        return self._grad(x)

    def gradient_batch(self, X: np.ndarray) -> np.ndarray:
        """gradient() of each row of X."""
        return np.array([self.gradient(x) for x in X])


def make_quadratic(coord_L, shift=None) -> Objective:
    """f(x) = 1/2 sum_i L_i (x_i - shift_i)^2, the separable test quadratic."""
    L = np.asarray(coord_L, dtype=float)
    if L.ndim != 1 or L.size < 1:
        raise ValueError("coord_L must be a nonempty vector")
    if np.any(L <= 0.0):
        raise ValueError("coord_L must be strictly positive")
    d = L.size
    if shift is None:
        shift = np.zeros(d)
    shift = np.asarray(shift, dtype=float)
    if shift.shape != (d,):
        raise ValueError(f"shift must have shape ({d},)")

    # vecdot over a batch gives each row what L.dot gives it; (Y*Y) @ L does not
    if np.any(shift):
        def fn(x: np.ndarray) -> float:
            y = x - shift
            return 0.5 * float(L.dot(y * y))

        def fn_batch(X: np.ndarray) -> np.ndarray:
            Y = X - shift
            return 0.5 * np.vecdot(Y * Y, L)
    else:
        # x - 0 == x exactly, so the unshifted form skips the subtraction
        def fn(x: np.ndarray) -> float:
            return 0.5 * float(L.dot(x * x))

        def fn_batch(X: np.ndarray) -> np.ndarray:
            return 0.5 * np.vecdot(X * X, L)

    def grad(x: np.ndarray) -> np.ndarray:
        return L * (x - shift)

    info = SmoothnessInfo(
        L=float(np.max(L)),
        coord_L=L,
        mu=float(np.min(L)),
        f_star=0.0,
        x_star=shift.copy(),
    )
    return Objective(fn, d, info, grad, name="quadratic", fn_batch=fn_batch)


# Gershgorin bound on the chained-Rosenbrock Hessian over [-2, 2]^d:
# |H_jj| <= 2 + 1200*4 + 400*2 + 200 = 5802, off-diagonal row sum <= 1600.
_ROSENBROCK_BOX = 2.0
_ROSENBROCK_L = 7402.0


def make_rosenbrock(d: int) -> Objective:
    """Chained Rosenbrock: sum_i (1-x_i)^2 + 100 (x_{i+1} - x_i^2)^2."""
    if d < 2:
        raise ValueError("rosenbrock needs d >= 2")

    def fn(x: np.ndarray) -> float:
        a = 1.0 - x[:-1]
        b = x[1:] - x[:-1] * x[:-1]
        return float(np.dot(a, a) + 100.0 * np.dot(b, b))

    def grad(x: np.ndarray) -> np.ndarray:
        g = np.zeros_like(x)
        b = x[1:] - x[:-1] * x[:-1]
        g[:-1] = -2.0 * (1.0 - x[:-1]) - 400.0 * x[:-1] * b
        g[1:] += 200.0 * b
        return g

    info = SmoothnessInfo(
        L=_ROSENBROCK_L,
        f_star=0.0,
        x_star=np.ones(d),
        box_halfwidth=_ROSENBROCK_BOX,
    )
    return Objective(fn, d, info, grad, name="rosenbrock")


def _dare_gain(A, B, Q, R):
    """Terminal cost P solving the DARE and its optimal static gain."""
    from scipy.linalg import solve_discrete_are

    P = solve_discrete_are(A, B, Q, R)
    K = np.linalg.solve(R + B.T @ P @ B, B.T @ P @ A)
    return P, K


def make_lqr(horizon: int, d_state: int, d_ctrl: int) -> Objective:
    """Finite-horizon LQR cost of a static linear policy u = -Theta x.

    Fixed instance: A = 0.9 I, B = first d_ctrl columns of I, Q = R = I,
    x0 = ones, terminal cost P solving the DARE.  With that terminal cost
    the Riccati gain is optimal at every horizon, so f_star = x0' P x0 and
    x_star = flatten(K) exactly.  The decision variable is Theta flattened
    row-major to length d_state * d_ctrl.
    """
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    if not (1 <= d_ctrl <= d_state):
        raise ValueError("need 1 <= d_ctrl <= d_state")

    A = 0.9 * np.eye(d_state)
    B = np.eye(d_state)[:, :d_ctrl]
    Q = np.eye(d_state)
    R = np.eye(d_ctrl)
    x0 = np.ones(d_state)
    P, K = _dare_gain(A, B, Q, R)

    def fn(theta_flat: np.ndarray) -> float:
        theta = np.asarray(theta_flat, dtype=float).reshape(d_ctrl, d_state)
        x = x0
        cost = 0.0
        for _ in range(horizon):
            u = -theta @ x
            cost += float(x @ x) + float(u @ u)
            x = A @ x + B @ u
        return cost + float(x @ (P @ x))

    info = SmoothnessInfo(
        f_star=float(x0 @ (P @ x0)),
        x_star=K.reshape(-1).copy(),
    )
    return Objective(fn, d_state * d_ctrl, info, name="lqr")


def wrap_noise(objective: Objective, noise: NoiseSpec, rng: np.random.Generator) -> Objective:
    """Average of n_obs noisy observations f(x) + N(0, sigma^2) per query.

    A query makes n_obs oracle calls, and both the wrapper's counter and the
    base objective's advance by n_obs.
    """

    def fn(x: np.ndarray) -> float:
        total = 0.0
        for _ in range(noise.n_obs):
            total += objective.value(x) + noise.sigma * rng.standard_normal()
        return total / noise.n_obs

    info = replace(objective.smoothness)
    noisy = Objective(fn, objective.dimension, info, objective._grad,
                      name=f"{objective.name}+noise", calls_per_value=noise.n_obs)
    noisy.base = objective
    return noisy


def coord_L_from_spec(spec: str, dimension: int) -> np.ndarray:
    """Parse a coordinate-smoothness spec: 'a,b,c' or 'logspace:lo,hi'."""
    spec = spec.strip()
    if spec.startswith("logspace:"):
        body = spec[len("logspace:"):]
        parts = body.split(",")
        if len(parts) != 2:
            raise ValueError(f"logspace spec needs two endpoints, got {spec!r}")
        lo, hi = (float(p) for p in parts)
        if lo <= 0 or hi <= 0:
            raise ValueError("logspace endpoints must be positive")
        return np.logspace(np.log10(lo), np.log10(hi), dimension)
    vals = np.asarray([float(p) for p in spec.split(",")], dtype=float)
    if vals.size != dimension:
        raise ValueError(f"coord_L has {vals.size} entries, expected {dimension}")
    if np.any(vals <= 0.0):
        raise ValueError("coord_L must be strictly positive")
    return vals
