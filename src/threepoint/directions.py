"""Search-direction distributions, their norm constants, and MC validation.

Each distribution comes with two scalars used by the stepsize rules and rate
envelopes: gamma_d = E ||s||_2^2 and mu_d, a lower bound on E |<g, s>| in
units of a distribution-specific norm of g.  The sphere's mu_d is an
asymptotic lower bound and is therefore only validated one-sided; the other
kinds are exact.

Batches of directions come from `chunks`, the one place they consume the
stream: `draws`, the block runs and `mc_validate` all read it.  `sample`
draws one direction per call, the reference `chunks` is tested against.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import repeat

import numpy as np

KINDS = ("sphere", "gaussian", "coord_uniform", "coord_weighted", "orthonormal_weighted")
COORD_KINDS = ("coord_uniform", "coord_weighted")  # draw s = e_i, carried as the index i
UNIT_KINDS = ("sphere", *COORD_KINDS, "orthonormal_weighted")  # ||s||_2 = 1 on every draw

L2 = "L2"
L1 = "L1"
WEIGHTED_L1 = "WeightedL1"

_WEIGHT_TOL = 1e-12
_BASIS_TOL = 1e-10


def _check_weights(weights: np.ndarray, dim: int) -> np.ndarray:
    w = np.asarray(weights, dtype=float)
    if w.shape != (dim,):
        raise ValueError(f"weights must have shape ({dim},), got {w.shape}")
    if np.any(w <= 0.0):
        raise ValueError("weights must be strictly positive")
    total = float(np.sum(w))
    if abs(total - 1.0) > _WEIGHT_TOL:
        raise ValueError(f"weights must sum to 1 within {_WEIGHT_TOL}, got {total!r}")
    return w


@dataclass(frozen=True)
class DirectionDistribution:
    """A sampling law over search directions in R^dim.

    kind is one of: sphere (uniform on the unit sphere), gaussian
    (N(0, I/dim)), coord_uniform (uniform signed-free coordinate vectors),
    coord_weighted (coordinate vectors drawn with probabilities `weights`),
    orthonormal_weighted (columns of `basis` drawn with `weights`).
    """

    kind: str
    dim: int
    weights: np.ndarray | None = None
    basis: np.ndarray | None = None
    cdf: np.ndarray = field(init=False, repr=False, compare=False, default=None)

    def __post_init__(self):
        if self.kind not in KINDS:
            raise ValueError(f"unknown direction kind {self.kind!r}, expected one of {KINDS}")
        if self.dim < 1:
            raise ValueError("dim must be >= 1")
        if self.kind in ("coord_weighted", "orthonormal_weighted"):
            if self.weights is None:
                raise ValueError(f"{self.kind} requires weights")
            w = _check_weights(self.weights, self.dim)
            object.__setattr__(self, "weights", w)
            object.__setattr__(self, "cdf", np.cumsum(w))
        elif self.weights is not None:
            raise ValueError(f"{self.kind} does not take weights")
        if self.kind == "orthonormal_weighted":
            if self.basis is None:
                raise ValueError("orthonormal_weighted requires a basis")
            b = np.asarray(self.basis, dtype=float)
            if b.shape != (self.dim, self.dim):
                raise ValueError(f"basis must have shape ({self.dim},{self.dim}), got {b.shape}")
            err = float(np.max(np.abs(b.T @ b - np.eye(self.dim))))
            if err > _BASIS_TOL:
                raise ValueError(f"basis is not orthonormal (max |B'B - I| = {err:.3g})")
            object.__setattr__(self, "basis", b)
        elif self.basis is not None:
            raise ValueError(f"{self.kind} does not take a basis")


@dataclass(frozen=True)
class DistributionConstants:
    """Norm constants of a direction law.

    gamma_d = E ||s||_2^2.  mu_d lower-bounds E |<g, s>| / d_norm(g).
    norm_tag selects the norm d_norm measures g in; weights/basis carry the
    data the weighted norms need.
    """

    gamma_d: float
    mu_d: float
    norm_tag: str
    weights: np.ndarray | None = None
    basis: np.ndarray | None = None
    exact: bool = True


def constants(dist: DirectionDistribution) -> DistributionConstants:
    """Closed-form constants for each supported kind."""
    d = dist.dim
    if dist.kind == "sphere":
        # asymptotic lower bound, not the exact expectation; validated one-sided
        return DistributionConstants(1.0, 1.0 / math.sqrt(2.0 * math.pi * d), L2, exact=False)
    if dist.kind == "gaussian":
        return DistributionConstants(1.0, math.sqrt(2.0) / math.sqrt(d * math.pi), L2)
    if dist.kind == "coord_uniform":
        return DistributionConstants(1.0, 1.0 / d, L1)
    if dist.kind == "coord_weighted":
        return DistributionConstants(1.0, 1.0, WEIGHTED_L1, weights=dist.weights)
    if dist.kind == "orthonormal_weighted":
        return DistributionConstants(1.0, 1.0, WEIGHTED_L1, weights=dist.weights, basis=dist.basis)
    raise ValueError(f"unknown kind {dist.kind!r}")


def categorical_index(cdf: np.ndarray, u: float) -> int:
    """Inverse-CDF draw: smallest i with u < cdf[i]."""
    i = int(np.searchsorted(cdf, u, side="right"))
    return min(i, len(cdf) - 1)


def sample(dist: DirectionDistribution, rng: np.random.Generator) -> np.ndarray:
    """Draw one direction. Identical rng state gives identical draws."""
    d = dist.dim
    if dist.kind == "sphere":
        g = rng.standard_normal(d)
        return g / math.sqrt(g @ g)
    if dist.kind == "gaussian":
        return rng.standard_normal(d) / math.sqrt(d)
    if dist.kind == "coord_uniform":
        s = np.zeros(d)
        s[int(rng.integers(d))] = 1.0
        return s
    if dist.kind == "coord_weighted":
        s = np.zeros(d)
        s[categorical_index(dist.cdf, rng.random())] = 1.0
        return s
    if dist.kind == "orthonormal_weighted":
        return dist.basis[:, categorical_index(dist.cdf, rng.random())].copy()
    raise ValueError(f"unknown kind {dist.kind!r}")


# a chunk holds at most this many floats (and at most _DRAW_ROWS directions),
# so its memory does not grow with the run length or explode with dim
_DRAW_ROWS = 1024
_DRAW_FLOATS = 1 << 16


def chunk_rows(dim: int, streams: int = 1) -> int:
    """Rows per draw chunk, so that one chunk of every stream holds at most
    _DRAW_FLOATS floats together (and each at most _DRAW_ROWS rows)."""
    return max(1, min(_DRAW_ROWS, _DRAW_FLOATS // (dim * streams)))


def chunks(dist: DirectionDistribution, rng: np.random.Generator, n: int, rows: int):
    """Yield n directions, at most rows at a time: an (m, dim) block of unit
    or scaled vectors, or for a coordinate kind the m drawn indices (s = e_i).
    This is the one place a batch of directions consumes the stream.

    Row j of a block equals the (j+1)-th of n calls of sample(dist, rng): the
    sphere's rows are normalised by sqrt(vecdot), which is bitwise the
    per-row sqrt(g @ g), and numpy's array draws consume the same stream as
    its scalar ones, so rows never changes the stream.
    """
    kind, d = dist.kind, dist.dim
    scale = math.sqrt(d)
    while n > 0:
        m = min(rows, n)
        n -= m
        if kind == "sphere":
            raw = rng.standard_normal((m, d))
            yield raw / np.sqrt(np.vecdot(raw, raw))[:, None]
        elif kind == "gaussian":
            yield rng.standard_normal((m, d)) / scale
        elif kind == "coord_uniform":
            yield rng.integers(d, size=m)
        else:
            i = np.minimum(np.searchsorted(dist.cdf, rng.random(m), side="right"), d - 1)
            yield dist.basis.T[i] if kind == "orthonormal_weighted" else i


def draws(dist: DirectionDistribution, rng: np.random.Generator, n: int):
    """Yield n directions as (s, index) pairs, drawn a bounded chunk at a time.

    The values, and the generator state once all n are taken, equal n calls
    of sample(dist, rng).  Coordinate kinds yield (None, i) for s = e_i, so
    the caller builds the vector only where it needs one; the others yield
    (s, None).
    """
    coord = dist.kind in COORD_KINDS
    for block in chunks(dist, rng, n, chunk_rows(dist.dim)):
        if coord:
            for i in block.tolist():
                yield None, i
        else:
            yield from zip(block, repeat(None))


def d_norm(c: DistributionConstants, g: np.ndarray) -> float:
    """Norm of g matching the distribution's alignment bound."""
    return float(d_norm_rows(c, np.asarray(g, dtype=float)[None])[0])


def d_norm_rows(c: DistributionConstants, G: np.ndarray) -> np.ndarray:
    """d_norm of each row of G.  Built from per-row reductions (vecdot, a
    last-axis sum, a stacked matmul) that give each row what the one-row
    call gives, bit for bit; G @ B would not."""
    if c.norm_tag == L2:
        return np.sqrt(np.vecdot(G, G))
    if c.norm_tag == L1:
        return np.sum(np.abs(G), axis=-1)
    if c.norm_tag == WEIGHTED_L1:
        comp = G if c.basis is None else np.matmul(c.basis.T[None], G[..., None])[..., 0]
        return np.vecdot(np.abs(comp), c.weights)
    raise ValueError(f"unknown norm tag {c.norm_tag!r}")


@dataclass(frozen=True)
class MCValidation:
    n_samples: int
    gamma_hat: float
    inner_hat: float
    d_norm_g: float
    mu_lower_ok: bool


def mc_validate(
    dist: DirectionDistribution,
    g: np.ndarray,
    n_samples: int,
    rng: np.random.Generator,
) -> MCValidation:
    """Monte-Carlo check of gamma_d and the alignment lower bound.

    Estimates E ||s||_2^2 and E |<g, s>| over n_samples draws and reports
    whether inner_hat >= mu_d * d_norm(g) * (1 - 3/sqrt(n_samples)).
    Requires n_samples >= 10^4 and a nonzero g.
    """
    g = np.asarray(g, dtype=float)
    if n_samples < 10_000:
        raise ValueError("mc_validate needs n_samples >= 10000")
    if not np.any(g != 0.0):
        raise ValueError("g must be nonzero")
    c = constants(dist)
    gamma_sum = inner_sum = 0.0
    for block in chunks(dist, rng, n_samples, chunk_rows(dist.dim)):
        if dist.kind in COORD_KINDS:  # s = e_i: ||s||^2 = 1 and <g, s> = g[i]
            gamma_sum += block.size
            inner_sum += float(np.sum(np.abs(g[block])))
        else:
            gamma_sum += float(np.sum(np.vecdot(block, block)))
            inner_sum += float(np.sum(np.abs(block @ g)))

    gamma_hat = gamma_sum / n_samples
    inner_hat = inner_sum / n_samples
    gnorm = d_norm(c, g)
    ok = inner_hat >= c.mu_d * gnorm * (1.0 - 3.0 / math.sqrt(n_samples))
    return MCValidation(n_samples, gamma_hat, inner_hat, gnorm, ok)

