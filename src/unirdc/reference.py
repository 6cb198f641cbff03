"""Reference solvers: rate-distortion curves, sphere-size exponents, and
comparisons against the parse-length machinery.

The rate-distortion point is found by alternating minimization at a fixed
Lagrange slope, with bisection over the slope to hit the distortion target
and a tangent correction for the residual gap. The sphere exponent maximizes
conditional entropy under the distortion constraint, which separates into a
per-source-letter Gibbs channel with one shared multiplier.
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .core import Block, blocks_at
from .distortion import DistortionSpec, sphere_indicator
from .errors import InfeasibleError, PreconditionError
from .universal import UniversalTable

__all__ = [
    "RdPoint",
    "SphereExponent",
    "CrossoverRow",
    "blahut_arimoto",
    "sphere_exponent",
    "min_lz_in_sphere",
    "complexity_crossover",
    "crossover_point",
    "binary_entropy",
]

_SLOPE_CAP = 512.0


def binary_entropy(p: float) -> float:
    if p <= 0.0 or p >= 1.0:
        return 0.0
    return -p * math.log2(p) - (1 - p) * math.log2(1 - p)


def _as_arrays(source_dist, matrix):
    p = np.asarray(source_dist, dtype=float)
    try:
        d = np.asarray([[float(v) for v in row] for row in matrix], dtype=float)
    except OverflowError:
        raise PreconditionError("matrix entries must fit in a float")
    if p.ndim != 1 or d.ndim != 2 or d.shape[0] != p.size:
        raise PreconditionError("distribution and matrix shapes do not match")
    if np.any(p < 0) or abs(p.sum() - 1.0) > 1e-12:
        raise PreconditionError("source distribution must be a probability vector")
    if np.any(d < 0):
        raise PreconditionError("matrix entries must be non-negative")
    return p, d


@dataclass(frozen=True)
class RdPoint:
    """One point of the rate-distortion curve."""

    level: float
    rate: float
    slope: float
    iterations: int
    converged: bool


def _ba_at_slope(p, d, slope, inner_tol=1e-13, inner_max=20000):
    """Alternating minimization at fixed slope; returns (distortion, rate, iters)."""
    k = d.shape[1]
    q = np.full(k, 1.0 / k)
    with np.errstate(over="ignore"):  # a product past -inf weighs 0, as it should
        # rows scaled by the slope, each against its minimum, which weighs 1:
        # no row underflows to all zeros, whatever its costs
        weights = np.exp2(-slope * (d - d.min(axis=1, keepdims=True)))
    iters = 0
    for iters in range(1, inner_max + 1):
        a = weights * q
        row_sums = a.sum(axis=1, keepdims=True)
        cond = a / row_sums
        q_new = p @ cond
        if np.max(np.abs(q_new - q)) < inner_tol:
            q = q_new
            break
        q = q_new
    a = weights * q
    row_sums = a.sum(axis=1, keepdims=True)
    cond = a / row_sums
    avg_d = float(np.sum(p[:, None] * cond * d))
    with np.errstate(divide="ignore", invalid="ignore"):
        ratio = np.where(cond > 0, cond / q[None, :], 1.0)
        info = np.where(cond > 0, cond * np.log2(ratio), 0.0)
    rate = float(np.sum(p[:, None] * info))
    return avg_d, max(rate, 0.0), iters


def blahut_arimoto(
    source_dist, matrix, level: float, tol: float = 1e-9, max_iter: int = 200
) -> RdPoint:
    """Rate needed at the given distortion level, in bits per symbol.

    Bisects the Lagrange slope until the achieved distortion matches the
    target within tol, then applies the tangent-line correction, which is
    exact when the curve is differentiable at the solution.
    """
    p, d = _as_arrays(source_dist, matrix)
    if level < 0:
        raise PreconditionError("distortion level must be non-negative")
    d_min = float(np.sum(p * d.min(axis=1)))
    d_max = float(np.min(p @ d))
    if level < d_min - 1e-12:
        raise InfeasibleError(f"level {level} is below the attainable minimum {d_min}")
    if level >= d_max:
        return RdPoint(level=level, rate=0.0, slope=0.0, iterations=0, converged=True)

    lo, hi = 0.0, 1.0
    d_hi, r_hi, _ = _ba_at_slope(p, d, hi)
    total_iters = 0
    while d_hi > level and hi < _SLOPE_CAP:
        lo, hi = hi, hi * 2
        d_hi, r_hi, it = _ba_at_slope(p, d, hi)
        total_iters += it
    if d_hi > level:
        # slope capped out; report the closest point with the tangent correction
        rate = max(r_hi - hi * (level - d_hi), 0.0)
        return RdPoint(
            level=level,
            rate=rate,
            slope=hi,
            iterations=total_iters,
            converged=abs(d_hi - level) <= tol,
        )
    mid, d_mid, r_mid = hi, d_hi, r_hi
    for _ in range(max_iter):
        if abs(d_mid - level) <= tol:
            break
        mid = 0.5 * (lo + hi)
        d_mid, r_mid, it = _ba_at_slope(p, d, mid)
        total_iters += it
        if d_mid > level:
            lo = mid
        else:
            hi = mid
        if hi - lo < 1e-13:
            break
    rate = max(r_mid - mid * (level - d_mid), 0.0)
    return RdPoint(
        level=level, rate=rate, slope=mid, iterations=total_iters, converged=True
    )


@dataclass(frozen=True)
class SphereExponent:
    """Largest conditional entropy compatible with the distortion budget."""

    exponent: float
    multiplier: float
    channel: tuple[tuple[float, ...], ...]


def _gibbs_channel(d, lam):
    with np.errstate(over="ignore"):  # a product past -inf weighs 0, as it should
        w = np.exp2(-lam * (d - d.min(axis=1, keepdims=True)))  # as in _ba_at_slope
    return w / w.sum(axis=1, keepdims=True)


def sphere_exponent(source_dist, matrix, level: float, tol: float = 1e-9) -> SphereExponent:
    """Maximize average conditional entropy subject to expected distortion.

    The optimum is a per-source-letter Gibbs channel with one shared
    multiplier, found by bisection on the distortion constraint; zero
    multiplier applies when the unconstrained maximum is already feasible.
    """
    p, d = _as_arrays(source_dist, matrix)
    if level < 0:
        raise PreconditionError("distortion level must be non-negative")
    d_min = float(np.sum(p * d.min(axis=1)))
    if level < d_min - 1e-12:
        raise InfeasibleError(f"level {level} is below the attainable minimum {d_min}")

    def avg_d(lam):
        q = _gibbs_channel(d, lam)
        return float(np.sum(p[:, None] * q * d)), q

    d0, q0 = avg_d(0.0)
    if d0 <= level:
        h = float(np.sum(p * np.log2(d.shape[1])))
        return SphereExponent(
            exponent=h, multiplier=0.0, channel=tuple(map(tuple, q0))
        )

    lo, hi = 0.0, 1.0
    d_hi, q_hi = avg_d(hi)
    while d_hi > level and hi < 1e6:
        lo, hi = hi, hi * 2
        d_hi, q_hi = avg_d(hi)
    if d_hi > level:
        # effectively the minimum-distortion limit: uniform over row argmins
        mins = d.min(axis=1, keepdims=True)
        mask = (d <= mins + 1e-12).astype(float)
        q = mask / mask.sum(axis=1, keepdims=True)
        h = float(np.sum(p * np.log2(mask.sum(axis=1))))
        return SphereExponent(exponent=h, multiplier=math.inf, channel=tuple(map(tuple, q)))
    for _ in range(500):
        mid = 0.5 * (lo + hi)
        d_mid, q_mid = avg_d(mid)
        if d_mid > level:
            lo = mid
        else:
            hi = mid
            d_hi, q_hi = d_mid, q_mid
        if abs(d_mid - level) <= tol or hi - lo < 1e-15:
            break
    q = q_hi
    with np.errstate(divide="ignore", invalid="ignore"):
        hrows = np.where(q > 0, -q * np.log2(q), 0.0).sum(axis=1)
    return SphereExponent(
        exponent=float(p @ hrows), multiplier=hi, channel=tuple(map(tuple, q))
    )


def min_lz_in_sphere(
    x: Block, level, spec: DistortionSpec, table: UniversalTable
) -> tuple[int, Block]:
    """Shortest parse code inside the sphere around x; lexicographic tie-break."""
    table.require_fit(x.n, spec.repro_size)
    inside = np.flatnonzero(sphere_indicator(x, level, spec))
    if not inside.size:
        raise InfeasibleError("the distortion sphere is empty")
    best = int(inside[np.argmin(table.bits[inside])])  # first minimum in order
    return int(table.bits[best]), blocks_at([best], x.n, table.alphabet_size)[0]


@dataclass(frozen=True)
class CrossoverRow:
    level: float
    rate: float
    exponent: float
    sign: int
    random_code_cheaper: bool


def complexity_crossover(source_dist, matrix, levels) -> list[CrossoverRow]:
    """Tabulate rate versus sphere exponent over a distortion grid.

    The sphere exponent is the per-symbol enumeration cost of a sphere, so
    rows with rate below exponent mark the regime where coding the first-hit
    index beats describing a sphere member directly.
    """
    rows = []
    for level in levels:
        r = blahut_arimoto(source_dist, matrix, float(level)).rate
        e = sphere_exponent(source_dist, matrix, float(level)).exponent
        diff = r - e
        sign = 0 if abs(diff) < 1e-12 else (1 if diff > 0 else -1)
        rows.append(
            CrossoverRow(
                level=float(level),
                rate=r,
                exponent=e,
                sign=sign,
                random_code_cheaper=diff < 0,
            )
        )
    return rows


def crossover_point(
    source_dist, matrix, lo: float, hi: float, tol: float = 1e-9
) -> float:
    """Bisect for the level where rate equals the sphere exponent."""

    def gap(level):
        return (
            blahut_arimoto(source_dist, matrix, level).rate
            - sphere_exponent(source_dist, matrix, level).exponent
        )

    g_lo, g_hi = gap(lo), gap(hi)
    if g_lo == 0.0:
        return lo
    if g_hi == 0.0:
        return hi
    if (g_lo > 0) == (g_hi > 0):
        raise PreconditionError("bracket does not straddle the crossover")
    for _ in range(200):
        mid = 0.5 * (lo + hi)
        g_mid = gap(mid)
        if abs(g_mid) == 0.0 or hi - lo < tol:
            return mid
        if (g_mid > 0) == (g_lo > 0):
            lo = mid
        else:
            hi = mid
    return 0.5 * (lo + hi)
