"""Orbits under concatenation, fixed points, Jacobians and thresholds.

Concatenating a code with itself k times composes its coding map k times;
a noise channel is tamed when its orbit converges to the identity.  This
module iterates orbits, locates one-dimensional fixed points, searches
noise thresholds along rays of diagonal channels, and evaluates the
closed form of the quadratic error recursion.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Sequence

import numpy as np

from .channel import DiagonalChannel, StokesChannel, as_stokes, max_entry_distance
from .codingmap import COMPONENTS, c_constants, diagonal_map, general_map
from .stabilizer import StabilizerCode, get_code

DEFAULT_K_MAX = 60
DEFAULT_CONV_TOL = 1e-9
SCAN_STEP = 1e-3  # grid spacing of the fixed-point scan


@dataclass(frozen=True)
class OrbitLevel:
    k: int
    channel: DiagonalChannel | StokesChannel
    distance: float


@dataclass(frozen=True)
class OrbitRecord:
    levels: tuple[OrbitLevel, ...]
    converged: bool
    iterations_used: int


@dataclass(frozen=True)
class RaySpec:
    """A one-parameter family [1,1,1] - eps * direction of diagonal channels."""

    family: str
    direction: tuple[float, float, float]

    def __post_init__(self):
        if not all(math.isfinite(v) for v in self.direction):
            raise ValueError(f"ray direction must be finite, got {self.direction}")
        if max(abs(v) for v in self.direction) <= 0.0:
            raise ValueError("ray direction must be nonzero")

    @classmethod
    def depolarizing_ray(cls) -> "RaySpec":
        return cls("depolarizing", (1.0, 1.0, 1.0))

    @classmethod
    def dephasing_ray(cls) -> "RaySpec":
        return cls("dephasing", (0.0, 1.0, 1.0))

    @classmethod
    def custom(cls, direction: Sequence[float]) -> "RaySpec":
        dx, dy, dz = (float(v) for v in direction)
        return cls("custom", (dx, dy, dz))

    def channel_at(self, eps: float) -> DiagonalChannel:
        dx, dy, dz = self.direction
        return DiagonalChannel(1.0 - eps * dx, 1.0 - eps * dy, 1.0 - eps * dz)


def _check_orbit_settings(k_max, **tolerances) -> None:
    """Reject a negative or non-int k_max and NaN, infinite or negative tolerances."""
    if not isinstance(k_max, (int, np.integer)) or k_max < 0:
        raise ValueError(f"k_max must be a non-negative int, got {k_max!r}")
    for name, value in tolerances.items():
        if not 0.0 <= value < math.inf:
            raise ValueError(f"{name} must be finite and non-negative, got {value!r}")


def _diagonal_orbit(
    code, t0: DiagonalChannel, k_max: int, tol: float
) -> tuple[list[tuple[float, float, float]], list[float], bool, int]:
    """The evaluated levels of `iterate`'s orbit of a diagonal input as float
    triples and their distances to the identity, whether it converged, and the
    period (1 or 2) of the float cycle it stopped on, else 0.

    The loop is `DiagonalMapPolynomial.orbit`, compiled with the map inlined;
    it builds no channel object per level.  State 0 is the input's entries as
    floats; distance 0 is the input's own.
    """
    states, distances = [(float(t0.x), float(t0.y), float(t0.z))], [max_entry_distance(t0)]
    orbit = diagonal_map(code).orbit
    converged, period = orbit(*states[0], distances[0], k_max, tol, states, distances)
    return states, distances, converged, period


def _general_orbit(
    code, t0: StokesChannel, k_max: int, tol: float
) -> tuple[list[StokesChannel], list[float], bool]:
    """The levels of `iterate`'s orbit of a general input, their distances to
    the identity and whether it converged; `general_map` overflows to inf
    entries, not OverflowError."""
    channels, distances = [t0], [max_entry_distance(t0)]
    converged = distances[0] < tol
    while not converged and len(channels) <= k_max:
        new = general_map(code, channels[-1])
        dist = max_entry_distance(new)
        if not math.isfinite(dist):
            break
        converged = dist < tol
        channels.append(new)
        distances.append(dist)
    return channels, distances, converged


def iterate(
    code: StabilizerCode,
    t0: DiagonalChannel | StokesChannel,
    k_max: int = DEFAULT_K_MAX,
    tol: float = DEFAULT_CONV_TOL,
) -> OrbitRecord:
    """Apply the coding map up to k_max times, recording every level.

    Diagonal inputs iterate through the exact polynomial reduction,
    general inputs through the full 4x4 map.  Divergence is a recorded
    outcome, not an error: the orbit ends, unconverged, before the first
    level that overflows or has a non-finite entry, and an input with a
    NaN entry ends it at level 0.  Vacuous settings raise ValueError.

    A diagonal orbit's levels are those of `_diagonal_orbit`, the loop
    `threshold` runs, with level 0 the input itself and each later float
    triple wrapped in a DiagonalChannel.  If it is unconverged on a fixed
    point or 2-cycle of the float map, its remaining levels are filled in
    by repetition, not evaluation.
    """
    _check_orbit_settings(k_max, tol=tol)
    if isinstance(t0, DiagonalChannel):
        states, distances, converged, period = _diagonal_orbit(code, t0, k_max, tol)
        channels = [t0] + [DiagonalChannel(*state) for state in states[1:]]
        if period:
            for j in range(len(channels), k_max + 1):
                channels.append(channels[j - period])
                distances.append(distances[j - period])
    else:
        channels, distances, converged = _general_orbit(code, t0, k_max, tol)
    levels = tuple(map(OrbitLevel, range(len(channels)), channels, distances))
    return OrbitRecord(levels=levels, converged=converged, iterations_used=len(levels) - 1)


@dataclass(frozen=True)
class FixedPointScan:
    roots: tuple[float, ...]
    degenerate: bool


def fixed_points_1d(
    coeffs: Sequence[float],
    interval: tuple[float, float] = (-1.0, 1.0),
    tol: float = 1e-12,
) -> FixedPointScan:
    """All real solutions of poly(x) = x in the interval.

    Scans a uniform grid for sign changes of poly(x) - x and bisects each
    bracket down to width `tol`; exact zeros at grid points are taken
    directly.  A polynomial that is the identity on the whole grid is
    flagged as degenerate instead of producing roots.
    """
    lo, hi = interval
    if not -1.0 <= lo < hi <= 1.0:
        raise ValueError(f"interval must be inside [-1, 1], got {interval}")
    cs = [float(v) for v in coeffs]

    def g(x: float) -> float:
        acc = 0.0
        for coeff in reversed(cs):
            acc = acc * x + coeff
        return acc - x

    count = max(2, int(math.ceil((hi - lo) / SCAN_STEP)))
    xs = lo + (hi - lo) * np.arange(count + 1) / count
    # the grid in one array pass, by the operations of g; overflow gives inf
    # and inf - inf NaN, silently, as on Python floats
    with np.errstate(over="ignore", invalid="ignore"):
        vals = np.zeros_like(xs)
        for coeff in reversed(cs):
            vals = vals * xs + coeff
        vals = vals - xs
    near = np.abs(vals) < 1e-14
    if near.all():
        return FixedPointScan(roots=(), degenerate=True)

    roots: list[float] = xs[near].tolist()
    positive = vals > 0
    brackets = np.flatnonzero(~near[:-1] & ~near[1:] & (positive[:-1] != positive[1:]))
    for a, b, va in zip(xs[brackets].tolist(), xs[brackets + 1].tolist(), vals[brackets].tolist()):
        while b - a > tol:
            mid = 0.5 * (a + b)
            vm = g(mid)
            if vm == 0.0:
                a = b = mid
                break
            if (vm > 0) == (va > 0):
                a, va = mid, vm
            else:
                b = mid
        roots.append(0.5 * (a + b))

    roots.sort()
    deduped: list[float] = []
    for r in roots:
        if not deduped or r - deduped[-1] > 1e-9:
            deduped.append(r)
    return FixedPointScan(roots=tuple(deduped), degenerate=False)


def threshold(
    code: StabilizerCode,
    ray: RaySpec,
    tol_eps: float = 1e-6,
    tol_conv: float = DEFAULT_CONV_TOL,
    k_max: int = DEFAULT_K_MAX,
) -> float:
    """Largest noise strength along the ray whose orbit still converges.

    Bisection over eps in [0, 1] down to width `tol_eps`, or until `lo` and
    `hi` are adjacent floats; reports the last converging probe, so the
    result is conservative (never above the true threshold by more than the
    orbit tolerance allows).  Each probe reads only the converged flag of
    `_diagonal_orbit`, the float-triple loop behind
    `iterate(code, ray.channel_at(eps), k_max, tol_conv)`, and builds no
    orbit record.  Settings are checked as in `iterate`.
    """
    _check_orbit_settings(k_max, tol_eps=tol_eps, tol_conv=tol_conv)

    def converges(eps: float) -> bool:
        return _diagonal_orbit(code, ray.channel_at(eps), k_max, tol_conv)[2]

    if converges(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > tol_eps:
        mid = 0.5 * (lo + hi)
        if not lo < mid < hi:
            break  # no float lies strictly between lo and hi
        if converges(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _central_differences(f, base: np.ndarray, h: float) -> np.ndarray:
    """Central differences (f(base + h e_c) - f(base - h e_c)) / 2h of the
    array function f, one column per entry c of base in row-major order."""
    if h <= 0:
        raise ValueError("step size must be positive")
    columns = []
    for c in range(base.size):
        plus, minus = base.copy(), base.copy()
        plus.flat[c] += h
        minus.flat[c] -= h
        columns.append(((f(plus) - f(minus)) / (2.0 * h)).ravel())
    return np.stack(columns, axis=1)


def jacobian_fd(code: StabilizerCode, at: DiagonalChannel, h: float = 1e-5) -> np.ndarray:
    """Central-difference 3x3 Jacobian of the diagonal-reduced coding map."""
    poly = diagonal_map(code)
    return _central_differences(
        lambda xyz: np.array(poly.apply(DiagonalChannel(*xyz)).as_tuple()),
        np.array(at.as_tuple()), h,
    )


def jacobian_fd_full(
    code: StabilizerCode, at: DiagonalChannel | StokesChannel, h: float = 1e-5
) -> np.ndarray:
    """Central-difference 16x16 Jacobian of the full coding map on Stokes space.

    Entries are row-major over (output entry, input entry).  Exposed as an
    experiment hook; no attracting-fixed-point claim is attached to it.
    """
    return _central_differences(
        lambda matrix: general_map(code, StokesChannel(matrix)).matrix, as_stokes(at).matrix, h
    )


def error_series(alpha: float, eps0: float, k: int) -> float:
    """Closed form (1/alpha) * (alpha * eps0)^(2^k) of eps_{j+1} = alpha * eps_j^2.

    Overflow clamps to +inf; k = 0 returns eps0 exactly.
    """
    if k < 0:
        raise ValueError("k must be nonnegative")
    if alpha <= 0:
        raise ValueError("alpha must be positive")
    if k == 0:
        return float(eps0)
    if eps0 == 0:
        return 0.0
    log_value = (1 << k) * math.log(alpha * abs(eps0)) - math.log(alpha)
    if log_value > math.log(np.finfo(float).max):
        return math.inf
    return math.exp(log_value)


FIVE_QUBIT_DEPOL_FIXED_POINT = math.sqrt(2.0 / 3.0)
FIVE_QUBIT_QUADRATIC_CONSTANT = 1.0 / (1.0 - FIVE_QUBIT_DEPOL_FIXED_POINT)


@dataclass(frozen=True)
class GeneralBound:
    """A convergence guarantee (c_N + c_M)^-1 for arbitrary channel noise."""

    c_n: float
    c_m: float
    c_m_source: str
    c_m_grid: float
    value: float
    bounds_guaranteed: bool


def general_bound_check(code: StabilizerCode, seed: int = 0) -> GeneralBound:
    """Evaluate the arbitrary-channel convergence bound (c_N + c_M)^-1.

    For codes whose diagonal polynomials equal the five-qubit code's, the
    closed-form quadratic constant (1 - sqrt(2/3))^-1 is used; other codes
    fall back to the operational grid constant.
    """
    constants = c_constants(code, seed=seed)
    if diagonal_map(code).components == diagonal_map(get_code("five-qubit")).components:
        c_m = FIVE_QUBIT_QUADRATIC_CONSTANT
        source = "closed-form"
    else:
        c_m = constants.c_m
        source = "grid"
    return GeneralBound(
        c_n=float(constants.c_n),
        c_m=c_m,
        c_m_source=source,
        c_m_grid=constants.c_m,
        value=1.0 / (float(constants.c_n) + c_m),
        bounds_guaranteed=constants.bounds_guaranteed,
    )


def fixed_point_cross_check(code: StabilizerCode, ray: RaySpec) -> dict | None:
    """One-dimensional fixed-point reduction of a threshold search, if the
    ray admits one.

    The depolarizing ray reduces when the three diagonal components agree
    on the line x = y = z; the dephasing ray reduces when the X component
    is identically 1 at x = 1 and the Z component is autonomous in z.
    Returns the line variable, the fixed points in [0, 1] of the
    univariate polynomial and the implied threshold, or None when no
    reduction applies, as on an identity line t -> t, which every point
    fixes.
    """
    poly = diagonal_map(code)
    coeffs = None
    if ray.family == "depolarizing":
        lines = [poly.restrict(s, ("t", "t", "t")) for s in COMPONENTS]
        if lines[0] == lines[1] == lines[2]:
            coeffs, variable = lines[0], "t"
    elif ray.family == "dephasing" and poly.restrict("X", (1, None, None)) == (1,):
        coeffs, variable = poly.restrict("Z", (1, None, "t")), "z"
    if coeffs is None or coeffs == (0, 1):
        return None
    scan = fixed_points_1d([float(v) for v in coeffs], interval=(0.0, 1.0))
    below_one = [r for r in scan.roots if r < 1.0 - 1e-9]
    implied = 1.0 - max(below_one) if below_one else 1.0
    return {
        "variable": variable,
        "fixed_points": list(scan.roots),
        "threshold_from_fixed_point": implied,
    }
