"""The coding map of a stabilizer code.

One coding level wraps product noise T^(x)n between encoding and
syndrome recovery plus decoding; on the level of Stokes matrices this is
a polynomial map of degree n.  Both forms provided here are built once
per code instance from one source, the decoding coefficient tables
(`StabilizerCode.coefficient_table`): int64 arrays of x and z masks, signs
alpha and weight numerators over 2^m, read by popcounts and bit shifts:

* `compiled_map` holds every entry of the full 4x4 image as merged
  monomials in the 16 input entries: the sum over stabilizer pairs;
  `trace_preserving_map` only those free of row 0 off the diagonal, from
  the pairs that form them alone.  `general_map` evaluates the latter on
  inputs whose row 0 is (1, 0, 0, 0), the former on others, at O(n) per
  monomial; `general_map_exact` the former in exact rationals;
* `diagonal_map` holds the exact multivariate polynomials of the three
  diagonal components: the part of that pair sum where both members of
  the pair are the same row.  Diagonal inputs stay diagonal, so these
  polynomials fully describe the dynamics of Pauli noise.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, NamedTuple

import numpy as np

from .channel import DiagonalChannel, StokesChannel, as_stokes
from .stabilizer import SIGMAS, CapabilityError, StabilizerCode, per_code

COMPONENTS = ("X", "Y", "Z")


class Monomial(NamedTuple):
    a: int
    b: int
    c: int
    coeff: Fraction


@dataclass(frozen=True)
class DiagonalMapPolynomial:
    """Exact polynomials of the three diagonal components of one coding level.

    `components[s]` lists monomials coeff * x^a y^b z^c in ascending
    lexicographic (a, b, c) order; the implicit identity component is the
    constant 1.  Total degree never exceeds `n`.
    """

    n: int
    components: dict[str, tuple[Monomial, ...]]

    @functools.cached_property
    def float_terms(self) -> tuple[tuple[tuple[float, int, int, int], ...], ...]:
        """The float form that `evaluator` and `orbit` compile and `c_constants`
        reads: per component X, Y, Z, the tuple of (float(coeff), a, b, c)."""
        return tuple(
            tuple((float(m.coeff), m.a, m.b, m.c) for m in self.components[sigma])
            for sigma in COMPONENTS
        )

    @functools.cached_property
    def evaluator(self) -> Callable[[float, float, float], tuple[float, float, float]]:
        """The float map (x, y, z) -> (X, Y, Z) on plain floats, which `apply`
        calls; raises OverflowError where a power leaves the float range.

        `_float_map_body` compiled on first use into one function."""
        return _compile("evaluator", _EVALUATOR, _float_map_body(self.float_terms))

    @functools.cached_property
    def orbit(self) -> Callable[..., tuple[bool, int]]:
        """`orbit(x, y, z, dist, k_max, tol, states, distances)`, the loop of
        `dynamics._diagonal_orbit` with `_float_map_body` inlined: from the
        state (x, y, z) at distance `dist` it appends each evaluated level's
        triple and distance to `states` and `distances`, and returns whether
        the orbit converged and the period (1 or 2) of the float cycle it
        stopped on, else 0."""
        return _compile("orbit", _ORBIT, _float_map_body(self.float_terms))

    def apply(self, t: DiagonalChannel) -> DiagonalChannel:
        """Image of a diagonal channel, in floating point.

        Raises OverflowError where a power leaves the float range.
        """
        return DiagonalChannel(*self.evaluator(float(t.x), float(t.y), float(t.z)))

    def restrict(self, sigma: str, point) -> tuple[Fraction, ...] | None:
        """Component `sigma` on a line, exactly: `point` gives per variable
        x, y, z an exact value, "t" for the line variable, or None for a
        variable that must not occur.  Returns the coefficients in t in
        ascending degree, trailing zeros dropped down to the constant, or
        None if a variable given as None occurs."""
        coeffs = [Fraction(0)] * (self.n + 1)
        for m in self.components[sigma]:
            coeff, degree = m.coeff, 0
            for value, e in zip(point, m[:3]):
                if value == "t":
                    degree += e
                elif value is None:
                    if e:
                        return None
                else:
                    coeff *= Fraction(value) ** e
            coeffs[degree] += coeff
        while len(coeffs) > 1 and coeffs[-1] == 0:
            coeffs.pop()
        return tuple(coeffs)

    def to_json_obj(self) -> dict:
        return {
            sigma: [
                {
                    "a": m.a,
                    "b": m.b,
                    "c": m.c,
                    "num": m.coeff.numerator,
                    "den": m.coeff.denominator,
                }
                for m in self.components[sigma]
            ]
            for sigma in COMPONENTS
        }


def _float_map_body(float_terms) -> list[str]:
    """Statements that set X, Y, Z to the float map of x, y, z, of float reprs
    and integer exponents only: each power x**a with a > 1 once into a local,
    then per component in term order `0.0 + c * x**a * y**b * z**c + ...`,
    factors x**0 = 1.0 left out.  Summed strictly left to right, with no
    compensation, these are the bits of the exact monomials on floats
    (Fraction * float is float(coeff) * float).  `pow` is deterministic, so a
    shared power changes no bits, and x**1 is x itself."""

    def factors(exps):
        return [v if e == 1 else f"{v}{e}" for v, e in zip("xyz", exps) if e]

    powers = {(v, e) for terms in float_terms for _, *exps in terms for v, e in zip("xyz", exps)}
    lines = [f"{v}{e} = {v}**{e}" for v, e in sorted(powers) if e > 1]
    for name, terms in zip("XYZ", float_terms):
        products = (" * ".join([repr(c), *factors(exps)]) for c, *exps in terms)
        lines.append(f"{name} = " + " + ".join(["0.0", *products]))
    return lines


def _compile(name: str, template: str, body: list[str]):
    """The function `name` of `template` with the statements of `body` on the
    line of {body}, from source generated as `dataclasses` generates
    `__init__`."""
    namespace = {"inf": math.inf}
    exec(template.format(body="; ".join(body)), namespace)
    return namespace[name]


_EVALUATOR = """\
def evaluator(x, y, z):
    {body}
    return X, Y, Z
"""

# `new_dist` is `deficit_distance(X, Y, Z)`: the deficits are NaN or
# non-negative, so `< inf` fails on exactly the NaN and infinite ones, and the
# running maximum keeps the first maximal deficit, as `max` does
_ORBIT = """\
def orbit(x, y, z, dist, k_max, tol, states, distances):
    if dist < tol:
        return True, 0
    for k in range(k_max):
        try:
            {body}
        except OverflowError:
            return False, 0
        dx, dy, dz = abs(1.0 - X), abs(1.0 - Y), abs(1.0 - Z)
        if not (dx < inf and dy < inf and dz < inf):
            return False, 0
        new_dist = dx
        if dy > new_dist:
            new_dist = dy
        if dz > new_dist:
            new_dist = dz
        states.append((X, Y, Z))
        distances.append(new_dist)
        if new_dist < tol:
            return True, 0
        if new_dist == dist and X == x and Y == y and Z == z:
            return False, 1
        if k and new_dist == last_dist and X == last_x and Y == last_y and Z == last_z:
            return False, 2
        last_x, last_y, last_z, last_dist = x, y, z, dist
        x, y, z, dist = X, Y, Z, new_dist
    return False, 0
"""


@per_code
def diagonal_map(code: StabilizerCode) -> DiagonalMapPolynomial:
    """Exact diagonal-component polynomials of one coding level.

    Component sigma adds, per row (|S_i sigma_bar|, alpha, beta) of the
    coefficient table, the monomial x^a y^b z^c with the row's letter
    counts (a, b, c) and coefficient alpha * beta; like monomials merge
    and exact zeros drop out.
    """
    size = 1 << code.m
    components: dict[str, tuple[Monomial, ...]] = {}
    for sigma in COMPONENTS:
        x, z, alpha, beta = code.coefficient_table(sigma)
        counts = np.bitwise_count([x & ~z, x & z, z & ~x]).T.tolist()
        acc: dict[tuple[int, ...], int] = {}  # numerators over 2^m
        for exps, num in zip(map(tuple, counts), (alpha * beta).tolist()):
            acc[exps] = acc.get(exps, 0) + num
        components[sigma] = tuple(
            Monomial(a, b, c, Fraction(num, size)) for (a, b, c), num in sorted(acc.items()) if num
        )
    return DiagonalMapPolynomial(n=code.n, components=components)


@dataclass(frozen=True)
class CompiledMap:
    """The full 4x4 coding map as merged exact monomials.

    Monomial k adds numerators[k] / 2^m * prod_q T[factors[q, k]] to output
    entry[k] = 4 s + t, where T is the input Stokes matrix in row-major
    order and factor q is the letter pair on qubit q of one stabilizer pair
    that the monomial merges.  Monomials are distinct within an entry, and
    no numerator is 0.
    """

    m: int
    entry: np.ndarray  # (K,)
    factors: np.ndarray  # (n, K)
    numerators: np.ndarray  # (K,) integers


def _reduce(keys, nums, kind=None):
    """The distinct keys in ascending order, the position of each one's first
    occurrence and the sums of their numerators."""
    order = np.argsort(keys, kind=kind)
    keys = keys[order]
    starts = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
    return keys[starts], np.minimum.reduceat(order, starts), np.add.reduceat(nums[order], starts)


def _packed_reduce(keys, positions, nums, bits):
    """`_reduce` of the keys at distinct `positions`, by one value sort of
    key << bits | position in uint64: the distinct keys in ascending order,
    the least position of each and the sums of `nums[position]`.  Keys must be
    below 2^(64 - bits) and positions below 2^bits."""
    packed = np.sort(keys.astype(np.uint64) << bits | positions.astype(np.uint64))
    keys, positions = packed >> bits, (packed & ((1 << bits) - 1)).astype(np.int64)
    starts = np.flatnonzero(np.concatenate([[True], keys[1:] != keys[:-1]]))
    return keys[starts], positions[starts], np.add.reduceat(nums[positions], starts)


def _merge(code: StabilizerCode, tp: bool) -> CompiledMap:
    """Entry (s, t) of the image sums beta[s]_j * alpha[t]_i over stabilizer
    pairs (j, i), times the product of input entries along the letter
    patterns of |S_j s_bar| and |S_i t_bar|.  That product depends only on
    how often each (row letter, column letter) pair occurs, so pairs with
    equal count vectors merge exactly, each monomial keeping its first pair:
    per row letter s, one sort per block of whole rows for all four t, then
    one stable sort of the blocks' sorted runs.

    With `tp`, only pairs whose column letter is I wherever the row letter
    is I take part, the pairs of the monomials free of T_01, T_02, T_03: their
    keys, whose digits 0-2 are then 0, are gathered at those pairs alone and
    merged by one value sort, each packed above its pair's position.
    """
    n, size, base = code.n, 1 << code.m, code.n + 1
    if base**16 > np.iinfo(np.int64).max:
        raise CapabilityError(f"the compiled coding map is limited to n <= 14, code has n = {n}")
    tables = [code.coefficient_table(sigma) for sigma in SIGMAS]
    # column c = t size + i holds row i of table t, letters I, X, Y, Z = 0, 1, 2, 3
    x = np.concatenate([t.x for t in tables])[:, None] >> np.arange(n) & 1
    z = np.concatenate([t.z for t in tables])[:, None] >> np.arange(n) & 1
    columns = (x ^ z) + 2 * z
    # A key counts letter pairs (a, b) in digit 4 a + b - 1 (radix n+1) and
    # holds t in digit 15; the (I, I) count follows from the digit sum n.
    # Digits 0-2 (a = I) and, over (n+1)^3, digits 3-15 are each below 2^49
    # and so exact in float64 as sums over qubits of row times column factors.
    col_power = (base ** np.arange(4.0))[columns].T
    col_high = np.vstack([col_power, np.repeat(np.arange(4.0) * base**12, size)])
    if tp:
        col_support = np.concatenate([t.x | t.z for t in tables])
    else:
        col_low = np.ascontiguousarray(np.array([0.0, 1, base, base**2])[columns].T)
    alpha = np.concatenate([t.alpha for t in tables])
    # With tp a key is its digits 3-15, below 4 (n+1)^12, and a pair's position in
    # its block gets the bits left of 64: a row of 4 size = 2^(n+1) pairs fits to n = 14
    bits = 64 - (4 * base**12 - 1).bit_length()
    step = max(1, (min(16384, 1 << bits) if tp else 8192) // (4 * size))  # rows per block
    entries, factors, numerators = [], [], []
    for r, table in enumerate(tables):
        row_letters = columns[r * size : (r + 1) * size]
        row_power = np.array([0.0, 1, base**4, base**8])[row_letters]
        row_high = np.hstack([row_power, np.ones((size, 1))])
        support, live, runs = table.x | table.z, np.flatnonzero(table.beta), []
        for k in range(0, len(live), step):
            rows = live[k : k + step]
            high = (row_high[rows] @ col_high).ravel()
            nums = np.outer(table.beta[rows], alpha).ravel()
            if tp:
                kept = np.flatnonzero((col_support & ~support[rows, None]) == 0)
                keys, first, nums = _packed_reduce(high[kept], kept, nums, bits)
            else:
                low = ((row_letters[rows] == 0) @ col_low).ravel()
                keys = high.astype(np.int64) * base**3 + low.astype(np.int64)
                keys, first, nums = _reduce(keys, nums)
            # pair 4 size k' + c: live row k', column c
            runs.append((keys, 4 * size * k + first, nums))
        keys, pairs, nums = map(np.concatenate, zip(*runs))
        _, first, nums = _reduce(keys, nums, "stable")  # a stable sort merges sorted runs
        j, c = np.divmod(pairs[first][nums != 0], 4 * size)
        factors.append(4 * row_letters[live[j]] + columns[c])
        numerators.append(nums[nums != 0])
        entries.append(4 * r + c // size)
    factors = np.concatenate(factors).T.copy()
    return CompiledMap(code.m, np.concatenate(entries), factors, np.concatenate(numerators))


@per_code
def compiled_map(code: StabilizerCode) -> CompiledMap:
    """Every monomial of the full 4x4 image, merged over all stabilizer pairs."""
    return _merge(code, tp=False)


@per_code
def trace_preserving_map(code: StabilizerCode) -> CompiledMap:
    """The monomials of `compiled_map`, in its order and with its bytes, that
    hold none of the input entries T_01, T_02, T_03, merged from their own
    stabilizer pairs.  On an input whose row 0 is (1, 0, 0, 0) every other
    monomial is a signed zero, so both forms sum to the same bits."""
    return _merge(code, tp=True)


def general_map(code: StabilizerCode, channel: DiagonalChannel | StokesChannel) -> StokesChannel:
    """Image of an arbitrary superoperator under one coding level: one
    gather-and-product pass over the compiled monomials.

    An input whose row 0 is exactly (1, 0, 0, 0) is evaluated on
    `trace_preserving_map`, any other on the full `compiled_map`.  The two
    agree bit for bit on finite inputs; where an entry is infinite or NaN
    they may differ, because the full form turns 0 * inf into NaN.
    """
    matrix = as_stokes(channel).matrix
    tp = matrix[0].tolist() == [1.0, 0.0, 0.0, 0.0]
    compiled = trace_preserving_map(code) if tp else compiled_map(code)
    terms = matrix.ravel()[compiled.factors].prod(axis=0) * compiled.numerators
    out = np.bincount(compiled.entry, weights=terms, minlength=16) / (1 << compiled.m)
    return StokesChannel(out.reshape(4, 4))


def general_map_exact(code: StabilizerCode, entries) -> list[list[Fraction]]:
    """Exact-rational `general_map` of a 4x4 array of exact entries."""
    flat = [Fraction(v) for row in entries for v in row]
    if len(entries) != 4 or any(len(row) != 4 for row in entries):
        raise ValueError("expected a 4x4 array of exact entries")
    compiled = compiled_map(code)
    out = [Fraction(0)] * 16
    for k, factors, num in zip(
        compiled.entry.tolist(), compiled.factors.T.tolist(), compiled.numerators.tolist()
    ):
        out[k] += num * math.prod(flat[p] for p in factors)
    return [[v / (1 << compiled.m) for v in out[4 * r : 4 * r + 4]] for r in range(4)]


@dataclass(frozen=True)
class CConstants:
    """Perturbation constants of one coding level.

    `c_n` bounds the leakage of off-diagonal noise (exact rational, equals
    2^m * max_sigma sum_i |beta|); `c_m` is the operational quadratic
    constant of the diagonal components near the identity, measured on a
    deficit grid; `bounds_guaranteed` is False when d < 3 or w < 2, where
    the suppression orders behind these constants are not established.
    """

    c_n: Fraction
    c_m: float
    bounds_guaranteed: bool


GRID_POINTS = 1000
RANDOM_DIRECTIONS = 20


def _directions(rng) -> np.ndarray:
    """The axes, then 20 uniform triples from `rng` scaled to max 1: one (20, 3)
    draw whose rows with max <= 1e-9 give way to single draws at the end, so
    the triples are those of drawing one at a time."""
    rows = rng.uniform(0.0, 1.0, size=(RANDOM_DIRECTIONS, 3))
    rows = list(rows[rows.max(axis=1) > 1e-9])
    while len(rows) < RANDOM_DIRECTIONS:
        rows += [u for u in [rng.uniform(0.0, 1.0, size=3)] if u.max() > 1e-9]
    rows = np.array(rows)
    return np.vstack([np.eye(3), rows / rows.max(axis=1, keepdims=True)])


@functools.lru_cache(maxsize=16)
def _grid(seed: int, n: int) -> tuple[np.ndarray, ...]:
    """What `c_constants` needs of the seed and n alone, read-only: the 23
    directions u, the eps grid, the binomials C(a, i) for a, i <= n, the
    J = C(n+3, 3) triples (i, j, l) of degree <= n as a (3, J) array with
    (0, 0, 0) first, the one-hot (J, 1, n+1) of their degrees, the (2, 23, J)
    monomials (-u)^(i, j, l) and their absolute values, and eps^(k-2), k <= n."""
    directions = _directions(np.random.default_rng(seed))
    eps = np.arange(1, GRID_POINTS + 1, dtype=float) / GRID_POINTS
    binom = np.array([[math.comb(a, i) for i in range(n + 1)] for a in range(n + 1)])
    ijl = np.argwhere(np.indices((n + 1,) * 3).sum(axis=0) <= n).T
    m = ((-directions)[:, :, None] ** range(n + 1))[:, range(3), ijl.T].prod(axis=2)
    by_degree = (ijl.sum(axis=0)[:, None, None] == range(n + 1)).astype(float)
    powers = eps ** (np.arange(n + 1) - 2.0)[:, None]
    grid = (directions, eps, binom, ijl, by_degree, np.stack([m, abs(m)]), powers)
    for array in grid:
        array.setflags(write=False)
    return grid


@per_code
def _expansion(code: StabilizerCode) -> np.ndarray:
    """The diagonal map about the identity, exactly: a read-only (3, J) int64
    array T, component s at (1 - e_x, 1 - e_y, 1 - e_z) being the sum over the
    triples t = (i, j, l) of `_grid` of T[s, t] / 2^m (-e_x)^i (-e_y)^j (-e_z)^l.
    As x^a = sum_i C(a, i) (-e_x)^i, T[s, t] sums num C(a, i) C(b, j) C(c, l)
    over the monomials num / 2^m x^a y^b z^c of component s.  |T| <= c_N 2^n
    with c_N <= 4^m, so T and T / 2^m are exact while c_N 2^n < 2^53 (to n = 18
    whatever c_N).  Triples and binomials do not depend on the seed."""
    binom, ijl = _grid(0, code.n)[2:4]
    poly = diagonal_map(code)
    rows = []
    for sigma in COMPONENTS:
        terms = poly.components[sigma]
        nums = np.array([int(m.coeff * (1 << code.m)) for m in terms], dtype=np.int64)
        exps = np.array([m[:3] for m in terms], dtype=np.int64)
        rows.append(nums @ binom[exps[:, :, None], ijl].prod(axis=1))
    expansion = np.array(rows)
    expansion.setflags(write=False)
    return expansion


def c_constants(code: StabilizerCode, seed: int = 0) -> CConstants:
    """Compute (c_N, c_M) for a code.

    c_N is exact.  c_M is the smallest constant with
    |component([1,1,1] - eps*u) - 1| <= c_M * eps^2 over the grid
    eps in {k/1000 : 1 <= k <= 1000} and deficit directions u consisting
    of the three axes plus 20 seeded random directions scaled to max 1.

    Only the directions that a screen of all 23 cannot rule out are then
    evaluated term by term, so c_M keeps the bits of evaluating all 23.  The
    screen reads `_expansion`, built once per code, and `_grid`, built once
    per (seed, n).
    """
    # 2^m sum_i |beta_i| = sum_i |f_i|, as beta = f alpha / 2^m with alpha = +-1
    c_n = Fraction(int(np.abs(code.f_matrix()).sum(axis=0).max()))

    terms = diagonal_map(code).float_terms
    coeffs = [np.array([c for c, *_ in component]) for component in terms]
    ends = np.cumsum([len(c) for c in coeffs])
    exps = np.array([e for component in terms for _, *e in component], dtype=np.int64)
    degrees = [np.flatnonzero(np.bincount(exps[:, v])) for v in range(3)]
    directions, eps, _, _, by_degree, u_monomials, eps_powers = _grid(seed, code.n)
    table = np.empty((code.n + 1, 3, GRID_POINTS))  # (degree, 3, grid), rows in use only

    def grid_max(u):
        xyz = 1.0 - eps[None, :] * u[:, None]  # (3, grid)
        for v, used in enumerate(degrees):
            table[used, v] = xyz[v] ** used[:, None]
        monomials = table[exps, range(3)].prod(axis=1)  # (mono, grid), all components
        values = np.array([c @ monomials[end - len(c) : end] for c, end in zip(coeffs, ends)])
        return float((np.abs(values - 1.0) / eps**2).max())

    # The screen: component minus 1 is sum T[t] / 2^m (-u_x)^i (-u_y)^j (-u_z)^l
    # eps^(i+j+l) over the triples t, (0, 0, 0) first.  Row 0 of `poly` sums each
    # direction's terms by degree, row 1 their absolute values.
    expansion = _expansion(code) / float(1 << code.m)
    expansion[:, 0] -= 1.0
    spread = np.stack([expansion, abs(expansion)]).swapaxes(1, 2)[..., None] * by_degree
    poly = (u_monomials @ spread.reshape(*spread.shape[:2], -1)).reshape(2, -1, code.n + 1)
    # T is exact, so only the evaluations err: each by at most (C(n+3, 3) + 4n
    # + 32) unit roundoffs 2^-53 times its terms' absolute sum, row 1 for the
    # screen and (sum |c| + 1) / eps^2, added to row 1's eps^0 term, for grid_max
    # (x, y, z in [0, 1]).  That is under 1e-13 for n <= 14 and under 1e-12 to
    # n = 35, so while T is exact no direction holding c_M is dropped.
    poly[1, :, 0] += np.tile([np.abs(c).sum() + 1.0 for c in coeffs], len(directions))
    screen, slack = poly @ eps_powers
    np.abs(screen, out=screen)
    slack += screen
    slack *= 1e-12
    low = (screen - slack).max()
    screen += slack
    high = screen.reshape(len(directions), -1).max(axis=1)
    c_m = max([0.0] + [grid_max(u) for u, top in zip(directions, high) if top >= low])

    d, w = code.distance_and_w()
    return CConstants(c_n=c_n, c_m=c_m, bounds_guaranteed=(d >= 3 and w >= 2))
