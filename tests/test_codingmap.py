"""Exact polynomial coding maps and the full Stokes-space map.

Hand-derived expectations: for the three-qubit bit-flip code the recovery
operators {I, X1, X2, X3} all commute with logical X = XXX, and the
correlation sums against logical Z = ZZZ give (-2, 2, 2, 2) over the
group {III, ZZI, IZZ, ZIZ}; reading off the letter counts of the
products yields

    X component: x^3
    Y component: (3 x^2 y - y^3) / 2
    Z component: (3 z - z^3) / 2

The five-qubit and Shor expectations below were cross-checked by the
dense simulator (see test_oracle) and by an independent convolution of
the inner cube for the Shor Z component.
"""

import functools
import gc
import hashlib
import itertools
import math
import operator
import weakref
from fractions import Fraction

import numpy as np
import pytest

from concatcode import (
    CConstants,
    CapabilityError,
    DiagonalChannel,
    DiagonalMapPolynomial,
    Monomial,
    PauliString,
    StabilizerCode,
    StokesChannel,
    builtin_names,
    c_constants,
    depolarizing,
    diagonal_map,
    extract_stokes,
    general_map,
    general_map_exact,
    get_code,
    is_valid_channel,
    parse_code_spec,
    random_cptp,
    random_pauli_channel,
)
from concatcode.cli import canonical_json
from concatcode.codingmap import (
    GRID_POINTS,
    RANDOM_DIRECTIONS,
    _directions,
    _expansion,
    _grid,
    _packed_reduce,
    compiled_map,
    trace_preserving_map,
)
from conftest import THIRTEEN_QUBIT, Y_REPETITION4, spec_text

F = Fraction


def monomials(code_name: str, sigma: str):
    poly = diagonal_map(get_code(code_name))
    return [(m.a, m.b, m.c, m.coeff) for m in poly.components[sigma]]


def left_to_right_sum(terms, start=0):
    """start + t0 + t1 + ... in that order; from Python 3.12 the builtin `sum`
    adds floats with compensation, so it would not give these bits."""
    return functools.reduce(operator.add, terms, start)


def evaluate(poly, sigma, x, y, z):
    """One component of `poly` at (x, y, z); exact when the inputs are Fractions."""
    return left_to_right_sum(m.coeff * x**m.a * y**m.b * z**m.c for m in poly.components[sigma])


def test_bitflip3_polynomials_match_hand_derivation():
    assert monomials("bitflip3", "X") == [(3, 0, 0, F(1))]
    assert monomials("bitflip3", "Y") == [(0, 3, 0, F(-1, 2)), (2, 1, 0, F(3, 2))]
    assert monomials("bitflip3", "Z") == [(0, 0, 1, F(3, 2)), (0, 0, 3, F(-1, 2))]


FIVE_QUBIT_X = [
    (1, 0, 2, F(5, 4)),
    (1, 2, 0, F(5, 4)),
    (1, 2, 2, F(-5, 4)),
    (5, 0, 0, F(-1, 4)),
]


def test_five_qubit_x_component_exact():
    assert monomials("five-qubit", "X") == FIVE_QUBIT_X


def test_five_qubit_cyclic_structure():
    # Y component is the X component under x->y->z->x, Z under the square.
    y_expected = sorted((c, a, b, coeff) for a, b, c, coeff in FIVE_QUBIT_X)
    z_expected = sorted((b, c, a, coeff) for a, b, c, coeff in FIVE_QUBIT_X)
    assert monomials("five-qubit", "Y") == y_expected
    assert monomials("five-qubit", "Z") == z_expected


def _cube(coeffs: list[Fraction]) -> list[Fraction]:
    def conv(u, v):
        out = [F(0)] * (len(u) + len(v) - 1)
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                out[i + j] += a * b
        return out

    return conv(coeffs, conv(coeffs, coeffs))


def test_shor_z_component_is_cubed_inner_map():
    inner = [F(0), F(3, 2), F(0), F(-1, 2)]  # (3z - z^3) / 2
    cubed = _cube(inner)
    expected = [(0, 0, d, c) for d, c in enumerate(cubed) if c != 0]
    assert monomials("shor", "Z") == expected


def test_shor_x_component_univariate():
    assert all(b == 0 and c == 0 for _, b, c, _ in monomials("shor", "X"))
    poly = diagonal_map(get_code("shor"))
    assert evaluate(poly, "X", F(1), F(0), F(0)) == 1


def test_identity_is_fixed_point_exactly():
    for name in builtin_names():
        poly = diagonal_map(get_code(name))
        for sigma in "XYZ":
            assert evaluate(poly, sigma, F(1), F(1), F(1)) == 1


def test_degree_bound():
    for name in builtin_names():
        code = get_code(name)
        poly = diagonal_map(code)
        for sigma in "XYZ":
            assert all(m.a + m.b + m.c <= code.n for m in poly.components[sigma])


def test_depolarizing_line_five_qubit():
    poly = diagonal_map(get_code("five-qubit"))
    line = poly.restrict("X", ("t", "t", "t"))
    assert line == (F(0), F(0), F(0), F(5, 2), F(0), F(-3, 2))


def test_line_polynomials_drop_top_degree_terms_that_cancel():
    # X = x + x^2 z - x^2 y: its degree-3 terms cancel on x = y = z = t and its
    # x^2 terms at y = z = 1; Y = x y - x z cancels entirely on both
    poly = DiagonalMapPolynomial(n=3, components={
        "X": (Monomial(1, 0, 0, F(1)), Monomial(2, 0, 1, F(1)), Monomial(2, 1, 0, F(-1))),
        "Y": (Monomial(1, 1, 0, F(1)), Monomial(1, 0, 1, F(-1))),
        "Z": (Monomial(0, 0, 1, F(1)),),
    })
    assert poly.restrict("X", ("t", "t", "t")) == (F(0), F(1))
    assert poly.restrict("X", ("t", 1, 1)) == (F(0), F(1))
    assert poly.restrict("Y", ("t", "t", "t")) == (F(0),)
    assert poly.restrict("Y", ("t", 1, 1)) == (F(0),)


# the depolarizing line, the dephasing ray's X check and Z line, the Z line
# of criterion 3, X alone, and a line with two exact values
RESTRICT_POINTS = [
    ("t", "t", "t"),
    (1, None, None),
    (1, None, "t"),
    (None, None, "t"),
    ("t", None, None),
    (F(-1, 2), "t", F(3, 4)),
]


@pytest.mark.parametrize("name", sorted(builtin_names()) + ["thirteen-qubit"])
def test_restrict_is_the_component_on_the_line(name):
    code = parse_code_spec(THIRTEEN_QUBIT) if name == "thirteen-qubit" else get_code(name)
    poly = diagonal_map(code)
    for sigma, point in itertools.product("XYZ", RESTRICT_POINTS):
        line = poly.restrict(sigma, point)
        absent = [v for v, value in enumerate(point) if value is None]
        assert (line is None) == any(m[v] for m in poly.components[sigma] for v in absent)
        if line is None:
            continue
        assert len(line) == 1 or line[-1] != 0
        for t in (F(1, 3), F(-5, 7), F(2)):
            # no monomial holds an absent variable, so any value stands in for it
            at = [t if value == "t" else F(7, 3) if value is None else F(value) for value in point]
            assert sum(c * t**d for d, c in enumerate(line)) == evaluate(poly, sigma, *at)


def test_apply_diagonal_examples():
    poly3 = diagonal_map(get_code("bitflip3"))
    out = poly3.apply(DiagonalChannel(1.0, 1.0, 0.9))
    assert out.z == pytest.approx(0.9855, abs=1e-15)
    poly5 = diagonal_map(get_code("five-qubit"))
    x = 0.93
    out5 = poly5.apply(DiagonalChannel(x, x, x))
    assert out5.x == pytest.approx(2.5 * x**3 - 1.5 * x**5, abs=1e-14)
    for name in builtin_names():
        poly = diagonal_map(get_code(name))
        assert poly.apply(DiagonalChannel.identity()).as_tuple() == (1, 1, 1)


def _summed_float_terms(poly, x, y, z):
    """The float evaluation as a sum over `float_terms`, term by term."""
    return tuple(
        left_to_right_sum((c * x**a * y**b * z**e for c, a, b, e in terms), 0.0)
        for terms in poly.float_terms
    )


@pytest.mark.parametrize("name", builtin_names())
def test_apply_gives_the_bits_of_the_exact_monomials_on_floats(name):
    poly = diagonal_map(get_code(name))
    points = np.random.default_rng(2016).uniform(-1.2, 1.2, size=(20000, 3)).tolist()
    for x, y, z in points:
        got = poly.apply(DiagonalChannel(x, y, z)).as_tuple()
        assert got == tuple(float(evaluate(poly, s, x, y, z)) for s in ("X", "Y", "Z"))
    # signed zeros, infinities and NaN in each coordinate, against the term sum
    special = [0.0, -0.0, math.inf, -math.inf, math.nan, 1.0, -0.75, 1.1]
    for x, y, z in itertools.product(special, repeat=3):
        got = poly.apply(DiagonalChannel(x, y, z)).as_tuple()
        assert [v.hex() for v in got] == [v.hex() for v in _summed_float_terms(poly, x, y, z)]
    with pytest.raises(OverflowError):
        _summed_float_terms(poly, 1e200, 1.0, 1.0)
    with pytest.raises(OverflowError):
        poly.apply(DiagonalChannel(1e200, 1, 1))


def test_json_export_canonical_order():
    obj = diagonal_map(get_code("five-qubit")).to_json_obj()
    assert list(obj) == ["X", "Y", "Z"]
    keys = [(m["a"], m["b"], m["c"]) for m in obj["X"]]
    assert keys == sorted(keys)
    assert obj["X"][-1] == {"a": 5, "b": 0, "c": 0, "num": -1, "den": 4}


# -- general map --------------------------------------------------------------------


def test_general_map_identity_is_identity():
    for name in builtin_names():
        out = general_map(get_code(name), StokesChannel.identity())
        np.testing.assert_allclose(out.matrix, np.eye(4), atol=1e-12)


@pytest.mark.parametrize("name", builtin_names())
def test_general_map_takes_a_diagonal_channel(name):
    code = get_code(name)
    for channel in (depolarizing(0.1), DiagonalChannel(0.9, -0.3, 0.5)):
        want = general_map(code, channel.to_stokes()).matrix
        assert general_map(code, channel).matrix.tobytes() == want.tobytes()


def test_general_map_exact_diagonal_reduction():
    x, y, z = F(9, 10), F(-3, 10), F(1, 2)
    entries = [[F(0)] * 4 for _ in range(4)]
    for i, v in enumerate((F(1), x, y, z)):
        entries[i][i] = v
    for name in ("bitflip3", "five-qubit"):
        code = get_code(name)
        out = general_map_exact(code, entries)
        poly = diagonal_map(code)
        for i in range(4):
            for j in range(4):
                if i != j:
                    assert out[i][j] == 0
        assert out[0][0] == 1
        assert out[1][1] == evaluate(poly, "X", x, y, z)
        assert out[2][2] == evaluate(poly, "Y", x, y, z)
        assert out[3][3] == evaluate(poly, "Z", x, y, z)


def test_general_map_float_matches_exact_on_nondiagonal_input():
    rng = np.random.default_rng(31)
    raw = rng.integers(-100, 101, size=(4, 4))
    entries = [[F(int(v), 100) for v in row] for row in raw]
    code = get_code("five-qubit")
    exact = general_map_exact(code, entries)
    floated = general_map(code, StokesChannel(np.array(raw, dtype=float) / 100.0))
    for i in range(4):
        for j in range(4):
            assert floated.matrix[i, j] == pytest.approx(float(exact[i][j]), abs=1e-13)


def test_general_map_matches_diagonal_polynomials_in_float():
    rng = np.random.default_rng(42)
    for name in builtin_names():
        code = get_code(name)
        poly = diagonal_map(code)
        for _ in range(5):
            t = random_pauli_channel(rng)
            out = general_map(code, t.to_stokes())
            off = out.matrix - np.diag(np.diag(out.matrix))
            assert np.max(np.abs(off)) <= 1e-12
            expected = poly.apply(t)
            np.testing.assert_allclose(
                np.diag(out.matrix), [1.0, *expected.as_tuple()], atol=1e-12
            )


def test_general_map_trace_preservation():
    rng = np.random.default_rng(1)
    for name in builtin_names():
        code = get_code(name)
        out = general_map(code, random_cptp(rng))
        np.testing.assert_allclose(out.matrix[0], [1, 0, 0, 0], atol=1e-12)


def test_general_map_preserves_cptp():
    rng = np.random.default_rng(2)
    for name in builtin_names():
        code = get_code(name)
        for _ in range(5):
            out = general_map(code, random_cptp(rng))
            assert is_valid_channel(out, tol=1e-10)


@pytest.mark.parametrize("name", ["five-qubit", "steane"])
def test_off_diagonal_suppression_around_diagonal_channels(name):
    code = get_code(name)
    d, w = code.distance_and_w()
    c_n = float(c_constants(code).c_n)
    rng = np.random.default_rng(7)
    for eps in (0.3, 0.1, 0.03):
        for _ in range(3):
            diag = random_pauli_channel(rng)
            noise = rng.uniform(-1.0, 1.0, size=(4, 4))
            np.fill_diagonal(noise, 0.0)
            disturbed = StokesChannel(diag.to_stokes().matrix + eps * noise)
            gap = general_map(code, disturbed).matrix - general_map(
                code, diag.to_stokes()
            ).matrix
            off = gap - np.diag(np.diag(gap))
            assert np.max(np.abs(off)) <= c_n * eps**d + 1e-12
            assert np.max(np.abs(np.diag(gap))) <= c_n * eps**w + 1e-12


def test_off_diagonal_output_bounded_for_cptp_inputs():
    # on a physical input the output off-diagonals are governed by the
    # largest off-diagonal input entry raised to the code distance
    code = get_code("five-qubit")
    d, _ = code.distance_and_w()
    c_n = float(c_constants(code).c_n)
    rng = np.random.default_rng(12)
    for _ in range(10):
        t = random_cptp(rng)
        eps = float(np.max(np.abs(t.matrix - np.diag(np.diag(t.matrix)))))
        out = general_map(code, t).matrix
        off = out - np.diag(np.diag(out))
        assert np.max(np.abs(off)) <= c_n * eps**d + 1e-12


def test_five_qubit_monotone_against_matched_depolarizing():
    # inside (sqrt(2/3), 1]^3 the depolarizing channel with the same worst
    # entry is a componentwise lower bound, and nothing exceeds 1
    code = get_code("five-qubit")
    poly = diagonal_map(code)
    rng = np.random.default_rng(3)
    lo = np.sqrt(2.0 / 3.0)
    for _ in range(200):
        x, y, z = lo + (1.0 - lo) * rng.uniform(size=3)
        out = poly.apply(DiagonalChannel(x, y, z))
        matched = poly.apply(DiagonalChannel(*([min(x, y, z)] * 3)))
        for got, ref in zip(out.as_tuple(), matched.as_tuple()):
            assert ref - 1e-12 <= got <= 1.0 + 1e-12


# -- constants ----------------------------------------------------------------------


def test_c_n_values_and_bounds():
    expected = {"bitflip3": 64 // 8, "five-qubit": 64, "shor": 4096, "steane": 400}
    for name in builtin_names():
        code = get_code(name)
        constants = c_constants(code)
        assert constants.c_n == expected[name]
        assert (1 << code.m) <= constants.c_n <= (1 << (2 * code.m))


def test_c_m_grid_five_qubit():
    constants = c_constants(get_code("five-qubit"), seed=0)
    # the axis directions alone force 2.5 - o(1); the supremum over all
    # deficit directions is 7.5, attained in the fully depolarizing corner
    assert 2.49 <= constants.c_m <= 7.5
    assert constants.bounds_guaranteed
    again = c_constants(get_code("five-qubit"), seed=0)
    assert again.c_m == constants.c_m


# float.hex of c_m; a faster evaluation must keep every bit.  Seeds 13 and 32
# move for some codes when numpy's `power` runs over another operand layout
C_M_HEX = {
    ("bitflip3", 0): "0x1.76cffffffff2dp+11",
    ("bitflip3", 5): "0x1.76cffffffff2dp+11",
    ("bitflip3", 13): "0x1.76cffffffff2dp+11",
    ("bitflip3", 32): "0x1.76cffffffff2dp+11",
    ("five-qubit", 0): "0x1.65ca13dd70068p+2",
    ("five-qubit", 5): "0x1.7f5d74d008ac0p+2",
    ("five-qubit", 13): "0x1.c876cf67b0b18p+2",
    ("five-qubit", 32): "0x1.a60a8753e0c90p+2",
    ("steane", 0): "0x1.73d13f8cbd148p+3",
    ("steane", 5): "0x1.91a8c79f16c18p+3",
    ("steane", 13): "0x1.deed122190690p+3",
    ("steane", 32): "0x1.b818263a43468p+3",
    ("shor", 0): "0x1.0b861876ba40cp+4",
    ("shor", 5): "0x1.07e8d6b897bd2p+4",
    ("shor", 13): "0x1.1677bf3b468aap+4",
    ("shor", 32): "0x1.16a7ee6a5b848p+4",
}


@pytest.mark.parametrize("name, seed", sorted(C_M_HEX))
def test_c_m_bits_pinned(name, seed):
    assert c_constants(get_code(name), seed).c_m.hex() == C_M_HEX[name, seed]


PHASEFLIP3 = """n 3
generator XXI
generator IXX
logicalX XXX
logicalZ ZZZ
recovery III
recovery ZII
recovery IZI
recovery IIZ
"""


def reference_c_m(code, seed):
    """c_M as the maximum over all 23 directions, each evaluated on its own
    `pow` table: the bits that `c_constants` keeps while it evaluates only
    the directions its screen cannot rule out."""
    terms = diagonal_map(code).float_terms
    coeffs = [np.array([c for c, *_ in component]) for component in terms]
    ends = np.cumsum([len(component) for component in terms])
    exps = np.array([e for component in terms for _, *e in component], dtype=np.int64)
    degrees = [np.flatnonzero(np.bincount(exps[:, v])) for v in range(3)]
    rng = np.random.default_rng(seed)
    directions = [np.array(v, dtype=float) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    while len(directions) < 3 + RANDOM_DIRECTIONS:
        u = rng.uniform(0.0, 1.0, size=3)
        if u.max() > 1e-9:
            directions.append(u / u.max())

    eps = np.arange(1, GRID_POINTS + 1, dtype=float) / GRID_POINTS
    c_m = 0.0
    table = np.empty((code.n + 1, 3, GRID_POINTS))  # (degree, 3, grid), rows in use only
    for u in directions:
        xyz = 1.0 - eps[None, :] * u[:, None]  # (3, grid)
        for v, used in enumerate(degrees):
            table[used, v] = xyz[v] ** used[:, None]
        monomials = table[exps, range(3)].prod(axis=1)  # (mono, grid), all components
        values = np.array([c @ monomials[end - len(c) : end] for c, end in zip(coeffs, ends)])
        c_m = max(c_m, float((np.abs(values - 1.0) / eps**2).max()))
    return c_m


# the built-ins at seeds 0-59, where a batched `pow` table moved c_M (at Steane
# seed 35 the maximum ties on 17 directions), and two spec codes
C_M_REFERENCE_SEEDS = {name: range(60) for name in builtin_names()}
C_M_REFERENCE_SEEDS.update({"y-repetition4": range(20), "phaseflip3": range(20)})
SPEC_CODES = {"y-repetition4": Y_REPETITION4, "phaseflip3": PHASEFLIP3}


@pytest.mark.parametrize("name", sorted(C_M_REFERENCE_SEEDS))
def test_c_m_bits_match_the_all_directions_loop(name):
    code = parse_code_spec(SPEC_CODES[name]) if name in SPEC_CODES else get_code(name)
    moved = [
        seed
        for seed in C_M_REFERENCE_SEEDS[name]
        if c_constants(code, seed).c_m.hex() != reference_c_m(code, seed).hex()
    ]
    assert moved == []


def test_c_m_bits_past_thirteen_qubits():
    code = parse_code_spec(THIRTEEN_QUBIT)
    assert [c_constants(code, seed).c_m for seed in range(4)] == [
        reference_c_m(code, seed) for seed in range(4)
    ]


def _sequential_directions(rng):
    """The axes, then one uniform triple at a time, each with max <= 1e-9
    dropped, scaled to max 1: the reference for the batched draw."""
    directions = [np.array(v, dtype=float) for v in ((1, 0, 0), (0, 1, 0), (0, 0, 1))]
    while len(directions) < 3 + RANDOM_DIRECTIONS:
        u = rng.uniform(0.0, 1.0, size=3)
        if u.max() > 1e-9:
            directions.append(u / u.max())
    return np.array(directions)


def test_cached_directions_match_the_sequential_draws():
    for seed in range(250):
        want = _sequential_directions(np.random.default_rng(seed))
        assert _grid(seed, 5)[0].tobytes() == want.tobytes()


class _Stream:
    """A generator's `uniform` that returns the values of `head` in order."""

    def __init__(self, head):
        self.values = np.ravel(head)

    def uniform(self, low, high, size):
        count = math.prod(np.atleast_1d(size))
        out, self.values = self.values[:count], self.values[count:]
        return out.reshape(size)


def test_directions_drop_draws_with_max_at_most_1e_9():
    # rows 0 and 5 of the (20, 3) draw and the first single draw after it are dropped
    real = np.random.default_rng(9).uniform(size=(23, 3))
    zero, tiny = np.zeros((1, 3)), np.array([[1e-9, 0.0, 1e-10]])
    head = np.vstack([zero, real[:4], tiny, real[4:18], zero, real[18:]])
    got = _directions(_Stream(head))
    assert got.tobytes() == _sequential_directions(_Stream(head)).tobytes()
    assert got[3:].tobytes() == (real[:20] / real[:20].max(axis=1, keepdims=True)).tobytes()


def test_code_independent_arrays_are_read_only(five_qubit):
    arrays = [*_grid(0, 5), _expansion(five_qubit)]
    assert not any(array.flags.writeable for array in arrays)


def _expansion_parts(code):
    """Per component, {(i, j, l): Fraction} of `_expansion`."""
    ijl = _grid(0, code.n)[3]
    return [
        {t: F(v, 1 << code.m) for t, v in zip(map(tuple, ijl.T.tolist()), row.tolist())}
        for row in _expansion(code)
    ]


def _part(parts, degree, u):
    """The eps^degree coefficient of the component at 1 - eps u."""
    return sum(
        v * math.prod(F(-x) ** e for x, e in zip(u, t))
        for t, v in parts.items()
        if sum(t) == degree
    )


@pytest.mark.parametrize("name", sorted(builtin_names()) + ["thirteen-qubit"])
def test_expansion_about_the_identity_is_exact(name):
    code = parse_code_spec(THIRTEEN_QUBIT) if name == "thirteen-qubit" else get_code(name)
    poly = diagonal_map(code)
    for sigma, parts in zip("XYZ", _expansion_parts(code)):
        want = dict.fromkeys(parts, F(0))
        for m in poly.components[sigma]:
            for t in itertools.product(range(m.a + 1), range(m.b + 1), range(m.c + 1)):
                want[t] += m.coeff * math.prod(map(math.comb, (m.a, m.b, m.c), t))
        assert parts == want
        assert _part(parts, 0, (1, 1, 1)) == 1


AXES = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
# P_2(1, 1, 1) per component X, Y, Z; the largest magnitude is the limit of
# max |component - 1| / eps^2 as eps -> 0 along u = (1, 1, 1)
QUADRATIC_PARTS = {
    "five-qubit": (F(-15, 2), F(-15, 2), F(-15, 2)),
    "steane": (F(-21, 2), F(-63, 4), F(-21, 2)),
    "shor": (F(-27, 2), F(-18), F(-9, 2)),
}


@pytest.mark.parametrize("name", sorted(QUADRATIC_PARTS))
def test_expansion_low_degree_parts(name):
    parts = _expansion_parts(get_code(name))
    assert all(_part(p, 1, u) == 0 for p in parts for u in AXES)
    assert tuple(_part(p, 2, (1, 1, 1)) for p in parts) == QUADRATIC_PARTS[name]


def test_bitflip3_first_order_part_is_criterion_5s_factor_3(bitflip3):
    x, y, z = _expansion_parts(bitflip3)
    assert [_part(x, 1, u) for u in AXES] == [-3, 0, 0]
    assert [_part(y, 1, u) for u in AXES] == [-3, 0, 0]
    assert [_part(z, 1, u) for u in AXES] == [0, 0, 0]


def test_c_m_flags_weak_codes():
    constants = c_constants(get_code("bitflip3"))
    assert isinstance(constants, CConstants)
    assert not constants.bounds_guaranteed


# -- compiled map against the pairwise sum ------------------------------------------

BITS_LETTER = {(0, 0): 0, (1, 0): 1, (1, 1): 2, (0, 1): 3}  # (x, z) bits to I, X, Y, Z


def _tables(code):
    """Per letter: (letter indices of |S_i sigma_bar|, alpha, beta) over the group."""
    out = {}
    for sigma in "IXYZ":
        table = code.coefficient_table(sigma)
        bits = [(x >> q & 1, z >> q & 1) for x, z in zip(table.x.tolist(), table.z.tolist())
                for q in range(code.n)]
        letters = np.array([BITS_LETTER[b] for b in bits]).reshape(-1, code.n)
        beta = [F(b, 1 << code.m) for b in table.beta.tolist()]
        out[sigma] = (letters, table.alpha.tolist(), beta)
    return out


def pairwise_reference(code, matrix):
    """Entry (s, t) as the sum over all stabilizer pairs (j, i) of
    beta[s]_j * alpha[t]_i * prod_k T[row_j[k], col_i[k]], in floats."""
    tables = _tables(code)
    out = np.empty((4, 4))
    for r, s in enumerate("IXYZ"):
        rows, _, beta = tables[s]
        for c, t in enumerate("IXYZ"):
            cols, alpha, _ = tables[t]
            prod = np.ones((len(rows), len(cols)))
            for k in range(code.n):
                prod *= matrix[rows[:, k][:, None], cols[:, k][None, :]]
            out[r, c] = np.array(beta, dtype=float) @ prod @ np.array(alpha, dtype=float)
    return out


def pairwise_reference_exact(code, entries):
    """The same pairwise sum over Fractions."""
    tables = _tables(code)
    out = [[F(0)] * 4 for _ in range(4)]
    for r, s in enumerate("IXYZ"):
        rows, _, beta = tables[s]
        for c, t in enumerate("IXYZ"):
            cols, alpha, _ = tables[t]
            for row, b in zip(rows, beta):
                for col, a in zip(cols, alpha):
                    term = b * a
                    for k in range(code.n):
                        term *= entries[row[k]][col[k]]
                    out[r][c] += term
    return out


def test_monomial_counts():
    counts = {name: len(compiled_map(get_code(name)).entry) for name in builtin_names()}
    assert counts == {"bitflip3": 56, "five-qubit": 424, "steane": 412, "shor": 2132}
    tp = {name: len(trace_preserving_map(get_code(name)).entry) for name in builtin_names()}
    assert tp == {"bitflip3": 39, "five-qubit": 193, "steane": 177, "shor": 851}


# sha256 over dtype, shape and bytes of entry, factors and numerators: the
# merge must keep its key order and each key's first stabilizer pair
COMPILED_MAP_SHA256 = {
    "bitflip3": "d91a2c60306f0ee76980eb7b8ee09ff556a4b2212adbce51babfcac0b041af2a",
    "five-qubit": "5ebc7106a50250cccf14979abd20916801709259a5abf9d412bcb8fca258c014",
    "shor": "8c77344180041aeaa30d641efb26db980c1bb8b0aae0fe81daa11460242ff30b",
    "steane": "2e3f7d76da8ee87adc9395e57d83ffaa95400eefa0f4d96ba8aadf4dcc09beec",
}


TRACE_PRESERVING_MAP_SHA256 = {
    "bitflip3": "4536b5c9f0c7d1a219b937ce31a6078f0a5e120fbbaf7199a8aeaf620306a99a",
    "five-qubit": "94c9f1bb8dc7f4e8c9ecf16ce72d61432669e1e085a779aaac82aee951b0c1d8",
    "shor": "a5de3e92dc6964a8d8034e52cf111c35474c297d92af83b3f56e1cff1074d75f",
    "steane": "f015e2c2fa793ab4af7903930aca58f689a5a33661a7208e7cd79dc821bf8d4b",
}


# sha256 of the canonical JSON of the 13-qubit code's diagonal polynomials;
# they matched the 4^13-error Pauli enumeration of bench/reference.py at 16
# points, within 1.1e-14
THIRTEEN_QUBIT_MAP_SHA256 = "4dd098d67677137bb1ab18d1e4ffc60449c71ddb844ca84445fec56b2cd72ca1"


def test_thirteen_qubit_polynomials_pinned():
    poly = diagonal_map(parse_code_spec(THIRTEEN_QUBIT))
    assert [len(poly.components[s]) for s in "XYZ"] == [47, 47, 47]
    text = canonical_json(poly.to_json_obj())
    assert hashlib.sha256(text.encode()).hexdigest() == THIRTEEN_QUBIT_MAP_SHA256


def digest(compiled) -> str:
    sha = hashlib.sha256()
    for array in (compiled.entry, compiled.factors, compiled.numerators):
        sha.update(f"{array.dtype.str}{array.shape}".encode())
        sha.update(np.ascontiguousarray(array).tobytes())
    return sha.hexdigest()


@pytest.mark.parametrize("name", sorted(COMPILED_MAP_SHA256))
def test_compiled_map_bytes_pinned(name):
    assert digest(compiled_map(get_code(name))) == COMPILED_MAP_SHA256[name]


@pytest.mark.parametrize("name", sorted(TRACE_PRESERVING_MAP_SHA256))
def test_trace_preserving_map_bytes_pinned(name):
    assert digest(trace_preserving_map(get_code(name))) == TRACE_PRESERVING_MAP_SHA256[name]


@pytest.mark.parametrize("name", ["bitflip3", "five-qubit", "steane", "shor"])
def test_compiled_map_matches_pairwise_sum(name):
    code = get_code(name)
    rng = np.random.default_rng(2024)
    inputs = [random_cptp(rng).matrix for _ in range(4)]
    inputs += [rng.uniform(-1.0, 1.0, size=(4, 4)) for _ in range(4)]
    for matrix in inputs:
        got = general_map(code, StokesChannel(matrix)).matrix
        np.testing.assert_allclose(got, pairwise_reference(code, matrix), rtol=0, atol=1e-13)


def full_form(code, matrix):
    """`compiled_map` evaluated on every monomial, whatever the input."""
    compiled = compiled_map(code)
    terms = matrix.ravel()[compiled.factors].prod(axis=0) * compiled.numerators
    out = np.bincount(compiled.entry, weights=terms, minlength=16) / (1 << compiled.m)
    return out.reshape(4, 4)


@pytest.mark.parametrize("name", ["bitflip3", "five-qubit", "steane", "shor"])
def test_trace_preserving_form_gives_the_bytes_of_the_full_form(name):
    code = get_code(name)
    full, tp = compiled_map(code), trace_preserving_map(code)
    keep = ~np.isin(full.factors, (1, 2, 3)).any(axis=0)
    assert np.array_equal(tp.entry, full.entry[keep])
    assert np.array_equal(tp.factors, full.factors[:, keep])
    assert np.array_equal(tp.numerators, full.numerators[keep])
    rng = np.random.default_rng(17)
    for _ in range(10):
        t = StokesChannel(0.9 * np.eye(4) + 0.1 * random_cptp(rng).matrix)
        for _ in range(4):  # orbit levels
            assert t.matrix[0].tolist() == [1.0, 0.0, 0.0, 0.0]
            out = general_map(code, t)
            assert out.matrix.tobytes() == full_form(code, t.matrix).tobytes()
            t = out
    # inputs that take the full form
    off = random_cptp(rng).matrix.copy()
    off[0, 1] = np.spacing(1.0)  # row 0 one ulp away from (1, 0, 0, 0)
    for matrix, atol in ((off, 1e-15), (2.0 * np.eye(4), 0.0)):
        out = general_map(code, StokesChannel(matrix)).matrix
        assert out.tobytes() == full_form(code, matrix).tobytes()
        exact = general_map_exact(code, matrix.tolist())
        np.testing.assert_allclose(out, np.array(exact, dtype=float), rtol=0, atol=atol)


@pytest.mark.parametrize("name", ["bitflip3", "five-qubit"])
def test_general_map_exact_equals_pairwise_sum(name):
    code = get_code(name)
    rng = np.random.default_rng(5)
    for _ in range(3):
        entries = [[F(int(v), 64) for v in row] for row in rng.integers(-64, 65, size=(4, 4))]
        assert general_map_exact(code, entries) == pairwise_reference_exact(code, entries)


@pytest.mark.parametrize("name", ["bitflip3", "five-qubit", "steane", "shor"])
def test_exact_diagonal_equals_diagonal_map(name):
    code = get_code(name)
    poly = diagonal_map(code)
    x, y, z = F(7, 10), F(-2, 5), F(9, 10)
    entries = [[F(0)] * 4 for _ in range(4)]
    for i, v in enumerate((F(1), x, y, z)):
        entries[i][i] = v
    out = general_map_exact(code, entries)
    assert [out[i][j] for i in range(4) for j in range(4) if i != j] == [0] * 12
    assert [out[i][i] for i in range(4)] == [1, *(evaluate(poly, s, x, y, z) for s in "XYZ")]


def masked_full_form(code):
    """The monomials of `compiled_map` free of T_01, T_02, T_03, in its order."""
    full = compiled_map(code)
    keep = ~np.isin(full.factors, (1, 2, 3)).any(axis=0)
    return full.entry[keep], np.ascontiguousarray(full.factors[:, keep]), full.numerators[keep]


@pytest.mark.parametrize("name", ["bitflip3", "five-qubit", "steane", "shor", "y-repetition4"])
def test_trace_preserving_map_is_the_masked_full_form_on_permuted_specs(name):
    builtin = parse_code_spec(Y_REPETITION4) if name == "y-repetition4" else get_code(name)
    rng = np.random.default_rng(41)
    for k in range(6):  # the code's own recoveries permuted, then `recovery auto`
        gens = [builtin.generators[i] for i in rng.permutation(builtin.m)]
        recs = [builtin.recovery[i] for i in rng.permutation(len(builtin.recovery))]
        perm = rng.permutation(builtin.n)
        code = parse_code_spec(spec_text(builtin, perm, gens, recs if k < 3 else "auto"))
        tp = trace_preserving_map(code)
        for got, want in zip((tp.entry, tp.factors, tp.numerators), masked_full_form(code)):
            assert got.dtype == want.dtype and got.shape == want.shape
            assert got.tobytes() == want.tobytes()


def test_packed_reduce_at_its_bit_limit():
    """`_packed_reduce` against a dict on keys to 4 * 15^12 - 1 (n = 14) above
    positions to 2^15 - 1, 64 bits in all, with many ties and shuffled pairs."""
    bits, top = 15, 4 * 15**12 - 1
    assert top.bit_length() + bits == 64
    rng = np.random.default_rng(23)
    pool = np.concatenate([[0, 1, top - 1, top], rng.integers(0, top, size=60)])
    inner = rng.choice(np.arange(1, (1 << bits) - 1), size=12000, replace=False)
    positions = np.concatenate([[0, (1 << bits) - 1], inner])
    keys = pool[rng.integers(0, len(pool), size=len(positions))]
    keys[:2] = top  # packed, the largest key at the largest position is above 2^63
    order = rng.permutation(len(positions))
    keys, positions = keys[order], positions[order]
    nums = rng.integers(-(1 << 40), 1 << 40, size=1 << bits)
    want: dict[int, list[int]] = {}
    for key, position in zip(keys.tolist(), positions.tolist()):
        first, total = want.get(key, (position, 0))
        want[key] = [min(first, position), total + int(nums[position])]
    got_keys, got_first, got_sums = _packed_reduce(keys.astype(float), positions, nums, bits)
    assert got_keys.tolist() == sorted(want)
    assert got_first.tolist() == [want[key][0] for key in sorted(want)]
    assert got_sums.tolist() == [want[key][1] for key in sorted(want)]
    assert len(want) < len(positions) // 100


def has_full_form(code) -> bool:
    return any(key[0] is compiled_map.__wrapped__ for key in code._memo)


def test_trace_preserving_input_does_not_build_the_full_form(five_qubit):
    code = parse_code_spec(spec_text(five_qubit))
    rng = np.random.default_rng(3)
    general_map(code, random_cptp(rng))
    assert not has_full_form(code)
    matrix = random_cptp(rng).matrix.copy()
    matrix[0, 1] = 0.01
    general_map(code, StokesChannel(matrix))
    assert has_full_form(code)


def test_compiled_forms_refuse_fifteen_qubits():
    n = 15
    gens = [PauliString.single(n, i, "Z") * PauliString.single(n, i + 1, "Z") for i in range(n - 1)]
    code = StabilizerCode(n, gens, PauliString.parse("X" * n), PauliString.single(n, 0, "Z"), [])
    non_tp = np.eye(4)
    non_tp[0, 1] = 0.5
    calls = [compiled_map, trace_preserving_map]
    calls += [lambda c, m=m: general_map(c, StokesChannel(m)) for m in (np.eye(4), non_tp)]
    for call in calls:
        with pytest.raises(CapabilityError, match="limited to n <= 14"):
            call(code)
    assert not code._memo  # refused before any table was derived


def test_per_code_data_is_freed_with_the_code():
    builtin = get_code("five-qubit")
    lines = [f"n {builtin.n}"]
    lines += [f"generator {g}" for g in builtin.generators]
    lines += [f"logicalX {builtin.logical_x}", f"logicalZ {builtin.logical_z}", "recovery auto"]
    code = parse_code_spec("\n".join(lines) + "\n")
    diagonal_map(code)
    general_map(code, random_cptp(np.random.default_rng(0)))
    extract_stokes(code, depolarizing(0.1))
    ref = weakref.ref(code)
    del code
    gc.collect()
    assert ref() is None
