"""Stabilizer code construction, validation, coefficients and parameters.

`_naive_distance_w` is an independent reference: it works purely on
letter arrays with the textbook commutation rule and its own letterwise
multiplication table, sharing nothing with the symplectic fast path.
"""

import itertools
from fractions import Fraction

import numpy as np
import pytest

from concatcode import (
    InvalidCodeError,
    PauliString,
    StabilizerCode,
    auto_recovery,
    builtin_names,
    get_code,
    parse_code_spec,
)
from concatcode.channel import StokesChannel, depolarizing
from concatcode.codingmap import c_constants, diagonal_map, general_map, general_map_exact
from concatcode.oracle import extract_stokes
from concatcode.pauli import eta
from concatcode.stabilizer import CodeSpecError, syndromes
from conftest import DEFECT_SPECS, THIRTEEN_QUBIT, spec_text, syndrome

P = PauliString.parse


# -- independent (d, w) reference ------------------------------------------------

_MUL = {}  # letterwise product table, phases dropped
for _a, _b, _c in [
    ("I", "I", "I"), ("I", "X", "X"), ("I", "Y", "Y"), ("I", "Z", "Z"),
    ("X", "I", "X"), ("X", "X", "I"), ("X", "Y", "Z"), ("X", "Z", "Y"),
    ("Y", "I", "Y"), ("Y", "X", "Z"), ("Y", "Y", "I"), ("Y", "Z", "X"),
    ("Z", "I", "Z"), ("Z", "X", "Y"), ("Z", "Y", "X"), ("Z", "Z", "I"),
]:
    _MUL[(_a, _b)] = _c

_CODE = {"I": 0, "X": 1, "Y": 2, "Z": 3}


def _stabilizer_words(generator_words: list[str]) -> set[str]:
    """The group's words, phases dropped, by letterwise products."""
    n = len(generator_words[0])
    frontier = ["I" * n]
    for word in generator_words:
        frontier = frontier + [
            "".join(_MUL[(a, b)] for a, b in zip(s, word)) for s in frontier
        ]
    stabilizer_words = set(frontier)
    assert len(stabilizer_words) == 2 ** len(generator_words)
    return stabilizer_words


def _naive_distance_w(generator_words: list[str], n: int) -> tuple[int, int]:
    digits = (np.arange(4**n, dtype=np.int64)[:, None] // 4 ** np.arange(n)[None, :]) % 4
    weight = (digits != 0).sum(axis=1)

    commuting = np.ones(4**n, dtype=bool)
    for word in generator_words:
        g = np.array([_CODE[c] for c in word])
        anti = (digits != 0) & (g[None, :] != 0) & (digits != g[None, :])
        commuting &= anti.sum(axis=1) % 2 == 0

    stabilizer_words = _stabilizer_words(generator_words)
    stab_idx = np.array(
        [sum(_CODE[c] * 4**j for j, c in enumerate(w)) for w in stabilizer_words]
    )
    member = np.zeros(4**n, dtype=bool)
    member[stab_idx] = True

    d = int(weight[commuting & ~member].min())
    w = int(weight[member & (weight > 0)].min())
    return d, w


EXPECTED_PARAMETERS = {
    "bitflip3": (1, 2),
    "five-qubit": (3, 4),
    "steane": (3, 4),
    "shor": (3, 2),
}


@pytest.mark.parametrize("name", sorted(EXPECTED_PARAMETERS))
def test_distance_and_w_against_naive_reference(name):
    code = get_code(name)
    words = [g.letters for g in code.generators]
    assert _naive_distance_w(words, code.n) == EXPECTED_PARAMETERS[name]
    assert code.distance_and_w() == EXPECTED_PARAMETERS[name]


def test_distance_and_w_cached(five_qubit):
    assert five_qubit.distance_and_w() is five_qubit.distance_and_w()


def test_all_listed_codes_meet_convergence_prerequisites():
    for name in ("five-qubit", "steane", "shor"):
        d, w = get_code(name).distance_and_w()
        assert d >= 3 and w >= 2


def test_distance_and_w_of_a_13_qubit_chain():
    n = 13
    gens = [
        PauliString.single(n, i, "Z") * PauliString.single(n, i + 1, "Z")
        for i in range(n - 1)
    ]
    code = StabilizerCode(n, gens, P("X" * n), PauliString.single(n, 0, "Z"), [])
    assert code.distance_and_w() == (1, 2)


def test_distance_can_come_from_the_y_bar_coset():
    # with logicals XXX and YYY the weight-1 logicals ZII, IZI, IIZ lie in S Y_bar
    code = StabilizerCode(3, [P("ZZI"), P("IZZ")], P("XXX"), P("YYY"), [])
    assert code.distance_and_w() == _naive_distance_w(["ZZI", "IZZ"], 3) == (1, 2)


def _words_up_to(n: int, weight: int) -> np.ndarray:
    """Every non-identity word of at most `weight` letters, as letter codes."""
    rows = []
    for w in range(1, weight + 1):
        for positions in itertools.combinations(range(n), w):
            block = np.zeros((3**w, n), dtype=np.int8)
            block[:, positions] = list(itertools.product((1, 2, 3), repeat=w))
            rows.append(block)
    return np.concatenate(rows)


def test_distance_and_w_of_the_13_qubit_code():
    code = parse_code_spec(THIRTEEN_QUBIT)
    assert code.validate().passed
    assert code.distance_and_w() == (5, 4)
    # independently: of the 66,378 words of weight <= 4 only 13 commute with
    # every generator, all stabilizers, and some word of weight 5 is a logical
    words = [g.letters for g in code.generators]
    letters = _words_up_to(code.n, 5)
    commuting = np.ones(len(letters), dtype=bool)
    for word in words:
        g = np.array([_CODE[c] for c in word])
        anti = (letters != 0) & (g != 0) & (letters != g)
        commuting &= anti.sum(axis=1) % 2 == 0
    weight = (letters != 0).sum(axis=1)
    stabilizers = {tuple(_CODE[c] for c in w) for w in _stabilizer_words(words)}
    assert (weight <= 4).sum() == 66378
    low = [tuple(row) for row in letters[commuting & (weight <= 4)].tolist()]
    assert len(low) == 13 and all(row in stabilizers for row in low)
    five = [tuple(row) for row in letters[commuting & (weight == 5)].tolist()]
    assert any(row not in stabilizers for row in five)


@pytest.mark.parametrize(
    "generators, lx, lz, message",
    [
        (["ZZI"], "XXI", "ZIZ", "expected m = n-1 = 2 generators, got 1"),
        (["ZZI", "IZZ"], "XII", "ZZZ", "logicalX anticommutes with generator 0"),
        (["ZZI", "IZZ"], "XXX", "IXI", "logicalZ anticommutes with generator 0"),
        (["ZZI", "IZZ"], "XXX", "XXX", "logicalX and logicalZ do not anticommute"),
    ],
)
def test_distance_and_w_rejects_what_is_no_valid_code(generators, lx, lz, message):
    # ZZI with XXI / ZIZ: the cosets of the logicals give 2, but IIX commutes
    # with ZZI and is no stabilizer, so d would be 1
    code = StabilizerCode(3, [P(g) for g in generators], P(lx), P(lz), [])
    with pytest.raises(InvalidCodeError, match=message):
        code.distance_and_w()
    assert message in code.validate().violations


# -- validation -------------------------------------------------------------------


def test_builtins_validate():
    for name in builtin_names():
        report = get_code(name).validate()
        assert report.passed, report.violations


def test_anticommuting_generators_fail():
    code = StabilizerCode(
        2, [P("XI"), P("ZI")], P("XX"), P("ZZ"), [P("II"), P("XI"), P("IZ"), P("ZZ")]
    )
    report = code.validate()
    assert not report.passed
    assert any("anticommute" in v for v in report.violations)


def test_commuting_pair_from_validation_example():
    # XX and ZZ commute; they fail validation for other reasons (logicals),
    # not for commutation.
    code = StabilizerCode(2, [P("XX")], P("XI"), P("ZZ"), [P("II"), P("ZI")])
    assert not any("anticommute" in v for v in code.validate().violations)


def test_dependent_generators_fail():
    code = StabilizerCode(
        3,
        [P("ZZI"), P("ZZI")],
        P("XXX"),
        P("ZZZ"),
        [P("III"), P("XII"), P("IXI"), P("IIX")],
    )
    report = code.validate()
    assert not report.passed
    assert any("dependent" in v for v in report.violations)


def test_hand_built_three_qubit_code_passes(bitflip3):
    report = bitflip3.validate()
    assert report.passed and report.violations == ()


def test_bad_logicals_reported():
    code = StabilizerCode(
        3,
        [P("ZZI"), P("IZZ")],
        P("XXI"),  # anticommutes with both generators
        P("ZZZ"),
        [P("III"), P("XII"), P("IXI"), P("IIX")],
    )
    report = code.validate()
    assert any("logicalX anticommutes" in v for v in report.violations)


def test_syndrome_collision_reported():
    code = StabilizerCode(
        3,
        [P("ZZI"), P("IZZ")],
        P("XXX"),
        P("ZZZ"),
        [P("III"), P("XII"), P("XII"), P("IIX")],
    )
    report = code.validate()
    assert any("share syndrome" in v for v in report.violations)
    with pytest.raises(InvalidCodeError, match="^recovery operators 1 and 2 share syndrome 0x1$"):
        code.recovery_by_syndrome()


_NOT_TRACE_PRESERVING = np.diag([1.0, 0.9, 0.9, 0.9])
_NOT_TRACE_PRESERVING[0, 1] = 0.1

# every derived quantity that depends on the recoveries
_DERIVED = {
    "recovery_by_syndrome": lambda code: code.recovery_by_syndrome(),
    "diagonal_map": diagonal_map,
    "general_map": lambda code: general_map(code, StokesChannel(np.eye(4))),
    "general_map (not trace-preserving)": lambda code: general_map(
        code, StokesChannel(_NOT_TRACE_PRESERVING)
    ),
    "general_map_exact": lambda code: general_map_exact(code, np.eye(4, dtype=int).tolist()),
    "c_constants": c_constants,
    "extract_stokes": lambda code: extract_stokes(code, depolarizing(0.1)),
}


@pytest.mark.parametrize("defect", sorted(DEFECT_SPECS))
def test_derived_quantities_raise_the_first_violation(defect):
    text, violation = DEFECT_SPECS[defect]
    assert parse_code_spec(text).validate().violations == (violation,)
    for label, derive in _DERIVED.items():
        code = parse_code_spec(text)  # fresh, so that no cached table hides the gate
        with pytest.raises(InvalidCodeError) as info:
            derive(code)
        assert str(info.value) == violation, label
    # (d, w) does not depend on the recoveries
    code = parse_code_spec(text)
    if defect == "shared-syndrome":
        assert code.distance_and_w() == (1, 2)
    else:
        with pytest.raises(InvalidCodeError) as info:
            code.distance_and_w()
        assert str(info.value) == violation


# -- group enumeration -------------------------------------------------------------


def test_group_bitflip3(bitflip3):
    assert [str(s) for s in bitflip3.group()] == ["III", "ZZI", "IZZ", "ZIZ"]


def test_group_subset_indexing(five_qubit):
    group = five_qubit.group()
    assert group[0] == PauliString.identity(5)
    assert group[1] == five_qubit.generators[0]
    assert group[2] == five_qubit.generators[1]
    assert group[3] == five_qubit.generators[0] * five_qubit.generators[1]


def test_five_qubit_group_all_positive_hermitian(five_qubit):
    group = five_qubit.group()
    assert len(group) == 16
    assert all(s.is_hermitian for s in group)
    assert all(s.phase == 1 for s in group)


def test_larger_groups_are_hermitian_but_may_carry_signs():
    # Products of overlapping X- and Z-type generators pick up -1 prefactors;
    # the codespace is still the joint +1 eigenspace of the signed elements.
    shor = get_code("shor")
    group = shor.group()
    assert len(group) == 256
    assert all(s.is_hermitian for s in group)
    assert any(s.phase == -1 for s in group)
    identity_like = [s for s in group if (s.x_mask | s.z_mask).bit_count() == 0]
    assert identity_like == [PauliString.identity(9)]


# -- syndromes ---------------------------------------------------------------------


def test_syndrome_examples(bitflip3):
    gens = bitflip3.generators
    for word, expected in (("XII", 0b01), ("III", 0b00), ("IXI", 0b11), ("-YYZ", 0b10)):
        p = P(word)
        assert syndrome(gens, p) == expected
        assert syndromes(gens, p.x_mask, p.z_mask) == expected
    x, z = np.array([[1, 2], [4, 0]]), np.array([[4, 0], [0, 0]])  # XIZ, IXI; IIX, III
    assert syndromes(gens, x, z).tolist() == [[0b01, 0b11], [0b10, 0]]


def test_recovery_syndromes_bijective():
    for name in builtin_names():
        code = get_code(name)
        expected = [syndrome(code.generators, r) for r in code.recovery]
        assert code.recovery_syndromes().tolist() == expected
        assert set(expected) == set(range(1 << code.m))


def test_code_too_wide_for_int64_masks_still_validates():
    n = 70
    code = StabilizerCode(
        n, [P("ZZ" + "I" * (n - 2))], P("X" * n), P("Z" * n), [P("I" * n), P("X" + "I" * (n - 1))]
    )
    assert code.recovery_syndromes().tolist() == [0, 1]
    assert code.validate().violations == (
        f"expected m = n-1 = {n - 1} generators, got 1",
        "logicalX and logicalZ do not anticommute",
    )


def test_code_past_int64_masks_with_n_minus_1_generators_gets_a_report():
    n = 64  # a ZZ chain: its group would need 64-bit masks and 2^63 elements
    gens = [P("I" * q + "ZZ" + "I" * (n - 2 - q)) for q in range(n - 1)]
    code = StabilizerCode(n, gens, P("X" * n), P("Z" + "I" * (n - 1)), [])
    report = code.validate()
    assert not report.passed
    assert report.violations == (
        "symplectic arrays are limited to n <= 63, got n = 64",
        f"expected {1 << 63} recovery operators, got 0",
    )
    with pytest.raises(InvalidCodeError, match="limited to n <= 63"):
        code.distance_and_w()


# -- f-matrix and decoding coefficients --------------------------------------------


def test_f_values_bitflip3(bitflip3):
    f = bitflip3.f_matrix()  # columns I, X, Y, Z
    assert f[0, 1] == 4
    assert f[0, 3] == -2
    assert f[0, 0] == 4  # 2^m on the identity stabilizer
    assert f[:, 3].tolist() == [-2, 2, 2, 2]


def test_f_identity_column():
    # sum_j eta(R_j, S_i) telescopes: 2^m on the identity, 0 elsewhere
    for name in builtin_names():
        code = get_code(name)
        column = code.f_matrix()[:, 0].tolist()
        assert column[0] == 1 << code.m
        assert all(v == 0 for v in column[1:])


def test_f_entries_bounded_and_even():
    for name in builtin_names():
        code = get_code(name)
        values = code.f_matrix()
        assert np.max(np.abs(values)) <= 1 << code.m
        assert np.all(values % 2 == 0)


def test_f_matrix_blind_to_recovery_phases(bitflip3):
    flipped = StabilizerCode(
        3,
        list(bitflip3.generators),
        bitflip3.logical_x,
        bitflip3.logical_z,
        [-r for r in bitflip3.recovery],
    )
    assert np.array_equal(flipped.f_matrix(), bitflip3.f_matrix())


def _f_by_eta(code) -> np.ndarray:
    """f[i][sigma] = sum_j eta(R_j, S_i) * eta(R_j, logical sigma), entry by entry."""
    recs = code.recovery_by_syndrome()
    signs = [[eta(r, code.logical(sigma)) for sigma in "IXYZ"] for r in recs]
    rows = []
    for s in code.group():
        against = [eta(r, s) for r in recs]
        rows.append([sum(e * sign[c] for e, sign in zip(against, signs)) for c in range(4)])
    return np.array(rows)


def _variants(code):
    """The code itself and two permuted spec texts of it."""
    n = code.n
    yield code
    # generator and recovery lines in reverse order reorder the stabilizer group
    reverse = slice(None, None, -1)
    yield parse_code_spec(spec_text(code, range(n)[reverse], code.generators[reverse], code.recovery[reverse]))
    yield parse_code_spec(spec_text(code, [(q + 2) % n for q in range(n)]))


@pytest.mark.parametrize("name", sorted(EXPECTED_PARAMETERS))
def test_f_matrix_matches_entrywise_eta_sums(name):
    for code in _variants(get_code(name)):
        values = code.f_matrix()
        assert values.dtype == np.int64 and not values.flags.writeable
        assert np.array_equal(values, _f_by_eta(code))


@pytest.mark.parametrize("name", sorted(EXPECTED_PARAMETERS))
def test_distance_and_w_of_permuted_specs(name):
    for code in _variants(get_code(name)):
        assert code.distance_and_w() == EXPECTED_PARAMETERS[name]


def _strings(table, n):
    """The phase-stripped strings of a coefficient table."""
    return [
        PauliString._raw(n, x, z, (x & z).bit_count())
        for x, z in zip(table.x.tolist(), table.z.tolist())
    ]


def test_decoding_coefficients_bitflip3(bitflip3):
    table = bitflip3.coefficient_table("Z")
    by_string = {
        str(p): Fraction(beta, 1 << bitflip3.m)
        for p, beta in zip(_strings(table, 3), table.beta.tolist())
    }
    assert by_string["ZZZ"] == Fraction(-1, 2)
    assert sorted(by_string) == ["IIZ", "IZI", "ZII", "ZZZ"]


def test_alpha_positive_for_positive_groups():
    for name in ("bitflip3", "five-qubit"):
        code = get_code(name)
        assert np.all(code.coefficient_table("I").alpha == 1)


def test_beta_bounded_by_one():
    for name in builtin_names():
        code = get_code(name)
        for sigma in "IXYZ":
            assert np.all(np.abs(code.coefficient_table(sigma).beta) <= 1 << code.m)


def test_product_map_injective():
    for name in builtin_names():
        code = get_code(name)
        for sigma in "IXYZ":
            table = code.coefficient_table(sigma)
            assert len(set(zip(table.x.tolist(), table.z.tolist()))) == len(table.x)


def test_five_qubit_c_n_from_coefficients(five_qubit):
    best = max(int(np.abs(five_qubit.coefficient_table(sigma).beta).sum()) for sigma in "IXYZ")
    assert best == 64


# -- symplectic arrays against PauliString products ------------------------------


def _group_by_products(code) -> list[PauliString]:
    """The stabilizer group one PauliString product at a time: element `mask`
    is generator low(mask) times element mask - low(mask)."""
    elems = [PauliString.identity(code.n)]
    seen = {(0, 0): 0}
    for mask in range(1, 1 << code.m):
        low = (mask & -mask).bit_length() - 1
        elem = code.generators[low] * elems[mask ^ (1 << low)]
        key = (elem.x_mask, elem.z_mask)
        if key in seen:
            raise InvalidCodeError(
                f"dependent generators: subsets {seen[key]:#x} and {mask:#x} "
                "give the same group element"
            )
        if not elem.is_hermitian:
            raise InvalidCodeError(f"group element for subset {mask:#x} is not hermitian")
        seen[key] = mask
        elems.append(elem)
    return elems


def _table_by_products(code, sigma) -> list[tuple[int, int, int, int]]:
    """Rows (x mask, z mask, alpha, beta * 2^m) of |S_i sigma_bar|."""
    column = code.f_matrix()[:, "IXYZ".index(sigma)].tolist()
    rows = []
    for s, f in zip(_group_by_products(code), column):
        prod = s * code.logical(sigma)
        if prod.phase_exponent % 2:
            raise InvalidCodeError(f"product {prod} is not hermitian")
        alpha = 1 if prod.phase_exponent == 0 else -1
        rows.append((prod.x_mask, prod.z_mask, alpha, alpha * f))
    return rows


def _array_variants():
    """Every built-in, three seeded qubit-permuted and generator-shuffled
    specs of each, one with generator 1 replaced by its product with
    generator 0, and bitflip3 with the signed generator -IZZ."""
    rng = np.random.default_rng(11)
    for name in builtin_names():
        code = get_code(name)
        yield name, code
        for k in range(3):
            gens = [code.generators[i] for i in rng.permutation(code.m)]
            text = spec_text(code, rng.permutation(code.n), gens, "auto")
            yield f"{name}-shuffled{k}", parse_code_spec(text)
        gens = list(code.generators)
        gens[1] = gens[0] * gens[1]
        yield f"{name}-product", parse_code_spec(spec_text(code, None, gens, "auto"))
    bitflip3 = get_code("bitflip3")
    text = spec_text(bitflip3, None, [P("ZZI"), P("-IZZ")], "auto")
    yield "bitflip3-signed", parse_code_spec(text)


@pytest.mark.parametrize("label, code", list(_array_variants()), ids=lambda v: str(v)[:20])
def test_arrays_match_pauli_products(label, code):
    assert code.validate().passed, label
    assert [str(s) for s in code.group()] == [str(s) for s in _group_by_products(code)]
    x, z, k = code.group_arrays()
    assert [(int(a), int(b), int(c)) for a, b, c in zip(x, z, k)] == [
        (s.x_mask, s.z_mask, s._k) for s in _group_by_products(code)
    ]
    for sigma in "IXYZ":
        table = code.coefficient_table(sigma)
        assert all(column.dtype == np.int64 for column in table)
        got = list(zip(*(column.tolist() for column in table)))
        assert got == _table_by_products(code, sigma), (label, sigma)


@pytest.mark.parametrize(
    "generators, message",
    [
        (("ZZI", "ZZI"), "dependent generators: subsets 0x1 and 0x2 give the same group element"),
        (("iZZI", "IZZ"), "group element for subset 0x1 is not hermitian"),
    ],
)
def test_group_violation_messages(generators, message):
    code = StabilizerCode(
        3, [P(g) for g in generators], P("XXX"), P("ZZZ"), [P(s) for s in ("III", "XII", "IXI", "IIX")]
    )
    assert message in code.validate().violations
    for build in (code.group_arrays, lambda: _group_by_products(code)):
        with pytest.raises(InvalidCodeError) as info:
            build()
        assert str(info.value) == message


def test_group_of_random_generators_matches_products():
    """Random signed generators, commuting or not, dependent or not: the
    same elements, or the same first error, as the product loop."""
    rng = np.random.default_rng(3)
    for _ in range(300):
        n, m = int(rng.integers(1, 4)), int(rng.integers(1, 4))
        gens = [
            PauliString("".join(rng.choice(list("IXYZ"), size=n)), (1, 1j, -1, -1j)[rng.integers(4)])
            for _ in range(m)
        ]
        code = StabilizerCode(n, gens, P("X" * n), P("Z" * n), [])
        try:
            want = [str(s) for s in _group_by_products(code)]
        except InvalidCodeError as exc:
            with pytest.raises(InvalidCodeError) as info:
                code.group()
            assert str(info.value) == str(exc)
        else:
            assert [str(s) for s in code.group()] == want


# -- auto recovery ------------------------------------------------------------------


def test_auto_recovery_bitflip3(bitflip3):
    recs = auto_recovery(bitflip3.generators, bitflip3.n)
    assert {str(r) for r in recs} == {"III", "XII", "IXI", "IIX"}
    assert recs[0] == PauliString.identity(3)


def test_auto_recovery_trivial_code():
    assert auto_recovery([], n=1) == [PauliString.identity(1)]


def test_auto_recovery_five_qubit_matches_single_qubit_corrections(five_qubit):
    recs = auto_recovery(five_qubit.generators, five_qubit.n)
    assert {str(r) for r in recs} == {str(r) for r in five_qubit.recovery}
    assert all((r.x_mask | r.z_mask).bit_count() <= 1 for r in recs)


@pytest.mark.parametrize("n", [3, 40])
def test_auto_recovery_unreachable_syndromes(n):
    # rejected from the syndromes' rank, before any of the 4^n words is formed
    twice = P("ZZ" + "I" * (n - 2))
    with pytest.raises(InvalidCodeError, match="some syndromes are unreachable"):
        auto_recovery([twice, twice], n=n)


def _words(n, max_weight):
    """Every word over IXYZ on n qubits of weight at most max_weight."""
    for weight in range(max_weight + 1):
        for positions in itertools.combinations(range(n), weight):
            for letters in itertools.product("XYZ", repeat=weight):
                word = ["I"] * n
                for q, c in zip(positions, letters):
                    word[q] = c
                yield "".join(word)


def _leaders_by_eta(generators, n, max_weight):
    """Per syndrome of the eta reference, the least (weight, word) over the
    words up to max_weight; "I" < "X" < "Y" < "Z" as characters, so words
    compare in the tie-break order of `auto_recovery`."""
    best = {}
    for word in _words(n, max_weight):
        key = (n - word.count("I"), word)
        s = syndrome(generators, P(word))
        best[s] = min(best.get(s, key), key)
    return [P(best[s][1]) for s in range(1 << len(generators))]


@pytest.mark.parametrize("name", builtin_names())
def test_auto_recovery_leaders_have_minimal_weight(name):
    # every leader has weight <= 3, so words up to weight 3 reach every syndrome;
    # the code's generators and a qubit-permuted spec with shuffled generators
    code = get_code(name)
    rng = np.random.default_rng(5)
    gens = [code.generators[i] for i in rng.permutation(code.m)]
    shuffled = parse_code_spec(spec_text(code, rng.permutation(code.n), gens, "auto"))
    for generators in (code.generators, shuffled.generators):
        assert auto_recovery(generators, code.n) == _leaders_by_eta(generators, code.n, 3)


def test_permuted_steane_matches_eta_reference(steane):
    code = parse_code_spec(spec_text(steane, [3, 0, 6, 2, 5, 1, 4], recovery="auto"))
    group = {(s.x_mask, s.z_mask) for s in code.group()}
    d = w = code.n + 1
    for word in _words(code.n, code.n):
        p = P(word)
        if word != "I" * code.n and syndrome(code.generators, p) == 0:
            weight = code.n - word.count("I")
            if (p.x_mask, p.z_mask) in group:
                w = min(w, weight)
            else:
                d = min(d, weight)
    assert code.distance_and_w() == (d, w) == (3, 4)
    assert list(code.recovery) == _leaders_by_eta(code.generators, code.n, code.n)


# -- code spec files ----------------------------------------------------------------

FIVE_QUBIT_SPEC = """\
# the [5,1] code
n 5
generator XZZXI
generator IXZZX
generator XIXZZ
generator ZXIXZ
logicalX XXXXX
logicalZ ZZZZZ
recovery auto
"""


def test_parse_roundtrip_five_qubit(five_qubit):
    code = parse_code_spec(FIVE_QUBIT_SPEC, name="five")
    assert code.validate().passed
    assert code.distance_and_w() == (3, 4)
    assert {str(r) for r in code.recovery} == {str(r) for r in five_qubit.recovery}


def test_parse_explicit_recovery():
    text = """
n 3
generator ZZI
generator IZZ
logicalX XXX
logicalZ ZZZ
recovery III
recovery XII
recovery IXI
recovery IIX
"""
    code = parse_code_spec(text)
    assert code.validate().passed


def test_parse_error_carries_line_number():
    with pytest.raises(CodeSpecError) as err:
        parse_code_spec("n 3\ngenerator ZZI\ngenerator QQI\n")
    assert err.value.line == 3


def test_parse_missing_recovery_is_an_error():
    text = "n 3\ngenerator ZZI\ngenerator IZZ\nlogicalX XXX\nlogicalZ ZZZ\n"
    with pytest.raises(CodeSpecError):
        parse_code_spec(text)


def test_parse_unknown_key():
    with pytest.raises(CodeSpecError):
        parse_code_spec("m 4\n")


def test_parse_wrong_length_operator():
    with pytest.raises(CodeSpecError):
        parse_code_spec("n 3\ngenerator ZZ\nlogicalX XXX\nlogicalZ ZZZ\nrecovery auto\n")


def test_get_code_unknown_name():
    with pytest.raises(KeyError):
        get_code("repetition-42")
