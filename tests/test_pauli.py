"""Exactness of the Pauli string algebra.

The dense-matrix homomorphism test at the bottom is the ground truth for
the whole phase convention: every product computed symbolically must
match the literal numpy matrix product.
"""

import numpy as np
import pytest
from hypothesis import given
from hypothesis import strategies as st

from concatcode import PauliDimensionError, PauliString, eta
from concatcode.channel import PAULI_MATS
from conftest import pauli_dense

P = PauliString.parse


def test_single_letter_products():
    assert P("X") * P("X") == P("I")
    assert P("X") * P("Y") == P("iZ")
    assert P("Y") * P("Z") == P("iX")
    assert P("Z") * P("X") == P("iY")
    assert P("X") * P("Z") == P("-iY")


def test_multiletter_product():
    assert P("ZZI") * P("XXX") == P("-YYX")


def test_product_length_mismatch():
    with pytest.raises(PauliDimensionError):
        P("XX") * P("X")
    with pytest.raises(PauliDimensionError):
        eta(P("XX"), P("X"))


def test_eta_examples():
    assert eta(P("XZZXI"), P("IXZZX")) == 1
    assert eta(P("X"), P("Z")) == -1
    assert eta(P("ZZI"), P("XII")) == -1


def test_weights():
    # letter counts and weight read from the masks, as `diagonal_map` reads them
    for word in ("YYX", "ZZZZZZZZZ", "XZZXI", "XYZII", "-iIYI"):
        p, letters = P(word), word.lstrip("+-i")
        x, z = p.x_mask, p.z_mask
        counts = ((x & ~z).bit_count(), (x & z).bit_count(), (z & ~x).bit_count())
        assert counts == tuple(letters.count(c) for c in "XYZ")
        assert (x | z).bit_count() == len(letters) - letters.count("I")


def test_strip_phase():
    assert P("-YYX").strip_phase() == P("YYX")
    assert P("iZ").strip_phase() == P("Z")
    assert P("II").strip_phase() == P("II")


def test_rendering_roundtrip():
    for text in ("XIZ", "-YYX", "iZ", "-iXY", "IIIII"):
        assert str(P(text)) == text


def test_parse_rejects_garbage():
    for bad in ("", "A", "x", "+-X", "i", "X Y"):
        with pytest.raises(ValueError):
            P(bad)


def test_phase_accessors():
    assert P("-YYX").phase == -1
    assert P("iZ").phase == 1j
    assert P("X").phase == 1
    assert P("X").is_hermitian
    assert P("-X").is_hermitian
    assert not P("iX").is_hermitian


def test_constructors():
    assert PauliString.identity(3) == P("III")
    assert PauliString.single(5, 2, "Y") == P("IIYII")
    with pytest.raises(ValueError):
        PauliString.single(2, 5, "X")
    with pytest.raises(ValueError):
        PauliString("XY", phase=0.5)


@pytest.mark.parametrize("name", ["n", "_x", "_z", "_k"])
def test_strings_are_immutable(name):
    # strings from the constructor, the parser and the product (`_raw`)
    for p in (PauliString("XYZ", phase=-1), P("-iXYZ"), P("XII") * P("IYZ")):
        before = (p.n, p.x_mask, p.z_mask, str(p))
        with pytest.raises(AttributeError):
            setattr(p, name, 1)
        assert (p.n, p.x_mask, p.z_mask, str(p)) == before


def test_neg_and_times_i():
    assert -P("X") == P("-X")
    assert P("X").times_i() == P("iX")
    assert P("XXX") * P("ZZZ") == P("iYYY")
    assert (P("XXX") * P("ZZZ")).times_i() == P("-YYY")


words = st.text(alphabet="IXYZ", min_size=1, max_size=8)
phases = st.sampled_from([1, 1j, -1, -1j])


@st.composite
def string_pairs(draw):
    w = draw(words)
    return (
        PauliString(w, draw(phases)),
        PauliString(draw(st.text(alphabet="IXYZ", min_size=len(w), max_size=len(w))), draw(phases)),
    )


@st.composite
def string_triples(draw):
    a, b = draw(string_pairs())
    c = PauliString(
        draw(st.text(alphabet="IXYZ", min_size=a.n, max_size=a.n)), draw(phases)
    )
    return a, b, c


@given(string_pairs())
def test_commutation_phase_relation(pair):
    a, b = pair
    ab = a * b
    ba = b * a
    if eta(a, b) == 1:
        assert ab == ba
    else:
        assert ab == -ba


@given(string_pairs())
def test_eta_symmetric(pair):
    a, b = pair
    assert eta(a, b) == eta(b, a)
    assert eta(a, a) == 1


@given(string_triples())
def test_associativity(triple):
    a, b, c = triple
    assert (a * b) * c == a * (b * c)


@given(words, phases)
def test_square_phase_vs_hermiticity(w, ph):
    p = PauliString(w, ph)
    assert ((p * p).phase == 1) == p.is_hermitian


@given(string_pairs())
def test_product_letters_ignore_phases(pair):
    a, b = pair
    stripped = a.strip_phase() * b.strip_phase()
    assert (a * b).letters == stripped.letters


@given(words, phases)
def test_strip_phase_idempotent(w, ph):
    p = PauliString(w, ph)
    assert p.strip_phase() == p.strip_phase().strip_phase()
    assert p.strip_phase().phase == 1
    assert p.strip_phase().letters == p.letters


@given(words, phases)
def test_parse_str_roundtrip(w, ph):
    p = PauliString(w, ph)
    assert PauliString.parse(str(p)) == p


@st.composite
def small_pairs(draw):
    n = draw(st.integers(min_value=1, max_value=3))
    return (
        PauliString(draw(st.text(alphabet="IXYZ", min_size=n, max_size=n)), draw(phases)),
        PauliString(draw(st.text(alphabet="IXYZ", min_size=n, max_size=n)), draw(phases)),
    )


@given(small_pairs())
def test_product_matches_dense_matrices(pair):
    a, b = pair
    np.testing.assert_allclose(
        pauli_dense(a * b), pauli_dense(a) @ pauli_dense(b), atol=1e-12
    )


@given(small_pairs())
def test_eta_matches_dense_commutator(pair):
    a, b = pair
    da, db = pauli_dense(a), pauli_dense(b)
    if eta(a, b) == 1:
        np.testing.assert_allclose(da @ db, db @ da, atol=1e-12)
    else:
        np.testing.assert_allclose(da @ db, -db @ da, atol=1e-12)


def _kron_chain(p: PauliString) -> np.ndarray:
    """Dense matrix as the Kronecker product of the letters, qubit 0 leftmost."""
    out = np.array([[p.phase]], dtype=complex)
    for c in p.letters:
        out = np.kron(out, PAULI_MATS["IXYZ".index(c)])
    return out


@pytest.mark.parametrize("n", range(1, 10))
def test_pauli_dense_matches_kron_chain(n):
    rng = np.random.default_rng(n)
    for k in range(8):
        letters = "".join(rng.choice(list("IXYZ"), size=n))
        p = PauliString(letters, (1, 1j, -1, -1j)[k % 4])
        assert np.array_equal(pauli_dense(p), _kron_chain(p)), str(p)


def _masks_letter_by_letter(letters: str) -> tuple[int, int, int]:
    """x mask, z mask and Y count of a word, one letter at a time."""
    bits = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
    x = z = n_y = 0
    for j, c in enumerate(letters):
        xb, zb = bits[c]
        x |= xb << j
        z |= zb << j
        n_y += xb & zb
    return x, z, n_y


@given(words, phases, st.booleans())
def test_masks_match_letter_by_letter_reference(w, ph, parsed):
    prefix = {1: "", 1j: "i", -1: "-", -1j: "-i"}[ph]
    p = PauliString.parse(prefix + w) if parsed else PauliString(w, ph)
    x, z, n_y = _masks_letter_by_letter(w)
    assert (p.n, p.x_mask, p.z_mask) == (len(w), x, z)
    assert p.phase_exponent == (1, 1j, -1, -1j).index(ph)
    assert p == PauliString._raw(len(w), x, z, p.phase_exponent + n_y)
    assert str(p) == prefix + w
    assert p.letters == w


@given(words, st.integers(min_value=0, max_value=8), st.sampled_from("Axyi _0\n+"))
def test_bad_letter_message(w, position, bad):
    word = w[:position] + bad + w[position:]
    with pytest.raises(ValueError) as info:
        PauliString(word)
    assert str(info.value) == f"letters must be a nonempty word over IXYZ, got {word!r}"
