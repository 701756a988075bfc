"""Stokes channels: named families, validity, distances and literals."""

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from concatcode import (
    DiagonalChannel,
    StokesChannel,
    dephasing,
    depolarizing,
    from_pauli_probs,
    is_valid_channel,
    max_entry_distance,
    parse_channel_literal,
    random_cptp,
)
from concatcode.channel import PAULI_MATS, stokes_from_kraus
from conftest import kraus_operators


def test_named_families():
    assert depolarizing(1.0).as_tuple() == (0.0, 0.0, 0.0)
    assert dephasing(0.0).as_tuple() == (1.0, 1.0, 1.0)
    assert depolarizing(0.18).as_tuple() == pytest.approx((0.82, 0.82, 0.82))
    assert dephasing(0.4).as_tuple() == (1.0, pytest.approx(0.6), pytest.approx(0.6))


def test_strength_range_enforced():
    with pytest.raises(ValueError):
        depolarizing(1.5)
    with pytest.raises(ValueError):
        dephasing(-0.1)
    assert parse_channel_literal("diag:-0.2,-0.2,-0.2") == DiagonalChannel(-0.2, -0.2, -0.2)


def test_from_pauli_probs():
    assert from_pauli_probs(0, 0, 0).as_tuple() == (1.0, 1.0, 1.0)
    t = from_pauli_probs(0.2, 0, 0)
    assert t.as_tuple() == (1.0, pytest.approx(0.6), pytest.approx(0.6))
    assert from_pauli_probs(0.25, 0.25, 0.25).as_tuple() == (0.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        from_pauli_probs(0.6, 0.6, 0.0)
    with pytest.raises(ValueError):
        from_pauli_probs(-0.1, 0.0, 0.0)


def test_validity():
    assert is_valid_channel(StokesChannel.identity())
    assert not is_valid_channel(DiagonalChannel(1.0, 1.0, -1.0))
    assert is_valid_channel(depolarizing(0.5))
    not_tp = np.eye(4)
    not_tp[0, 1] = 0.3
    assert not is_valid_channel(StokesChannel(not_tp))


@pytest.mark.parametrize("value", [math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("entry", [(1, 1), (0, 1)])
def test_non_finite_matrix_is_not_a_valid_channel(entry, value):
    m = np.eye(4)
    m[entry] = value
    assert not is_valid_channel(StokesChannel(m))


def test_tetrahedron_examples():
    assert DiagonalChannel(1, 1, 1).in_tetrahedron()
    assert not DiagonalChannel(1, 1, -1).in_tetrahedron()
    assert DiagonalChannel(-1, 1, -1).in_tetrahedron(tol=1e-12)


probs = st.floats(min_value=0.0, max_value=1.0, allow_nan=False)


@given(probs, probs, probs)
def test_pauli_probs_image_in_tetrahedron(a, b, c):
    total = a + b + c
    if total > 1.0:
        a, b, c = a / total, b / total, c / total
    t = from_pauli_probs(a, b, c)
    assert t.in_tetrahedron(tol=1e-12)
    recovered = t.pauli_probs()
    np.testing.assert_allclose(recovered[1:], (a, b, c), atol=1e-12)


coords = st.floats(min_value=-1.0, max_value=1.0, allow_nan=False)


_CORNERS = np.array([[1, 1, 1], [1, -1, -1], [-1, 1, -1], [-1, -1, 1]], dtype=float)


@given(coords, coords, coords)
@settings(max_examples=200)
def test_tetrahedron_membership_iff_nonnegative_probs(x, y, z):
    # independent geometric route: barycentric coordinates over the corners
    system = np.vstack([_CORNERS.T, np.ones(4)])
    weights = np.linalg.solve(system, np.array([x, y, z, 1.0]))
    inside = bool(np.all(weights >= -1e-9))
    t = DiagonalChannel(x, y, z)
    assert t.in_tetrahedron(tol=1e-9) == inside
    np.testing.assert_allclose(t.pauli_probs(), weights, atol=1e-9)


def test_max_entry_distance():
    assert max_entry_distance(StokesChannel.identity()) == 0.0
    assert max_entry_distance(depolarizing(0.3)) == pytest.approx(0.3)
    assert max_entry_distance(dephasing(0.25)) == pytest.approx(0.25)
    for entries in ((math.nan, 1.0, 1.0), (1.0, math.nan, 1.0), (1.0, 1.0, math.nan)):
        assert math.isnan(max_entry_distance(DiagonalChannel(*entries)))
        assert math.isnan(max_entry_distance(DiagonalChannel(*entries).to_stokes()))


def test_kraus_choi_roundtrip():
    rng = np.random.default_rng(11)
    for _ in range(5):
        t = random_cptp(rng)
        rebuilt = stokes_from_kraus(kraus_operators(t))
        np.testing.assert_allclose(rebuilt, t.matrix, atol=1e-12)


def test_choi_matrix_matches_process_tensor():
    """The constant 16x16 form against the process tensor
    M[a,b,c,d] = T(|c><d|)[a,b] = sum_st T[s, t] P_s[a, b] P_t[d, c] / 2, on
    random CPTP channels and arbitrary real 4x4 matrices."""
    rng = np.random.default_rng(5)
    for t in [random_cptp(rng).matrix for _ in range(20)] + list(rng.normal(size=(20, 4, 4))):
        m = 0.5 * np.einsum("st,sab,tdc->abcd", t, PAULI_MATS, PAULI_MATS)
        expected = m.transpose(0, 2, 1, 3).reshape(4, 4)
        np.testing.assert_allclose(StokesChannel(t).choi(), expected, rtol=0, atol=1e-15)


# -- literals ----------------------------------------------------------------------


def test_parse_literals():
    assert parse_channel_literal("depol:0.18").as_tuple() == pytest.approx((0.82, 0.82, 0.82))
    assert parse_channel_literal("deph:0.4").as_tuple() == (
        1.0,
        pytest.approx(0.6),
        pytest.approx(0.6),
    )
    assert parse_channel_literal("pauli:0.2,0,0").as_tuple() == (
        1.0,
        pytest.approx(0.6),
        pytest.approx(0.6),
    )
    assert parse_channel_literal("diag:0.9,0.8,0.7").as_tuple() == (0.9, 0.8, 0.7)
    stokes = parse_channel_literal("stokes:" + ",".join(str(v) for v in np.eye(4).ravel()))
    assert isinstance(stokes, StokesChannel)
    np.testing.assert_array_equal(stokes.matrix, np.eye(4))


@pytest.mark.parametrize(
    "bad",
    ["depol", "depol:0.1,0.2", "pauli:0.1", "stokes:1,2,3", "wat:1", "diag:a,b,c",
     "diag:1,nan,1", "diag:inf,1,1"],
)
def test_parse_literal_errors(bad):
    with pytest.raises(ValueError):
        parse_channel_literal(bad)


@pytest.mark.parametrize(
    "text, message",
    [
        ("depol:0.1,0.2", "depol takes exactly one parameter"),
        ("deph:", "deph takes exactly one parameter"),
        ("pauli:0.1", "pauli takes exactly three parameters"),
        ("diag:1,1,1,1", "diag takes exactly three parameters"),
        ("stokes:1,2,3", "stokes takes exactly sixteen row-major parameters"),
        ("wat:1", "unknown channel kind 'wat'"),
        ("wat:a", "non-numeric channel parameter in 'wat:a'"),  # values before the kind
    ],
)
def test_parse_literal_error_messages(text, message):
    with pytest.raises(ValueError) as info:
        parse_channel_literal(text)
    assert str(info.value) == message
