"""Dense density-matrix simulation as an independent check of the algebra."""

import itertools
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import concatcode
from concatcode import (
    CapabilityError,
    DiagonalChannel,
    StokesChannel,
    build_logical_basis,
    dephasing,
    depolarizing,
    diagonal_map,
    extract_stokes,
    from_pauli_probs,
    general_map,
    get_code,
    load_code,
    max_oracle_deviation,
    random_cptp,
    simulate,
)
from concatcode.linalg import PAULI_MATS
from concatcode.oracle import _dense_parts, _project, _signed_permutations
from concatcode.pauli import PHASES, PauliString, eta
from concatcode.stabilizer import parse_code_spec
from conftest import pauli_dense

DENSE_CODES = ("bitflip3", "five-qubit", "steane")

# an even-n code whose generators carry Y letters: the Y-basis repetition code
Y_REPETITION4 = """n 4
generator YYII
generator IYYI
generator IIYY
logicalX XXXX
logicalZ YIII
recovery auto
"""


def _reference_simulate(code, channel, rhos):
    """The forward pass: encode a stack of 2x2 operators, apply the product
    noise in Liouville order, then recover and decode as sum_j W_j rho W_j^dag.

    Each qubit's (row, column) pair is one axis of length 4: a 4x4 matmul on
    the leading pair, then a transposed copy that moves it last.
    """
    parts = _dense_parts(code)
    kraus = np.array(channel.kraus_operators(cutoff=1e-12))
    process = np.einsum("eac,ebd->abcd", kraus, kraus.conj()).reshape(4, 4)

    n, batch, dim = code.n, len(rhos), 1 << code.n
    plain = np.empty((batch, dim, dim), dtype=complex)  # axes (batch, rows, columns)
    pairs = np.empty_like(plain)
    np.matmul(parts.encoder @ rhos, parts.encoder.conj().T, out=plain)
    qubits = plain.reshape((batch,) + (2,) * (2 * n))  # row bits, then column bits
    order = [0] + [axis for q in range(n) for axis in (1 + q, 1 + n + q)]
    np.copyto(pairs.reshape((2,) * (2 * n) + (batch,)), qubits.transpose(order[1:] + [0]))
    rest = pairs.size // 4
    for _ in range(n):
        np.matmul(process, pairs.reshape(4, rest), out=plain.reshape(4, rest))
        np.copyto(pairs.reshape(rest, 4), plain.reshape(4, rest).T)
    np.copyto(qubits, pairs.reshape(qubits.shape).transpose(np.argsort(order)))

    # sum_j W_j rho W_j^dag, conjugated twice so that no conj(W) is formed
    w = parts.decoders
    half = np.matmul(w.reshape(-1, dim), plain, out=pairs).reshape(batch, *w.shape)
    np.conjugate(half, out=half)
    return np.matmul(half, w.transpose(0, 2, 1)).sum(axis=1).conj()


def _reference_stokes(code, channel):
    images = _reference_simulate(code, channel, PAULI_MATS / 2.0)
    return np.einsum("sab,tba->st", PAULI_MATS, images)


def apply_map_on_qubit(rho: np.ndarray, m: np.ndarray, qubit: int, nq: int) -> np.ndarray:
    """Apply a process tensor M[a,b,c,d] to one qubit of an nq-qubit operator."""
    t = rho.reshape((2,) * (2 * nq))
    t = np.tensordot(m, t, axes=([2, 3], [qubit, nq + qubit]))
    t = np.moveaxis(t, (0, 1), (qubit, nq + qubit))
    return t.reshape(rho.shape)


def syndrome_projectors(code) -> list[np.ndarray]:
    """Dense projectors onto the syndrome subspaces, indexed by syndrome."""
    columns, factors = _signed_permutations(code.generators, code.n)
    eye = np.eye(1 << code.n, dtype=complex)
    return [_project(columns, factors, eye, j) for j in range(1 << code.m)]


@pytest.mark.parametrize("n", [1, 2, 3])
def test_signed_permutations_match_dense_reference(n):
    """Every string on n qubits with each phase, alone and all in one batched
    call, rebuilt as a dense matrix from its (columns, factors)."""
    paulis = [
        PauliString("".join(letters), phase)
        for letters in itertools.product("IXYZ", repeat=n)
        for phase in PHASES
    ]
    batch = _signed_permutations(paulis, n)
    rows = np.arange(1 << n)
    for i, p in enumerate(paulis):
        columns, factors = _signed_permutations([p], n)
        assert np.array_equal(columns[0], batch[0][i]) and np.array_equal(factors[0], batch[1][i])
        dense = np.zeros((1 << n, 1 << n), dtype=complex)
        dense[rows, columns[0]] = factors[0]
        assert np.array_equal(dense, pauli_dense(p)), str(p)


def test_bitflip3_codewords(bitflip3):
    basis = build_logical_basis(bitflip3)
    expected0 = np.zeros(8)
    expected0[0] = 1.0
    expected1 = np.zeros(8)
    expected1[7] = 1.0
    np.testing.assert_allclose(basis.ket0, expected0, atol=1e-12)
    np.testing.assert_allclose(basis.ket1, expected1, atol=1e-12)


@pytest.mark.parametrize("name", DENSE_CODES)
def test_basis_orthonormal(name):
    basis = build_logical_basis(get_code(name))
    assert np.linalg.norm(basis.ket0) == pytest.approx(1.0, abs=1e-12)
    assert np.linalg.norm(basis.ket1) == pytest.approx(1.0, abs=1e-12)
    assert abs(np.vdot(basis.ket0, basis.ket1)) <= 1e-12


def test_five_qubit_stabilizer_expectations(five_qubit):
    basis = build_logical_basis(five_qubit)
    for s in five_qubit.group():
        value = np.vdot(basis.ket0, pauli_dense(s) @ basis.ket0)
        assert value.real == pytest.approx(1.0, abs=1e-10)
        assert abs(value.imag) <= 1e-12


def test_logical_action_on_codewords(five_qubit):
    basis = build_logical_basis(five_qubit)
    z_bar = pauli_dense(five_qubit.logical_z)
    np.testing.assert_allclose(z_bar @ basis.ket0, basis.ket0, atol=1e-10)
    np.testing.assert_allclose(z_bar @ basis.ket1, -basis.ket1, atol=1e-10)


@pytest.mark.parametrize("name", DENSE_CODES)
def test_syndrome_projectors_complete(name):
    code = get_code(name)
    total = sum(syndrome_projectors(code))
    np.testing.assert_allclose(total, np.eye(1 << code.n), atol=1e-12)


@pytest.mark.parametrize("name", ["bitflip3", "five-qubit"])
def test_syndrome_projectors_match_signed_stabilizer_sum(name):
    # independent formula: P_j = (1/|S|) sum_i eta(R_j, S_i) * S_i
    code = get_code(name)
    group = code.group()
    recs = code.recovery_by_syndrome()
    for j, p in enumerate(syndrome_projectors(code)):
        summed = sum(eta(recs[j], s) * pauli_dense(s) for s in group) / len(group)
        np.testing.assert_allclose(p, summed, atol=1e-12)


@pytest.mark.parametrize("name", [*DENSE_CODES, "shor"])
def test_decoded_identity_is_the_identity(name):
    # A_0 = sum_j W_j^dag W_j = I: decoding preserves the trace
    coefficients = _dense_parts(get_code(name)).observables[:, 0]
    e_0 = np.zeros(len(coefficients))
    e_0[0] = 1.0
    np.testing.assert_allclose(coefficients, e_0, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", DENSE_CODES)
def test_decoders_match_full_projector_product(name):
    # W_j = E^dag R_j P_j, here from full dense matrices
    code = get_code(name)
    parts = _dense_parts(code)
    recs = code.recovery_by_syndrome()
    for j, p in enumerate(syndrome_projectors(code)):
        expected = parts.encoder.conj().T @ pauli_dense(recs[j]) @ p
        np.testing.assert_allclose(parts.decoders[j], expected, atol=1e-12)


@pytest.mark.parametrize("name", ["bitflip3", "five-qubit", "steane"])
def test_simulate_matches_qubit_by_qubit_process_tensors(name):
    """The oracle against a forward pass through apply_map_on_qubit, which
    contracts the process tensor on one qubit's row and column axes, on a
    non-hermitian input."""
    code = get_code(name)
    rng = np.random.default_rng(11)
    channel = random_cptp(rng)
    rho0 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    kraus = np.array(channel.kraus_operators(cutoff=1e-12))
    process = np.einsum("eac,ebd->abcd", kraus, kraus.conj())
    parts = _dense_parts(code)
    noisy = parts.encoder @ rho0 @ parts.encoder.conj().T
    for q in range(code.n):
        noisy = apply_map_on_qubit(noisy, process, q, code.n)
    expected = sum(w @ noisy @ w.conj().T for w in parts.decoders)
    np.testing.assert_allclose(simulate(code, channel, rho0), expected, atol=1e-12)


FAULTS_PER_EXTRACTION = """
import resource
import numpy as np
from concatcode import extract_stokes, get_code, random_cptp
code = get_code("steane")
channels = [random_cptp(np.random.default_rng(seed)) for seed in range(8)]
for channel in channels[:3]:
    extract_stokes(code, channel)
before = resource.getrusage(resource.RUSAGE_SELF).ru_minflt
for channel in channels[3:]:
    extract_stokes(code, channel)
print((resource.getrusage(resource.RUSAGE_SELF).ru_minflt - before) / 5)
"""


@pytest.mark.skipif(sys.platform != "linux", reason="minor page faults as glibc counts them")
@pytest.mark.parametrize("mmap_threshold", [None, "131072"])
def test_steane_extraction_touches_few_fresh_pages(mmap_threshold):
    """A Steane extraction keeps its noise steps in one real block of two
    512 KiB buffers, allocated once per call rather than per qubit.  With
    glibc's default, dynamic thresholds a freed block lets later calls reuse
    heap pages, so a warm call touches almost no fresh page, whatever the
    oracle's cold build left on the heap; with the mmap threshold fixed at
    128 KiB every call maps the block anew, about 400 faults of 4 KiB."""
    env = {**os.environ, "PYTHONPATH": str(Path(concatcode.__file__).parents[1])}
    env.pop("MALLOC_MMAP_THRESHOLD_", None)
    if mmap_threshold is not None:
        env["MALLOC_MMAP_THRESHOLD_"] = mmap_threshold
    out = subprocess.run(
        [sys.executable, "-c", FAULTS_PER_EXTRACTION],
        env=env, capture_output=True, text=True, check=True,
    )
    assert float(out.stdout) < (32 if mmap_threshold is None else 1000)


@pytest.mark.parametrize(
    ("name", "channels"), [("bitflip3", 4), ("five-qubit", 4), ("steane", 3), ("shor", 2)]
)
def test_extract_stokes_matches_reference_forward_pass(name, channels):
    code = get_code(name)
    rng = np.random.default_rng(23)
    for _ in range(channels):
        channel = random_cptp(rng)
        expected = _reference_stokes(code, channel)
        assert np.max(np.abs(expected.imag)) <= 1e-12
        dense = extract_stokes(code, channel).matrix
        np.testing.assert_allclose(dense, expected.real, rtol=0, atol=1e-12)


def test_even_code_with_y_generators_matches_reference_forward_pass():
    # n = 4 runs the noise pass in pairs only; Y letters give complex generator rows
    code = parse_code_spec(Y_REPETITION4)
    rng = np.random.default_rng(29)
    for _ in range(3):
        channel = random_cptp(rng)
        expected = _reference_stokes(code, channel)
        dense = extract_stokes(code, channel).matrix
        np.testing.assert_allclose(dense, expected.real, rtol=0, atol=1e-12)
        np.testing.assert_allclose(dense, general_map(code, channel).matrix, rtol=0, atol=1e-12)


@pytest.mark.parametrize("name", DENSE_CODES)
def test_simulate_matches_reference_on_non_hermitian_input(name):
    code = get_code(name)
    rng = np.random.default_rng(31)
    channel = random_cptp(rng)
    rho0 = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    expected = _reference_simulate(code, channel, rho0[None])[0]
    np.testing.assert_allclose(simulate(code, channel, rho0), expected, rtol=0, atol=1e-12)


def test_identity_channel_roundtrip(five_qubit):
    for t in range(4):
        rho0 = PAULI_MATS[t] / 2
        rho_f = simulate(five_qubit, StokesChannel.identity(), rho0)
        np.testing.assert_allclose(rho_f, rho0, atol=1e-12)


def test_bitflip3_recovers_inner_flip_polynomial(bitflip3):
    for p in (0.05, 0.2, 0.45):
        effective = extract_stokes(bitflip3, from_pauli_probs(p, 0.0, 0.0))
        z = 1.0 - 2.0 * p
        assert effective.matrix[3, 3] == pytest.approx((3 * z - z**3) / 2, abs=1e-12)
        assert effective.matrix[1, 1] == pytest.approx(1.0, abs=1e-12)


def test_five_qubit_depolarizing_matches_polynomials(five_qubit):
    effective = extract_stokes(five_qubit, depolarizing(0.1))
    expected = diagonal_map(five_qubit).apply(DiagonalChannel(0.9, 0.9, 0.9))
    np.testing.assert_allclose(
        np.diag(effective.matrix), [1.0, *expected.as_tuple()], atol=1e-10
    )


def test_steane_dephasing_diagonal(steane):
    effective = extract_stokes(steane, dephasing(0.2))
    off = effective.matrix - np.diag(np.diag(effective.matrix))
    assert np.max(np.abs(off)) <= 1e-12


@pytest.mark.parametrize("name", DENSE_CODES)
def test_oracle_equivalence_sample(name):
    trials = 3 if name == "steane" else 10
    assert max_oracle_deviation(get_code(name), trials=trials, seed=5) <= 1e-10


def test_oracle_equivalence_shor(shor):
    assert max_oracle_deviation(shor, trials=2, seed=5) <= 1e-10


def test_trace_preservation_and_positivity(five_qubit):
    rng = np.random.default_rng(9)
    for _ in range(5):
        channel = random_cptp(rng)
        g = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        rho0 = g @ g.conj().T
        rho0 /= np.trace(rho0).real
        rho_f = simulate(five_qubit, channel, rho0)
        assert np.trace(rho_f).real == pytest.approx(1.0, abs=1e-12)
        assert abs(np.trace(rho_f).imag) <= 1e-12
        assert np.linalg.eigvalsh(rho_f).min() >= -1e-10


def test_oracle_rejects_large_codes(ten_qubit_spec):
    # Shor (n = 9) is now within the dense limit; n = 10 is the first size past it
    with pytest.raises(CapabilityError):
        extract_stokes(load_code(ten_qubit_spec), depolarizing(0.1))


def test_oracle_rejects_non_cp(five_qubit):
    transpose_map = StokesChannel(np.diag([1.0, 1.0, -1.0, 1.0]))
    with pytest.raises(ValueError):
        simulate(five_qubit, transpose_map, PAULI_MATS[0] / 2)


def test_oracle_rejects_non_tp(five_qubit):
    not_tp = np.eye(4)
    not_tp[0, 0] = 0.9
    with pytest.raises(ValueError):
        simulate(five_qubit, StokesChannel(not_tp), PAULI_MATS[0] / 2)


@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
def test_oracle_rejects_non_finite_channels(five_qubit, bad):
    for entry in [(0, 0), (2, 1), (3, 3)]:
        matrix = np.eye(4)
        matrix[entry] = bad
        with pytest.raises(ValueError, match="finite"):
            extract_stokes(five_qubit, StokesChannel(matrix))
        with pytest.raises(ValueError, match="finite"):
            simulate(five_qubit, StokesChannel(matrix), PAULI_MATS[0] / 2)
    with pytest.raises(ValueError, match="finite"):
        extract_stokes(five_qubit, DiagonalChannel(1.0, bad, 1.0))


def test_oracle_rejects_bad_state_shape(five_qubit):
    with pytest.raises(ValueError):
        simulate(five_qubit, StokesChannel.identity(), np.eye(4))
