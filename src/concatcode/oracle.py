"""Dense density-matrix reference simulation of one coding level.

Everything here works on explicit 2^n-dimensional matrices: codewords
come from the codespace projector, noise acts qubit by qubit through the
process tensor of the channel's Kraus operators, and recovery plus
decoding is one sum over the decoded recovery operators W_j = E^dag R_j P_j
(encoder E, recovery R_j, syndrome projector P_j).  W_j^dag is built by
applying the dense factors (I +- g)/2 of each generator g to R_j^dag E,
so no syndrome projector is formed.  No Pauli-algebra shortcut of the
polynomial code path is reused, which makes `extract_stokes` an
independent check of `general_map`.  Bounded to n <= 9 physical qubits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .channel import StokesChannel, as_stokes
from .pauli import LETTERS
from .stabilizer import CapabilityError, StabilizerCode, per_code

MAX_DENSE_QUBITS = 9


@dataclass(frozen=True)
class LogicalBasis:
    """Orthonormal codewords; ket0 has logical-Z eigenvalue +1, ket1 = X_bar ket0."""

    ket0: np.ndarray
    ket1: np.ndarray


@dataclass(frozen=True)
class _DenseParts:
    basis: LogicalBasis
    encoder: np.ndarray  # (2^n, 2) isometry E
    decoders: np.ndarray  # stacked W_j = E^dag R_j P_j, shape (2^m, 2, 2^n)


def _dense_generators(code: StabilizerCode) -> list[np.ndarray]:
    """Dense generator matrices, for codes within the size bound only."""
    if code.n > MAX_DENSE_QUBITS:
        raise CapabilityError(
            f"dense simulation is limited to n <= {MAX_DENSE_QUBITS}, code has n = {code.n}"
        )
    return [linalg.pauli_dense(g) for g in code.generators]


def _project(generators, x: np.ndarray, syndromes) -> np.ndarray:
    """Apply the syndrome projector prod_i (I + (-1)^{bit i} g_i)/2 to the
    columns of x; `syndromes` gives each column's syndrome (broadcast)."""
    for i, g in enumerate(generators):
        sign = 1 - 2 * ((syndromes >> i) & 1)
        x = (x + sign * (g @ x)) / 2.0
    return x


@per_code
def _dense_parts(code: StabilizerCode) -> _DenseParts:
    generators = _dense_generators(code)
    dim = 1 << code.n

    plus_z = _project(generators, (np.eye(dim) + linalg.pauli_dense(code.logical_z)) / 2.0, 0)
    norms = np.linalg.norm(plus_z, axis=0)
    columns = np.nonzero(norms > 1e-8)[0]
    if len(columns) == 0:
        raise ValueError("codespace projector is zero; the code is invalid")
    ket0 = plus_z[:, columns[0]] / norms[columns[0]]
    ket1 = linalg.pauli_dense(code.logical_x) @ ket0
    encoder = np.stack([ket0, ket1], axis=1)

    # R_j^dag E for all j, factor by factor; letters are hermitian, phases conjugate
    recoveries = code.recovery_by_syndrome()
    count = len(recoveries)
    stack = np.conj([r.phase for r in recoveries])[:, None, None] * encoder
    for q in range(code.n):
        letters = linalg.PAULI_MATS[[LETTERS.index(r.letters[q]) for r in recoveries]]
        split = stack.reshape(count, 1 << q, 2, -1)  # qubit q on its own axis
        stack = np.einsum("jab,jcbd->jcad", letters, split).reshape(stack.shape)

    # W_j^dag = P_j R_j^dag E, with every syndrome's two columns side by side
    columns_by_syndrome = stack.transpose(1, 0, 2).reshape(dim, 2 * count)
    w_dag = _project(generators, columns_by_syndrome, np.repeat(np.arange(count), 2))
    decoders = w_dag.conj().T.reshape(count, 2, dim)
    return _DenseParts(LogicalBasis(ket0, ket1), encoder, decoders)


def build_logical_basis(code: StabilizerCode) -> LogicalBasis:
    """Codewords from the codespace projector.

    ket0 is the first column (ascending computational-basis index) of
    P_C (I + Z_bar)/2 with nonzero norm, normalized; ket1 = X_bar ket0.
    """
    return _dense_parts(code).basis


@per_code
def syndrome_projectors(code: StabilizerCode) -> tuple[np.ndarray, ...]:
    """Dense projectors onto the syndrome subspaces, indexed by syndrome;
    built on first call only, the simulation never forms them."""
    generators = _dense_generators(code)
    eye = np.eye(1 << code.n, dtype=complex)
    return tuple(_project(generators, eye, j) for j in range(1 << code.m))


def _simulate_batch(code: StabilizerCode, channel, rhos: np.ndarray) -> np.ndarray:
    """Encode / product noise / recover / decode a stack of 2x2 operators.

    Noise acts in Liouville order, each qubit's (row, column) pair one axis
    of length 4: a 4x4 matmul on the leading pair, then a transposed copy
    that moves it last.  Two buffers made once per call hold every step.
    """
    parts = _dense_parts(code)
    t = as_stokes(channel)
    if not t.is_trace_preserving():
        raise ValueError("the dense simulation requires a trace-preserving channel")
    kraus = np.array(t.kraus_operators(cutoff=1e-12))
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


def simulate(code: StabilizerCode, channel, rho0: np.ndarray) -> np.ndarray:
    """Push a 2x2 operator through encode / product noise / recover / decode.

    The channel must be trace-preserving and completely positive; its
    Kraus operators come from the Choi eigendecomposition (eigenvalue
    cutoff 1e-12) and act qubit by qubit.
    """
    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got shape {rho0.shape}")
    return _simulate_batch(code, channel, rho0[None])[0]


def extract_stokes(code: StabilizerCode, channel) -> StokesChannel:
    """Effective Stokes matrix of one coding level, all four inputs in one dense run.

    Column t of the result is the Pauli expansion of simulate(P_t / 2).
    """
    images = _simulate_batch(code, channel, linalg.PAULI_MATS / 2.0)
    out = np.einsum("sab,tba->st", linalg.PAULI_MATS, images)
    if np.max(np.abs(out.imag)) > 1e-9:
        raise RuntimeError("effective channel has a non-real Stokes entry")
    return StokesChannel(out.real)


def max_oracle_deviation(code: StabilizerCode, trials: int, seed: int = 0) -> float:
    """Largest entrywise gap between the dense oracle and the algebraic map
    over seeded random CPTP channels."""
    from .channel import random_cptp
    from .codingmap import general_map

    worst = 0.0
    rng = np.random.default_rng(seed)
    for _ in range(trials):
        channel = random_cptp(rng)
        dense = extract_stokes(code, channel).matrix
        algebraic = general_map(code, channel).matrix
        worst = max(worst, float(np.max(np.abs(dense - algebraic))))
    return worst
