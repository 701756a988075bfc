"""Dense density-matrix reference simulation of one coding level.

Everything here works on explicit 2^n-dimensional matrices: codewords
come from the codespace projector, noise is applied qubit by qubit
through Kraus operators, recovery conjugates by the recovery operators
behind dense syndrome projectors, and decoding reads the logical 2x2
block out.  No Pauli-algebra shortcut of the polynomial code path is
reused, which makes `extract_stokes` an independent check of
`general_map`.

Bounded to n <= 7 physical qubits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .channel import StokesChannel, as_stokes
from .stabilizer import CapabilityError, StabilizerCode, per_code

MAX_DENSE_QUBITS = 7


@dataclass(frozen=True)
class LogicalBasis:
    """Orthonormal codewords; ket0 has logical-Z eigenvalue +1, ket1 = X_bar ket0."""

    ket0: np.ndarray
    ket1: np.ndarray


@dataclass(frozen=True)
class _DenseParts:
    basis: LogicalBasis
    encoder: np.ndarray  # (2^n, 2) isometry
    projectors: tuple[np.ndarray, ...]  # syndrome projectors, index = syndrome
    corrections: np.ndarray  # stacked R_j P_j, shape (2^m, 2^n, 2^n)


@per_code
def _dense_parts(code: StabilizerCode) -> _DenseParts:
    if code.n > MAX_DENSE_QUBITS:
        raise CapabilityError(
            f"dense simulation is limited to n <= {MAX_DENSE_QUBITS}, code has n = {code.n}"
        )
    dim = 1 << code.n
    eye = np.eye(dim, dtype=complex)

    projector = np.zeros((dim, dim), dtype=complex)
    for s in code.group():
        projector += linalg.pauli_dense(s)
    projector /= len(code.group())

    z_bar = linalg.pauli_dense(code.logical_z)
    x_bar = linalg.pauli_dense(code.logical_x)
    plus_z = projector @ (eye + z_bar) / 2.0
    norms = np.linalg.norm(plus_z, axis=0)
    columns = np.nonzero(norms > 1e-8)[0]
    if len(columns) == 0:
        raise ValueError("codespace projector is zero; the code is invalid")
    ket0 = plus_z[:, columns[0]] / norms[columns[0]]
    ket1 = x_bar @ ket0
    basis = LogicalBasis(ket0=ket0, ket1=ket1)
    encoder = np.stack([ket0, ket1], axis=1)

    generators_dense = [linalg.pauli_dense(g) for g in code.generators]
    projectors = []
    for syndrome in range(1 << code.m):
        p = eye
        for i, g in enumerate(generators_dense):
            sign = -1.0 if (syndrome >> i) & 1 else 1.0
            p = p @ (eye + sign * g) / 2.0
        projectors.append(p)
    recoveries = code.recovery_by_syndrome()
    corrections = np.stack(
        [linalg.pauli_dense(r) @ p for r, p in zip(recoveries, projectors)]
    )
    return _DenseParts(
        basis=basis,
        encoder=encoder,
        projectors=tuple(projectors),
        corrections=corrections,
    )


def build_logical_basis(code: StabilizerCode) -> LogicalBasis:
    """Codewords from the codespace projector.

    ket0 is the first column (ascending computational-basis index) of
    P_C (I + Z_bar)/2 with nonzero norm, normalized; ket1 = X_bar ket0.
    """
    return _dense_parts(code).basis


def syndrome_projectors(code: StabilizerCode) -> tuple[np.ndarray, ...]:
    """Dense projectors onto the syndrome subspaces, indexed by syndrome."""
    return _dense_parts(code).projectors


def simulate(code: StabilizerCode, channel, rho0: np.ndarray) -> np.ndarray:
    """Push a 2x2 operator through encode / product noise / recover / decode.

    The channel must be trace-preserving and completely positive; its
    Kraus operators come from the Choi eigendecomposition (eigenvalue
    cutoff 1e-12) and act qubit by qubit.
    """
    parts = _dense_parts(code)
    t = as_stokes(channel)
    if not t.is_trace_preserving():
        raise ValueError("the dense simulation requires a trace-preserving channel")
    kraus = t.kraus_operators(cutoff=1e-12)

    rho0 = np.asarray(rho0, dtype=complex)
    if rho0.shape != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got shape {rho0.shape}")
    encoded = parts.encoder @ rho0 @ parts.encoder.conj().T
    noisy = encoded
    for q in range(code.n):
        noisy = linalg.apply_kraus_on_qubit(noisy, kraus, q, code.n)
    sandwich = parts.corrections @ noisy @ parts.corrections.conj().transpose(0, 2, 1)
    recovered = sandwich.sum(axis=0)
    return parts.encoder.conj().T @ recovered @ parts.encoder


def extract_stokes(code: StabilizerCode, channel) -> StokesChannel:
    """Effective Stokes matrix of one coding level, from four dense runs.

    Column t of the result is the Pauli expansion of simulate(P_t / 2).
    """
    out = np.empty((4, 4))
    for t in range(4):
        rho_f = simulate(code, channel, linalg.PAULI_MATS[t] / 2.0)
        column = np.array(
            [np.trace(linalg.PAULI_MATS[s] @ rho_f) for s in range(4)]
        )
        if np.max(np.abs(column.imag)) > 1e-9:
            raise RuntimeError("effective channel has a non-real Stokes entry")
        out[:, t] = column.real
    return StokesChannel(out)


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
