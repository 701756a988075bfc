"""Dense reference simulation of one coding level, in the Heisenberg picture.

Decoding uses W_j = E^dag R_j P_j (encoder E, recovery R_j, syndrome projector
P_j), with W_j^dag made by applying each generator's (I +- g)/2 to R_j^dag E.
Each code keeps A_s = sum_j W_j^dag P_s W_j and B_t = E (P_t / 2) E^dag as real
Pauli coefficients, so a channel N costs one adjoint pass over the four A_s:
T[s, t] = tr(N^dag(A_s) B_t).  No Pauli-algebra shortcut of the polynomial code
path is reused, so `extract_stokes` independently checks `general_map`.  Bounded
to n <= 9 physical qubits.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from . import linalg
from .channel import StokesChannel, as_stokes
from .pauli import LETTERS
from .stabilizer import CapabilityError, StabilizerCode, per_code

MAX_DENSE_QUBITS = 9

# vec(X) of a 2x2 operator X to its Pauli traces tr(P_s X): row s is conj(P_s)
_TO_PAULI = linalg.PAULI_MATS.conj().reshape(4, 4)


@dataclass(frozen=True)
class LogicalBasis:
    """Orthonormal codewords; ket0 has logical-Z eigenvalue +1, ket1 = X_bar ket0."""

    ket0: np.ndarray
    ket1: np.ndarray


@dataclass(frozen=True)
class _DenseParts:
    encoder: np.ndarray  # (2^n, 2) isometry E
    decoders: np.ndarray  # stacked W_j = E^dag R_j P_j, shape (2^m, 2, 2^n)
    observables: np.ndarray  # (4^n, 4): column s holds the coefficients of A_s
    inputs: np.ndarray  # (4^n, 4): column t holds the traces tr(P_alpha B_t)


def _dense_generators(code: StabilizerCode) -> list[tuple[np.ndarray, np.ndarray]]:
    """Each generator g as the signed row permutation (columns, factors) of
    its dense matrix, (g @ x)[r] = factors[r] * x[columns[r]]; n <= 9 only."""
    if code.n > MAX_DENSE_QUBITS:
        raise CapabilityError(
            f"dense simulation is limited to n <= {MAX_DENSE_QUBITS}, code has n = {code.n}"
        )
    dense = [linalg.pauli_dense(g) for g in code.generators]
    return [(np.abs(d).argmax(axis=1), d.sum(axis=1)) for d in dense]  # one nonzero per row


def _project(generators, x: np.ndarray, syndromes) -> np.ndarray:
    """Apply the syndrome projector prod_i (I + (-1)^{bit i} g_i)/2 to the
    columns of x; `syndromes` gives each column's syndrome (broadcast)."""
    for i, (columns, factors) in enumerate(generators):
        image = factors[:, None] * x[columns]
        image *= 0.5 - ((syndromes >> i) & 1)
        x = image + 0.5 * x
    return x


def _per_qubit(single: np.ndarray, data: np.ndarray, n: int) -> np.ndarray:
    """Apply the 4x4 `single` to the n leading length-4 axes of `data` (read only),
    two per step by their Kronecker product, each step one matmul written transposed
    into one of two buffers so those axes move last: a trailing axis comes out first."""
    pair = (single[:, None, :, None] * single[None, :, None, :]).reshape(16, 16)  # kron
    buffers = [np.empty(data.size, dtype=np.result_type(single, data)) for _ in range(2)]
    for i, step in enumerate([pair] * (n // 2) + [single] * (n % 2)):
        rest = data.size // len(step)
        out = buffers[i % 2].reshape(rest, len(step))
        data = np.matmul(data.reshape(len(step), rest).T, step.T, out=out)
    return data


@per_code
def _dense_parts(code: StabilizerCode) -> _DenseParts:
    generators = _dense_generators(code)
    n, dim = code.n, 1 << code.n

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
    letters = linalg.PAULI_MATS[[[LETTERS.index(c) for c in r.letters] for r in recoveries]]
    stack = np.conj([r.phase for r in recoveries])[:, None, None] * encoder
    for q in range(n):
        split = stack.reshape(count, 1 << q, 2, -1)  # qubit q on its own axis
        stack = np.matmul(letters[:, q, None], split).reshape(stack.shape)

    # W_j^dag = P_j R_j^dag E, with every syndrome's two columns side by side
    columns_by_syndrome = stack.transpose(1, 0, 2).reshape(dim, 2 * count)
    w_dag = _project(generators, columns_by_syndrome, np.repeat(np.arange(count), 2))
    decoders = w_dag.conj().T.reshape(count, 2, dim)

    def coefficients(x: np.ndarray, scale: float) -> np.ndarray:  # scale^n tr(P_alpha x)
        order = [axis for q in range(n) for axis in (q, n + q)]  # (row, column) per qubit
        pairs = x.reshape((2,) * (2 * n)).transpose(order).copy()
        return _per_qubit(scale * _TO_PAULI, pairs, n).real.ravel()

    # A_s = sum_j W_j^dag P_s W_j and B_t one at a time: transients stay near 4 x 2^n x 2^n
    observables, inputs = np.empty((2, 4**n, 4))
    for s, pauli in enumerate(linalg.PAULI_MATS):
        observables[:, s] = coefficients(w_dag @ (pauli @ decoders).reshape(-1, dim), 0.5)
        inputs[:, s] = coefficients(encoder @ (pauli / 2.0) @ encoder.conj().T, 1.0)
    return _DenseParts(encoder, decoders, observables, inputs)


def build_logical_basis(code: StabilizerCode) -> LogicalBasis:
    """Codewords from the codespace projector.

    ket0 is the first column (ascending computational-basis index) of
    P_C (I + Z_bar)/2 with nonzero norm, normalized; ket1 = X_bar ket0.
    """
    return LogicalBasis(*_dense_parts(code).encoder.T)


def simulate(code: StabilizerCode, channel, rho0: np.ndarray) -> np.ndarray:
    """Push a 2x2 operator, hermitian or not, through encode / noise / recover /
    decode: the level is linear, so this is `extract_stokes` applied to rho0."""
    if np.shape(rho0) != (2, 2):
        raise ValueError(f"expected a 2x2 operator, got shape {np.shape(rho0)}")
    return extract_stokes(code, channel).apply(rho0)


def extract_stokes(code: StabilizerCode, channel) -> StokesChannel:
    """Effective Stokes matrix T[s, t] = tr(N^dag(A_s) B_t) of one coding level.

    The channel must be finite, trace-preserving and completely positive; the
    adjoint process of its Choi Kraus operators (eigenvalue cutoff 1e-12),
    rotated into the Pauli basis, acts on each qubit of the four A_s."""
    parts = _dense_parts(code)
    t = as_stokes(channel)
    if not np.isfinite(t.matrix).all():
        raise ValueError("the dense simulation requires a channel with finite entries")
    if not t.is_trace_preserving():
        raise ValueError("the dense simulation requires a trace-preserving channel")
    kraus = np.array(t.kraus_operators(cutoff=1e-12))
    # N^dag(X)[a, b] = sum_e conj(K_e[c, a]) X[c, d] K_e[d, b]
    adjoint = np.einsum("eca,edb->abcd", kraus.conj(), kraus).reshape(4, 4)
    process = _TO_PAULI @ adjoint @ _TO_PAULI.conj().T / 2.0
    if np.max(np.abs(process.imag)) > 1e-9:
        raise RuntimeError("the noise process has a non-real Pauli entry")
    observables = _per_qubit(process.real, parts.observables, code.n)
    return StokesChannel(observables.reshape(4, -1) @ parts.inputs)


def max_oracle_deviation(code: StabilizerCode, trials: int, seed: int = 0) -> float:
    """Largest entrywise gap between the dense oracle and the algebraic map
    over seeded random CPTP channels."""
    from .channel import random_cptp
    from .codingmap import general_map

    rng = np.random.default_rng(seed)
    channels = (random_cptp(rng) for _ in range(trials))
    gaps = [extract_stokes(code, c).matrix - general_map(code, c).matrix for c in channels]
    return max([0.0] + [float(np.max(np.abs(gap))) for gap in gaps])
