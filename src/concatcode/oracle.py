"""Dense reference simulation of one coding level, in the Heisenberg picture.

Decoding uses W_j = E^dag R_j P_j (encoder E, recovery R_j, syndrome projector
P_j), with W_j^dag made by applying each generator's (I +- g)/2 to R_j^dag E.
Every Pauli operator applied here (generators, logicals, recoveries) is the
signed row permutation read from its x and z masks, never a 2^n x 2^n matrix.
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
from .pauli import PHASES
from .stabilizer import CapabilityError, StabilizerCode, mask_arrays, per_code

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


def _signed_permutations(paulis, n: int) -> tuple[np.ndarray, np.ndarray]:
    """Pauli strings i^k X^x Z^z as the signed row permutations of their dense
    matrices, (p @ v)[r] = factors[r] * v[columns[r]], stacked in two arrays of
    shape (len(paulis), 2^n); qubit 0 is the most significant index bit, so row
    r reads column r ^ x' with factor i^k (-1)^|z' & (r ^ x')| for the
    bit-reversed masks x' and z'.  n <= 9 only."""
    if n > MAX_DENSE_QUBITS:
        raise CapabilityError(
            f"dense simulation is limited to n <= {MAX_DENSE_QUBITS}, code has n = {n}"
        )
    masks = mask_arrays(paulis)
    k = np.array([p.phase_exponent for p in paulis], dtype=int)
    unit = np.array(PHASES)[(k + np.bitwise_count(masks[0] & masks[1])) % 4, None]
    x, z = ((masks[..., None] >> np.arange(n)) & 1) @ (1 << np.arange(n)[::-1])
    columns = np.arange(1 << n) ^ x[:, None]
    return columns, np.where(np.bitwise_count(columns & z[:, None]) & 1, -unit, unit)


def _project(columns: np.ndarray, factors: np.ndarray, x: np.ndarray, syndromes) -> np.ndarray:
    """Apply the syndrome projector prod_i (I + (-1)^{bit i} g_i)/2 of the signed
    permutations g_i to the columns of x; `syndromes` gives each column's
    syndrome (broadcast)."""
    for i, (rows, signs) in enumerate(zip(columns, factors)):
        image = signs[:, None] * x[rows]
        image *= 0.5 - ((syndromes >> i) & 1)
        x = image + 0.5 * x
    return x


def _per_qubit(single: np.ndarray, data: np.ndarray, n: int) -> np.ndarray:
    """Apply the 4x4 `single` to the n leading length-4 axes of `data` (read only),
    two per step by their Kronecker product, each step one matmul written transposed
    into one of two buffers so those axes move last: a trailing axis comes out first."""
    pair = (single[:, None, :, None] * single[None, :, None, :]).reshape(16, 16)  # kron
    # one block for both: freeing it lifts glibc's dynamic mmap and trim thresholds
    # above its size, so later calls reuse heap pages instead of faulting in new ones
    buffers = np.empty((2, data.size), dtype=np.result_type(single, data))
    for i, step in enumerate([pair] * (n // 2) + [single] * (n % 2)):
        rest = data.size // len(step)
        out = buffers[i % 2].reshape(rest, len(step))
        data = np.matmul(data.reshape(len(step), rest).T, step.T, out=out)
    return data


@per_code
def _dense_parts(code: StabilizerCode) -> _DenseParts:
    n, m, dim = code.n, code.m, 1 << code.n
    # the generators, then Z_bar, then X_bar
    columns, factors = _signed_permutations([*code.generators, code.logical_z, code.logical_x], n)

    # P_C (I + Z_bar)/2 as one projection: its factors commute and every entry is dyadic
    plus_z = _project(columns[: m + 1], factors[: m + 1], np.eye(dim), 0)
    norms = np.linalg.norm(plus_z, axis=0)
    nonzero = np.nonzero(norms > 1e-8)[0]
    if len(nonzero) == 0:
        raise ValueError("codespace projector is zero; the code is invalid")
    ket0 = plus_z[:, nonzero[0]] / norms[nonzero[0]]
    ket1 = factors[m + 1] * ket0[columns[m + 1]]
    encoder = np.stack([ket0, ket1], axis=1)

    # R_j^dag E for all j: row r of R^dag is conj(factors[columns[r]]) times row columns[r]
    rows, signs = _signed_permutations(code.recovery_by_syndrome(), n)
    count = len(rows)
    stack = np.take_along_axis(signs, rows, axis=1).conj()[..., None] * encoder[rows]

    # W_j^dag = P_j R_j^dag E, with every syndrome's two columns side by side
    columns_by_syndrome = stack.transpose(1, 0, 2).reshape(dim, 2 * count)
    w_dag = _project(columns[:m], factors[:m], columns_by_syndrome, np.repeat(np.arange(count), 2))
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
