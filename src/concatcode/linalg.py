"""Dense operator helpers shared by the channel layer and the simulator."""

from __future__ import annotations

import numpy as np

from .pauli import PHASES, PauliString

PAULI_MATS = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)


def pauli_dense(p: PauliString) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a Pauli string, phase included.

    With p = i^k X^x Z^z and qubit 0 the most significant index bit,
    column c has one nonzero, i^k (-1)^|z & c|, at row c ^ x.
    """
    x, z = (int(f"{mask:0{p.n}b}"[::-1], 2) for mask in (p.x_mask, p.z_mask))
    columns = np.arange(1 << p.n)
    out = np.zeros((1 << p.n, 1 << p.n), dtype=complex)
    unit = PHASES[(p.phase_exponent + (x & z).bit_count()) % 4]
    out[columns ^ x, columns] = np.where(np.bitwise_count(columns & z) & 1, -unit, unit)
    return out


def map_tensor(stokes: np.ndarray) -> np.ndarray:
    """Process tensor M[a,b,c,d] = T(|c><d|)[a,b] of a Stokes matrix."""
    return 0.5 * np.einsum("st,sab,tdc->abcd", stokes, PAULI_MATS, PAULI_MATS)


def choi_matrix(stokes: np.ndarray) -> np.ndarray:
    """Unnormalized Choi operator sum_ij T(|i><j|) (x) |i><j| (4x4)."""
    m = map_tensor(stokes)
    return m.transpose(0, 2, 1, 3).reshape(4, 4)


def kraus_from_choi(
    choi: np.ndarray, cutoff: float = 1e-12, cp_tol: float = 1e-10
) -> list[np.ndarray]:
    """Kraus operators from the Choi eigendecomposition.

    Eigenvalues below `cutoff` are dropped; an eigenvalue below -`cp_tol`
    means the map is not completely positive and raises ValueError.
    """
    vals, vecs = np.linalg.eigh(choi)
    if vals[0] < -cp_tol:
        raise ValueError(f"map is not completely positive (Choi eigenvalue {vals[0]:.3e})")
    return [np.sqrt(lam) * v.reshape(2, 2) for lam, v in zip(vals, vecs.T) if lam > cutoff]


def stokes_from_kraus(kraus) -> np.ndarray:
    """Stokes matrix T[s, t] = tr(P_s sum_e K_e (P_t / 2) K_e^dag) of a Kraus set."""
    out = np.empty((4, 4))
    for t in range(4):
        image = sum(k @ (PAULI_MATS[t] / 2) @ k.conj().T for k in kraus)
        for s in range(4):
            out[s, t] = np.trace(PAULI_MATS[s] @ image).real
    return out
