"""Dense operator helpers shared by the channel layer and the simulator."""

from __future__ import annotations

import numpy as np

PAULI_MATS = np.array(
    [
        [[1, 0], [0, 1]],
        [[0, 1], [1, 0]],
        [[0, -1j], [1j, 0]],
        [[1, 0], [0, -1]],
    ],
    dtype=complex,
)
# entry (2a + c, 2b + d) of the Choi operator is sum_st T[s, t] P_s[a, b] P_t[d, c] / 2
_CHOI = 0.5 * np.einsum("sab,tdc->acbdst", PAULI_MATS, PAULI_MATS).reshape(16, 16)


def choi_matrix(stokes: np.ndarray) -> np.ndarray:
    """Unnormalized Choi operator sum_ij T(|i><j|) (x) |i><j| (4x4), read from
    the process tensor M[a,b,c,d] = T(|c><d|)[a,b] of a Stokes matrix."""
    return (_CHOI @ np.ravel(stokes)).reshape(4, 4)


def kraus_from_choi(choi: np.ndarray) -> list[np.ndarray]:
    """Kraus operators from the Choi eigendecomposition.

    Eigenvalues below 1e-12 are dropped; an eigenvalue below -1e-10 means the
    map is not completely positive and raises ValueError.
    """
    vals, vecs = np.linalg.eigh(choi)
    if vals[0] < -1e-10:
        raise ValueError(f"map is not completely positive (Choi eigenvalue {vals[0]:.3e})")
    return [np.sqrt(lam) * v.reshape(2, 2) for lam, v in zip(vals, vecs.T) if lam > 1e-12]


def stokes_from_kraus(kraus) -> np.ndarray:
    """Stokes matrix T[s, t] = tr(P_s sum_e K_e (P_t / 2) K_e^dag) of a Kraus set."""
    out = np.empty((4, 4))
    for t in range(4):
        image = sum(k @ (PAULI_MATS[t] / 2) @ k.conj().T for k in kraus)
        for s in range(4):
            out[s, t] = np.trace(PAULI_MATS[s] @ image).real
    return out
