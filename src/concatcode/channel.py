"""Single-qubit superoperators in the real 4x4 Stokes parametrization.

The matrix entry (s, t) is the prefactor of the Pauli operator s in the
image of t/2.  A superoperator is trace-preserving iff the first row is
(1, 0, 0, 0); valid channels additionally have a positive semidefinite
Choi operator.  Diagonal trace-preserving superoperators are the Pauli
channels and get their own lightweight [x, y, z] value type.

Non-physical matrices are first-class values: validity is a query, never
a constructor constraint.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

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


@dataclass(frozen=True)
class DiagonalChannel:
    """Diagonal Stokes entries [x, y, z]; trace preservation is implicit."""

    x: float
    y: float
    z: float

    @classmethod
    def identity(cls) -> "DiagonalChannel":
        return cls(1.0, 1.0, 1.0)

    def as_tuple(self) -> tuple[float, float, float]:
        return (self.x, self.y, self.z)

    def to_stokes(self) -> "StokesChannel":
        return StokesChannel(np.diag([1.0, self.x, self.y, self.z]))

    def pauli_probs(self) -> tuple[float, float, float, float]:
        """(pI, pX, pY, pZ) of the corresponding mixture of Pauli conjugations."""
        x, y, z = self.x, self.y, self.z
        return (
            (1 + x + y + z) / 4,
            (1 + x - y - z) / 4,
            (1 - x + y - z) / 4,
            (1 - x - y + z) / 4,
        )

    def in_tetrahedron(self, tol: float = 0.0) -> bool:
        """Whether (x, y, z) lies in the tetrahedron spanned by (1,1,1),
        (1,-1,-1), (-1,1,-1), (-1,-1,1), i.e. all reconstructed Pauli
        probabilities are nonnegative."""
        return all(p >= -tol for p in self.pauli_probs())


class StokesChannel:
    """A single-qubit superoperator as its real 4x4 Stokes matrix."""

    __slots__ = ("_m",)

    def __init__(self, matrix) -> None:
        m = np.array(matrix, dtype=float)
        if m.shape != (4, 4):
            raise ValueError(f"expected a 4x4 matrix, got shape {m.shape}")
        m.setflags(write=False)
        self._m = m

    @property
    def matrix(self) -> np.ndarray:
        return self._m

    @classmethod
    def identity(cls) -> "StokesChannel":
        return cls(np.eye(4))

    def choi(self) -> np.ndarray:
        """Unnormalized Choi operator sum_ij T(|i><j|) (x) |i><j| (4x4), read from
        the process tensor M[a,b,c,d] = T(|c><d|)[a,b] of the Stokes matrix."""
        return (_CHOI @ np.ravel(self._m)).reshape(4, 4)

    def __repr__(self) -> str:
        return f"StokesChannel({np.array2string(self._m, precision=6)})"


def as_stokes(channel) -> StokesChannel:
    """Coerce a DiagonalChannel or StokesChannel to its Stokes matrix form."""
    if isinstance(channel, StokesChannel):
        return channel
    if isinstance(channel, DiagonalChannel):
        return channel.to_stokes()
    raise TypeError(f"not a channel value: {channel!r}")


# -- named families -----------------------------------------------------------


def _check_strength(eps: float) -> None:
    if not 0.0 <= eps <= 1.0:
        raise ValueError(f"noise strength must lie in [0, 1], got {eps}")


def depolarizing(eps: float) -> DiagonalChannel:
    """[1-eps, 1-eps, 1-eps]: replaces the state by the maximally mixed one
    with probability eps.  Build a nonphysical value as a `DiagonalChannel`."""
    _check_strength(eps)
    return DiagonalChannel(1.0 - eps, 1.0 - eps, 1.0 - eps)


def dephasing(eps: float) -> DiagonalChannel:
    """[1, 1-eps, 1-eps]: applies X with probability eps/2."""
    _check_strength(eps)
    return DiagonalChannel(1.0, 1.0 - eps, 1.0 - eps)


def from_pauli_probs(p_x: float, p_y: float, p_z: float) -> DiagonalChannel:
    """Diagonal channel of the Pauli mixture with the given error weights."""
    for name, p in (("pX", p_x), ("pY", p_y), ("pZ", p_z)):
        if not 0.0 <= p <= 1.0:
            raise ValueError(f"{name} must lie in [0, 1], got {p}")
    if p_x + p_y + p_z > 1.0 + 1e-12:
        raise ValueError(f"error probabilities sum to {p_x + p_y + p_z} > 1")
    return DiagonalChannel(
        1.0 - 2.0 * (p_y + p_z),
        1.0 - 2.0 * (p_x + p_z),
        1.0 - 2.0 * (p_x + p_y),
    )


# -- validity and distances ----------------------------------------------------

_EYE = np.eye(4)


def is_valid_channel(channel, tol: float = 1e-10) -> bool:
    """True iff finite, trace-preserving and the Choi operator is PSD within `tol`."""
    t = as_stokes(channel)
    if not np.isfinite(t.matrix).all() or np.max(np.abs(t.matrix[0] - _EYE[0])) > tol:
        return False
    eigenvalues = np.linalg.eigvalsh(t.choi())
    return bool(eigenvalues[0] >= -tol)


def deficit_distance(x, y, z) -> float:
    """max(|1 - x|, |1 - y|, |1 - z|), the distance of the diagonal channel
    [x, y, z] to the identity; NaN if any of x, y, z is NaN."""
    dx, dy, dz = abs(1.0 - x), abs(1.0 - y), abs(1.0 - z)
    # the deficits are non-negative, so their sum is NaN only if one of them
    # is; it may overflow to inf, so it says nothing about finiteness
    return math.nan if math.isnan(dx + dy + dz) else max(dx, dy, dz)


def max_entry_distance(channel) -> float:
    """Largest |entry| of (T - Id) in Stokes form; NaN if any entry is NaN."""
    if isinstance(channel, DiagonalChannel):
        return deficit_distance(channel.x, channel.y, channel.z)
    return float(np.abs(channel.matrix - _EYE).max())


def stokes_from_kraus(kraus) -> np.ndarray:
    """Stokes matrix T[s, t] = tr(P_s sum_e K_e (P_t / 2) K_e^dag) of a Kraus set."""
    out = np.empty((4, 4))
    for t in range(4):
        image = sum(k @ (PAULI_MATS[t] / 2) @ k.conj().T for k in kraus)
        for s in range(4):
            out[s, t] = np.trace(PAULI_MATS[s] @ image).real
    return out


def random_cptp(rng: np.random.Generator) -> StokesChannel:
    """A random CPTP channel of Kraus rank 4 built from a Haar-style random isometry."""
    g = rng.normal(size=(8, 2)) + 1j * rng.normal(size=(8, 2))
    q, _ = np.linalg.qr(g)
    kraus = [q[2 * e : 2 * e + 2, :] for e in range(4)]
    matrix = stokes_from_kraus(kraus)
    matrix[0] = (1.0, 0.0, 0.0, 0.0)  # trace-preserving by construction; drop rounding
    return StokesChannel(matrix)


def random_pauli_channel(rng: np.random.Generator) -> DiagonalChannel:
    """A random valid Pauli channel (uniform over the probability simplex)."""
    _, p_x, p_y, p_z = rng.dirichlet(np.ones(4))
    return from_pauli_probs(p_x, p_y, p_z)


# -- channel literals ----------------------------------------------------------


# kind: (parameter count, how its arity error names them, constructor)
_LITERALS = {
    "depol": (1, "one parameter", depolarizing),
    "deph": (1, "one parameter", dephasing),
    "pauli": (3, "three parameters", from_pauli_probs),
    "diag": (3, "three parameters", DiagonalChannel),
    "stokes": (16, "sixteen row-major parameters", lambda *v: StokesChannel(np.reshape(v, (4, 4)))),
}


def parse_channel_literal(text: str):
    """Parse `depol:<e>`, `deph:<e>`, `pauli:<px>,<py>,<pz>`, `diag:<x>,<y>,<z>`
    or `stokes:<16 row-major reals>`."""
    head, sep, rest = text.partition(":")
    if not sep:
        raise ValueError(f"channel literal needs a '<kind>:' prefix: {text!r}")
    try:
        values = [float(v) for v in rest.split(",")] if rest else []
    except ValueError:
        raise ValueError(f"non-numeric channel parameter in {text!r}") from None
    if not all(math.isfinite(v) for v in values):
        raise ValueError(f"non-finite channel parameter in {text!r}")
    if head not in _LITERALS:
        raise ValueError(f"unknown channel kind {head!r}")
    arity, words, build = _LITERALS[head]
    if len(values) != arity:
        raise ValueError(f"{head} takes exactly {words}")
    return build(*values)
