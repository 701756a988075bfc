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

from . import linalg


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

    def __matmul__(self, other: "StokesChannel") -> "StokesChannel":
        """Composition self after other; Stokes matrices multiply."""
        if not isinstance(other, StokesChannel):
            return NotImplemented
        return StokesChannel(self._m @ other._m)

    def is_trace_preserving(self, tol: float = 1e-10) -> bool:
        return bool(np.max(np.abs(self._m[0] - np.array([1.0, 0, 0, 0]))) <= tol)

    def choi(self) -> np.ndarray:
        return linalg.choi_matrix(self._m)

    def kraus_operators(self, cutoff: float = 1e-12) -> list[np.ndarray]:
        return linalg.kraus_from_choi(self.choi(), cutoff=cutoff)

    def apply(self, rho: np.ndarray) -> np.ndarray:
        """Image of a 2x2 operator, hermitian or not, under the superoperator."""
        traces = np.einsum("tab,ba->t", linalg.PAULI_MATS, rho)  # tr(P_t rho)
        return np.einsum("s,sab->ab", self._m @ traces, linalg.PAULI_MATS) / 2.0

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


def _check_strength(eps: float, allow_nonphysical: bool) -> None:
    if not allow_nonphysical and not 0.0 <= eps <= 1.0:
        raise ValueError(f"noise strength must lie in [0, 1], got {eps}")


def depolarizing(eps: float, allow_nonphysical: bool = False) -> DiagonalChannel:
    """[1-eps, 1-eps, 1-eps]: replaces the state by the maximally mixed one
    with probability eps."""
    _check_strength(eps, allow_nonphysical)
    return DiagonalChannel(1.0 - eps, 1.0 - eps, 1.0 - eps)


def dephasing(eps: float, allow_nonphysical: bool = False) -> DiagonalChannel:
    """[1, 1-eps, 1-eps]: applies X with probability eps/2."""
    _check_strength(eps, allow_nonphysical)
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


def is_valid_channel(channel, tol: float = 1e-10) -> bool:
    """True iff trace-preserving and the Choi operator is PSD within `tol`."""
    t = as_stokes(channel)
    if not t.is_trace_preserving(tol):
        return False
    eigenvalues = np.linalg.eigvalsh(t.choi())
    return bool(eigenvalues[0] >= -tol)


_EYE = np.eye(4)


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


def random_cptp(rng: np.random.Generator, kraus_rank: int = 4) -> StokesChannel:
    """A random CPTP channel built from a Haar-style random isometry."""
    g = rng.normal(size=(2 * kraus_rank, 2)) + 1j * rng.normal(size=(2 * kraus_rank, 2))
    q, _ = np.linalg.qr(g)
    kraus = [q[2 * e : 2 * e + 2, :] for e in range(kraus_rank)]
    matrix = linalg.stokes_from_kraus(kraus)
    matrix[0] = (1.0, 0.0, 0.0, 0.0)  # trace-preserving by construction; drop rounding
    return StokesChannel(matrix)


def random_pauli_channel(rng: np.random.Generator) -> DiagonalChannel:
    """A random valid Pauli channel (uniform over the probability simplex)."""
    _, p_x, p_y, p_z = rng.dirichlet(np.ones(4))
    return from_pauli_probs(p_x, p_y, p_z)


# -- diamond-norm lower-bound estimator ----------------------------------------


def diamond_distance_estimate(channel, seed: int = 0, restarts: int = 200) -> float:
    """Seeded lower-bound estimate of ||T - Id||_diamond.

    Maximizes the trace norm of ((T - Id) (x) Id) over pure two-qubit
    states with `restarts` random starts plus local ascent; deterministic
    for a fixed seed.  The ascent alternates the exact sign-operator step
    with the leading eigenvector of the back-propagated witness; both steps
    are monotone, so the result is a lower bound, never an upper bound.
    """
    t = as_stokes(channel)
    delta = t.matrix - np.eye(4)
    m_fwd, m_adj = linalg.map_tensor(delta), linalg.map_tensor(delta.T)
    best = 0.0
    for r in range(restarts):
        psi = linalg.random_pure_state(np.random.default_rng([seed, r]), 4)
        run = 0.0
        for _ in range(60):
            rho = np.outer(psi, psi.conj())
            vals, vecs = np.linalg.eigh(linalg.apply_map_on_qubit(rho, m_fwd, 0, 2))
            value = float(np.sum(np.abs(vals)))
            witness = (vecs * np.sign(vals)) @ vecs.conj().T
            psi = np.linalg.eigh(linalg.apply_map_on_qubit(witness, m_adj, 0, 2))[1][:, -1]
            if value <= run + 1e-13:
                run = max(run, value)
                break
            run = value
        best = max(best, run)
    return best


# -- channel literals ----------------------------------------------------------


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
    if head == "depol":
        if len(values) != 1:
            raise ValueError("depol takes exactly one parameter")
        return depolarizing(values[0])
    if head == "deph":
        if len(values) != 1:
            raise ValueError("deph takes exactly one parameter")
        return dephasing(values[0])
    if head == "pauli":
        if len(values) != 3:
            raise ValueError("pauli takes exactly three parameters")
        return from_pauli_probs(*values)
    if head == "diag":
        if len(values) != 3:
            raise ValueError("diag takes exactly three parameters")
        return DiagonalChannel(*values)
    if head == "stokes":
        if len(values) != 16:
            raise ValueError("stokes takes exactly sixteen row-major parameters")
        return StokesChannel(np.array(values).reshape(4, 4))
    raise ValueError(f"unknown channel kind {head!r}")
