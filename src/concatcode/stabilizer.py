"""Stabilizer code definitions, validation and derived coefficient data.

A code is given by its n-1 commuting generators (distance-one logical
qubit, k=1), the logical X and Z operators, and one recovery operator per
syndrome.  From these the module derives the stabilizer group, the signed
recovery/stabilizer correlation table (`f_matrix`), the exact decoding
coefficient tables, and the code parameters d and w.

Derived data lives in symplectic int64 arrays with one entry per group
element: a Pauli string i^k X^x Z^z is the triple (x mask, z mask, k) that
`PauliString` also uses.  The group is built by doubling over the
generators with product phases from popcounts (`group_arrays`), and each
coefficient table is the group times one logical operator.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import lru_cache, wraps
from typing import NamedTuple, Sequence

import numpy as np

from .pauli import PauliString, eta

SIGMAS = ("I", "X", "Y", "Z")

MASK_MAX_QUBITS = 63  # x and z masks fit an int64


class InvalidCodeError(ValueError):
    """A structural code invariant is broken."""


class CapabilityError(RuntimeError):
    """The request exceeds a documented size bound of this implementation."""


class CodeSpecError(ValueError):
    """A code spec file is ill-formed; carries the offending line number."""

    def __init__(self, line: int, message: str):
        self.line = line
        super().__init__(f"line {line}: {message}")


@dataclass(frozen=True)
class ValidationReport:
    passed: bool
    violations: tuple[str, ...] = ()


class CoefficientTable(NamedTuple):
    """Per group index i, the phase-stripped product |S_i sigma_bar| as x and
    z masks, its hermitian sign alpha and the numerator of the decoding
    weight beta = f * alpha / 2^m over 2^m."""

    x: np.ndarray
    z: np.ndarray
    alpha: np.ndarray
    beta: np.ndarray


def per_code(build):
    """Cache `build(code, *args)` on the code instance rather than in a
    global table, so that derived data lives exactly as long as its code."""

    @wraps(build)
    def cached(code: StabilizerCode, *args):
        key = (build, *args)
        if key not in code._memo:
            code._memo[key] = build(code, *args)
        return code._memo[key]

    return cached


def mask_arrays(paulis: Sequence[PauliString]) -> np.ndarray:
    """The x masks and the z masks of Pauli strings on at most 63 qubits,
    as two int64 rows."""
    if paulis and paulis[0].n > MASK_MAX_QUBITS:
        raise CapabilityError(
            f"symplectic arrays are limited to n <= {MASK_MAX_QUBITS}, got n = {paulis[0].n}"
        )
    return np.array([(p.x_mask, p.z_mask) for p in paulis], dtype=np.int64).reshape(-1, 2).T


def syndromes(generators: Sequence[PauliString], x, z) -> np.ndarray:
    """Syndromes of the strings with int64 x and z masks (broadcast): bit i
    is set iff the string anticommutes with generator i."""
    gx, gz = mask_arrays(generators)
    anti = np.bitwise_count(np.asarray(x)[..., None] & gz ^ np.asarray(z)[..., None] & gx) & 1
    return anti @ (1 << np.arange(len(generators)))


class StabilizerCode:
    """An [n, 1] stabilizer code with explicit recovery operators.

    Instances are immutable after construction; derived data (group,
    f-matrix, coefficients, code parameters) is computed lazily and
    cached.  :meth:`validate` alone decides validity and reports every
    violation; derived data but the group, which `validate` itself builds,
    raises the first that concerns it as InvalidCodeError.
    """

    def __init__(
        self,
        n: int,
        generators: Sequence[PauliString],
        logical_x: PauliString,
        logical_z: PauliString,
        recovery: Sequence[PauliString],
        name: str | None = None,
    ) -> None:
        if n < 1:
            raise ValueError("n must be positive")
        for p in (*generators, logical_x, logical_z, *recovery):
            if p.n != n:
                raise ValueError(f"operator {p} does not act on {n} qubits")
        self.n = n
        self.generators = tuple(generators)
        self.logical_x = logical_x
        self.logical_z = logical_z
        self.recovery = tuple(recovery)
        self.name = name
        self._memo: dict = {}  # filled by per_code

    @property
    def m(self) -> int:
        return len(self.generators)

    def __repr__(self) -> str:
        label = self.name or f"[{self.n},1]"
        return f"StabilizerCode({label}, m={self.m})"

    # -- validation ------------------------------------------------------

    def validate(self) -> ValidationReport:
        """Check every structural invariant and report all violations found:
        the code's, then its recovery operators'."""
        bad = self._code_violations() + self._recovery_violations()
        return ValidationReport(passed=not bad, violations=bad)

    @per_code
    def _code_violations(self) -> tuple[str, ...]:
        """Those of `validate` that make this no [n, 1] code, recoveries aside."""
        bad: list[str] = []
        if self.m != self.n - 1:
            bad.append(f"expected m = n-1 = {self.n - 1} generators, got {self.m}")
        for i, j in itertools.combinations(range(self.m), 2):
            if eta(self.generators[i], self.generators[j]) != 1:
                bad.append(f"generators {i} and {j} anticommute")
        if not bad:
            try:
                self.group_arrays()
            except (InvalidCodeError, CapabilityError) as exc:  # n > 63: no int64 masks
                bad.append(str(exc))
        for label, op in (("logicalX", self.logical_x), ("logicalZ", self.logical_z)):
            if not op.is_hermitian:
                bad.append(f"{label} is not hermitian")
            for i, g in enumerate(self.generators):
                if eta(op, g) != 1:
                    bad.append(f"{label} anticommutes with generator {i}")
        if eta(self.logical_x, self.logical_z) != -1:
            bad.append("logicalX and logicalZ do not anticommute")
        return tuple(bad)

    @per_code
    def _recovery_violations(self) -> tuple[str, ...]:
        """Those of `validate` that keep the recoveries from being one per syndrome."""
        if len(self.recovery) != 1 << self.m:
            return (f"expected {1 << self.m} recovery operators, got {len(self.recovery)}",)
        bad: list[str] = []
        syndromes: dict[int, int] = {}
        for j, s in enumerate(self.recovery_syndromes().tolist()):
            if s in syndromes:
                bad.append(f"recovery operators {syndromes[s]} and {j} share syndrome {s:#x}")
            else:
                syndromes[s] = j
        return tuple(bad)

    # -- group and syndrome machinery -------------------------------------

    @per_code
    def group_arrays(self) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
        """All 2^m stabilizers as (x, z, k) int64 arrays; index = subset
        bitmask over the generators.

        Element 2^b + i is element i times generator b: each element is the
        product of its generators in index order, with exact phase, +1 or -1
        for commuting hermitian generators (-I cannot occur once they are
        independent).  The first subset that repeats an earlier element or
        is not hermitian raises InvalidCodeError.
        """
        gx, gz = mask_arrays(self.generators)
        size = 1 << self.m
        x, z, k = (np.zeros(size, dtype=np.int64) for _ in range(3))
        for b, g in enumerate(self.generators):
            low, high = slice(0, 1 << b), slice(1 << b, 2 << b)
            # (i^k X^x Z^z)(i^k' X^x' Z^z'): moving Z^z past X^x' gives (-1)^|z & x'|
            k[high] = (k[low] + g._k + 2 * np.bitwise_count(z[low] & gx[b])) % 4
            x[high] = x[low] ^ gx[b]
            z[high] = z[low] ^ gz[b]
        # per element, the first subset with its masks: its run's start in a stable sort
        order = np.lexsort((z, x))
        runs = np.stack([x, z])[:, order]
        starts = np.concatenate([[True], (runs[:, 1:] != runs[:, :-1]).any(axis=0)])
        first = np.empty(size, dtype=np.int64)
        first[order] = order[starts][np.cumsum(starts) - 1]
        odd_phase = (k - np.bitwise_count(x & z)) % 2 == 1  # i or -i
        bad = np.flatnonzero((first != np.arange(size)) | odd_phase)
        if len(bad):
            mask = int(bad[0])
            if first[mask] != mask:
                raise InvalidCodeError(
                    f"dependent generators: subsets {first[mask]:#x} and {mask:#x} "
                    "give the same group element"
                )
            raise InvalidCodeError(f"group element for subset {mask:#x} is not hermitian")
        for array in (x, z, k):
            array.setflags(write=False)
        return x, z, k

    @per_code
    def group(self) -> tuple[PauliString, ...]:
        """The elements of `group_arrays` as PauliStrings, in subset order."""
        x, z, k = (array.tolist() for array in self.group_arrays())
        return tuple(PauliString._raw(self.n, *elem) for elem in zip(x, z, k))

    @per_code
    def recovery_syndromes(self) -> np.ndarray:
        """Syndrome of each recovery operator, in recovery order."""
        if self.n > MASK_MAX_QUBITS:  # masks overflow int64; a valid code needs 2^63 recoveries
            gens = list(enumerate(self.generators))
            bits = [sum(1 << i for i, g in gens if eta(r, g) == -1) for r in self.recovery]
            return np.array(bits, dtype=np.int64)
        return syndromes(self.generators, *mask_arrays(self.recovery))

    @per_code
    def recovery_by_syndrome(self) -> tuple[PauliString, ...]:
        """Recovery operators re-indexed by their computed syndrome; raises
        `validate`'s first violation on an invalid code."""
        if bad := self._code_violations() + self._recovery_violations():
            raise InvalidCodeError(bad[0])
        return tuple(self.recovery[j] for j in np.argsort(self.recovery_syndromes()).tolist())

    def logical(self, sigma: str) -> PauliString:
        """Logical counterpart of a Pauli letter; logical Y is i * X * Z."""
        if sigma == "I":
            return PauliString.identity(self.n)
        if sigma == "X":
            return self.logical_x
        if sigma == "Z":
            return self.logical_z
        if sigma == "Y":
            return (self.logical_x * self.logical_z).times_i()
        raise ValueError(f"unknown letter {sigma!r}")

    # -- coefficient data --------------------------------------------------

    @per_code
    def f_matrix(self) -> np.ndarray:
        """Signed sums f[i][sigma] = sum_j eta(R_j, S_i) * eta(R_j, logical sigma)
        as a read-only int64 array: rows in group order, columns I, X, Y, Z.

        Group index i is a subset of generators and recovery index j a
        syndrome, so eta(R_j, S_i) = (-1)^|i & j|: each column of f is the
        Walsh-Hadamard transform of eta(R_j, logical sigma) over j.
        """
        rx, rz = mask_arrays(self.recovery_by_syndrome())[:, :, None]
        lx, lz = mask_arrays([self.logical(sigma) for sigma in SIGMAS])[:, None, :]
        values = 1 - 2 * (np.bitwise_count(rx & lz ^ rz & lx) & 1).astype(np.int64)
        for k in range(self.m):
            split = values.reshape(-1, 2, 1 << k, 4)  # bit k of j on axis 1
            values = np.stack([split[:, 0] + split[:, 1], split[:, 0] - split[:, 1]], 1).reshape(-1, 4)
        values.setflags(write=False)
        return values

    @per_code
    def coefficient_table(self, sigma: str) -> CoefficientTable:
        """Per stabilizer i: the phase-stripped product |S_i sigma_bar|, its
        hermitian sign alpha, and the exact decoding weight beta = f * alpha / 2^m
        as its numerator over 2^m.
        """
        f = self.f_matrix()[:, SIGMAS.index(sigma)]  # validates the code
        lg = self.logical(sigma)
        sx, sz, sk = self.group_arrays()
        x, z = sx ^ lg.x_mask, sz ^ lg.z_mask
        k = sk + lg._k + 2 * np.bitwise_count(sz & lg.x_mask).astype(np.int64)
        # commuting hermitian factors: the displayed prefactor i^p has p = 0 or 2
        alpha = 1 - (k - np.bitwise_count(x & z)) % 4
        beta = alpha * f
        for array in (x, z, alpha, beta):
            array.setflags(write=False)
        return CoefficientTable(x, z, alpha, beta)

    # -- code parameters ----------------------------------------------------

    @per_code
    def distance_and_w(self) -> tuple[int, int]:
        """(d, w) from the group masks.  w is the least weight of a non-identity
        stabilizer, 0 when m = 0.  d is the least weight of a string that
        commutes with every generator and is no stabilizer (mod phase): in a
        valid [n, 1] code, of the cosets S X_bar, S Y_bar and S Z_bar.  Raises
        the first of `validate`'s violations that is not the recoveries'."""
        if bad := self._code_violations():
            raise InvalidCodeError(bad[0])
        x, z, _ = self.group_arrays()
        lx, lz = self.logical_x, self.logical_z
        cx = np.array([lx.x_mask, lx.x_mask ^ lz.x_mask, lz.x_mask])[:, None]
        cz = np.array([lx.z_mask, lx.z_mask ^ lz.z_mask, lz.z_mask])[:, None]
        w = int(np.bitwise_count(x | z)[1:].min()) if self.m else 0
        return int(np.bitwise_count((x ^ cx) | (z ^ cz)).min()), w


def auto_recovery(generators: Sequence[PauliString], n: int) -> list[PauliString]:
    """One minimum-weight n-qubit representative per syndrome, ties broken by the
    lexicographic letter order I < X < Y < Z position by position; phases +1.
    """
    gens = list(generators)
    bits = 1 << np.arange(n)
    # the syndromes of the single-qubit X and Z strings span the reachable ones
    basis: list[int] = []
    for s in np.concatenate([syndromes(gens, bits, 0), syndromes(gens, 0, bits)]).tolist():
        for b in basis:  # each b has the leading bits of those before it cleared
            s = min(s, s ^ b)
        if s:
            basis.append(s)
    if len(basis) < len(gens):
        raise InvalidCodeError("some syndromes are unreachable; generators are degenerate")
    found: dict[int, PauliString] = {}
    for weight in range(n + 1):
        # every word of this weight, letters I, X, Y, Z = 0, 1, 2, 3, in word order
        positions = np.array(list(itertools.combinations(range(n), weight)), dtype=np.intp)
        letters = np.array(list(itertools.product((1, 2, 3), repeat=weight)), dtype=np.int8)
        words = np.zeros((len(positions), len(letters), n), dtype=np.int8)
        np.put_along_axis(words, positions[:, None], letters, axis=2)
        words = words.reshape(-1, n)
        words = words[np.lexsort(words.T[::-1])]  # qubit 0 is the primary key
        x, z = ((words == 1) | (words == 2)) @ bits, (words >= 2) @ bits
        values, first = np.unique(syndromes(gens, x, z), return_index=True)
        for s, i in zip(values.tolist(), first.tolist()):
            if s not in found:
                found[s] = PauliString._raw(n, int(x[i]), int(z[i]), int(x[i] & z[i]).bit_count())
        if len(found) == 1 << len(gens):  # by weight n at the latest, at full rank
            break
    return [found[s] for s in range(len(found))]


# -- code spec text format ---------------------------------------------------


def parse_code_spec(text: str, name: str | None = None) -> StabilizerCode:
    """Parse the line-oriented code spec format.

    Recognised items, one per line ('#' starts a comment):

        n <int>
        generator <pauli-string>     (m = n-1 times)
        logicalX <pauli-string>
        logicalZ <pauli-string>
        recovery <pauli-string>      (2^m times)  |  recovery auto
    """
    n: int | None = None
    gens: list[PauliString] = []
    lx: PauliString | None = None
    lz: PauliString | None = None
    recs: list[PauliString] = []
    auto = False
    last = 0
    for lineno, raw in enumerate(text.splitlines(), 1):
        last = lineno
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        parts = line.split()
        key, args = parts[0], parts[1:]
        if len(args) != 1:
            raise CodeSpecError(lineno, f"expected exactly one value after {key!r}")
        value = args[0]
        try:
            if key == "n":
                n = int(value)
            elif key == "generator":
                gens.append(PauliString.parse(value))
            elif key == "logicalX":
                lx = PauliString.parse(value)
            elif key == "logicalZ":
                lz = PauliString.parse(value)
            elif key == "recovery":
                if value == "auto":
                    auto = True
                else:
                    recs.append(PauliString.parse(value))
            else:
                raise CodeSpecError(lineno, f"unknown item {key!r}")
        except CodeSpecError:
            raise
        except ValueError as exc:
            raise CodeSpecError(lineno, str(exc)) from None
    if n is None:
        raise CodeSpecError(last + 1, "missing 'n' line")
    if lx is None or lz is None:
        raise CodeSpecError(last + 1, "missing logicalX or logicalZ line")
    for p in (*gens, lx, lz, *recs):
        if p.n != n:
            raise CodeSpecError(last + 1, f"operator {p} does not act on {n} qubits")
    if auto:
        if recs:
            raise CodeSpecError(last + 1, "both explicit recovery lines and 'recovery auto'")
        recs = auto_recovery(gens, n)
    elif len(recs) != 1 << len(gens):
        raise CodeSpecError(
            last + 1,
            f"expected {1 << len(gens)} recovery lines or 'recovery auto', got {len(recs)}",
        )
    return StabilizerCode(n, gens, lx, lz, recs, name=name)


def load_code(path) -> StabilizerCode:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_code_spec(fh.read(), name=str(path))


# -- built-in codes ----------------------------------------------------------


def _bitflip3() -> StabilizerCode:
    gens = [PauliString("ZZI"), PauliString("IZZ")]
    recovery = [PauliString(s) for s in ("III", "XII", "IXI", "IIX")]
    return StabilizerCode(
        3, gens, PauliString("XXX"), PauliString("ZZZ"), recovery, name="bitflip3"
    )


def _five_qubit() -> StabilizerCode:
    gens = [PauliString(s) for s in ("XZZXI", "IXZZX", "XIXZZ", "ZXIXZ")]
    recovery = [PauliString.identity(5)]
    for letter in "XYZ":
        recovery.extend(PauliString.single(5, q, letter) for q in range(5))
    return StabilizerCode(
        5, gens, PauliString("XXXXX"), PauliString("ZZZZZ"), recovery, name="five-qubit"
    )


def _steane() -> StabilizerCode:
    gens = [
        PauliString(s)
        for s in ("IIIXXXX", "IXXIIXX", "XIXIXIX", "IIIZZZZ", "IZZIIZZ", "ZIZIZIZ")
    ]
    recovery = [PauliString.identity(7)]
    recovery.extend(PauliString.single(7, q, "X") for q in range(7))
    recovery.extend(PauliString.single(7, q, "Z") for q in range(7))
    for i in range(7):
        for j in range(7):
            prod = PauliString.single(7, i, "X") * PauliString.single(7, j, "Z")
            recovery.append(prod.strip_phase())
    return StabilizerCode(
        7, gens, PauliString("XXXXXXX"), PauliString("ZZZZZZZ"), recovery, name="steane"
    )


def _shor() -> StabilizerCode:
    gens = [
        PauliString(s)
        for s in (
            "ZZIIIIIII",
            "IZZIIIIII",
            "IIIZZIIII",
            "IIIIZZIII",
            "IIIIIIZZI",
            "IIIIIIIZZ",
            "XXXXXXIII",
            "IIIXXXXXX",
        )
    ]
    ident = PauliString.identity(9)
    x_blocks = [
        [ident] + [PauliString.single(9, q, "X") for q in block]
        for block in ((0, 1, 2), (3, 4, 5), (6, 7, 8))
    ]
    z_triples = [ident]
    for block in ((0, 1, 2), (3, 4, 5), (6, 7, 8)):
        t = ident
        for q in block:
            t = t * PauliString.single(9, q, "Z")
        z_triples.append(t)
    recovery = [
        (a * b * c * d).strip_phase()
        for a in x_blocks[0]
        for b in x_blocks[1]
        for c in x_blocks[2]
        for d in z_triples
    ]
    return StabilizerCode(
        9, gens, PauliString("X" * 9), PauliString("Z" * 9), recovery, name="shor"
    )


_REGISTRY = {
    "bitflip3": _bitflip3,
    "five-qubit": _five_qubit,
    "shor": _shor,
    "steane": _steane,
}


def builtin_names() -> tuple[str, ...]:
    return tuple(_REGISTRY)


@lru_cache(maxsize=None)
def get_code(name: str) -> StabilizerCode:
    """Return the shared instance of a built-in code."""
    try:
        return _REGISTRY[name]()
    except KeyError:
        raise KeyError(
            f"unknown code {name!r}; built-ins are {', '.join(_REGISTRY)}"
        ) from None
