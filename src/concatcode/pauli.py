"""Exact algebra of n-qubit Pauli strings with unit phase tracking.

Strings are kept in symplectic form, one x-bit and one z-bit per qubit,
next to a global power of i.  The letter Y is i*X*Z at the phase-tracking
level, which fixes every product sign uniquely.  Products, commutation
signs and hermiticity are exact integer operations; floating point never
enters the group algebra.

Letters are plain one-character strings "I", "X", "Y", "Z"; phases are the
exact units 1, 1j, -1, -1j.
"""

from __future__ import annotations

import re

PHASES = (1, 1j, -1, -1j)
LETTERS = "IXYZ"

_PARSE = re.compile(r"(\+|-|i|\+i|-i)?([IXYZ]+)\Z")
_PREFIX_EXPONENT = {None: 0, "+": 0, "i": 1, "+i": 1, "-": 2, "-i": 3}
_PREFIX_BY_EXPONENT = ("", "i", "-", "-i")
_LETTER_BITS = {"I": (0, 0), "X": (1, 0), "Y": (1, 1), "Z": (0, 1)}
_LETTER_BY_BITS = {v: k for k, v in _LETTER_BITS.items()}
# letters to binary digits of the x and the z mask; the word is read
# reversed, because qubit j is bit j
_X_DIGITS = str.maketrans("IXYZ", "0110")
_Z_DIGITS = str.maketrans("IXYZ", "0011")
_NOT_A_LETTER = re.compile(r"[^IXYZ]")


def _word_masks(letters: str) -> tuple[int, int]:
    """The x mask and the z mask of a word over IXYZ."""
    reverse = letters[::-1]
    return int(reverse.translate(_X_DIGITS), 2), int(reverse.translate(_Z_DIGITS), 2)


class PauliDimensionError(ValueError):
    """Two strings over different qubit counts were combined."""


class PauliString:
    """An element phase * (s_1 (x) ... (x) s_n) of the n-qubit Pauli group.

    Instances are immutable and hashable; ``a * b`` is the exact group
    product.  The string renders as an optional sign prefix followed by
    the letters, e.g. ``-YYX`` or ``iZ``, and :meth:`parse` accepts the
    same grammar.
    """

    __slots__ = ("n", "_x", "_z", "_k")

    def __init__(self, letters: str, phase: complex = 1) -> None:
        if not letters or _NOT_A_LETTER.search(letters):
            raise ValueError(f"letters must be a nonempty word over IXYZ, got {letters!r}")
        try:
            exponent = PHASES.index(complex(phase))
        except ValueError:
            raise ValueError(f"phase must be one of 1, 1j, -1, -1j, got {phase!r}") from None
        x, z = _word_masks(letters)
        _set_n(self, len(letters))
        _set_x(self, x)
        _set_z(self, z)
        # internal exponent k refers to the i^k * X^x Z^z normal form
        _set_k(self, (exponent + (x & z).bit_count()) % 4)

    def __setattr__(self, name, value):
        raise AttributeError("PauliString is immutable")

    @classmethod
    def _raw(cls, n: int, x: int, z: int, k: int) -> "PauliString":
        p = cls.__new__(cls)
        _set_n(p, n)
        _set_x(p, x)
        _set_z(p, z)
        _set_k(p, k % 4)
        return p

    @classmethod
    def identity(cls, n: int) -> "PauliString":
        if n < 1:
            raise ValueError("qubit count must be positive")
        return cls._raw(n, 0, 0, 0)

    @classmethod
    def single(cls, n: int, qubit: int, letter: str) -> "PauliString":
        """The string acting as `letter` on one qubit and trivially elsewhere."""
        if not 0 <= qubit < n:
            raise ValueError(f"qubit {qubit} out of range for n={n}")
        if letter not in LETTERS:
            raise ValueError(f"unknown letter {letter!r}")
        xb, zb = _LETTER_BITS[letter]
        return cls._raw(n, xb << qubit, zb << qubit, xb & zb)

    @classmethod
    def parse(cls, text: str) -> "PauliString":
        """Parse ``[sign]LETTERS`` where sign is one of '', '+', '-', 'i', '+i', '-i'."""
        m = _PARSE.fullmatch(text.strip())
        if m is None:
            raise ValueError(f"not a Pauli string literal: {text!r}")
        prefix, letters = m.groups()
        x, z = _word_masks(letters)
        return cls._raw(len(letters), x, z, _PREFIX_EXPONENT[prefix] + (x & z).bit_count())

    # -- representation ------------------------------------------------

    @property
    def letters(self) -> str:
        return "".join(
            _LETTER_BY_BITS[(self._x >> j) & 1, (self._z >> j) & 1] for j in range(self.n)
        )

    @property
    def phase_exponent(self) -> int:
        """Exponent p of the displayed prefactor i^p, p in {0, 1, 2, 3}."""
        return (self._k - ((self._x & self._z).bit_count())) % 4

    @property
    def phase(self) -> complex:
        return PHASES[self.phase_exponent]

    @property
    def x_mask(self) -> int:
        return self._x

    @property
    def z_mask(self) -> int:
        return self._z

    def __str__(self) -> str:
        return _PREFIX_BY_EXPONENT[self.phase_exponent] + self.letters

    def __repr__(self) -> str:
        return f"PauliString({str(self)!r})"

    # -- algebra -------------------------------------------------------

    def __mul__(self, other: "PauliString") -> "PauliString":
        if not isinstance(other, PauliString):
            return NotImplemented
        if other.n != self.n:
            raise PauliDimensionError(f"length mismatch: {self.n} vs {other.n}")
        # Z^z X^x reordering contributes (-1) per overlapping pair.
        k = self._k + other._k + 2 * ((self._z & other._x).bit_count())
        return PauliString._raw(self.n, self._x ^ other._x, self._z ^ other._z, k)

    def __neg__(self) -> "PauliString":
        return PauliString._raw(self.n, self._x, self._z, self._k + 2)

    def times_i(self) -> "PauliString":
        """The same string with phase multiplied by i."""
        return PauliString._raw(self.n, self._x, self._z, self._k + 1)

    def strip_phase(self) -> "PauliString":
        """The same letters with phase reset to +1."""
        return PauliString._raw(self.n, self._x, self._z, (self._x & self._z).bit_count())

    @property
    def is_hermitian(self) -> bool:
        return self.phase_exponent % 2 == 0

    def __eq__(self, other) -> bool:
        if not isinstance(other, PauliString):
            return NotImplemented
        return (
            self.n == other.n
            and self._x == other._x
            and self._z == other._z
            and self._k == other._k
        )

    def __hash__(self) -> int:
        return hash((self.n, self._x, self._z, self._k))


# the slot descriptors' setters, which bypass the immutability guard
_set_n, _set_x, _set_z, _set_k = (PauliString.__dict__[s].__set__ for s in PauliString.__slots__)


def eta(a: PauliString, b: PauliString) -> int:
    """Commutation sign: +1 if a and b commute, -1 if they anticommute.

    Equals (-1)**(number of positions where both letters differ and neither
    is the identity); blind to the phases of either argument.
    """
    if a.n != b.n:
        raise PauliDimensionError(f"length mismatch: {a.n} vs {b.n}")
    parity = ((a._x & b._z).bit_count() ^ (a._z & b._x).bit_count()) & 1
    return -1 if parity else 1
