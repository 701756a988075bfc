import itertools

import numpy as np
import pytest

from concatcode import get_code
from concatcode.pauli import PHASES, eta

# an even-n code whose generators carry Y letters: the Y-basis repetition code
Y_REPETITION4 = """n 4
generator YYII
generator IYYI
generator IIYY
logicalX XXXX
logicalZ YIII
recovery auto
"""

# a [[13, 1, 5]] cyclic code past any 4^n scan: (d, w) = (5, 4)
_CYCLIC13 = "IIIZXXYYYYXXZ"
THIRTEEN_QUBIT = (
    "n 13\n"
    + "".join(f"generator {_CYCLIC13[13 - k:]}{_CYCLIC13[:13 - k]}\n" for k in range(12))
    + f"logicalX {'X' * 13}\nlogicalZ {'Z' * 13}\nrecovery auto\n"
)

# the five-qubit code padded with a sixth qubit that one Z generator fixes: the
# five-qubit diagonal polynomials, so the closed-form c_M, with c_N = 128
FIVE_QUBIT_PADDED = """n 6
generator XZZXII
generator IXZZXI
generator XIXZZI
generator ZXIXZI
generator IIIIIZ
logicalX XXXXXI
logicalZ ZZZZZI
recovery auto
"""

# one spec per kind of invalid code, each with its one `validate` violation
DEFECT_SPECS = {
    "generator-count": (
        "n 3\ngenerator ZZI\nlogicalX XXX\nlogicalZ ZZZ\nrecovery III\nrecovery XII\n",
        "expected m = n-1 = 2 generators, got 1",
    ),
    "anticommuting-logical": (
        "n 3\ngenerator ZZI\ngenerator IZZ\nlogicalX XII\nlogicalZ ZZZ\nrecovery auto\n",
        "logicalX anticommutes with generator 0",
    ),
    "non-hermitian-logical": (
        "n 3\ngenerator ZZI\ngenerator IZZ\nlogicalX iXXX\nlogicalZ ZZZ\nrecovery auto\n",
        "logicalX is not hermitian",
    ),
    "shared-syndrome": (
        "n 3\ngenerator ZZI\ngenerator IZZ\nlogicalX XXX\nlogicalZ ZZZ\n"
        + "".join(f"recovery {r}\n" for r in ("III", "XII", "XII", "IIX")),
        "recovery operators 1 and 2 share syndrome 0x1",
    ),
}


def spec_text(code, perm=None, generators=None, recovery=None) -> str:
    """Spec text of `code` with qubit q moved to position perm[q] and sign
    prefixes kept.  `generators` and `recovery` replace the code's own
    lines, in the order given; `recovery="auto"` writes `recovery auto`."""
    perm = range(code.n) if perm is None else perm

    def moved(p):
        letters = ["I"] * code.n
        for q, letter in enumerate(p.letters):
            letters[perm[q]] = letter
        return str(p)[: len(str(p)) - code.n] + "".join(letters)

    generators = code.generators if generators is None else generators
    recovery = code.recovery if recovery is None else recovery
    lines = [f"n {code.n}"] + [f"generator {moved(g)}" for g in generators]
    lines += [f"logicalX {moved(code.logical_x)}", f"logicalZ {moved(code.logical_z)}"]
    if recovery == "auto":
        lines.append("recovery auto")
    else:
        lines += [f"recovery {moved(r)}" for r in recovery]
    return "\n".join(lines) + "\n"


def pauli_dense(p) -> np.ndarray:
    """Dense 2^n x 2^n matrix of a Pauli string, phase included: the reference
    for the oracle's signed permutations.

    With p = i^k X^x Z^z and qubit 0 the most significant index bit,
    column c has one nonzero, i^k (-1)^|z & c|, at row c ^ x.
    """
    x, z = (int(f"{mask:0{p.n}b}"[::-1], 2) for mask in (p.x_mask, p.z_mask))
    columns = np.arange(1 << p.n)
    out = np.zeros((1 << p.n, 1 << p.n), dtype=complex)
    unit = PHASES[(p.phase_exponent + (x & z).bit_count()) % 4]
    out[columns ^ x, columns] = np.where(np.bitwise_count(columns & z) & 1, -unit, unit)
    return out


def kraus_operators(channel) -> np.ndarray:
    """Kraus operators of a completely positive channel, stacked (rank, 2, 2),
    from the eigendecomposition of its Choi operator; eigenvalues at most
    1e-12 are dropped: the tests' forward-pass references apply them to
    states, which the package itself never does."""
    vals, vecs = np.linalg.eigh(channel.choi())
    kept = [np.sqrt(lam) * v.reshape(2, 2) for lam, v in zip(vals, vecs.T) if lam > 1e-12]
    return np.array(kept)


def syndrome(generators, p) -> int:
    """Bit i is set iff p anticommutes with generator i, one `eta` call per
    generator: the reference for the mask-based `stabilizer.syndromes`."""
    return sum(1 << i for i, g in enumerate(generators) if eta(p, g) == -1)


@pytest.fixture(scope="session")
def bitflip3():
    return get_code("bitflip3")


@pytest.fixture(scope="session")
def five_qubit():
    return get_code("five-qubit")


@pytest.fixture(scope="session")
def steane():
    return get_code("steane")


@pytest.fixture(scope="session")
def shor():
    return get_code("shor")


@pytest.fixture
def ten_qubit_spec(tmp_path):
    """Spec file of the 10-qubit bit-flip repetition code, one size above
    what the dense oracle accepts."""
    n = 10
    lines = [f"n {n}", "logicalX " + "X" * n, "logicalZ Z" + "I" * (n - 1)]
    for i in range(n - 1):
        lines.append("generator " + "I" * i + "ZZ" + "I" * (n - 2 - i))
    # flips on qubits 1..n-1 have pairwise distinct syndromes
    for flips in itertools.product("IX", repeat=n - 1):
        lines.append("recovery I" + "".join(flips))
    path = tmp_path / "repetition10.code"
    path.write_text("\n".join(lines) + "\n")
    return path
