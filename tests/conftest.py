import itertools

import pytest

from concatcode import get_code


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
