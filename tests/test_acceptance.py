"""Acceptance suite: one test per numbered criterion, at its stated tolerance.

Each test prints one `CRITERION <k>: PASS` line (visible with `pytest -s`
or `-rA`); the pytest verdict per test is the authoritative pass/fail
signal.  Criterion 9 asserts both of its clauses literally; the doubling
clause is known not to hold for this orbit (see the companion analysis in
test_dynamics.test_superexponential_tail_doubles_log_error for the law
that does hold).
"""

import json
import math
import time
from fractions import Fraction

import numpy as np
import pytest

from concatcode import (
    DiagonalChannel,
    RaySpec,
    StokesChannel,
    c_constants,
    depolarizing,
    diagonal_map,
    error_series,
    fixed_points_1d,
    general_bound_check,
    general_map,
    get_code,
    is_valid_channel,
    iterate,
    jacobian_fd,
    max_oracle_deviation,
    random_cptp,
    random_pauli_channel,
    threshold,
)
from concatcode.cli import main

SQRT_2_3 = math.sqrt(2.0 / 3.0)
F = Fraction


def _report(num: int, started: float, detail: str) -> None:
    print(f"CRITERION {num:2d}: PASS in {time.perf_counter() - started:.2f}s ({detail})")


def test_criterion_01_symbolic_five_qubit_map(capsys):
    started = time.perf_counter()
    assert main(["map", "five-qubit", "--symbolic"]) == 0
    payload = json.loads(capsys.readouterr().out)
    x_component = [
        {"a": 1, "b": 0, "c": 2, "num": 5, "den": 4},
        {"a": 1, "b": 2, "c": 0, "num": 5, "den": 4},
        {"a": 1, "b": 2, "c": 2, "num": -5, "den": 4},
        {"a": 5, "b": 0, "c": 0, "num": -1, "den": 4},
    ]
    assert payload["components"]["X"] == x_component

    def permuted(mons, perm):
        rotated = [
            {ax: m[src] for ax, src in zip("abc", perm)} | {"num": m["num"], "den": m["den"]}
            for m in mons
        ]
        return sorted(rotated, key=lambda m: (m["a"], m["b"], m["c"]))

    assert payload["components"]["Y"] == permuted(x_component, ("c", "a", "b"))
    assert payload["components"]["Z"] == permuted(x_component, ("b", "c", "a"))
    with capsys.disabled():
        _report(1, started, "four X monomials exact, Y and Z cyclic")


def test_criterion_02_depolarizing_fixed_point():
    started = time.perf_counter()
    poly = diagonal_map(get_code("five-qubit"))
    line = poly.restrict("X", ("t", "t", "t"))
    assert line == (F(0), F(0), F(0), F(5, 2), F(0), F(-3, 2))
    scan = fixed_points_1d([float(c) for c in line], interval=(0.0, 1.0), tol=1e-12)
    below_one = [r for r in scan.roots if r < 1.0 - 1e-9]
    top = max(below_one)
    assert abs(top - SQRT_2_3) <= 1e-12
    derived_threshold = 1.0 - top
    assert derived_threshold >= 0.18
    assert abs(derived_threshold - 0.183503) <= 1e-6
    _report(2, started, f"fixed point {top:.15f}, threshold {derived_threshold:.6f}")


def test_criterion_03_shor_dephasing():
    started = time.perf_counter()
    poly = diagonal_map(get_code("shor"))

    def conv(u, v):
        out = [F(0)] * (len(u) + len(v) - 1)
        for i, a in enumerate(u):
            for j, b in enumerate(v):
                out[i + j] += a * b
        return out

    inner = [F(0), F(3, 2), F(0), F(-1, 2)]
    cubed = conv(inner, conv(inner, inner))
    expected = [(0, 0, d, c) for d, c in enumerate(cubed) if c != 0]
    assert [(m.a, m.b, m.c, m.coeff) for m in poly.components["Z"]] == expected

    z_line = poly.restrict("Z", (None, None, "t"))
    scan = fixed_points_1d([float(c) for c in z_line], interval=(0.0, 1.0), tol=1e-12)
    top = max(r for r in scan.roots if r < 1.0 - 1e-9)
    assert top < 0.73

    value = threshold(get_code("shor"), RaySpec.dephasing_ray())
    assert value >= 0.27
    _report(3, started, f"h fixed point {top:.6f}, threshold {value:.6f}")


def test_criterion_04_general_channel_bound():
    started = time.perf_counter()
    constants = c_constants(get_code("five-qubit"))
    assert constants.c_n == F(64)
    bound = general_bound_check(get_code("five-qubit"))
    assert bound.c_m == 1.0 / (1.0 - SQRT_2_3)
    assert bound.value >= 0.014
    _report(4, started, f"c_N = 64 exact, bound {bound.value:.6f}")


def test_criterion_05_jacobian_vanishing():
    started = time.perf_counter()
    at = DiagonalChannel.identity()
    worst = {}
    for name in ("five-qubit", "steane", "shor"):
        j = jacobian_fd(get_code(name), at)
        worst[name] = float(np.max(np.abs(j)))
        assert worst[name] <= 1e-8, name
    j3 = jacobian_fd(get_code("bitflip3"), at)
    assert abs(j3[0, 0] - 3.0) <= 1e-6
    _report(5, started, "max residuals " + ", ".join(f"{k} {v:.1e}" for k, v in worst.items()))


def test_criterion_06_oracle_equivalence():
    started = time.perf_counter()
    worst = {}
    for name in ("bitflip3", "five-qubit", "steane"):
        worst[name] = max_oracle_deviation(get_code(name), trials=50, seed=2026)
        assert worst[name] <= 1e-10, name
    _report(6, started, "max deviations " + ", ".join(f"{k} {v:.1e}" for k, v in worst.items()))


def test_criterion_07_diagonality_and_cptp_preservation():
    started = time.perf_counter()
    rng = np.random.default_rng(777)
    worst_off = 0.0
    worst_eig = 0.0
    for name in ("bitflip3", "five-qubit", "shor", "steane"):
        code = get_code(name)
        for _ in range(100):
            out = general_map(code, random_pauli_channel(rng).to_stokes()).matrix
            off = out - np.diag(np.diag(out))
            worst_off = max(worst_off, float(np.max(np.abs(off))))
        for _ in range(100):
            out = general_map(code, random_cptp(rng))
            eig = float(np.linalg.eigvalsh(out.choi())[0])
            worst_eig = min(worst_eig, eig)
            assert is_valid_channel(out, tol=1e-10)
    assert worst_off <= 1e-12
    assert worst_eig >= -1e-10
    _report(7, started, f"off-diagonal {worst_off:.1e}, Choi eigenvalue {worst_eig:.1e}")


def test_criterion_08_scaling_bounds():
    started = time.perf_counter()
    rng = np.random.default_rng(88)
    identity = np.eye(4)
    for name in ("five-qubit", "steane"):
        code = get_code(name)
        d, w = code.distance_and_w()
        c_n = float(c_constants(code).c_n)
        for eps in (0.3, 0.1, 0.03):
            for _ in range(5):
                noise = rng.uniform(-1.0, 1.0, size=(4, 4))
                np.fill_diagonal(noise, 0.0)
                disturbed = StokesChannel(identity + eps * noise)
                gap = general_map(code, disturbed).matrix - identity
                off = gap - np.diag(np.diag(gap))
                assert np.max(np.abs(off)) <= c_n * eps**d
                assert np.max(np.abs(np.diag(gap))) <= c_n * eps**w
    _report(8, started, "off-diagonals within c_N eps^d, diagonals within c_N eps^w")


def _depolarizing_orbit_distances() -> list[float]:
    record = iterate(get_code("five-qubit"), depolarizing(0.05), k_max=60, tol=1e-9)
    assert record.converged
    return [l.distance for l in record.levels]


def test_criterion_09a_closed_form_envelope():
    started = time.perf_counter()
    c = float(c_constants(get_code("five-qubit")).c_n) + 1.0 / (1.0 - SQRT_2_3)
    dists = _depolarizing_orbit_distances()
    for k, dist in enumerate(dists):
        bound = error_series(c, 0.05, k)
        # the +1e-12 absorbs last-ulp rounding at k = 0, where the bound
        # equals the starting distance exactly in real arithmetic
        assert dist <= bound + 1e-12, f"level {k}: {dist} > {bound}"
    _report(9, started, f"{len(dists)} levels inside (1/c)(c 0.05)^(2^k), c = {c:.4f}")


def test_criterion_09b_doubling_rate_clause():
    """Second clause of criterion 9, asserted literally.

    This clause does not hold for the real orbit: the contraction is
    dist' ~ 7.5 dist^2, so log(-log dist) gains log 2 - log(2 - log 7.5 /
    (-log dist))... shy of log 2 until dist is below ~3e-7, and the
    measured gains at the qualifying levels are 0.304, 0.413, 0.514,
    0.590, 0.636 against the required 0.624.  The correctly scaled law,
    log(-log(7.5 dist)) gaining exactly log 2, is verified in
    test_dynamics.test_superexponential_tail_doubles_log_error.
    """
    started = time.perf_counter()
    dists = _depolarizing_orbit_distances()
    log_log = [math.log(-math.log(d)) for d in dists]
    gains = [
        log_log[k + 1] - log_log[k]
        for k in range(len(dists) - 1)
        if dists[k] < 0.1
    ]
    shortfall = [g for g in gains if g < 0.9 * math.log(2.0)]
    assert not shortfall, (
        f"log(-log dist) gains {[round(g, 4) for g in gains]} fall short of "
        f"0.9*log(2) = {0.9 * math.log(2.0):.4f} at {len(shortfall)} levels; "
        "the clause is unattainable for this orbit (contraction constant 7.5, "
        "not 1), see this test's docstring"
    )
    _report(9, started, "doubling clause")


def test_criterion_10_closed_form_recursion():
    started = time.perf_counter()
    rng = np.random.default_rng(10)
    for _ in range(20):
        alpha = float(rng.uniform(0.2, 3.0))
        eps0 = float(rng.uniform(0.0, 1.0))
        k = int(rng.integers(0, 7))
        eps = eps0
        for _ in range(k):
            eps = alpha * eps * eps
        assert error_series(alpha, eps0, k) == pytest.approx(eps, rel=1e-12, abs=1e-300)
    _report(10, started, "20 random triples match the unrolled recursion")
