"""Orbit iteration, fixed points, thresholds, Jacobians and the recursion."""

import math
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import concatcode
from concatcode import (
    DiagonalChannel,
    OrbitLevel,
    OrbitRecord,
    RaySpec,
    StokesChannel,
    builtin_names,
    depolarizing,
    diagonal_map,
    error_series,
    fixed_point_cross_check,
    fixed_points_1d,
    general_bound_check,
    get_code,
    is_valid_channel,
    iterate,
    jacobian_fd,
    jacobian_fd_full,
    max_entry_distance,
    parse_code_spec,
    random_cptp,
    threshold,
)

SQRT_2_3 = math.sqrt(2.0 / 3.0)


# -- orbits -------------------------------------------------------------------------


def test_identity_converges_at_level_zero(five_qubit):
    record = iterate(five_qubit, DiagonalChannel.identity())
    assert record.converged
    assert record.iterations_used == 0
    assert len(record.levels) == 1
    assert record.levels[0].distance == 0.0


def test_orbit_level_zero_is_input(five_qubit):
    t0 = depolarizing(0.2)
    record = iterate(five_qubit, t0, k_max=3, tol=0.0)
    assert record.levels[0].channel == t0
    assert all(l.distance >= 0 for l in record.levels)
    assert [l.k for l in record.levels] == [0, 1, 2, 3]


def test_depolarizing_inside_basin_converges(five_qubit):
    record = iterate(five_qubit, depolarizing(0.1), tol=1e-9)
    assert record.converged
    assert record.iterations_used <= 6
    c = 64.0 + 1.0 / (1.0 - SQRT_2_3)
    for level in record.levels:
        assert level.distance <= error_series(c, 0.1, level.k) + 1e-12


def test_depolarizing_outside_basin_diverges(five_qubit):
    record = iterate(five_qubit, depolarizing(0.5), tol=1e-9)
    assert not record.converged
    assert record.levels[-1].distance > 0.5


def test_diverging_orbit_ends_before_the_first_non_finite_level(five_qubit):
    # the diagonal path overflows with OverflowError, the Stokes path with inf
    starts = (DiagonalChannel(1.5, 1.5, 1.5), StokesChannel(np.diag([1.0, 1.5, 1.5, 1.5])))
    for t0 in starts:
        with np.errstate(over="ignore", invalid="ignore"):
            record = iterate(five_qubit, t0)
        assert not record.converged
        assert record.iterations_used == len(record.levels) - 1 == 4
        assert record.levels[-1].distance > 1e61
        for level in record.levels:
            entries = level.channel.matrix if isinstance(t0, StokesChannel) else level.channel.as_tuple()
            assert np.isfinite(entries).all()


def test_nan_input_is_an_unconverged_orbit(five_qubit):
    record = iterate(five_qubit, DiagonalChannel(1.0, math.nan, 1.0))
    assert not record.converged
    assert record.iterations_used == 0
    assert len(record.levels) == 1
    assert math.isnan(record.levels[0].distance)


@pytest.mark.parametrize(
    "t0, evaluations",
    # depol 0.3 reaches (0.0, 0.0, 0.0) at level 10; -0.0 maps to 0.0, which equals it
    [(depolarizing(0.3), 10), (DiagonalChannel(-0.0, -0.0, -0.0), 1)],
)
def test_orbit_at_a_float_fixed_point_matches_evaluating_every_level(
    five_qubit, monkeypatch, t0, evaluations
):
    _assert_filled_orbit_matches_every_level(five_qubit, monkeypatch, t0, evaluations)


def test_orbit_on_a_float_2_cycle_matches_evaluating_every_level(shor, monkeypatch):
    # from level 10 the orbit alternates between z = 0.9999999999999997 and
    # 0.9999999999999999 (x = y = 0); level 12 repeats level 10
    t0 = DiagonalChannel(0.75, 0.75, 0.75)
    _assert_filled_orbit_matches_every_level(shor, monkeypatch, t0, 12)


def _assert_filled_orbit_matches_every_level(code, monkeypatch, t0, evaluations):
    poly = diagonal_map(code)
    state, levels = t0, [OrbitLevel(0, t0, max_entry_distance(t0))]
    for k in range(1, 61):
        state = poly.apply(state)
        levels.append(OrbitLevel(k, state, max_entry_distance(state)))
    calls = []
    original = poly.evaluator

    def counting(x, y, z):
        calls.append((x, y, z))
        return original(x, y, z)

    # the compiled evaluator is cached on the instance, which the orbit loop reads
    monkeypatch.setitem(poly.__dict__, "evaluator", counting)
    record = iterate(code, t0)
    assert record == OrbitRecord(levels=tuple(levels), converged=False, iterations_used=60)
    bits = [[v.hex() for v in l.channel.as_tuple()] for l in levels]
    assert [[v.hex() for v in l.channel.as_tuple()] for l in record.levels] == bits
    assert len(calls) == evaluations


def _reference_iterate(code, t0, k_max=60, tol=1e-9):
    """The diagonal orbit of `iterate`, computed independently of its loop:
    one `apply` and one `max_entry_distance` per level, the same stopping and
    cycle rules, then the levels after a float cycle filled by repetition."""
    poly = diagonal_map(code)
    levels = [OrbitLevel(0, t0, max_entry_distance(t0))]
    converged = levels[0].distance < tol
    period = 0
    while not (converged or period) and len(levels) <= k_max:
        k, state = len(levels) - 1, levels[-1].channel
        try:
            new = poly.apply(state)
        except OverflowError:
            break
        dist = max_entry_distance(new)
        if not math.isfinite(dist):
            break
        converged = dist < tol
        if not converged:
            if dist == levels[k].distance and new == state:
                period = 1
            elif k and dist == levels[k - 1].distance and new == levels[k - 1].channel:
                period = 2
        levels.append(OrbitLevel(k + 1, new, dist))
    k = len(levels) - 1
    if period:
        for j in range(k + 1, k_max + 1):
            levels.append(OrbitLevel(j, levels[j - period].channel, levels[j - period].distance))
        k = k_max
    return OrbitRecord(levels=tuple(levels), converged=converged, iterations_used=k)


def _record_bits(record):
    levels = [
        (l.k, [v.hex() for v in l.channel.as_tuple()], l.distance.hex()) for l in record.levels
    ]
    return record.converged, record.iterations_used, levels


def _diagonal_starts(rng, count):
    """Seeded inputs in [-1.3, 1.3]^3, where many orbits overflow, then NaN
    and infinite entries, the identity, and fixed-point and 2-cycle inputs."""
    starts = [DiagonalChannel(*map(float, rng.uniform(-1.3, 1.3, 3))) for _ in range(count)]
    for bad in (math.nan, math.inf, -math.inf):
        starts += [DiagonalChannel(bad, 0.5, 0.5), DiagonalChannel(0.9, 0.9, bad)]
    starts += [DiagonalChannel.identity(), depolarizing(0.3), DiagonalChannel(-0.0, -0.0, -0.0)]
    starts += [DiagonalChannel(0.75, 0.75, 0.75), DiagonalChannel(0.0, 0.0, 0.0)]
    return starts


@pytest.mark.parametrize("name", builtin_names())
def test_iterate_matches_the_reference_loop_bit_for_bit(name):
    code = get_code(name)
    starts = _diagonal_starts(np.random.default_rng(list(name.encode())), 40)
    for t0 in starts:
        for k_max in (0, 1, 7, 60):
            for tol in (0.0, 1e-3, 1e-9):
                got = _record_bits(iterate(code, t0, k_max=k_max, tol=tol))
                want = _record_bits(_reference_iterate(code, t0, k_max, tol))
                assert got == want, (t0, k_max, tol)


def test_general_orbit_stokes_input(five_qubit):
    t0 = depolarizing(0.1).to_stokes()
    general = iterate(five_qubit, t0, k_max=4, tol=1e-9)
    reduced = iterate(five_qubit, depolarizing(0.1), k_max=4, tol=1e-9)
    for lg, lr in zip(general.levels, reduced.levels):
        assert isinstance(lg.channel, StokesChannel)
        assert lg.distance == pytest.approx(lr.distance, abs=1e-12)


@pytest.mark.parametrize("seed", range(5))
def test_bitflip3_stokes_orbit_stays_a_channel(bitflip3, seed):
    # bitflip3 amplifies a rounding error in row 0 threefold per level; an
    # exactly trace-preserving input keeps every level exactly trace-preserving
    r = random_cptp(np.random.default_rng(seed))
    record = iterate(bitflip3, StokesChannel(0.99 * np.eye(4) + 0.01 * r.matrix), k_max=60)
    assert len(record.levels) == 61
    assert all(is_valid_channel(level.channel) for level in record.levels)


def test_contracting_envelope_inside_guaranteed_region(five_qubit):
    # with c = c_N + c_M and c * eps0 < 1 the closed-form envelope itself
    # shrinks doubly exponentially and still dominates the orbit
    c = 64.0 + 1.0 / (1.0 - SQRT_2_3)
    eps0 = 0.01
    assert c * eps0 < 1.0
    record = iterate(five_qubit, depolarizing(eps0), tol=1e-9)
    assert record.converged
    envelope = [error_series(c, eps0, level.k) for level in record.levels]
    for level, bound in zip(record.levels, envelope):
        assert level.distance <= bound + 1e-12
    assert all(b < a for a, b in zip(envelope, envelope[1:]))


def test_superexponential_tail_doubles_log_error(five_qubit):
    # measured contraction: dist' ~ alpha * dist^2 with alpha near 7.5 for
    # this code, so log(-log(alpha * dist)) gains exactly log 2 per level
    record = iterate(five_qubit, depolarizing(0.05), tol=1e-9)
    dists = [l.distance for l in record.levels]
    # levels below ~1e-13 sit in double-rounding noise around 1.0
    clean = [(a, b) for a, b in zip(dists, dists[1:]) if b > 1e-13]
    alpha = max(b / a**2 for a, b in clean)
    assert 7.0 <= alpha <= 7.5
    series = [math.log(-math.log(alpha * d)) for d in dists[1:] if alpha * d < 1]
    gains = [b - a for a, b in zip(series, series[1:])]
    assert gains and all(abs(g - math.log(2)) < 0.05 for g in gains)


# -- fixed points -------------------------------------------------------------------


def test_five_qubit_line_fixed_points():
    line = [0.0, 0.0, 0.0, 2.5, 0.0, -1.5]  # (5/2) t^3 - (3/2) t^5
    scan = fixed_points_1d(line, interval=(0.0, 1.0))
    assert not scan.degenerate
    np.testing.assert_allclose(scan.roots, [0.0, SQRT_2_3, 1.0], atol=1e-12)


def test_shor_z_line_fixed_points():
    poly = diagonal_map(get_code("shor"))
    coeffs = [float(c) for c in poly.restricted_univariate("Z", "z", fixed={})]
    scan = fixed_points_1d(coeffs, interval=(0.0, 1.0))
    roots_below_one = [r for r in scan.roots if r < 1.0 - 1e-9]
    top = max(roots_below_one)
    assert top < 0.73
    assert top == pytest.approx(0.7297233331, abs=1e-9)

    def h(z):
        return sum(c * z**d for d, c in enumerate(coeffs))

    assert h(top) == pytest.approx(top, abs=1e-11)


def test_degenerate_identity_polynomial():
    scan = fixed_points_1d([0.0, 1.0])
    assert scan.degenerate
    assert scan.roots == ()


def test_fixed_points_respect_interval():
    with pytest.raises(ValueError):
        fixed_points_1d([0.0, 1.0], interval=(0.5, 1.5))


def test_grid_point_root_detected():
    # g(x) = x^2 - x has roots exactly at the grid points 0 and 1
    scan = fixed_points_1d([0.0, 0.0, 1.0], interval=(0.0, 1.0))
    np.testing.assert_allclose(scan.roots, [0.0, 1.0], atol=1e-12)


# -- thresholds ---------------------------------------------------------------------


def test_five_qubit_depolarizing_threshold(five_qubit):
    value = threshold(five_qubit, RaySpec.depolarizing_ray())
    assert 0.18 <= value <= 1.0 - SQRT_2_3 + 1e-6
    assert abs(value - (1.0 - SQRT_2_3)) <= 1e-5


def test_threshold_agrees_with_fixed_point_reduction(five_qubit):
    value = threshold(five_qubit, RaySpec.depolarizing_ray())
    cross = fixed_point_cross_check(five_qubit, RaySpec.depolarizing_ray())
    assert cross is not None
    assert abs(value - cross["threshold_from_fixed_point"]) <= 1e-5


def test_shor_dephasing_threshold(shor):
    value = threshold(shor, RaySpec.dephasing_ray())
    assert value >= 0.27
    cross = fixed_point_cross_check(shor, RaySpec.dephasing_ray())
    assert cross is not None
    assert abs(value - cross["threshold_from_fixed_point"]) <= 1e-5


def test_bitflip3_depolarizing_threshold_is_zero(bitflip3):
    assert threshold(bitflip3, RaySpec.depolarizing_ray()) <= 1e-6


def _reference_threshold(code, ray, tol_eps=1e-6, tol_conv=1e-9, k_max=60):
    """The bisection of `threshold`, with each verdict read from the
    reference orbit loop."""

    def converges(eps):
        return _reference_iterate(code, ray.channel_at(eps), k_max, tol_conv).converged

    if converges(1.0):
        return 1.0
    lo, hi = 0.0, 1.0
    while hi - lo > tol_eps:
        mid = 0.5 * (lo + hi)
        if converges(mid):
            lo = mid
        else:
            hi = mid
    return lo


def _pauli_ray(rng):
    qx, qy, qz = rng.dirichlet(np.ones(3))
    d = np.array([qy + qz, qx + qz, qx + qy])
    return RaySpec.custom(d / d.max())


_RAYS = [RaySpec.depolarizing_ray(), RaySpec.dephasing_ray()]
_RAYS += [_pauli_ray(np.random.default_rng(seed)) for seed in range(4)]
_RAYS += [RaySpec.custom((-1.0, -1.0, -1.0))]  # probes overflow


@pytest.mark.parametrize("ray", _RAYS, ids=lambda r: ",".join(f"{v:.3g}" for v in r.direction))
@pytest.mark.parametrize("name", builtin_names())
def test_threshold_matches_a_bisection_over_iterate(name, ray):
    code = get_code(name)
    value = threshold(code, ray)
    assert type(value) is float
    assert value.hex() == _reference_threshold(code, ray).hex()


def test_threshold_matches_a_bisection_over_iterate_with_other_settings(steane):
    ray = _pauli_ray(np.random.default_rng(11))
    value = threshold(steane, ray, k_max=7, tol_conv=1e-3)
    assert value.hex() == _reference_threshold(steane, ray, tol_conv=1e-3, k_max=7).hex()


def test_threshold_below_the_float_spacing_ends_at_adjacent_floats(five_qubit):
    # tol_eps = 0 can only end where no float lies between lo and hi; run in a
    # subprocess, a bisection that never ends fails the test instead of hanging
    script = (
        "from concatcode import RaySpec, get_code, threshold\n"
        "print(threshold(get_code('five-qubit'), RaySpec.depolarizing_ray(), tol_eps=0.0).hex())"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(concatcode.__file__).parents[1])}
    out = subprocess.run(
        [sys.executable, "-c", script], env=env, capture_output=True, text=True, timeout=60,
        check=True,
    )
    value = float.fromhex(out.stdout)
    ray = RaySpec.depolarizing_ray()
    assert iterate(five_qubit, ray.channel_at(value)).converged
    assert not iterate(five_qubit, ray.channel_at(math.nextafter(value, 1.0))).converged
    assert abs(value - threshold(five_qubit, ray)) <= 1e-6


def test_zero_direction_ray_rejected():
    with pytest.raises(ValueError):
        RaySpec.custom((0.0, 0.0, 0.0))


def test_cross_check_absent_for_five_qubit_dephasing(five_qubit):
    assert fixed_point_cross_check(five_qubit, RaySpec.dephasing_ray()) is None


# -- Jacobians ----------------------------------------------------------------------


def test_jacobian_vanishes_for_single_error_correcting_codes():
    at = DiagonalChannel.identity()
    for name in ("five-qubit", "steane", "shor"):
        j = jacobian_fd(get_code(name), at)
        assert np.max(np.abs(j)) <= 1e-8, name


def test_jacobian_bitflip3_x_direction(bitflip3):
    j = jacobian_fd(bitflip3, DiagonalChannel.identity())
    assert j[0, 0] == pytest.approx(3.0, abs=1e-6)
    assert j[2, 2] == pytest.approx(0.0, abs=1e-8)


def test_jacobian_fd_matches_analytic_gradient(five_qubit):
    at = DiagonalChannel(0.9, 0.85, 0.95)
    fd = jacobian_fd(five_qubit, at)
    # d/dv of coeff x^a y^b z^c, term by term, from the exact monomials
    poly = diagonal_map(five_qubit)
    analytic = np.zeros((3, 3))
    for r, sigma in enumerate("XYZ"):
        for m in poly.components[sigma]:
            exps = (m.a, m.b, m.c)
            for v in range(3):
                if exps[v]:
                    powers = [at.as_tuple()[k] ** (e - (k == v)) for k, e in enumerate(exps)]
                    analytic[r, v] += float(m.coeff) * exps[v] * math.prod(powers)
    np.testing.assert_allclose(fd, analytic, atol=1e-6)


def test_jacobian_rejects_bad_step(five_qubit):
    with pytest.raises(ValueError):
        jacobian_fd(five_qubit, DiagonalChannel.identity(), h=0.0)


def test_full_stokes_jacobian_hook(bitflip3):
    j = jacobian_fd_full(bitflip3, StokesChannel.identity())
    assert j.shape == (16, 16)
    # the diagonal-reduced entries embed at the Stokes diagonal positions
    reduced = jacobian_fd(bitflip3, DiagonalChannel.identity())
    embedded = j[np.ix_([5, 10, 15], [5, 10, 15])]
    np.testing.assert_allclose(embedded, reduced, atol=1e-6)


# -- the error recursion ------------------------------------------------------------


def test_error_series_examples():
    assert error_series(1.0, 0.5, 3) == pytest.approx(0.00390625, rel=1e-14)
    assert error_series(0.7, 0.123, 0) == 0.123
    assert error_series(2.0, 0.5, 5) == pytest.approx(0.5, rel=1e-12)


def test_error_series_overflow_clamps():
    assert error_series(3.0, 0.9, 40) == math.inf


def test_error_series_matches_unrolled_recursion():
    rng = np.random.default_rng(17)
    for _ in range(20):
        alpha = float(rng.uniform(0.2, 3.0))
        eps0 = float(rng.uniform(0.0, 1.0))
        k = int(rng.integers(0, 7))
        eps = eps0
        for _ in range(k):
            eps = alpha * eps * eps
        closed = error_series(alpha, eps0, k)
        assert closed == pytest.approx(eps, rel=1e-12, abs=1e-300)


def test_error_series_rejects_bad_arguments():
    with pytest.raises(ValueError):
        error_series(1.0, 0.5, -1)
    with pytest.raises(ValueError):
        error_series(0.0, 0.5, 1)


# -- the general-channel bound ------------------------------------------------------


def test_five_qubit_bound(five_qubit):
    bound = general_bound_check(five_qubit)
    assert bound.c_n == 64.0
    assert bound.c_m == pytest.approx(1.0 / (1.0 - SQRT_2_3), rel=1e-15)
    assert bound.c_m_source == "closed-form"
    assert bound.value >= 0.014
    assert bound.bounds_guaranteed


def test_bound_monotone_in_c_n(five_qubit, steane):
    fixed_c_m = 5.0
    small = general_bound_check(five_qubit, c_m=fixed_c_m)
    large = general_bound_check(steane, c_m=fixed_c_m)
    assert large.c_n > small.c_n
    assert large.value < small.value


def test_steane_bound_reported(steane):
    bound = general_bound_check(steane)
    assert bound.c_m_source == "grid"
    assert 0.0 < bound.value < 0.014
    assert bound.bounds_guaranteed


def spec_text(code, perm) -> str:
    """Spec text of `code` with qubit q moved to position perm[q]."""

    def moved(p):
        letters = ["I"] * code.n
        for q, letter in enumerate(p.letters):
            letters[perm[q]] = letter
        return "".join(letters)

    lines = [f"n {code.n}"]
    lines += [f"generator {moved(g)}" for g in code.generators]
    lines += [f"logicalX {moved(code.logical_x)}", f"logicalZ {moved(code.logical_z)}"]
    lines += [f"recovery {moved(r)}" for r in code.recovery]
    return "\n".join(lines) + "\n"


def test_closed_form_c_m_for_a_renamed_permuted_five_qubit_code(five_qubit):
    mine = parse_code_spec(spec_text(five_qubit, (3, 0, 4, 1, 2)), name="mine")
    bound = general_bound_check(mine)
    assert bound.c_m_source == "closed-form"
    assert bound.value == general_bound_check(five_qubit).value == 0.014398953882939288


def test_grid_c_m_for_another_code_named_five_qubit(steane):
    impostor = parse_code_spec(spec_text(steane, range(steane.n)), name="five-qubit")
    bound = general_bound_check(impostor)
    assert bound.c_m_source == "grid"
    assert bound.value == general_bound_check(steane).value


# -- settings -----------------------------------------------------------------------


@pytest.mark.parametrize(
    "settings",
    [
        {"tol_eps": math.nan},
        {"tol_eps": math.inf},
        {"tol_eps": -1e-6},
        {"tol_conv": math.inf},
        {"tol_conv": math.nan},
        {"tol_conv": -1e-9},
        {"k_max": -1},
        {"k_max": 2.0},
    ],
    ids=repr,
)
def test_threshold_rejects_vacuous_settings(five_qubit, settings):
    # tol_eps = nan used to return 0.0, tol_conv = inf 1.0 and tol_conv = nan 0.0
    with pytest.raises(ValueError):
        threshold(five_qubit, RaySpec.depolarizing_ray(), **settings)


@pytest.mark.parametrize(
    "settings",
    [{"tol": math.inf}, {"tol": math.nan}, {"tol": -1.0}, {"k_max": -1}, {"k_max": 1.5}],
    ids=repr,
)
@pytest.mark.parametrize("t0", [depolarizing(0.3), random_cptp(np.random.default_rng(2))], ids=type)
def test_iterate_rejects_vacuous_settings(five_qubit, settings, t0):
    # tol = inf used to report every finite input converged at level 0
    with pytest.raises(ValueError):
        iterate(five_qubit, t0, **settings)


def test_zero_tolerances_and_zero_levels_stay_valid(five_qubit):
    record = iterate(five_qubit, depolarizing(0.01), k_max=0, tol=0.0)
    assert record.iterations_used == 0 and not record.converged
    assert iterate(five_qubit, StokesChannel.identity(), k_max=0, tol=0.0).iterations_used == 0
    assert iterate(five_qubit, depolarizing(0.01), k_max=np.int64(3)).iterations_used == 3
    assert threshold(five_qubit, RaySpec.depolarizing_ray(), k_max=0) == 0.0
