"""Command-line interface: output schemas, determinism and exit codes."""

import hashlib
import json
import math
import os
import subprocess
import sys
from pathlib import Path

import pytest

import concatcode
import concatcode.cli
import concatcode.dynamics
from concatcode.cli import canonical_json, main
from concatcode.stabilizer import parse_code_spec
from conftest import DEFECT_SPECS, FIVE_QUBIT_PADDED, THIRTEEN_QUBIT

SQRT_2_3 = math.sqrt(2.0 / 3.0)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def run_json(capsys, *argv):
    code, out, err = run(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


def test_codes_list(capsys):
    payload = run_json(capsys, "codes", "list")
    entries = {e["name"]: e for e in payload["codes"]}
    assert set(entries) == {"bitflip3", "five-qubit", "shor", "steane"}
    assert entries["five-qubit"] == {"name": "five-qubit", "n": 5, "m": 4, "d": 3, "w": 4}
    assert entries["shor"]["w"] == 2


def test_codes_validate_builtin(capsys):
    payload = run_json(capsys, "codes", "validate", "five-qubit")
    assert payload["passed"] is True
    assert payload["d"] == 3 and payload["w"] == 4


def test_codes_validate_spec_file(tmp_path, capsys):
    spec = tmp_path / "bitflip.code"
    spec.write_text(
        "n 3\ngenerator ZZI\ngenerator IZZ\n"
        "logicalX XXX\nlogicalZ ZZZ\nrecovery auto\n"
    )
    payload = run_json(capsys, "codes", "validate", str(spec))
    assert payload["passed"] is True
    assert payload["d"] == 1 and payload["w"] == 2


def test_codes_validate_and_bound_past_thirteen_qubits(tmp_path, capsys):
    spec = tmp_path / "cyclic13.code"
    spec.write_text(THIRTEEN_QUBIT)
    code, out, _ = run(capsys, "codes", "validate", str(spec))
    assert code == 0
    assert '"d": 5,' in out and '"w": 4' in out and "note" not in out
    payload = run_json(capsys, "bound", str(spec))
    assert payload["c_n"] == 180008 and payload["bounds_guaranteed"] is True


def test_codes_validate_failing_spec_exits_one(tmp_path, capsys):
    spec = tmp_path / "bad.code"
    spec.write_text(
        "n 2\ngenerator XI\nlogicalX XX\nlogicalZ ZI\nrecovery auto\n"
    )
    code, out, err = run(capsys, "codes", "validate", str(spec))
    assert code == 1
    assert json.loads(out)["passed"] is False


STOKES_LITERAL = "stokes:1,0,0,0,0,0.9,0,0,0,0,0.9,0,0,0,0,0.9"

# the minimal arguments of every command that derives data from a code, "{}"
# standing for the code; each form that reaches the code by its own path
DERIVING_INVOCATIONS = {
    "map": [
        ["{}", "--symbolic"],
        ["{}", "--channel", "depol:0.1"],
        ["{}", "--channel", STOKES_LITERAL],
    ],
    "orbit": [["{}", "--channel", "depol:0.1"], ["{}", "--channel", STOKES_LITERAL]],
    "threshold": [["{}", "--ray", "depol"]],
    "jacobian": [["{}"], ["{}", "--full"]],
    "oracle": [["check", "{}"]],
    "bound": [["{}"]],
}


@pytest.mark.parametrize("defect", sorted(DEFECT_SPECS))
@pytest.mark.parametrize("command", sorted(set(concatcode.cli._HANDLERS) - {"codes"}))
def test_every_command_rejects_an_invalid_code(tmp_path, capsys, command, defect):
    assert command in DERIVING_INVOCATIONS, f"list the minimal arguments of {command!r}"
    text, violation = DEFECT_SPECS[defect]
    spec = tmp_path / f"{defect}.code"
    spec.write_text(text)
    for args in DERIVING_INVOCATIONS[command]:
        argv = [command] + [str(spec) if a == "{}" else a for a in args]
        assert run(capsys, *argv) == (2, "", f"error: {violation}\n"), argv


@pytest.mark.parametrize("defect", sorted(DEFECT_SPECS))
def test_codes_validate_reports_every_violation_of_an_invalid_code(tmp_path, capsys, defect):
    text, _ = DEFECT_SPECS[defect]
    spec = tmp_path / f"{defect}.code"
    spec.write_text(text)
    code, out, err = run(capsys, "codes", "validate", str(spec))
    assert (code, err) == (1, "")
    payload = json.loads(out)
    assert payload["passed"] is False
    assert payload["violations"] == list(parse_code_spec(text).validate().violations)


def test_parse_error_exits_two(tmp_path, capsys):
    spec = tmp_path / "broken.code"
    spec.write_text("n 3\ngenerator ZZI\ngenerator QQI\n")
    code, out, err = run(capsys, "codes", "validate", str(spec))
    assert code == 2
    assert "line 3" in err


def test_missing_recovery_is_parse_error(tmp_path, capsys):
    spec = tmp_path / "norec.code"
    spec.write_text("n 3\ngenerator ZZI\ngenerator IZZ\nlogicalX XXX\nlogicalZ ZZZ\n")
    code, _, err = run(capsys, "codes", "validate", str(spec))
    assert code == 2
    assert "recovery" in err


def test_unknown_code_exits_two(capsys):
    code, _, err = run(capsys, "map", "no-such-code", "--symbolic")
    assert code == 2


def test_map_symbolic_five_qubit(capsys):
    payload = run_json(capsys, "map", "five-qubit", "--symbolic")
    assert payload["n"] == 5
    assert payload["components"]["X"] == [
        {"a": 1, "b": 0, "c": 2, "num": 5, "den": 4},
        {"a": 1, "b": 2, "c": 0, "num": 5, "den": 4},
        {"a": 1, "b": 2, "c": 2, "num": -5, "den": 4},
        {"a": 5, "b": 0, "c": 0, "num": -1, "den": 4},
    ]


def test_map_identity_orbit_constant_rows(capsys):
    code, out, _ = run(
        capsys, "map", "five-qubit", "--channel", "diag:1,1,1", "--levels", "5",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,x,y,z,dist_to_id"
    assert len(lines) == 7
    assert all(line.endswith(",1,1,1,0") for line in lines[1:])


def test_map_requires_some_output_mode(capsys):
    code, _, err = run(capsys, "map", "five-qubit")
    assert code == 2


def test_symbolic_rejects_general_channel(capsys):
    code, _, err = run(
        capsys, "map", "five-qubit", "--symbolic", "--channel",
        "stokes:" + ",".join(["1"] + ["0"] * 15),
    )
    assert code == 2


@pytest.mark.parametrize("extra", [[], ["--channel", "depol:0.1"]])
def test_symbolic_csv_rejected(capsys, extra):
    code, out, err = run(capsys, "map", "five-qubit", "--symbolic", "--format", "csv", *extra)
    assert code == 2
    assert out == ""
    assert err == "error: CSV output cannot carry the symbolic polynomial\n"


def test_orbit_csv_schema(capsys):
    code, out, _ = run(
        capsys, "orbit", "shor", "--channel", "deph:0.2", "--levels", "3",
        "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "k,x,y,z,dist_to_id"
    assert len(lines) == 5
    first = lines[1].split(",")
    assert first[0] == "0" and float(first[1]) == 1.0


def test_orbit_csv_general_channel_has_stokes_columns(capsys):
    code, out, _ = run(
        capsys, "orbit", "bitflip3", "--channel",
        "stokes:1,0,0,0,0,0.9,0.05,0,0,0,0.9,0,0,0,0,0.95",
        "--levels", "2", "--format", "csv",
    )
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("k,t_ii,t_ix,t_iy,t_iz,t_xi,")
    assert lines[0].endswith(",dist_to_id")
    assert len(lines[1].split(",")) == 18


def test_orbit_json_general_channel(capsys):
    payload = run_json(
        capsys, "orbit", "bitflip3", "--channel",
        "stokes:1,0,0,0,0,0.9,0.05,0,0,0,0.9,0,0,0,0,0.95",
        "--levels", "2", "--format", "json",
    )
    assert payload["columns"][0] == "k"
    assert len(payload["columns"]) == 18
    assert len(payload["levels"]) == 3


@pytest.mark.parametrize("literal", ["depol:\t0.05", "depol:0.05\n", "depol:\x0b0.05"])
def test_json_escapes_control_characters_in_strings(capsys, literal):
    # float() strips the whitespace, so the literal is accepted and echoed back verbatim
    payload = run_json(
        capsys, "orbit", "five-qubit", "--channel", literal, "--levels", "1", "--format", "json"
    )
    assert payload["channel"] == literal


def test_threshold_five_qubit(capsys):
    payload = run_json(capsys, "threshold", "five-qubit", "--ray", "depol")
    assert abs(payload["threshold"] - (1.0 - SQRT_2_3)) <= 1e-5
    assert payload["threshold"] >= 0.18
    roots = payload["fixed_points"]
    assert min(abs(r - SQRT_2_3) for r in roots) <= 1e-9


def test_threshold_shor_dephasing(capsys):
    payload = run_json(capsys, "threshold", "shor", "--ray", "deph")
    assert payload["threshold"] > 0.27
    assert max(payload["fixed_points"]) == pytest.approx(1.0, abs=1e-9)


def test_threshold_bitflip3_zero(capsys):
    payload = run_json(capsys, "threshold", "bitflip3", "--ray", "depol")
    assert payload["threshold"] <= 1e-6
    assert payload["fixed_points"] is None


def test_threshold_custom_ray(capsys):
    payload = run_json(
        capsys, "threshold", "five-qubit", "--ray", "ray:1,0.5,0.25", "--tol", "1e-4"
    )
    assert 0.0 < payload["threshold"] < 1.0


def test_jacobian_command(capsys):
    payload = run_json(capsys, "jacobian", "bitflip3")
    assert payload["jacobian"][0][0] == pytest.approx(3.0, abs=1e-6)
    full = run_json(capsys, "jacobian", "bitflip3", "--full")
    assert len(full["jacobian"]) == 16


def test_oracle_check_pass(capsys):
    payload = run_json(
        capsys, "oracle", "check", "bitflip3", "--trials", "5", "--seed", "1"
    )
    assert payload["passed"] is True
    assert payload["max_deviation"] <= 1e-10


def test_oracle_check_shor_capability_error(capsys, ten_qubit_spec):
    # Shor (n = 9) is now within the dense limit; n = 10 is the first size past it
    code, _, err = run(capsys, "oracle", "check", str(ten_qubit_spec))
    assert code == 2
    assert "n <= 9" in err
    assert err.count("\n") == 1


def test_bound_command(capsys):
    payload = run_json(capsys, "bound", "five-qubit")
    assert payload["c_n"] == 64
    assert payload["bound"] >= 0.014
    assert payload["c_m_source"] == "closed-form"


def test_env_seed_default(capsys, monkeypatch):
    monkeypatch.setenv("CONCATCODE_SEED", "7")
    payload = run_json(capsys, "oracle", "check", "bitflip3", "--trials", "2")
    assert payload["seed"] == 7


def test_json_output_deterministic(capsys):
    _, first, _ = run(capsys, "threshold", "five-qubit", "--ray", "depol")
    _, second, _ = run(capsys, "threshold", "five-qubit", "--ray", "depol")
    assert first == second
    _, c1, _ = run(capsys, "map", "five-qubit", "--symbolic")
    _, c2, _ = run(capsys, "map", "five-qubit", "--symbolic")
    assert c1 == c2


def test_output_file(tmp_path, capsys):
    target = tmp_path / "report.json"
    code, out, _ = run(
        capsys, "codes", "list", "--output", str(target)
    )
    assert code == 0
    assert out == ""
    assert json.loads(target.read_text())["codes"]


@pytest.mark.parametrize(
    "argv",
    [
        ["oracle", "check", "bitflip3", "--trials", "0"],
        ["oracle", "check", "bitflip3", "--trials", "-1"],
        ["orbit", "five-qubit", "--channel", "depol:0.1", "--levels", "-3"],
        ["map", "five-qubit", "--channel", "depol:0.1", "--levels", "-1"],
        ["threshold", "five-qubit", "--ray", "depol", "--k-max", "0"],
        ["threshold", "five-qubit", "--ray", "depol", "--tol", "0"],
        ["threshold", "five-qubit", "--ray", "depol", "--tol", "-1e-6"],
        ["threshold", "five-qubit", "--ray", "depol", "--tol", "nan"],
        ["threshold", "five-qubit", "--ray", "depol", "--tol", "inf"],
        ["threshold", "five-qubit", "--ray", "depol", "--tol-conv", "0"],
        ["orbit", "five-qubit", "--channel", "depol:0.1", "--tol", "inf"],
        ["orbit", "five-qubit", "--channel", "depol:0.1", "--tol", "nan"],
        ["orbit", "five-qubit", "--channel", "depol:0.1", "--tol", "-1"],
        ["map", "five-qubit", "--channel", "depol:0.1", "--tol", "inf"],
        ["map", "five-qubit", "--channel", "depol:0.1", "--tol", "nan"],
        ["map", "five-qubit", "--channel", "depol:0.1", "--tol=-1e-300"],
        ["jacobian", "five-qubit", "--h", "0"],
        ["jacobian", "five-qubit", "--h=-1e-5"],
        ["jacobian", "five-qubit", "--h", "nan"],
        ["jacobian", "five-qubit", "--full", "--h", "inf"],
    ],
)
def test_bad_counts_and_tolerances_rejected_at_parse_time(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert captured.err.startswith("error: argument --")
    assert captured.err.count("\n") == 1


@pytest.mark.parametrize("command", ["orbit", "map"])
def test_orbit_and_map_accept_a_zero_tolerance(capsys, command):
    payload = run_json(capsys, command, "five-qubit", "--channel", "depol:0.1",
                       "--tol", "0", "--levels", "3", "--format", "json")
    assert not payload["converged"]
    assert payload["iterations_used"] == 3


@pytest.mark.parametrize(
    "argv",
    [
        ["orbit", "five-qubit", "--channel", "diag:1,nan,1"],
        ["map", "five-qubit", "--channel", "stokes:1,0,0,0,0,inf,0,0,0,0,1,0,0,0,0,1"],
        ["threshold", "five-qubit", "--ray", "ray:nan,1,1"],
    ],
)
def test_non_finite_inputs_rejected_before_any_work(capsys, monkeypatch, argv):
    def no_work(*args, **kwargs):
        raise AssertionError("the command ran before rejecting its input")

    monkeypatch.setattr(concatcode.cli, "iterate", no_work)
    monkeypatch.setattr(concatcode.cli, "threshold", no_work)
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ")
    assert err.count("\n") == 1


@pytest.mark.parametrize(
    "argv",
    [
        ["jacobian", "five-qubit", "--at", "diag:1e200,1,1"],
        ["jacobian", "five-qubit", "--h", "1e300"],
        ["jacobian", "five-qubit", "--full", "--h", "1e300"],
    ],
)
def test_jacobian_leaving_the_float_range_exits_two(capsys, argv):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == ""
    assert err.startswith("error: the Jacobian at ")
    assert err.count("\n") == 1


# spec text for "{}", or the value of CONCATCODE_SEED for the seed case
@pytest.mark.parametrize(
    ("argv", "text", "err"),
    [
        (["threshold", "five-qubit", "--ray", "ray:1,2"], None,
         "custom ray needs three components: ray:<dx>,<dy>,<dz>"),
        (["threshold", "five-qubit", "--ray", "foo"], None,
         "unknown ray 'foo'; use depol, deph or ray:<dx>,<dy>,<dz>"),
        (["jacobian", "five-qubit", "--at", STOKES_LITERAL], None,
         "the 3x3 Jacobian needs a diagonal channel; use --full"),
        (["codes", "validate"], None, "codes validate needs a code argument"),
        (["codes", "list"], "abc", "CONCATCODE_SEED must be an integer"),
        (["codes", "validate", "{}"], "n 3 4\n",
         "line 1: expected exactly one value after 'n'"),
        (["codes", "validate", "{}"], "generator ZZI\nlogicalX XXX\nlogicalZ ZZZ\n",
         "line 4: missing 'n' line"),
        (["codes", "validate", "{}"], "n 3\ngenerator ZZI\ngenerator IZZ\nlogicalX XXX\n",
         "line 5: missing logicalX or logicalZ line"),
        (["codes", "validate", "{}"],
         "n 3\ngenerator ZZI\ngenerator IZZ\nlogicalX XXX\nlogicalZ ZZZ\n"
         "recovery auto\nrecovery III\n",
         "line 8: both explicit recovery lines and 'recovery auto'"),
    ],
)
def test_bad_input_exits_two_with_one_line(tmp_path, capsys, monkeypatch, argv, text, err):
    if "{}" in argv:
        (tmp_path / "bad.code").write_text(text)
        argv = [str(tmp_path / "bad.code") if a == "{}" else a for a in argv]
    elif text is not None:
        monkeypatch.setenv("CONCATCODE_SEED", text)
    try:
        code = main(argv)
    except SystemExit as exc:  # argparse-level errors exit from the parser
        code = exc.code
    assert (code, *capsys.readouterr()) == (2, "", f"error: {err}\n")


def test_bound_of_a_padded_five_qubit_code(tmp_path, capsys):
    # the five-qubit polynomials, so the closed-form c_M, with c_N = 128: a bound below 0.014
    spec = tmp_path / "padded.code"
    spec.write_text(FIVE_QUBIT_PADDED)
    assert run_json(capsys, "bound", str(spec)) == {
        "bound": 0.00749347188908288,
        "bounds_guaranteed": False,
        "c_m": 5.4494897427831779,
        "c_m_grid": 5.5904588377453379,
        "c_m_source": "closed-form",
        "c_n": 128,
        "code": str(spec),
    }


def test_zero_levels_still_accepted(capsys):
    payload = run_json(capsys, "orbit", "five-qubit", "--channel", "depol:0.1",
                       "--levels", "0", "--format", "json")
    assert payload["iterations_used"] == 0


BOUND_STDOUT = {
    "five-qubit": """{
  "bound": 0.014398953882939288,
  "bounds_guaranteed": true,
  "c_m": 5.4494897427831779,
  "c_m_grid": 5.5904588377453379,
  "c_m_source": "closed-form",
  "c_n": 64,
  "code": "five-qubit"
}
""",
    "steane": """{
  "bound": 0.00242942937080545,
  "bounds_guaranteed": true,
  "c_m": 11.619292998199526,
  "c_m_grid": 11.619292998199526,
  "c_m_source": "grid",
  "c_n": 400,
  "code": "steane"
}
""",
}


@pytest.mark.parametrize("name", sorted(BOUND_STDOUT))
def test_bound_stdout_pinned_and_constants_computed_once(capsys, monkeypatch, name):
    monkeypatch.delenv("CONCATCODE_SEED", raising=False)
    calls = []
    original = concatcode.dynamics.c_constants

    def counting(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    monkeypatch.setattr(concatcode.dynamics, "c_constants", counting)
    code, out, _ = run(capsys, "bound", name)
    assert code == 0
    assert out == BOUND_STDOUT[name]
    assert len(calls) == 1


def test_diverging_orbit_exits_zero(capsys):
    code, out, _ = run(capsys, "orbit", "five-qubit", "--channel", "diag:1.5,1.5,1.5")
    assert code == 0
    assert [line.split(",")[0] for line in out.splitlines()] == ["k", "0", "1", "2", "3", "4"]


def test_threshold_on_a_diverging_ray_exits_zero(capsys):
    payload = run_json(capsys, "threshold", "five-qubit", "--ray", "ray:-1,-1,-1")
    assert payload["threshold"] == 0.13973903656005859


def _run_in_subprocess(argv):
    env = {**os.environ, "PYTHONPATH": str(Path(concatcode.__file__).parents[1])}
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=60)


OVERFLOW_HEADER = "k," + ",".join(f"t_{a}{b}" for a in "ixyz" for b in "ixyz") + ",dist_to_id\n"


@pytest.mark.parametrize("command", ["orbit", "map"])
@pytest.mark.parametrize("row0", ["1", "0.5"])
def test_orbit_that_overflows_writes_no_warning(command, row0):
    # row0 = 1 runs the trace-preserving form of general_map, 0.5 the full form
    channel = f"stokes:{row0},0,0,0,0,1e200,0,0,0,0,1,0,0,0,0,1"
    argv = [command, "five-qubit", "--channel", channel, "--levels", "3", "--format", "csv"]
    done = _run_in_subprocess([sys.executable, "-m", "concatcode", *argv])
    assert (done.returncode, done.stderr) == (0, "")
    big = "9.9999999999999997e+199"
    assert done.stdout == OVERFLOW_HEADER + f"0,{row0},0,0,0,0,{big},0,0,0,0,1,0,0,0,0,1,{big}\n"


def test_threshold_with_a_tolerance_below_the_float_spacing_returns(capsys):
    # a subprocess with a timeout: a bisection that never ends fails the test
    argv = ["threshold", "five-qubit", "--ray", "depol"]
    done = _run_in_subprocess([sys.executable, "-m", "concatcode", *argv, "--tol", "1e-20"])
    assert done.returncode == 0, done.stderr
    payload = json.loads(done.stdout)
    assert payload["tol"] == 1e-20
    assert abs(payload["threshold"] - run_json(capsys, *argv)["threshold"]) <= 1e-6


# sha256 of stdout.  These commands compute in exact rationals and Python
# floats only, so their output is the same on every platform.
PINNED_STDOUT_SHA256 = {
    "map bitflip3 --symbolic":
        "a972427e121ed072aab3eca53857068d2edaffa4c8c46cd5fc6a4beddcfc9022",
    "threshold bitflip3 --ray depol":
        "0356a3a0954dc4393975ed34148a2547db2e8e3598878612fd964b0d2e2ecdfb",
    "threshold bitflip3 --ray deph":
        "6cef6cc0fac65792ca85854112000b8aa7533b13edb1be77b2814f1e719b3d11",
    "orbit bitflip3 --channel depol:0.05":
        "35902a9be248ea3752b16d71a68dc48da5f543275768a82802b62ba2a8049237",
    "map five-qubit --symbolic":
        "5479149ed3ae3e63baafdcfed91ae3c260d8b3f15f96da62f2f93e55646e3aff",
    "threshold five-qubit --ray depol":
        "ae6befae0ef8c7bc873a0a360cfd84cf71eb507428cd7a31ebf9fc478c08fc7a",
    "threshold five-qubit --ray deph":
        "177addef4bade3afd64b9a5ff6c08a8237abec9b0c2dc4354657b2a95cd527f8",
    "orbit five-qubit --channel depol:0.05":
        "b0a2e0a90c2a6791190db5818b758c020cd1c6dacc702a62ea809d3a8ae7f5dc",
    "map steane --symbolic":
        "72e3f27deabb3274c8266f3971a1e4ba211347ac76020a4c23b7895bbea6939f",
    "threshold steane --ray depol":
        "06b9f4326a54493ab23b85eed55bb34a874350733c1108913ae30545582f5e8f",
    "threshold steane --ray deph":
        "f4f630ea9134d1e5ece5db03654a5bc211dda1862e6104aa71c2f3f3bfa0feb8",
    "orbit steane --channel depol:0.05":
        "e8c379b9923ee8cda4951885f6c0b29f4140a64ef6d01647fc5082fbb439f8cc",
    "map shor --symbolic":
        "fef1616092f63b568abe7b48bbc080a03a40efc07cff9fa09b00c8c2f1f1f711",
    "threshold shor --ray depol":
        "c028a9388658772eeb088973e00c6867edf09d9914e56efd852f469c21aaa24f",
    "threshold shor --ray deph":
        "fe8c8d04a3d929033c28a31527b84ab426dd3ba8f22ccac44bfb650ae1c61d18",
    "orbit shor --channel depol:0.05":
        "4773ffc150b133f6e119eb944dc3c24f84f22cb3d999b8072e5aa7f57ed58b36",
}


def test_pinned_cli_stdout(capsys):
    got = {}
    for command in PINNED_STDOUT_SHA256:
        code, out, _ = run(capsys, *command.split())
        assert code == 0, command
        got[command] = hashlib.sha256(out.encode()).hexdigest()
    assert got == PINNED_STDOUT_SHA256


REPRODUCE_THRESHOLDS_STDOUT_SHA256 = "be64f5bb0ff6b21996dccb08c85204d74e4e9c05b6639beb32eae4d1f78f0b3e"


def test_export_symbolic_maps_script_writes_canonical_json(tmp_path):
    script = Path(__file__).resolve().parents[1] / "scripts" / "export_symbolic_maps.py"
    done = _run_in_subprocess([sys.executable, str(script), str(tmp_path)])
    assert done.returncode == 0, done.stderr
    names = concatcode.builtin_names()
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(f"{n}.map.json" for n in names)
    for name in names:
        obj = concatcode.diagonal_map(concatcode.get_code(name)).to_json_obj()
        assert (tmp_path / f"{name}.map.json").read_text() == canonical_json(obj) + "\n"


def test_reproduce_thresholds_script_stdout_pinned():
    script = Path(__file__).resolve().parents[1] / "scripts" / "reproduce_thresholds.py"
    done = _run_in_subprocess([sys.executable, str(script)])
    assert done.returncode == 0, done.stderr
    assert hashlib.sha256(done.stdout.encode()).hexdigest() == REPRODUCE_THRESHOLDS_STDOUT_SHA256
