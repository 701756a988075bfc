"""Command-line interface: output schemas, determinism and exit codes."""

import json
import math

import pytest

import concatcode.dynamics
from concatcode.cli import main

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


def test_codes_validate_failing_spec_exits_one(tmp_path, capsys):
    spec = tmp_path / "bad.code"
    spec.write_text(
        "n 2\ngenerator XI\nlogicalX XX\nlogicalZ ZI\nrecovery auto\n"
    )
    code, out, err = run(capsys, "codes", "validate", str(spec))
    assert code == 1
    assert json.loads(out)["passed"] is False


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


def test_oracle_check_shor_capability_error(capsys):
    code, _, err = run(capsys, "oracle", "check", "shor")
    assert code == 2
    assert "n <= 7" in err


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
