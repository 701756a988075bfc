"""scripts/bench_pairs.py on two stand-in trees whose bench/run.py prints a
fixed JSON line."""

import importlib.util
import json
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parents[1] / "scripts" / "bench_pairs.py"

FAKE_RUN = """\
import json, sys
from pathlib import Path
here = Path(__file__).resolve().parents[1]
with open(here.parent / "order.log", "a") as log:
    log.write(here.name + " " + " ".join(sys.argv[1:]) + "\\n")
print("warming up")
print(json.dumps({"correct": True, "tree": here.name}))
"""


@pytest.fixture
def bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


@pytest.fixture
def trees(tmp_path):
    for name in ("old", "new"):
        (tmp_path / name / "bench").mkdir(parents=True)
        (tmp_path / name / "bench" / "run.py").write_text(FAKE_RUN)
    return tmp_path


def test_pairs_alternate_and_sections_accumulate(bench_pairs, trees):
    out = trees / "BENCH.json"
    common = ["--parent", str(trees / "old"), "--change", str(trees / "new"),
              "--seed", "17", "--output", str(out)]
    assert bench_pairs.main([*common, "--workload", "w", "--pairs", "3", "--description", "a"]) == 0
    assert bench_pairs.main([*common, "--workload", "v", "--pairs", "1", "--description", "b",
                             "--section", "traced_runs"]) == 0

    data = json.loads(out.read_text())
    assert list(data) == ["description", "command", "machine", "pairing",
                          "paired_runs", "traced_runs", "other_workload_runs"]
    assert data["description"] == "b" and data["other_workload_runs"] == []
    runs = data["paired_runs"]
    assert [(r["pair"], r["side"], r["first"]) for r in runs] == [
        (0, "parent", "parent"), (0, "change", "parent"),
        (1, "change", "change"), (1, "parent", "change"),
        (2, "parent", "parent"), (2, "change", "parent"),
    ]
    assert all(r["workload"] == "w" and r["seed"] == 17 and "trace" not in r for r in runs)
    assert [r["output"] for r in runs[:2]] == [
        {"correct": True, "tree": "old"}, {"correct": True, "tree": "new"}
    ]
    assert [r["trace"] for r in data["traced_runs"]] == [1, 1]

    log = (trees / "order.log").read_text().splitlines()
    trees_in_order = [line.split()[0] for line in log]
    assert trees_in_order == ["old", "new", "new", "old", "old", "new", "old", "new"]
    seconds = str(json.loads(bench_pairs.BENCHMARK.read_text())["run_seconds"])
    argv = ["--workload", "w", "--seed", "17", "--seconds", seconds, "--trace", "0"]
    assert log[0].split()[1:] == argv
    assert log[-1].split()[-1] == "1"

    # a later call into a section numbers its pairs on from those already there
    assert bench_pairs.main([*common, "--workload", "u", "--pairs", "2", "--description", "c"]) == 0
    runs = json.loads(out.read_text())["paired_runs"]
    assert [(r["pair"], r["side"], r["first"]) for r in runs[6:]] == [
        (3, "change", "change"), (3, "parent", "change"),
        (4, "parent", "parent"), (4, "change", "parent"),
    ]
    log = (trees / "order.log").read_text().splitlines()
    assert [line.split()[0] for line in log[8:]] == ["new", "old", "old", "new"]


def test_a_failing_run_writes_nothing(bench_pairs, trees):
    (trees / "new" / "bench" / "run.py").write_text("raise SystemExit(3)\n")
    out = trees / "BENCH.json"
    with pytest.raises(SystemExit, match="exited 3"):
        bench_pairs.main(["--parent", str(trees / "old"), "--change", str(trees / "new"),
                          "--workload", "w", "--seed", "1", "--pairs", "1",
                          "--description", "d", "--output", str(out)])
    assert not out.exists()
