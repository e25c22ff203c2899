"""Self-checks of the benchmark.  Run from the repository root with::

    python3 -m pytest bench/test_bench.py -q

They run every workload at a tiny size, in both modes, and check the printed
metrics against BENCHMARK.json; they also check that a wrong expected value,
a hang and a missing program are all reported as failures.
"""

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
import run  # noqa: E402


def bench(*args, cwd=ROOT):
    proc = subprocess.run(
        [sys.executable, "bench/run.py", "--seed", "3", "--seconds", "1", *args],
        cwd=cwd, capture_output=True, text=True, timeout=170,
    )
    last = proc.stdout.strip().splitlines()[-1] if proc.stdout.strip() else None
    return proc.returncode, (json.loads(last) if last else None), proc


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
def test_smoke_prints_every_metric_with_its_unit(workload, trace):
    code, result, proc = bench("--workload", workload, "--trace", str(trace), "--smoke")
    assert code == 0, proc.stderr
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True and result["failed"] == 0 and result["attempted"] >= 1
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {m["name"]: m["unit"] for m in declared} == {k: v["unit"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())


def test_declared_metrics_match_the_runner():
    assert [m["name"] for m in SPEC["end_to_end"]] == list(run.END_TO_END)
    assert [m["name"] for m in SPEC["per_layer"]] == list(run.PER_LAYER)


def test_corrupted_expected_value_is_a_failure(tmp_path):
    for name in ("BENCHMARK.json", "setup.py", "pyproject.toml"):
        shutil.copy(ROOT / name, tmp_path)
    for name in ("src", "bench"):
        shutil.copytree(ROOT / name, tmp_path / name, ignore=shutil.ignore_patterns("__pycache__", "out"))
    table = json.loads((HERE / "expected.json").read_text())
    table["search:ic@8"]["density"] = "1/4"
    (tmp_path / "bench" / "expected.json").write_text(json.dumps(table))
    code, result, proc = bench("--workload", "sweep-codes", "--trace", "0", "--smoke", cwd=tmp_path)
    assert code == 1
    assert result["correct"] is False
    assert result["failed"] >= 1
    assert "FAILED search:ic@8" in proc.stderr


def test_hung_worker_is_killed_and_its_tasks_counted():
    hang = "import time; print('{\"event\": \"pass\", \"tasks\": 5}', flush=True); time.sleep(60)"
    lines, finished = run.run_worker([sys.executable, "-c", hang], cap_s=2)
    assert finished is False
    assert lines == [{"event": "pass", "tasks": 5}]


def test_without_the_program_it_exits_nonzero_and_prints_no_result(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    code, result, _ = bench("--workload", "sweep-codes", "--trace", "0", cwd=tmp_path)
    assert code != 0
    assert result is None
