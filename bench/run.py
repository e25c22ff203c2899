"""Benchmark of the tumbling package: time to certified results.

Run from the root of a checkout::

    python3 bench/run.py --workload sweep-codes --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload solve-canonical --seed 1 --seconds 20 --trace 1

It builds the program from source (``setup.py build_ext --inplace``), times
set-up in fresh processes, then runs the workload in a child process under a
wall-clock cap, so that a hang counts as failed tasks instead of stalling.
Every result is checked before it is reported.  The last line of stdout is
one JSON object with the keys ``correct``, ``attempted``, ``failed`` and
``metrics``; the line before it records what was measured (backend,
version, commit, interpreter, cores, seed, environment).  With ``--trace 0``
the metrics are the end-to-end ones, with ``--trace 1`` the per-layer ones.
The exit code is 0 only when every task was correct; it is 2, with no
result printed, when there is no program to measure.

See README.md in this directory for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKER = HERE / "worker.py"

#: Hard limit for one invocation; the child is killed so that we finish before it.
RUN_CAP_S = 170.0
#: Fresh processes timed for set-up; setup_s is their median.
SETUP_REPEATS = 15

END_TO_END = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "task_p50_ms": "ms",
    "task_p95_ms": "ms",
}

PER_LAYER = {
    "quotient.validate.calls": "count",
    "quotient.validate.s": "s",
    "quotient.validate.valid_ratio": "ratio",
    "quotient.build.calls": "count",
    "quotient.build.s": "s",
    "kernel.proof.calls": "count",
    "kernel.proof.s": "s",
    "kernel.proof.nodes": "count",
    "kernel.canon.calls": "count",
    "kernel.canon.s": "s",
    "kernel.canon.feasible_ratio": "ratio",
    "kernel.fallback.calls": "count",
    "solvers.solve.calls": "count",
    "solvers.solve.self_s": "s",
    "solvers.verify.calls": "count",
    "solvers.verify.s": "s",
    "density.search.s": "s",
    "density.sweep.s": "s",
    "density.min_density.calls": "count",
    "density.lift_check.calls": "count",
    "density.lift_check.s": "s",
    "trace.overhead_s": "s",
    "trace.uncovered_frac": "ratio",
    "trace.wrap_cost_s": "s",
}


class NoProgram(Exception):
    """The checkout holds nothing that can be built and measured."""


def log(msg: str) -> None:
    print(f"[bench] {msg}", file=sys.stderr, flush=True)


def build_program(deadline: float) -> None:
    """Build the package in place, as its own build file says."""
    if not (ROOT / "setup.py").is_file() or not (ROOT / "src" / "tumbling" / "__init__.py").is_file():
        raise NoProgram(f"no setup.py and src/tumbling under {ROOT}")
    proc = subprocess.run(
        [sys.executable, "setup.py", "-q", "build_ext", "--inplace"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=max(1.0, deadline - time.monotonic()),
    )
    if proc.returncode != 0:
        raise NoProgram(f"build failed:\n{proc.stdout}{proc.stderr}")


def worker_cmd(args, *extra: str) -> list[str]:
    cmd = [sys.executable, str(WORKER), "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), *extra]
    if args.smoke:
        cmd.append("--smoke")
    return cmd


def run_worker(cmd: list[str], cap_s: float, env: dict | None = None) -> tuple[list[dict], bool]:
    """Run a worker in its own process group; returns its JSON lines and
    whether it finished within ``cap_s`` seconds.  On the cap the whole
    group (pool workers included) is killed and reaped."""
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE, text=True, start_new_session=True)
    lines: list[dict] = []

    def read():
        for line in proc.stdout:
            try:
                lines.append(json.loads(line))
            except json.JSONDecodeError:
                sys.stderr.write(line)

    reader = threading.Thread(target=read, daemon=True)
    reader.start()
    try:
        proc.wait(timeout=max(1.0, cap_s))
        finished = proc.returncode == 0
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.wait()
        finished = False
    reader.join(timeout=10)
    proc.stdout.close()
    return lines, finished


def measure_setup(args, deadline: float) -> tuple[float, list[float]]:
    samples = []
    for _ in range(SETUP_REPEATS):
        lines, ok = run_worker(worker_cmd(args, "--setup-only"), deadline - time.monotonic())
        if not ok or not lines:
            raise NoProgram("set-up failed; see the messages above")
        samples.append(lines[-1]["setup_s"])
    return statistics.median(samples), samples


def compare_backends(deadline: float) -> tuple[list[dict], int, int]:
    """Time the proof-only instances on each backend, each in a fresh process
    with TB_BACKEND set before import.  Returns rows, attempted and failed."""
    per_backend = {}
    attempted = failed = 0
    for backend in ("python", "compiled"):
        cmd = [sys.executable, str(WORKER), "--workload", "backend-compare", "--seed", "0", "--seconds", "1"]
        env = {**os.environ, "TB_BACKEND": backend}
        lines, finished = run_worker(cmd, min(60.0, deadline - time.monotonic()), env)
        result = next((x for x in lines if x.get("event") == "result"), None)
        if not finished or result is None:
            log(f"backend comparison: the {backend} run did not finish")
            attempted += 1
            failed += 1
            continue
        attempted += result["attempted"]
        failed += result["failed"]
        for name, why in result["failures"].items():
            log(f"FAILED [{backend}] {name}: {why}")
        per_backend[backend] = result["per_task_ms"]
    rows = []
    if len(per_backend) == 2:
        log(f"{'instance':28} {'python ms':>10} {'compiled ms':>12} {'speedup':>8}")
        for name, py_ms in per_backend["python"].items():
            c_ms = per_backend["compiled"][name]
            rows.append({"task": name, "python_ms": py_ms, "compiled_ms": c_ms})
            log(f"{name:28} {py_ms:10.3f} {c_ms:12.3f} {py_ms / c_ms:7.1f}x")
    return rows, attempted, failed


def git_commit() -> str | None:
    """Commit of the checkout, when it is a git repository (a plain copy is not)."""
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, timeout=10)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def quartiles(values: list[float]) -> list[float]:
    return statistics.quantiles(values, n=4) if len(values) > 1 else [values[0]] * 3


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), required=True)
    ap.add_argument("--smoke", action="store_true", help="tiny inputs, for the self-checks")
    args = ap.parse_args(argv)

    deadline = time.monotonic() + RUN_CAP_S
    try:
        build_program(deadline)
        setup_s, setup_samples = measure_setup(args, deadline)
    except (NoProgram, subprocess.TimeoutExpired) as exc:
        log(str(exc))
        return 2

    lines, finished = run_worker(worker_cmd(args, "--trace", str(args.trace)), deadline - time.monotonic())
    result = next((x for x in lines if x.get("event") == "result"), None) if finished else None
    if result is not None:
        attempted, failed = result["attempted"], result["failed"]
        for name, why in result["failures"].items():
            log(f"FAILED {name}: {why}")
    else:
        # the gate never ran: every task the run started counts as failed
        attempted = max(1, sum(x["tasks"] for x in lines if x.get("event") == "pass"))
        failed = attempted
        log(f"workload did not finish within the {RUN_CAP_S:.0f} s cap or crashed; {failed} tasks failed")

    meta = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "commit": git_commit(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "TB_BACKEND": os.environ.get("TB_BACKEND"),
        "TB_THREADS": os.environ.get("TB_THREADS"),
        "setup_samples_s": setup_samples,
    }
    if result is not None:
        meta.update(result["env"])
        meta.update(
            passes=len(result["walls"]),
            wall_quartiles_s=quartiles(result["walls"]),
            tasks_per_pass=result["tasks_per_pass"],
        )
    if args.trace and result is not None and result["env"]["compiled_importable"]:
        meta["backend_compare"], extra_attempted, extra_failed = compare_backends(deadline)
        attempted += extra_attempted
        failed += extra_failed
    print(json.dumps({"meta": meta}))

    if result is None:
        values = {}
    else:
        values = result["traced"] if args.trace else {**result, "setup_s": setup_s}
    units = PER_LAYER if args.trace else END_TO_END
    metrics = {name: {"value": values[name], "unit": unit} for name, unit in units.items()
               if values.get(name) is not None}
    if result is not None and len(metrics) < len(units):
        log(f"metrics not measured: {sorted(set(units) - set(metrics))}")
    correct = failed == 0 and len(metrics) == len(units)
    print(json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
