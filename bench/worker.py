"""One workload run in a child process of ``run.py``.

Imports the program from ``src/`` of the checkout this file sits in, builds
the workload's inputs, runs timed passes (in the traced run, untraced and
traced passes in turn), then the correctness gate, and prints JSON lines on
stdout:

* ``{"event": "pass", "tasks": N}`` when a pass starts, so that the parent
  can count the tasks of a run it had to kill;
* ``{"event": "result", ...}`` once at the end.

With ``--setup-only`` it prints ``{"setup_s": ...}`` and exits.
"""

from __future__ import annotations

import argparse
import json
import resource
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
#: The spans of the last traced pass are written here.
OUT = Path(__file__).resolve().parent / "out"


def emit(obj: dict) -> None:
    sys.stdout.write(json.dumps(obj) + "\n")
    sys.stdout.flush()


def import_program():
    """Import tumbling from the checkout's src/, never from anywhere else."""
    if not (SRC / "tumbling" / "__init__.py").is_file():
        raise SystemExit(f"no program to measure: {SRC / 'tumbling'} is missing")
    sys.path.insert(0, str(SRC))
    import tumbling

    if Path(tumbling.__file__).resolve().parent != SRC / "tumbling":
        raise SystemExit(f"imported tumbling from {tumbling.__file__}, not from {SRC}")
    return tumbling


def percentile(values: list[float], q: int) -> float:
    """Percentile interpolated between the nearest samples."""
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[q - 1]


def run_pass(tasks, task_times: list[float] | None, tracer=None) -> tuple[float, dict]:
    """Run every task once; returns the pass wall time and the outcomes."""
    emit({"event": "pass", "tasks": len(tasks)})
    outcomes = {}
    t_pass = time.perf_counter()
    for i, task in enumerate(tasks):
        if tracer is not None:
            tracer.task = i
        t0 = time.perf_counter()
        try:
            outcomes[task.name] = {"ok": task.run()}
        except Exception as exc:  # a raising task is a failed task; keep measuring
            outcomes[task.name] = {"error": f"{type(exc).__name__}: {exc}"}
        if task_times is not None:
            task_times.append(time.perf_counter() - t0)
    return time.perf_counter() - t_pass, outcomes


def repeat(step, seconds: float, min_rounds: int) -> None:
    """Call ``step`` at least ``min_rounds`` times, then more until the next
    call would end after ``seconds``."""
    times = []
    start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        step()
        times.append(time.perf_counter() - t0)
        if len(times) >= min_rounds and time.perf_counter() - start + statistics.median(times) > seconds:
            return


def peak_rss_mb() -> float:
    """Peak resident set of this process plus its largest finished child (pool worker)."""
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    children = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return (own + children) / 1024.0


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args(argv)

    t0 = time.perf_counter()
    tumbling = import_program()
    import workloads

    tasks = workloads.build(args.workload, args.seed, args.smoke)
    setup_s = time.perf_counter() - t0
    if args.setup_only:
        emit({"setup_s": setup_s})
        return 0

    task_times: list[float] = []
    walls: list[float] = []
    results: list[dict] = []

    def untraced_pass():
        wall, outcomes = run_pass(tasks, task_times)
        walls.append(wall)
        results.append(outcomes)

    traced = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracer.calibrate()
        traced_walls, per_pass = [], []

        def paired_passes():
            # an untraced pass, then a traced one, so that each difference
            # compares two passes made under the same host conditions
            untraced_pass()
            tracer.clear()
            tracer.install()
            try:
                wall, outcomes = run_pass(tasks, None, tracer)
            finally:
                tracer.remove()
            traced_walls.append(wall)
            results.append(outcomes)
            per_pass.append(tracer.pass_metrics(wall))

        repeat(paired_passes, args.seconds, 1)
        traced = tracing.median_metrics(per_pass)
        traced["trace.overhead_s"] = statistics.median(t - u for t, u in zip(traced_walls, walls))
        OUT.mkdir(exist_ok=True)
        (OUT / f"spans-{args.workload}-seed{args.seed}.json").write_text(
            json.dumps({"fields": ["name", "start", "end", "parent", "task"], "spans": tracer.spans()}))
    else:
        # at least two passes, so that wall_s is never a single sample
        repeat(untraced_pass, args.seconds, 2)
    rss = peak_rss_mb()
    # each task's latency is its median over the untraced passes
    latencies = [statistics.median(task_times[i::len(tasks)]) for i in range(len(tasks))]

    # correctness gate, outside every timed region
    table = workloads.load_expected()
    want = workloads.expectations(tasks, table)
    failed, failures = 0, {}
    for outcomes in results:
        for task in tasks:
            why = workloads.mismatch(outcomes[task.name], want[task.name])
            if why is not None:
                failed += 1
                failures.setdefault(task.name, why)

    emit({
        "event": "result",
        "attempted": len(tasks) * len(results),
        "failed": failed,
        "failures": dict(list(failures.items())[:20]),
        "setup_s": setup_s,
        "wall_s": statistics.median(walls),
        "walls": walls,
        "peak_rss_mb": rss,
        "task_p50_ms": 1000 * percentile(latencies, 50),
        "task_p95_ms": 1000 * percentile(latencies, 95),
        "tasks_per_pass": len(tasks),
        "per_task_ms": {t.name: 1000 * x for t, x in zip(tasks, latencies)},
        "traced": traced,
        "env": {
            "backend": tumbling.backend_name(),
            "version": tumbling.__version__,
            "compiled_importable": _compiled_importable(),
            "kernel_max_n": tumbling._backend._impl.MAX_N,
        },
    })
    return 0


def _compiled_importable() -> bool:
    try:
        import tumbling._kernels  # noqa: F401
    except ImportError:
        return False
    return True


if __name__ == "__main__":
    sys.exit(main())
