"""The traced benchmark wraps functions of the package by name
(``bench/tracing.py``), so a name it wraps that no longer exists fails here,
in the unit suite, and not first in a benchmark run."""

import importlib.util
from pathlib import Path

import tumbling.density as density_mod
import tumbling.solvers as solvers_mod
from tumbling.quotient import LatticeQuotient, build_quotient
from tumbling.solvers import ParamKind

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _load_tracing():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_tracer_installs_and_counts_kernel_proofs():
    tracing = _load_tracing()
    search, solve = density_mod.search, solvers_mod.solve
    tracer = tracing.Tracer()
    tracer.install()
    try:
        density_mod.search(ParamKind.GAMMA, 5, threads=1)
        solvers_mod.solve(build_quotient(LatticeQuotient(2, 0, 5)), ParamKind.GAMMA)
        metrics = tracer.pass_metrics(wall_s=1.0)
    finally:
        tracer.remove()
    assert metrics["kernel.proof.calls"] > 0
    assert metrics["solvers.solve.calls"] > 0 and metrics["density.search.s"] > 0
    assert (density_mod.search, solvers_mod.solve) == (search, solve)
