"""Workload definitions: the tasks one pass runs, and their expected outcomes.

A task is one call a researcher makes on the public API, timed as a unit:
a certified density (``search`` followed by ``lift_check``), one auxiliary
density call, or one ``solve``.  Each task returns a small JSON-able outcome
that the correctness gate compares with the stored table in
``expected.json``, or with ``brute_force`` for the seeded random graphs.

Functions of the program are looked up on their modules at call time
(``D.search``, ``S.solve``), so the traced run sees the wrapped versions.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable

import tumbling.density as D
import tumbling.solvers as S
from tumbling.graph import FiniteGraph
from tumbling.lattice import FamilyKind, FamilySpec, block_graph, build_family
from tumbling.quotient import LatticeQuotient, build_quotient
from tumbling.solvers import ParamKind

EXPECTED_PATH = Path(__file__).with_name("expected.json")

NAMES = ("sweep-codes", "sweep-packing", "solve-canonical", "backend-compare")

#: Window used by every lift check, as in the acceptance tests.
LIFT_WINDOW = 12


@dataclass
class Task:
    name: str
    run: Callable[[], dict]
    #: Recomputes the expected outcome independently (brute force); tasks
    #: without one are checked against the stored table.
    expect: Callable[[], dict] | None = None


# ---------------------------------------------------------------------------
# sweep tasks
# ---------------------------------------------------------------------------

def _record_outcome(rec) -> dict:
    q = rec.quotient
    return {
        "density": str(rec.density),
        "quotient": [q.a, q.c, q.d],
        "witness": list(rec.witness),
    }


def _certified_density(kind: ParamKind, max_det: int) -> Task:
    def run():
        rec = D.search(kind, max_det, threads=1)
        lifted = D.lift_check(rec, LIFT_WINDOW, LIFT_WINDOW)
        return {**_record_outcome(rec), "lift": lifted}

    return Task(f"search:{kind.value}@{max_det}", run)


def _perfect_open(max_det: int) -> Task:
    def run():
        rec = D.perfect_open_pattern(max_det)
        lifted = D.lift_check(rec, LIFT_WINDOW, LIFT_WINDOW)
        return {**_record_outcome(rec), "exact_cover": rec.exact_cover, "lift": lifted}

    return Task(f"perfect_open_pattern@{max_det}", run)


def _valid_quotients(max_det: int, radius: int) -> Task:
    def run():
        quots = D.valid_quotients(max_det, radius)
        listing = ";".join(f"{q.a},{q.c},{q.d}" for q in quots)
        return {"count": len(quots), "sha256": hashlib.sha256(listing.encode()).hexdigest()}

    return Task(f"valid_quotients:{max_det}@r{radius}", run)


CODE_KINDS = (ParamKind.LD, ParamKind.IC, ParamKind.OLD)


def sweep_codes(smoke: bool) -> list[Task]:
    max_det = 8 if smoke else 12
    return [_certified_density(kind, max_det) for kind in CODE_KINDS]


def sweep_packing(smoke: bool) -> list[Task]:
    if smoke:
        plan = [(ParamKind.F_MAX, 8), (ParamKind.F_OP_MAX, 9), (ParamKind.GAMMA, 5)]
        return [_certified_density(k, d) for k, d in plan] + [
            _perfect_open(9),
            _valid_quotients(8, 1),
            _valid_quotients(8, 2),
        ]
    plan = [(ParamKind.F_MAX, 16), (ParamKind.F_OP_MAX, 14), (ParamKind.GAMMA, 14)]
    return [_certified_density(k, d) for k, d in plan] + [
        _perfect_open(12),
        _valid_quotients(24, 1),
        _valid_quotients(24, 2),
    ]


# ---------------------------------------------------------------------------
# canonical solves
# ---------------------------------------------------------------------------

def _cycle(n: int) -> FiniteGraph:
    return FiniteGraph.from_edges(n, [(i, (i + 1) % n) for i in range(n)])


def _path(n: int) -> FiniteGraph:
    return FiniteGraph.from_edges(n, [(i, i + 1) for i in range(n - 1)])


def _complete(n: int) -> FiniteGraph:
    return FiniteGraph.from_edges(n, [(i, j) for i in range(n) for j in range(i + 1, n)])


def _qname(acd: tuple[int, int, int]) -> str:
    return "q({},{},{})".format(*acd)


def classic_graphs() -> list[tuple[str, FiniteGraph]]:
    """The fixed part of the oracle corpus: classics, blocks, small families
    and small quotients, all with n <= 16."""
    graphs = [
        ("block(1,1)", block_graph(1, 1)),
        ("block(3,5)", block_graph(3, 5)),
        ("K1", FiniteGraph([[]])),
        ("K2", _complete(2)),
        ("K3", _complete(3)),
        ("K4", _complete(4)),
        ("P2", _path(2)),
        ("P3", _path(3)),
        ("P4", _path(4)),
        ("P5", _path(5)),
        ("P7", _path(7)),
        ("C4", _cycle(4)),
        ("C5", _cycle(5)),
        ("C6", _cycle(6)),
        ("C7", _cycle(7)),
        ("C9", _cycle(9)),
        ("star5", FiniteGraph.from_edges(6, [(0, i) for i in range(1, 6)])),
    ]
    for kind, r, s in [
        (FamilyKind.TBP, 1, 1),
        (FamilyKind.TBP, 1, 2),
        (FamilyKind.TBP, 2, 1),
        (FamilyKind.TBT, 2, 1),
        (FamilyKind.TBR, 1, 2),
        (FamilyKind.TBR, 2, 1),
    ]:
        graphs.append((f"{kind.value}({r},{s})", build_family(FamilySpec(kind, r, s))))
    # quotients of the oracle corpus that build without folding
    for acd in [(3, 2, 1), (4, 2, 1), (4, 3, 1), (5, 2, 1), (5, 3, 1), (5, 4, 1)]:
        graphs.append((_qname(acd), build_quotient(LatticeQuotient(*acd))))
    return graphs


#: Kinds cheap enough to solve canonically on the n = 48 and n = 64
#: instances; LD, IC and OLD there take 2 s to over a minute each.
CHEAP_KINDS = (ParamKind.GAMMA, ParamKind.GAMMA_OP, ParamKind.F_MAX, ParamKind.F_OP_MAX)


def lattice_instances(smoke: bool) -> list[tuple[str, FiniteGraph, tuple[ParamKind, ...]]]:
    """Instances on either side of the 32- and 64-bit word boundaries."""
    tbp = lambda r, s: build_family(FamilySpec(FamilyKind.TBP, r, s))  # noqa: E731
    quo = lambda *acd: build_quotient(LatticeQuotient(*acd))  # noqa: E731
    all_kinds = tuple(ParamKind)
    if smoke:
        return [("tbp(1,6)", tbp(1, 6), CHEAP_KINDS)]
    return [
        ("tbp(1,6)", tbp(1, 6), all_kinds),       # n = 32
        ("q(11,3,1)", quo(11, 3, 1), all_kinds),  # n = 33, det 11
        ("q(3,0,4)", quo(3, 0, 4), all_kinds),    # n = 36
        ("tbp(3,3)", tbp(3, 3), all_kinds),       # n = 39
        ("q(4,0,4)", quo(4, 0, 4), CHEAP_KINDS),  # n = 48
        ("tbp(4,4)", tbp(4, 4), CHEAP_KINDS),     # n = 64
    ]


def _kind_exists(adj, kind: ParamKind) -> bool:
    """Whether the parameter exists on the graph, checked here independently
    of the program: IC needs no closed twins, the open kinds need no isolated
    vertex, and OLD also needs no open twins."""
    opened = [frozenset(ns) for ns in adj]
    if kind == ParamKind.IC:
        return len({ns | {v} for v, ns in enumerate(opened)}) == len(adj)
    if kind not in (ParamKind.GAMMA_OP, ParamKind.OLD):
        return True
    return all(opened) and (kind == ParamKind.GAMMA_OP or len(set(opened)) == len(adj))


def random_graphs(seed: int, count: int) -> list[tuple[str, FiniteGraph]]:
    """Seeded G(n, p) graphs with 8 <= n <= 16, redrawn until every kind is feasible."""
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(8, 16)
        p = rng.uniform(0.25, 0.5)
        adj: list[list[int]] = [[] for _ in range(n)]
        for a in range(n):
            for b in range(a + 1, n):
                if rng.random() < p:
                    adj[a].append(b)
                    adj[b].append(a)
        if all(_kind_exists(adj, kind) for kind in ParamKind):
            out.append((f"gnp#{len(out)}(n={n})", FiniteGraph(adj)))
    return out


def _solve_task(name: str, g: FiniteGraph, kind: ParamKind, expect=None) -> Task:
    def run():
        res = S.solve(g, kind)
        return {"value": res.value, "witness": list(res.witness)}

    return Task(f"solve:{name}:{kind.value}", run, expect)


def _brute(g: FiniteGraph, kind: ParamKind) -> Callable[[], dict]:
    def expect():
        res = S.brute_force(g, kind)
        return {"value": res.value, "witness": list(res.witness)}

    return expect


def solve_canonical(seed: int, smoke: bool) -> list[Task]:
    tasks = []
    classics = classic_graphs()[:6] if smoke else classic_graphs()
    for name, g in classics:
        for kind in ParamKind:
            if _kind_exists(g.adj, kind):
                tasks.append(_solve_task(name, g, kind))
    for name, g in random_graphs(seed, 3 if smoke else 40):
        for kind in ParamKind:
            tasks.append(_solve_task(name, g, kind, _brute(g, kind)))
    for name, g, kinds in lattice_instances(smoke):
        for kind in kinds:
            tasks.append(_solve_task(name, g, kind))
    # Interleave small and large solves, so that the sub-millisecond ones are
    # sampled across the whole pass rather than in one burst.
    random.Random(seed).shuffle(tasks)
    return tasks


def backend_compare() -> list[Task]:
    """Proof-only solves (no canonical pass) on the instances that the old
    per-backend comparison timed; only the value is backend-independent."""
    def proof_only(name, g, kind):
        return Task(f"compare:{name}:{kind.value}", lambda: {"value": S.solve(g, kind, deterministic=False).value})

    quo = [((2, 0, 5), ParamKind.GAMMA), ((3, 2, 1), ParamKind.GAMMA_OP), ((3, 0, 3), ParamKind.LD),
           ((7, 3, 1), ParamKind.IC), ((3, 0, 4), ParamKind.OLD), ((4, 3, 2), ParamKind.F_MAX),
           ((3, 0, 3), ParamKind.F_OP_MAX)]
    tasks = [proof_only(_qname(acd), build_quotient(LatticeQuotient(*acd)), kind) for acd, kind in quo]
    for (r, s), kind in [((4, 4), ParamKind.GAMMA), ((3, 4), ParamKind.OLD)]:
        tasks.append(proof_only(f"tbp({r},{s})", build_family(FamilySpec(FamilyKind.TBP, r, s)), kind))
    return tasks


def build(name: str, seed: int, smoke: bool = False) -> list[Task]:
    """The tasks of one pass of the named workload."""
    if name == "sweep-codes":
        return sweep_codes(smoke)
    if name == "sweep-packing":
        return sweep_packing(smoke)
    if name == "solve-canonical":
        return solve_canonical(seed, smoke)
    if name == "backend-compare":
        return backend_compare()
    raise ValueError(f"unknown workload {name!r}; choose from {', '.join(NAMES)}")


# ---------------------------------------------------------------------------
# correctness gate
# ---------------------------------------------------------------------------

def load_expected() -> dict:
    with open(EXPECTED_PATH) as fh:
        return json.load(fh)


def expectations(tasks: list[Task], table: dict) -> dict[str, dict | None]:
    """Expected outcome of each task: recomputed by its oracle, else looked
    up in the stored table (None when neither has one)."""
    return {t.name: t.expect() if t.expect is not None else table.get(t.name) for t in tasks}


def mismatch(got: dict, want: dict | None) -> str | None:
    """Why an outcome (``{"ok": ...}`` or ``{"error": ...}``) fails, or None."""
    if "error" in got:
        return got["error"]
    if want is None:
        return "no expected outcome stored"
    if got["ok"] != want:
        return f"got {got['ok']}, expected {want}"
    return None
