"""Minimum-density periodic patterns via exact solves on toroidal quotients.

A pattern on a validated quotient lifts to a periodic pattern of the same
density on the infinite lattice, so sweeping all Hermite-normal-form
quotients up to a determinant bound and solving each one exactly yields
certified density bounds for the percentage parameters.
"""

from __future__ import annotations

import logging
import os
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

from .lattice import FamilyKind, FamilySpec, VertexAddr, family_blocks, block_members, tb_neighbors
from .quotient import LatticeQuotient, build_quotient, enumerate_hnf, tb_ball, validate_quotient
from .solvers import ParamKind, solve

_log = logging.getLogger("tumbling")


class NoValidQuotientError(ValueError):
    """No quotient under the determinant bound passed validation / matched."""


def required_radius(kind: ParamKind) -> int:
    """Validation radius that makes the kind's local condition transfer.

    Domination is a radius-1 condition; packing constraints and code
    distinctness compare neighborhoods of vertices up to distance 2 apart.
    """
    if kind in (ParamKind.GAMMA, ParamKind.GAMMA_OP):
        return 1
    return 2


@dataclass(frozen=True)
class DensityRecord:
    """One solved quotient: pattern, its exact density, and validation radius.

    ``size`` is the solver objective (set size for minimization kinds,
    covered count for maximization kinds) and ``density`` is always
    size / (3 * det).  ``exact_cover`` marks perfect open-domination
    patterns, whose recorded size is the pattern size instead.
    """

    kind: ParamKind
    quotient: LatticeQuotient
    size: int
    density: Fraction
    witness: tuple[int, ...]
    validated_radius: int
    exact_cover: bool = False

    def witness_addresses(self) -> tuple[VertexAddr, ...]:
        g = build_quotient(self.quotient)
        return tuple(g.labels[v] for v in self.witness)


def min_density(kind: ParamKind, q: LatticeQuotient, deterministic: bool = True) -> DensityRecord:
    """Exact optimum of the parameter on one validated quotient."""
    radius = required_radius(kind)
    if not validate_quotient(q, radius):
        raise ValueError(f"quotient {q} fails validation at radius {radius}")
    g = build_quotient(q)
    res = solve(g, kind, deterministic=deterministic)
    return DensityRecord(
        kind=kind,
        quotient=q,
        size=res.value,
        density=Fraction(res.value, 3 * q.det),
        witness=res.witness,
        validated_radius=radius,
    )


def _solve_one(args):
    kind_value, a, c, d, deterministic = args
    kind = ParamKind(kind_value)
    return min_density(kind, LatticeQuotient(a, c, d), deterministic=deterministic)


def _thread_budget() -> int:
    env = os.environ.get("TB_THREADS", "").strip()
    if env:
        return max(1, int(env))
    return os.cpu_count() or 1


def valid_quotients(max_det: int, radius: int) -> list[LatticeQuotient]:
    return [q for q in enumerate_hnf(max_det) if validate_quotient(q, radius)]


def density_sweep(
    kind: ParamKind,
    max_det: int,
    threads: int | None = None,
    deterministic: bool = False,
) -> list[DensityRecord]:
    """Solve the parameter on every validated quotient with det <= max_det.

    Records come back in (det, a, c) order regardless of how many worker
    processes ran, so downstream folds are deterministic.  Witnesses are
    canonicalized only on request; the optimum values never depend on it.
    """
    quots = valid_quotients(max_det, required_radius(kind))
    if not quots:
        return []
    if threads is None:
        threads = _thread_budget()
    tasks = [(kind.value, q.a, q.c, q.d, deterministic) for q in quots]
    if threads > 1 and len(tasks) > 4:
        try:
            with ProcessPoolExecutor(max_workers=threads) as pool:
                records = list(pool.map(_solve_one, tasks))
        except OSError as exc:
            _log.warning("process pool unavailable (%s); solving %d quotients serially", exc, len(tasks))
            records = [_solve_one(t) for t in tasks]
    else:
        records = [_solve_one(t) for t in tasks]
    return records


def search(kind: ParamKind, max_det: int, threads: int | None = None) -> DensityRecord:
    """Best validated quotient pattern: minimum density, or maximum covered
    fraction for the packing parameters.  Ties break toward (det, a, c)."""
    records = density_sweep(kind, max_det, threads=threads)
    if not records:
        raise NoValidQuotientError(
            f"no quotient with det <= {max_det} validates at radius {required_radius(kind)}"
        )

    def key(rec: DensityRecord):
        lead = rec.density if kind.minimizes else -rec.density
        return (lead, rec.quotient.det, rec.quotient.a, rec.quotient.c)

    best = min(records, key=key)
    # canonical witness for the winner only; the sweep skips the lex pass
    return min_density(kind, best.quotient, deterministic=True)


def f_fraction(q: LatticeQuotient) -> DensityRecord:
    """Fraction of the quotient dominated exactly once by the best packing."""
    return min_density(ParamKind.F_MAX, q)


def perfect_open_pattern(max_det: int) -> DensityRecord:
    """Smallest validated quotient whose open neighborhoods admit an exact cover.

    The returned record stores the pattern itself: ``size`` is the pattern
    cardinality, and a perfect open-dominating pattern always has density
    exactly 2/9 on this lattice (one U and one W/V neighbor-source per nine
    vertices)."""
    for q in enumerate_hnf(max_det):
        if not validate_quotient(q, 2):
            continue
        g = build_quotient(q)
        res = solve(g, ParamKind.F_OP_MAX)
        if res.value == g.n:
            return DensityRecord(
                kind=ParamKind.F_OP_MAX,
                quotient=q,
                size=len(res.witness),
                density=Fraction(len(res.witness), 3 * q.det),
                witness=res.witness,
                validated_radius=2,
                exact_cover=True,
            )
    raise NoValidQuotientError(
        f"no exact open cover found on validated quotients with det <= {max_det}"
    )


# ---------------------------------------------------------------------------
# independent verification on finite windows of the infinite lattice
# ---------------------------------------------------------------------------

def lift_check(record: DensityRecord, window_r: int, window_s: int) -> bool:
    """Tile the pattern over a parallelogram window and re-check every local
    condition at vertices whose full validation ball lies inside the window."""
    radius = record.validated_radius
    if min(window_r, window_s) < 2 * radius + 2:
        raise ValueError(f"window must be at least {2 * radius + 2} on each side")
    q = record.quotient
    gq = build_quotient(q)
    pattern = {gq.labels[v] for v in record.witness}

    window: set[VertexAddr] = set()
    for (i, j) in family_blocks(FamilySpec(FamilyKind.TBP, window_r, window_s)):
        window.update(block_members(i, j))
    lifted = {x for x in window if q.reduce_addr(x) in pattern}

    interior = [x for x in sorted(window) if all(y in window for y in tb_ball(x, radius))]
    interior_set = set(interior)

    def open_code(x: VertexAddr) -> frozenset:
        return frozenset(y for y in tb_neighbors(x) if y in lifted)

    def closed_code(x: VertexAddr) -> frozenset:
        code = open_code(x)
        return code | {x} if x in lifted else code

    kind = record.kind
    for x in interior:
        if kind == ParamKind.GAMMA:
            if x not in lifted and not open_code(x):
                return False
        elif kind == ParamKind.GAMMA_OP:
            if not open_code(x):
                return False
        elif kind == ParamKind.F_MAX:
            hits = len(open_code(x)) + (1 if x in lifted else 0)
            if hits > 1:
                return False
        elif kind == ParamKind.F_OP_MAX:
            hits = len(open_code(x))
            if hits > 1 or (record.exact_cover and hits != 1):
                return False
        elif kind == ParamKind.LD:
            if x not in lifted and not open_code(x):
                return False
        elif kind == ParamKind.IC:
            if not closed_code(x):
                return False
        elif kind == ParamKind.OLD:
            if not open_code(x):
                return False
    if kind in (ParamKind.LD, ParamKind.IC, ParamKind.OLD):
        for x in interior:
            for y in tb_ball(x, 2):
                if y <= x or y not in interior_set:
                    continue
                if kind == ParamKind.LD:
                    if x in lifted or y in lifted:
                        continue
                    if open_code(x) == open_code(y):
                        return False
                elif kind == ParamKind.IC:
                    if closed_code(x) == closed_code(y):
                        return False
                else:
                    if open_code(x) == open_code(y):
                        return False
    return True
