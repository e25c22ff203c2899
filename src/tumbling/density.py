"""Minimum-density periodic patterns via exact solves on toroidal quotients.

A pattern on a validated quotient lifts to a periodic pattern of the same
density on the infinite lattice, so sweeping all Hermite-normal-form
quotients up to a determinant bound and solving each one exactly yields
certified density bounds for the percentage parameters.

Quotients related by a symmetry of the lattice (one point-group orbit, see
:func:`tumbling.quotient.quotient_orbits`) are isomorphic graphs, so only
the first quotient of each orbit is solved.  Every other member is first
certified by arithmetic to be an isomorphic image of it
(:func:`tumbling.quotient.induces_isomorphism`), so it has the same optimum.
``search`` needs nothing more and builds no graph for a member.
``density_sweep`` returns a record for every member, with the witness
carried across by the induced vertex map; that map is checked to be a graph
isomorphism, and the carried witness is re-verified on the member's own
graph, before the record is returned.

Within one quotient the same symmetry prunes the proof (orbital branching at
the root of the branch and bound).  The block translations act transitively
on each vertex class, and the 180-degree rotation swaps W and V, so every
nonempty optimum has a copy that contains ``w(0,0)`` or one that lies inside
U and contains ``u(0,0)``.  The solver searches only those two branches (see
:func:`_orbit_roots`).  Before the solve, the two translations and the
rotation are certified to be automorphisms of the quotient by the same
:func:`tumbling.quotient.induces_isomorphism` that certifies orbit members:
each of them is a :class:`tumbling.quotient.LatticeSymmetry`.

A packing parameter (F, F-OP) covers at most every vertex, so its density
never exceeds 1.  :func:`search` for a packing parameter is serial, whatever
the thread budget: it solves representatives in (det, a, c) order and stops
at the first one whose packing has density 1, since no later quotient can
beat it or win the tie-break.  :func:`density_sweep` always solves every
representative.

:func:`lift_check` tiles a pattern over a window of the infinite lattice by
quotient index arithmetic and finds the window's interior from per-class
tables of ball offsets, so it builds no quotient graph and searches no ball
per window vertex.  The window and its interior depend only on the window's
size and the radius, so each is built once per process, on first use.
"""

from __future__ import annotations

import logging
import os
from collections import Counter
from dataclasses import dataclass, field, replace
from functools import lru_cache, partial
from fractions import Fraction

from . import quotient
from .graph import FiniteGraph
from .lattice import FamilyKind, FamilySpec, VertexAddr, ball_offsets, build_family
from .quotient import (
    LatticeQuotient,
    LatticeSymmetry,
    build_quotient,
    enumerate_hnf,
    induces_isomorphism,
    quotient_labels,
    quotient_orbits,
    validate_quotient,
)
from .solvers import ParamKind, SolveStats, _objective, solve, verify_witness

_log = logging.getLogger("tumbling")


def ProcessPoolExecutor(max_workers: int):
    """The process pool of a parallel sweep, imported on first use:
    ``concurrent.futures.process`` loads multiprocessing, sockets and pickle,
    about 20 ms and 2.4 MB that ``import tumbling`` need not pay."""
    from concurrent.futures import ProcessPoolExecutor as pool

    return pool(max_workers=max_workers)


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
    covered count for maximization kinds).  ``exact_cover`` marks perfect
    open-domination patterns, whose recorded size is the pattern size
    instead.  ``stats`` is the work of the solve that produced the record
    (for a carried record, its representative's solve); it takes no part in
    comparison or hashing.
    """

    kind: ParamKind
    quotient: LatticeQuotient
    size: int
    witness: tuple[int, ...]
    exact_cover: bool = False
    stats: SolveStats | None = field(default=None, compare=False)

    @property
    def density(self) -> Fraction:
        """size / (3 * det), the pattern's density on the lattice."""
        return Fraction(self.size, 3 * self.quotient.det)

    @property
    def validated_radius(self) -> int:
        """The radius the quotient is validated at: the kind's
        :func:`required_radius`."""
        return required_radius(self.kind)

    def witness_addresses(self) -> tuple[VertexAddr, ...]:
        labels = quotient_labels(self.quotient)
        return tuple(labels[v] for v in self._checked_witness())

    def _checked_witness(self) -> tuple[int, ...]:
        """The witness, after checking that each entry is a vertex index of
        the quotient; ValueError if one is not."""
        n = 3 * self.quotient.det
        if not all(0 <= v < n for v in self.witness):
            raise ValueError(
                f"witness {self.witness} names a vertex outside 0..{n - 1} of quotient {self.quotient}"
            )
        return self.witness


def min_density(kind: ParamKind, q: LatticeQuotient) -> DensityRecord:
    """Exact optimum of the parameter on one validated quotient, with its
    canonical witness."""
    radius = required_radius(kind)
    if not validate_quotient(q, radius):
        raise ValueError(f"quotient {q} fails validation at radius {radius}")
    return _solve_quotient(kind, q, deterministic=True)


def _solve_quotient(kind: ParamKind, q: LatticeQuotient, deterministic: bool) -> DensityRecord:
    """Exact solve on a quotient that the caller has already validated at
    ``required_radius(kind)``, searching only the orbital root branches."""
    roots = _orbit_roots(q)
    res = solve(build_quotient(q), kind, deterministic=deterministic, _roots=roots)
    return DensityRecord(kind=kind, quotient=q, size=res.value, witness=res.witness, stats=res.stats)


def _induced_map(src: FiniteGraph, dst: FiniteGraph, q: LatticeQuotient, f, what: str) -> list[int]:
    """The vertex map x -> q.reduce_addr(f(x)) from ``src`` to ``dst``, the
    built graph of ``q``, as a list of indices.

    Raises RuntimeError(what) unless the map is a bijection that carries the
    edges of ``src`` onto the edges of ``dst``.
    """
    phi = [dst.index_of(q.reduce_addr(f(lab))) for lab in src.labels]
    if sorted(phi) != list(range(dst.n)) or any(
        {phi[y] for y in src.adj[x]} != set(dst.adj[phi[x]]) for x in range(src.n)
    ):
        raise RuntimeError(what)
    return phi


#: The block translations by (1, 0) and (0, 1), by name: M = I, and every
#: class is shifted by the same vector, so each maps every sublattice onto
#: itself.
_TRANSLATIONS = {
    "translation (1,0)": LatticeSymmetry((1, 0, 0, 1), False, (1, 0), (1, 0), (1, 0)),
    "translation (0,1)": LatticeSymmetry((1, 0, 0, 1), False, (0, 1), (0, 1), (0, 1)),
}


def _orbit_roots(q: LatticeQuotient) -> tuple[tuple[int, int], ...]:
    """Root branches of an orbital search on the built graph of ``q``: force
    ``w(0,0)``; or ban W and V and force ``u(0,0)``.

    In ``quotient_labels`` order the classes are the blocks W = [0, det),
    U = [det, 2 det) and V = [2 det, 3 det), each starting at its (0, 0)
    vertex.  The translations by (1, 0) and (0, 1) generate a group that is
    transitive on each block, and the 180-degree rotation (M = -I maps every
    sublattice onto itself) swaps W and V.  So an optimum that meets W or V
    has a copy containing ``w(0,0)``, and any other nonempty one has a copy
    inside U containing ``u(0,0)``.

    All three maps are certified by arithmetic, with no graph built:
    :func:`tumbling.quotient.induces_isomorphism` from ``q`` onto itself,
    whose lattice half is cached, so each map is checked against the
    lattice once per process.  The rotation's ``swap`` flag carries W onto
    V.  Raises RuntimeError if a certificate fails.
    """
    for name, t in _TRANSLATIONS.items():
        if not induces_isomorphism(t, q, q):
            raise RuntimeError(f"{name} is not an automorphism of quotient {q}")
    half_turn = quotient.POINT_GROUP[3]
    if not induces_isomorphism(half_turn, q, q):
        raise RuntimeError(f"rotation {half_turn} is not an automorphism of quotient {q}")
    if not half_turn.swap:
        raise RuntimeError(f"rotation {half_turn} does not swap W and V on quotient {q}")
    det = q.det
    w_block = (1 << det) - 1
    return ((1, 0), (1 << det, w_block | w_block << 2 * det))


def _thread_budget() -> int:
    env = os.environ.get("TB_THREADS", "").strip()
    if env:
        try:
            return max(1, int(env))
        except ValueError:
            raise ValueError(f"TB_THREADS must be an integer, got {env!r}") from None
    return os.cpu_count() or 1


def valid_quotients(max_det: int, radius: int) -> list[LatticeQuotient]:
    return [q for q in enumerate_hnf(max_det) if validate_quotient(q, radius)]


def density_sweep(kind: ParamKind, max_det: int, threads: int | None = None) -> list[DensityRecord]:
    """Optimum of the parameter on every validated quotient with det <= max_det.

    Only the first quotient of each point-group orbit is solved; the other
    members take its size and density, and its witness mapped through the
    symmetry (see :func:`_carry_record`).  Records come back in (det, a, c)
    order, one per valid quotient, regardless of how many worker processes
    ran, so downstream folds are deterministic.  Witnesses are the ones the
    proofs found, not canonical ones, and carried witnesses are images of
    those; the optimum values never depend on which optimum a proof finds.
    """
    quots, orbits, solved = _solve_orbits(kind, max_det, threads)
    rep_graphs: dict[LatticeQuotient, FiniteGraph] = {}

    def carried(q: LatticeQuotient) -> DensityRecord:
        rep, g = orbits[q]
        if rep not in rep_graphs:
            rep_graphs[rep] = build_quotient(rep)
        return _carry_record(solved[rep], rep_graphs[rep], q, g)

    return [solved[q] if q in solved else carried(q) for q in quots]


def _solve_orbits(
    kind: ParamKind, max_det: int, threads: int | None, stop_at_ceiling: bool = False
) -> tuple[
    list[LatticeQuotient],
    dict[LatticeQuotient, tuple[LatticeQuotient, LatticeSymmetry]],
    dict[LatticeQuotient, DensityRecord],
]:
    """The validated quotients with det <= max_det in (det, a, c) order, their
    orbits (see :func:`quotient_orbits`), and the solved record of each
    orbit representative, in (det, a, c) order, with the witness its proof
    found.

    Before any solve, every other member is certified to be an isomorphic
    image of its representative (:func:`induces_isomorphism`), so it has the
    same optimum; RuntimeError if a certificate fails.  No graph is built
    for a member.  With more than one thread and more than 4
    representatives, a process pool of at most one worker per
    representative takes them largest det first, so that no slow solve
    starts last; otherwise, or if the pool cannot start, they are solved in
    turn in (det, a, c) order.

    With ``stop_at_ceiling`` the representatives are always solved in turn,
    and the sweep stops after the first one whose record has density 1:
    only the representatives solved so far have a record.
    """
    quots = valid_quotients(max_det, required_radius(kind))
    if not quots:
        return [], {}, {}
    orbits = quotient_orbits(quots)
    for q, (rep, g) in orbits.items():
        if rep != q and not induces_isomorphism(g, rep, q):
            raise RuntimeError(f"symmetry {g} does not map quotient {rep} onto {q}")
    reps = [q for q in quots if orbits[q][0] == q]
    if threads is None:
        threads = _thread_budget()
    solve_rep = partial(_solve_quotient, kind, deterministic=False)
    solved: dict[LatticeQuotient, DensityRecord] = {}
    if threads > 1 and len(reps) > 4 and not stop_at_ceiling:
        largest_first = sorted(reps, key=lambda q: -q.det)
        try:
            with ProcessPoolExecutor(max_workers=min(threads, len(reps))) as pool:
                pooled = dict(zip(largest_first, pool.map(solve_rep, largest_first)))
            solved = {q: pooled[q] for q in reps}
        except OSError as exc:
            _log.warning("process pool unavailable (%s); solving %d quotients serially", exc, len(reps))
    if not solved:
        for q in reps:
            solved[q] = solve_rep(q)
            if stop_at_ceiling and solved[q].density == 1:
                break

    orbit_size = Counter(rep for rep, _g in orbits.values())
    for q, record in solved.items():
        _log.debug(
            "%s on %s: orbit of %d, %d nodes, %d parts, %.3fs",
            kind.value, q, orbit_size[q], record.stats.nodes, record.stats.parts, record.stats.elapsed,
        )
    if len(solved) < len(reps):
        extent = f"stopped at density 1 after {len(solved)} of {len(reps)} representatives"
    else:
        extent = f"{len(reps)} representatives solved"
    records = solved.values()
    slowest = max(records, key=lambda record: record.stats.elapsed)
    _log.info(
        "%s sweep to det %d: %d valid quotients, %s, slowest %s (%.3fs), proof %d nodes in %.3fs",
        kind.value, max_det, len(quots), extent, slowest.quotient, slowest.stats.elapsed,
        sum(r.stats.nodes for r in records), sum(r.stats.proof_s for r in records),
    )
    return quots, orbits, solved


def _carry_record(rec: DensityRecord, src: FiniteGraph, q: LatticeQuotient, g: LatticeSymmetry) -> DensityRecord:
    """The record of ``rec``, whose quotient's built graph is ``src``, carried
    onto quotient ``q`` by the vertex map x -> q.reduce_addr(g.apply(x)).

    Raises RuntimeError unless the map is an isomorphism of the two quotient
    graphs and the carried witness passes ``verify_witness`` on q's graph.
    """
    dst = build_quotient(q)
    phi = _induced_map(src, dst, q, g.apply, f"symmetry {g} does not map quotient {rec.quotient} onto {q}")
    witness = tuple(sorted(phi[x] for x in rec.witness))
    if not verify_witness(dst, rec.kind, witness, rec.size):
        raise RuntimeError(f"witness carried from {rec.quotient} fails re-verification on {q}")
    return replace(rec, quotient=q, witness=witness)


def search(kind: ParamKind, max_det: int, threads: int | None = None) -> DensityRecord:
    """Best validated quotient pattern: minimum density, or maximum covered
    fraction for the packing parameters.  Ties break toward (det, a, c).

    Only orbit representatives are solved.  Every other member is certified
    to have its representative's optimum and comes later in (det, a, c)
    order, so it never wins the tie-break.

    A packing covers at most every vertex, so a search for F or F-OP is
    serial, whatever ``threads`` says: it stops at the first representative,
    in (det, a, c) order, whose packing has density 1, since nothing later
    can beat it or win the tie-break.  The winner is solved once more for
    its canonical witness."""
    _quots, _orbits, solved = _solve_orbits(kind, max_det, threads, stop_at_ceiling=not kind.minimizes)
    if not solved:
        raise NoValidQuotientError(
            f"no quotient with det <= {max_det} validates at radius {required_radius(kind)}"
        )

    def key(rec: DensityRecord):
        lead = rec.density if kind.minimizes else -rec.density
        return (lead, rec.quotient.det, rec.quotient.a, rec.quotient.c)

    best = min(solved.values(), key=key)
    # canonical witness for the winner only; the sweep skips the lex pass.
    # The winner is already validated.
    return _solve_quotient(kind, best.quotient, deterministic=True)


def perfect_open_pattern(max_det: int) -> DensityRecord:
    """Smallest validated quotient whose open neighborhoods admit an exact cover.

    That is the ``search`` winner for F-OP when its packing covers every
    vertex (density 1), so the search stops there.  The returned record
    stores the pattern itself: ``size`` is the pattern cardinality, and a
    perfect open-dominating pattern always has density exactly 2/9 on this
    lattice (one U and one W/V neighbor-source per nine vertices)."""
    rec = search(ParamKind.F_OP_MAX, max_det)
    if rec.density != 1:
        raise NoValidQuotientError(
            f"no exact open cover found on validated quotients with det <= {max_det}"
        )
    return replace(rec, size=len(rec.witness), exact_cover=True)


# ---------------------------------------------------------------------------
# independent verification on finite windows of the infinite lattice
# ---------------------------------------------------------------------------

def _interior(window: FiniteGraph, radius: int) -> list[int]:
    """The vertices of a labeled window whose whole radius-ball in the
    lattice is in the window: every offset of the vertex's class ball
    (:func:`tumbling.lattice.ball_offsets`) lands on a window label."""
    present = set(window.labels)
    return [
        k for k, (cls, i, j) in enumerate(window.labels)
        if all((c, i + di, j + dj) in present for c, di, dj in ball_offsets(cls, radius))
    ]


@lru_cache(maxsize=4)
def _lift_window(r: int, s: int) -> FiniteGraph:
    """The TBP r x s window of :func:`lift_check`, built by
    :func:`tumbling.lattice.build_family` (no code shared with
    ``build_quotient``) once per process; a FiniteGraph is immutable, so
    every check shares it."""
    return build_family(FamilySpec(FamilyKind.TBP, r, s))


@lru_cache(maxsize=8)
def _window_interior(r: int, s: int, radius: int) -> tuple[int, ...]:
    """:func:`_interior` of the r x s lift window, once per process."""
    return tuple(_interior(_lift_window(r, s), radius))


def lift_check(record: DensityRecord, window_r: int, window_s: int) -> bool:
    """Tile the pattern over a parallelogram window and run the kind's
    definitional predicate on the window's interior: the vertices whose full
    validation ball lies inside the window, where the window graph's
    adjacency is the lattice's.

    A window vertex is in the pattern when the quotient index of its orbit
    (:meth:`LatticeQuotient.index`) is a witness vertex, and the interior
    comes from a per-class table of ball offsets (:func:`_interior`), so no
    quotient graph is built and no ball is searched per vertex.  The window
    and its interior are built on the first check of their size and radius
    and shared by every later one.
    """
    radius = record.validated_radius
    if min(window_r, window_s) < 2 * radius + 2:
        raise ValueError(f"window must be at least {2 * radius + 2} on each side")
    q = record.quotient
    pattern = set(record._checked_witness())

    window = _lift_window(window_r, window_s)
    lifted = frozenset(k for k, (cls, i, j) in enumerate(window.labels) if q.index(cls, i, j) in pattern)
    interior = _window_interior(window_r, window_s, radius)
    value = _objective(window, record.kind, lifted, on=interior)
    # an exact cover hits every interior vertex exactly once
    return value is not None and (not record.exact_cover or value == len(interior))
