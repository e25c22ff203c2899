"""Exact solvers for the seven domination-type parameters.

The five minimization parameters (domination, open domination, locating-
dominating, identifying code, open-locating-dominating) all reduce to a
minimum hitting set over per-vertex and per-pair requirement masks; the two
maximization parameters (efficient domination and efficient open domination)
reduce to maximum disjoint-neighborhood packing.  Branch and bound proves
optimality; ``brute_force`` re-derives every value by plain enumeration and
serves as the independent oracle in the test suite.

Before the proof, ``solve`` splits what it searches into parts with
disjoint vertex supports (:func:`_parts`): the connected components of a
cover's dominance-filtered requirement masks, and of a packing's coverage
masks (two vertices conflict exactly when their coverage masks meet, so
these are the components of the conflict table).  No requirement of one
part holds a vertex of another, and no vertex of one part conflicts with a
vertex of another, so a set meets the kind's conditions exactly when its
trace on every part does.  The optimum is then the sum of the parts'
optima, and the union of an optimal set of each part is optimal.  The
tumbling-block lattice is bipartite (U against W and V), and every open
neighbourhood lies on one side, so gamma-op, OLD and F-OP fall apart into
at least two parts, and the proof no longer searches the product of two
independent problems.

Roots are the one thing the parts share: a root constrains every part at
once, and a set must meet one root on all of them together.  So each root
is valued on its own (:func:`_prove_apart`): each part is searched from
that root's restriction to the part's support, the parts' optima are
summed (with the forced vertices of a cover that lie outside every part),
and the best root wins, the first among ties.  Taking each part's best
root separately could join the forced vertices of two roots into a set
that meets neither.  A family of one part makes the one multi-root kernel
call of a joint search.
"""

from __future__ import annotations

import enum
import time
from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Optional

from ._backend import kernels_for
from .graph import FiniteGraph

BRUTE_FORCE_MAX_N = 24


class ParamKind(enum.Enum):
    GAMMA = "gamma"            # minimum dominating set
    GAMMA_OP = "gamma-op"      # minimum open (total) dominating set
    F_MAX = "f"                # most vertices dominated at most once
    F_OP_MAX = "f-op"          # most vertices openly dominated at most once
    LD = "ld"                  # minimum locating-dominating set
    IC = "ic"                  # minimum identifying code
    OLD = "old"                # minimum open-locating-dominating set

    @property
    def minimizes(self) -> bool:
        return self not in (ParamKind.F_MAX, ParamKind.F_OP_MAX)


class InfeasibleError(ValueError):
    """The parameter does not exist on this graph (twins or isolated vertices)."""

    def __init__(self, message: str, pairs=(), vertices=()):
        super().__init__(message)
        self.pairs = tuple(pairs)
        self.vertices = tuple(vertices)


@dataclass(frozen=True)
class SolveStats:
    """Work of one solve.

    ``nodes`` and ``proof_s`` are the optimizing kernel's nodes and seconds,
    summed over the ``parts`` the proof solved apart (:func:`_parts`);
    ``canon_s`` and ``canon_calls`` are the seconds and feasibility-kernel
    calls of the canonical-witness pass (zero when ``deterministic=False``);
    ``elapsed`` covers the whole solve.
    """

    nodes: int
    elapsed: float
    proof_s: float = 0.0
    canon_s: float = 0.0
    canon_calls: int = 0
    parts: int = 1


@dataclass(frozen=True)
class SolveResult:
    kind: ParamKind
    value: int
    witness: tuple[int, ...]
    stats: SolveStats


# ---------------------------------------------------------------------------
# feasibility predicates (direct definitional checks)
#
# With ``on``, a predicate checks only those vertices, and compares codes only
# among them: ``lift_check`` passes the interior of a lattice window.
# ---------------------------------------------------------------------------

def _checked(g: FiniteGraph, on: Optional[Iterable[int]]) -> Iterable[int]:
    """The vertices a predicate checks: all of g, or the distinct vertices ``on``."""
    return range(g.n) if on is None else on


def is_dominating(g: FiniteGraph, S: Iterable[int], on: Optional[Iterable[int]] = None) -> bool:
    """Every vertex (of ``on``, when given) has a member of S in its closed
    neighborhood."""
    S = g.check_vertex_set(S)
    return all(v in S or any(u in S for u in g.adj[v]) for v in _checked(g, on))


def is_open_dominating(g: FiniteGraph, S: Iterable[int], on: Optional[Iterable[int]] = None) -> bool:
    """Every vertex (of ``on``, when given; members of S included) has a
    neighbor in S."""
    S = g.check_vertex_set(S)
    return all(any(u in S for u in g.adj[v]) for v in _checked(g, on))


def _open_code(g: FiniteGraph, S: frozenset, v: int) -> frozenset:
    return S.intersection(g.adj[v])


def _closed_code(g: FiniteGraph, S: frozenset, v: int) -> frozenset:
    code = _open_code(g, S, v)
    return code | {v} if v in S else code


def _distinct_codes(codes: Iterable[frozenset]) -> bool:
    """Every code is nonempty and no two are equal."""
    seen = set()
    for code in codes:
        if not code or code in seen:
            return False
        seen.add(code)
    return True


def is_ld_set(g: FiniteGraph, S: Iterable[int], on: Optional[Iterable[int]] = None) -> bool:
    """Non-members (of ``on``, when given) receive distinct nonempty codes
    N(v) & S."""
    S = g.check_vertex_set(S)
    return _distinct_codes(_open_code(g, S, v) for v in _checked(g, on) if v not in S)


def is_ic_set(g: FiniteGraph, S: Iterable[int], on: Optional[Iterable[int]] = None) -> bool:
    """All vertices (of ``on``, when given) receive distinct nonempty codes
    N[v] & S."""
    S = g.check_vertex_set(S)
    return _distinct_codes(_closed_code(g, S, v) for v in _checked(g, on))


def is_old_set(g: FiniteGraph, S: Iterable[int], on: Optional[Iterable[int]] = None) -> bool:
    """All vertices (of ``on``, when given) receive distinct nonempty codes
    N(v) & S."""
    S = g.check_vertex_set(S)
    return _distinct_codes(_open_code(g, S, v) for v in _checked(g, on))


def _twins(masks: tuple[int, ...]) -> list[tuple[int, int]]:
    """Pairs of vertices with identical masks."""
    by_mask: dict[int, list[int]] = {}
    for v, mask in enumerate(masks):
        by_mask.setdefault(mask, []).append(v)
    return sorted(
        (a, b)
        for group in by_mask.values()
        for a, b in combinations(group, 2)
    )


def closed_twins(g: FiniteGraph) -> list[tuple[int, int]]:
    """Pairs with identical closed neighborhoods (obstructions to IC)."""
    return _twins(g.closed_masks())


def open_twins(g: FiniteGraph) -> list[tuple[int, int]]:
    """Pairs with identical open neighborhoods (obstructions to OLD)."""
    return _twins(g.open_masks())


# ---------------------------------------------------------------------------
# requirement construction
# ---------------------------------------------------------------------------

def _check_feasible(g: FiniteGraph, kind: ParamKind) -> None:
    if kind in (ParamKind.GAMMA_OP, ParamKind.OLD):
        isolated = [v for v in range(g.n) if not g.adj[v]]
        if isolated:
            raise InfeasibleError(
                f"{kind.value}: isolated vertices {isolated} cannot be openly dominated",
                vertices=isolated,
            )
    if kind == ParamKind.IC:
        pairs = closed_twins(g)
        if pairs:
            raise InfeasibleError(
                f"ic: closed twins {pairs} cannot be told apart", pairs=pairs
            )
    if kind == ParamKind.OLD:
        pairs = open_twins(g)
        if pairs:
            raise InfeasibleError(
                f"old: open twins {pairs} cannot be told apart", pairs=pairs
            )


def _cover_requirements(g: FiniteGraph, kind: ParamKind) -> list[int]:
    """Hitting-set masks whose minimum hitting sets are exactly the optima.

    Domination becomes one mask per vertex.  Code distinctness becomes one
    mask per vertex pair with intersecting code masks: their symmetric
    difference separates the codes, and for LD the pair is also settled by
    putting either endpoint into the set.  Pairs with disjoint code masks
    are separated automatically once both are dominated, so they are
    omitted.
    """
    closed = g.closed_masks()
    opened = g.open_masks()
    # kind -> (masks to dominate, code masks of the pairs to separate)
    try:
        dominate, codes = {
            ParamKind.GAMMA: (closed, ()),
            ParamKind.GAMMA_OP: (opened, ()),
            ParamKind.LD: (closed, opened),
            ParamKind.IC: (closed, closed),
            ParamKind.OLD: (opened, opened),
        }[kind]
    except KeyError:
        raise ValueError(f"{kind} is not a covering parameter") from None
    n = len(codes)
    # the endpoint bits of LD's pairs; no other kind's pair masks have any
    ends = [1 << v for v in range(n)] if kind == ParamKind.LD else [0] * n
    reqs = list(dominate)
    for a in range(n):
        code, end = codes[a], ends[a]
        for b in range(a + 1, n):
            if code & codes[b]:
                reqs.append((code ^ codes[b]) | end | ends[b])
    return reqs


_PREDICATES = {
    ParamKind.GAMMA: is_dominating,
    ParamKind.GAMMA_OP: is_open_dominating,
    ParamKind.LD: is_ld_set,
    ParamKind.IC: is_ic_set,
    ParamKind.OLD: is_old_set,
}


def _objective(
    g: FiniteGraph, kind: ParamKind, S: frozenset, on: Optional[Iterable[int]] = None
) -> Optional[int]:
    """The kind's objective of the vertex set S if S meets the kind's
    definition on the vertices ``on`` (all of g by default), else None.

    For a minimizing kind that is |S| when the kind's predicate holds.  For
    a packing it is the covered count when S dominates each vertex at most
    once: by closed neighborhoods for F, by open ones for F-OP.
    """
    if kind.minimizes:
        return len(S) if _PREDICATES[kind](g, S, on) else None
    code = _closed_code if kind == ParamKind.F_MAX else _open_code
    covered = 0
    for v in _checked(g, on):
        hits = len(code(g, S, v))
        if hits > 1:
            return None
        covered += hits
    return covered


def verify_witness(g: FiniteGraph, kind: ParamKind, witness: Iterable[int], value: int) -> bool:
    """Re-check a claimed witness against the kind's definition and value."""
    return _objective(g, kind, g.check_vertex_set(witness)) == value


# ---------------------------------------------------------------------------
# exact solvers
# ---------------------------------------------------------------------------

def _mask_to_tuple(mask: int) -> tuple[int, ...]:
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return tuple(out)


def _dominance_filter(masks: list[int]) -> list[int]:
    """Drop requirements implied by a subset requirement (hit A => hit B when A <= B).

    The result, smallest masks first, is the scan order of the cover kernels.
    A kept subset of m has its lowest vertex in m, so m is checked only
    against the kept masks whose lowest bit m contains.
    """
    masks = sorted(set(masks), key=lambda m: m.bit_count())
    if masks and masks[0] == 0:
        return [0]  # the empty requirement is a subset of every other
    kept: list[int] = []
    by_lowest: dict[int, list[int]] = {}
    for m in masks:
        if not any(k & m == k for low, filed in by_lowest.items() if low & m for k in filed):
            kept.append(m)
            by_lowest.setdefault(m & -m, []).append(m)
    return kept


def _conflicts(cov: list[int]) -> list[int]:
    """Conflict table of a packing, the ``conf`` of the packing kernels: bit
    b of entry a is set when b != a and ``cov[a] & cov[b]``.  Built from
    coverage incidence: entry a is the OR, over the vertices x in
    ``cov[a]``, of the vertices whose coverage holds x."""
    holders = [0] * max((m.bit_length() for m in cov), default=0)
    for a, m in enumerate(cov):
        bit = 1 << a
        while m:
            low = m & -m
            m ^= low
            holders[low.bit_length() - 1] |= bit
    conf = []
    for a, m in enumerate(cov):
        near = 0
        while m:
            low = m & -m
            m ^= low
            near |= holders[low.bit_length() - 1]
        conf.append(near & ~(1 << a))
    return conf


def _parts(n: int, sets: list[int]) -> list[tuple[int, list[int]]]:
    """The connected components of the nonempty ``sets`` (sets of the n
    vertices, joined when they share a vertex), when there are two or more:
    a (support, indices of its sets) pair per component, lowest vertex
    first.  With one component or none there is nothing to prove apart, and
    the list is empty.

    One sweep from the last set back grows a component from the largest
    mask (by value); when it takes in every vertex the sets hold, the family
    is connected, as most are.  Otherwise union-find over the n vertices
    finds the components, so the cost is near-linear in the sets' total
    size whatever their order.
    """
    comp, total = max(sets, default=0), 0
    for m in reversed(sets):
        total |= m
        if m & comp:
            comp |= m
    if comp == total:
        return []
    lead = list(range(n))

    def find(v: int) -> int:
        while lead[v] != v:
            lead[v] = v = lead[lead[v]]
        return v

    for m in sets:
        if m:
            a = find((m & -m).bit_length() - 1)
            m &= m - 1
            while m:
                lead[find((m & -m).bit_length() - 1)] = a
                m &= m - 1
    groups: dict[int, tuple[int, list[int]]] = {}
    for i, m in enumerate(sets):
        if m:
            a = find((m & -m).bit_length() - 1)
            support, members = groups.get(a, (0, []))
            members.append(i)
            groups[a] = (support | m, members)
    return sorted(groups.values(), key=lambda part: part[0] & -part[0]) if len(groups) > 1 else []


def _kernel_bug(kind: ParamKind, n: int, what: str) -> RuntimeError:
    return RuntimeError(f"kernel bug: {kind.value} on n={n}: {what}")


def _check_call(found, kind: ParamKind, n: int, forced: int, banned: int, limit: int, fault) -> int:
    """``found`` after checking that it meets the kernel call that returned
    it: a mask of at most ``limit`` of the n vertices, with every forced
    vertex and no banned one, that passes the engine's test (``fault``
    returns None, or what is wrong)."""
    if type(found) is not int or found < 0 or found >> n:
        raise _kernel_bug(kind, n, f"returned {found!r}, not a vertex mask")
    if found & forced != forced:
        raise _kernel_bug(kind, n, "witness lacks a forced vertex")
    if found & banned:
        raise _kernel_bug(kind, n, "witness includes a banned vertex")
    if found.bit_count() > limit:
        raise _kernel_bug(kind, n, f"witness has {found.bit_count()} vertices, over the limit {limit}")
    what = fault(found)
    if what is not None:
        raise _kernel_bug(kind, n, what)
    return found


def _pack_fault(cov: list[int], best: int, found: int) -> str | None:
    """What is wrong with ``found`` as a packing that covers ``best``
    vertices, or None."""
    covered = 0
    for v in _mask_to_tuple(found):
        if cov[v] & covered:
            return "witness has overlapping coverage masks"
        covered |= cov[v]
    if covered.bit_count() < best:
        return f"witness covers {covered.bit_count()} vertices, not {best}"
    return None


def _pack_size_bound(cov: list[int], best: int) -> int:
    """Fewest coverage masks, largest first, whose sizes sum to at least best:
    no smaller packing can cover best vertices."""
    size = 0
    total = 0
    for c in sorted((m.bit_count() for m in cov), reverse=True):
        if total >= best:
            break
        total += c
        size += 1
    return size


def _canonical(n: int, fewest: int, witness: int, feasible) -> tuple[int, int]:
    """The canonical optimal set, fewest vertices and then lexicographically
    least, and the number of ``feasible(forced, banned, size)`` calls made.

    ``witness`` is an optimal set, and none has fewer than ``fewest``
    vertices.  A call returns an optimal set of at most ``size`` vertices,
    with every forced vertex and no banned one, or None.  The size is the
    first from ``fewest`` up to the witness's at which some optimal set
    exists.  Then vertices are decided in index order; each is taken when
    some optimal set of that size extends the choices so far.  ``witness``
    is always such a set, so a vertex in it is taken with no search, and any
    other vertex costs one call, which either bans it or supplies the next
    witness.
    """
    calls = 0
    size = witness.bit_count()
    for cap in range(fewest, size):
        calls += 1
        found = feasible(0, 0, cap)
        if found is not None:
            witness, size = found, cap
            break
    chosen = banned = count = 0
    for vtx in range(n):
        if count == size:
            break
        bit = 1 << vtx
        if not witness & bit:
            calls += 1
            found = feasible(chosen | bit, banned, size)
            if found is None:
                banned |= bit
                continue
            witness = found
        chosen |= bit
        count += 1
    return chosen, calls


def _prove_apart(parts, search, roots, minimizes: bool) -> tuple[int, int, int]:
    """(optimum, witness mask, nodes) over the sets that meet some root,
    proven one part at a time: ``parts`` is :func:`_parts`'s list, and
    ``search(i, forced, banned)`` is the kernel proof of part i alone from
    one root, or raises ValueError when the root admits no set.

    A root's value is the sum of its parts' optima, plus one for each forced
    vertex of a cover outside every part.  The best root wins, the first
    among ties, and its witness is the union of its parts' witnesses.  A
    part is searched at most once per distinct restriction of a root to its
    support, and not at all when the restriction bans all of it: only the
    empty set is left, which meets no requirement of a cover and packs
    nothing.  A search that raises adds no nodes.

    A weaker restriction of a part (fewer forced and banned vertices) has an
    optimum at least as good, so the parts' optima found so far bound a
    later root's value.  A root whose bound cannot beat the best is skipped
    unsearched: with the orbital roots of a quotient, the root that bans W
    and V leaves the W/V part of an open cover no set, and packs nothing
    there but what the first root's U part already packed.
    """
    outside = 0
    for support, _members in parts:
        outside |= support
    outside = ~outside
    # per part: (forced, banned) restriction -> (value, witness, nodes), or
    # None when the part admits no set under it
    optima: list[dict[tuple[int, int], tuple[int, int, int] | None]] = [{} for _ in parts]
    best = None
    nodes = 0
    for forced, banned in roots:
        if forced & banned:
            continue
        witness = forced & outside
        value = witness.bit_count() if minimizes else 0
        keys = [(forced & support, banned & support) for support, _members in parts]
        for (support, _members), known, (f, b) in zip(parts, optima, keys):
            if not support & ~b:
                known[f, b] = None if minimizes else (0, 0, 0)
        if best is not None and not _may_beat(optima, keys, value, best[0], minimizes):
            continue
        for known, (i, key) in zip(optima, enumerate(keys)):
            if key not in known:
                try:
                    known[key] = search(i, *key)
                    nodes += known[key][2]
                except ValueError:
                    known[key] = None
            found = known[key]
            if found is None:
                break
            value += found[0]
            witness |= found[1]
        else:
            if best is None or (value < best[0] if minimizes else value > best[0]):
                best = value, witness
    if best is None:
        raise ValueError("infeasible: no root admits a set")
    return best[0], best[1], nodes


def _may_beat(optima, keys, value: int, best: int, minimizes: bool) -> bool:
    """Whether a root with these part restrictions, and ``value`` from the
    vertices outside every part, may beat ``best``, judged by the optima of
    restrictions no stronger than its own (:func:`_prove_apart`)."""
    bound = value
    for known, (f, b) in zip(optima, keys):
        weaker = [found for (f2, b2), found in known.items() if not f2 & ~f and not b2 & ~b]
        if None in weaker:
            return False
        values = [found[0] for found in weaker]
        if minimizes:
            bound += max(values, default=0)
        elif values:
            bound += min(values)
        else:
            return True
    return bound < best if minimizes else bound > best


def solve(g: FiniteGraph, kind: ParamKind, deterministic: bool = True, *, _roots=None) -> SolveResult:
    """Prove the exact parameter value and return a verified witness.

    With ``deterministic`` (the default) the witness is re-selected to be the
    canonical optimal one (:func:`_canonical`), so repeated and concurrent
    runs agree bit for bit.

    ``_roots`` is for callers that know the graph's symmetry: the proof
    searches only from those ``(forced, banned)`` start nodes (see
    ``_kernels_py``), so some optimum must meet one of them.  By default
    there is one unconstrained root and no symmetry is assumed.
    """
    t0 = time.perf_counter()
    _check_feasible(g, kind)
    kern = kernels_for(g.n)
    n = g.n
    roots = ((0, 0),) if _roots is None else tuple(_roots)
    # per engine: the proof, the feasibility call, the test of a witness, the
    # fewest vertices of an optimum and the size limit of the proof's witness
    if kind.minimizes:
        reqs = _dominance_filter(_cover_requirements(g, kind))
        parts = _parts(n, reqs)
        t_proof = time.perf_counter()
        if parts:
            masks = [[reqs[i] for i in members] for _support, members in parts]
            search = lambda i, forced, banned: kern.solve_cover(n, masks[i], ((forced, banned),))
            value, wit_mask, nodes = _prove_apart(parts, search, roots, True)
        else:
            value, wit_mask, nodes = kern.solve_cover(n, reqs, roots)
        t_canon = time.perf_counter()
        call = lambda forced, banned, size: kern.cover_feasible(n, reqs, forced, banned, size)
        fault = lambda found: None if all(m & found for m in reqs) else "witness misses a requirement"
        fewest = limit = value
    else:
        cov = list(g.closed_masks() if kind == ParamKind.F_MAX else g.open_masks())
        conf = _conflicts(cov)
        # two vertices conflict when their coverage masks share a vertex, so
        # the components of the coverage masks are those of the conflicts
        parts = [(sum(1 << v for v in members), members) for _covered, members in _parts(n, cov)]
        t_proof = time.perf_counter()
        if parts:
            # a part's search bans every vertex outside it
            outside = [((1 << n) - 1) & ~support for support, _members in parts]
            search = lambda i, forced, banned: kern.solve_pack(n, cov, ((forced, banned | outside[i]),), conf)
            value, wit_mask, nodes = _prove_apart(parts, search, roots, False)
        else:
            value, wit_mask, nodes = kern.solve_pack(n, cov, roots, conf)
        t_canon = time.perf_counter()
        call = lambda forced, banned, size: kern.pack_feasible(n, cov, forced, banned, value, size, conf)
        fault = lambda found: _pack_fault(cov, value, found)
        fewest, limit = _pack_size_bound(cov, value), n

    def feasible(forced: int, banned: int, size: int) -> int | None:
        found = call(forced, banned, size)
        return None if found is None else _check_call(found, kind, n, forced, banned, size, fault)

    _check_call(wit_mask, kind, n, 0, 0, limit, fault)
    if not any(wit_mask & forced == forced and not wit_mask & banned for forced, banned in roots):
        raise _kernel_bug(kind, n, "witness meets no root")
    wit_mask, calls = _canonical(n, fewest, wit_mask, feasible) if deterministic else (wit_mask, 0)
    t_end = time.perf_counter()
    witness = _mask_to_tuple(wit_mask)
    if not verify_witness(g, kind, witness, value):
        raise RuntimeError(f"solver bug: witness failed re-verification for {kind}")
    stats = SolveStats(
        nodes=nodes,
        elapsed=time.perf_counter() - t0,
        proof_s=t_canon - t_proof,
        canon_s=t_end - t_canon if deterministic else 0.0,
        canon_calls=calls,
        parts=len(parts) or 1,
    )
    return SolveResult(kind=kind, value=value, witness=witness, stats=stats)


def has_efficient_dominating(g: FiniteGraph) -> bool:
    """True iff some packing dominates every vertex exactly once."""
    return solve(g, ParamKind.F_MAX, deterministic=False).value == g.n


def has_efficient_open_dominating(g: FiniteGraph) -> bool:
    """True iff the open neighborhoods of some set partition the vertices."""
    return solve(g, ParamKind.F_OP_MAX, deterministic=False).value == g.n


# ---------------------------------------------------------------------------
# independent oracle
# ---------------------------------------------------------------------------

def brute_force(g: FiniteGraph, kind: ParamKind) -> SolveResult:
    """Plain enumeration in canonical subset order; oracle for the solvers."""
    if g.n > BRUTE_FORCE_MAX_N:
        raise ValueError(f"brute force capped at n <= {BRUTE_FORCE_MAX_N}")
    t0 = time.perf_counter()
    _check_feasible(g, kind)
    checked = 0
    if kind.minimizes:
        for k in range(g.n + 1):
            for S in combinations(range(g.n), k):
                checked += 1
                if _objective(g, kind, frozenset(S)) is not None:
                    return SolveResult(kind, k, S, SolveStats(checked, time.perf_counter() - t0))
        raise InfeasibleError(f"{kind.value}: no feasible set exists")
    best_key = None
    best = None

    def extend(S: list[int], start: int):
        nonlocal best_key, best, checked
        checked += 1
        value = _objective(g, kind, frozenset(S))
        if value is None:
            return  # supersets also over-dominate someone
        key = (-value, len(S), tuple(S))
        if best_key is None or key < best_key:
            best_key = key
            best = (value, tuple(S))
        for v in range(start, g.n):
            S.append(v)
            extend(S, v + 1)
            S.pop()

    extend([], 0)
    value, witness = best
    return SolveResult(kind, value, witness, SolveStats(checked, time.perf_counter() - t0))
