"""Exact solvers for the seven domination-type parameters.

The five minimization parameters (domination, open domination, locating-
dominating, identifying code, open-locating-dominating) all reduce to a
minimum hitting set over per-vertex and per-pair requirement masks; the two
maximization parameters (efficient domination and efficient open domination)
reduce to maximum disjoint-neighborhood packing.  Branch and bound proves
optimality; ``brute_force`` re-derives every value by plain enumeration and
serves as the independent oracle in the test suite.
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
    nodes: int
    elapsed: float


@dataclass(frozen=True)
class SolveResult:
    kind: ParamKind
    value: int
    witness: tuple[int, ...]
    optimal: bool
    stats: SolveStats

    def witness_labels(self, g: FiniteGraph):
        return tuple(g.labels[v] for v in self.witness)


# ---------------------------------------------------------------------------
# feasibility predicates (direct definitional checks)
# ---------------------------------------------------------------------------

def is_dominating(g: FiniteGraph, S: Iterable[int]) -> bool:
    """Every vertex has a member of S in its closed neighborhood."""
    S = g.check_vertex_set(S)
    return all(v in S or any(u in S for u in g.adj[v]) for v in range(g.n))


def is_open_dominating(g: FiniteGraph, S: Iterable[int]) -> bool:
    """Every vertex (members of S included) has a neighbor in S."""
    S = g.check_vertex_set(S)
    return all(any(u in S for u in g.adj[v]) for v in range(g.n))


def _open_code(g: FiniteGraph, S: frozenset, v: int) -> frozenset:
    return frozenset(u for u in g.adj[v] if u in S)


def _closed_code(g: FiniteGraph, S: frozenset, v: int) -> frozenset:
    code = _open_code(g, S, v)
    return code | {v} if v in S else code


def is_ld_set(g: FiniteGraph, S: Iterable[int]) -> bool:
    """Non-members receive distinct nonempty codes N(v) & S."""
    S = g.check_vertex_set(S)
    codes = {}
    for v in range(g.n):
        if v in S:
            continue
        code = _open_code(g, S, v)
        if not code or code in codes:
            return False
        codes[code] = v
    return True


def is_ic_set(g: FiniteGraph, S: Iterable[int]) -> bool:
    """All vertices receive distinct nonempty codes N[v] & S."""
    S = g.check_vertex_set(S)
    codes = set()
    for v in range(g.n):
        code = _closed_code(g, S, v)
        if not code or code in codes:
            return False
        codes.add(code)
    return True


def is_old_set(g: FiniteGraph, S: Iterable[int]) -> bool:
    """All vertices receive distinct nonempty codes N(v) & S."""
    S = g.check_vertex_set(S)
    codes = set()
    for v in range(g.n):
        code = _open_code(g, S, v)
        if not code or code in codes:
            return False
        codes.add(code)
    return True


def _packing_value(g: FiniteGraph, S: frozenset, closed: bool) -> Optional[int]:
    """Covered-vertex count if S dominates each vertex at most once, else None."""
    covered = 0
    for v in range(g.n):
        hits = sum(1 for u in g.adj[v] if u in S)
        if closed and v in S:
            hits += 1
        if hits > 1:
            return None
        covered += hits
    return covered


def closed_twins(g: FiniteGraph) -> list[tuple[int, int]]:
    """Pairs with identical closed neighborhoods (obstructions to IC)."""
    masks = g.closed_masks()
    by_mask: dict[int, list[int]] = {}
    for v in range(g.n):
        by_mask.setdefault(masks[v], []).append(v)
    return sorted(
        (a, b)
        for group in by_mask.values()
        for a, b in combinations(group, 2)
    )


def open_twins(g: FiniteGraph) -> list[tuple[int, int]]:
    """Pairs with identical open neighborhoods (obstructions to OLD)."""
    masks = g.open_masks()
    by_mask: dict[int, list[int]] = {}
    for v in range(g.n):
        by_mask.setdefault(masks[v], []).append(v)
    return sorted(
        (a, b)
        for group in by_mask.values()
        for a, b in combinations(group, 2)
    )


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
    mask per vertex pair with intersecting neighborhoods: the symmetric
    difference of the neighborhoods separates the codes, and for LD the pair
    is also settled by putting either endpoint into the set.  Pairs with
    disjoint neighborhoods are separated automatically once both are
    dominated, so they are omitted.
    """
    closed = g.closed_masks()
    opened = g.open_masks()
    if kind == ParamKind.GAMMA:
        return list(closed)
    if kind == ParamKind.GAMMA_OP:
        return list(opened)
    if kind == ParamKind.LD:
        reqs = list(closed)
        for a in range(g.n):
            for b in range(a + 1, g.n):
                if opened[a] & opened[b]:
                    reqs.append((opened[a] ^ opened[b]) | (1 << a) | (1 << b))
        return reqs
    if kind == ParamKind.IC:
        reqs = list(closed)
        for a in range(g.n):
            for b in range(a + 1, g.n):
                if closed[a] & closed[b]:
                    reqs.append(closed[a] ^ closed[b])
        return reqs
    if kind == ParamKind.OLD:
        reqs = list(opened)
        for a in range(g.n):
            for b in range(a + 1, g.n):
                if opened[a] & opened[b]:
                    reqs.append(opened[a] ^ opened[b])
        return reqs
    raise ValueError(f"{kind} is not a covering parameter")


_PREDICATES = {
    ParamKind.GAMMA: is_dominating,
    ParamKind.GAMMA_OP: is_open_dominating,
    ParamKind.LD: is_ld_set,
    ParamKind.IC: is_ic_set,
    ParamKind.OLD: is_old_set,
}


def verify_witness(g: FiniteGraph, kind: ParamKind, witness: Iterable[int], value: int) -> bool:
    """Re-check a claimed witness against the defining predicate and value."""
    S = g.check_vertex_set(witness)
    if kind.minimizes:
        return len(S) == value and _PREDICATES[kind](g, S)
    covered = _packing_value(g, S, closed=(kind == ParamKind.F_MAX))
    return covered == value


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


def _lex_min_cover(kern, n: int, reqs: list[int], k: int) -> int:
    """Lexicographically least hitting set of size exactly k (k = optimum)."""
    chosen = 0
    banned = 0
    count = 0
    for vtx in range(n):
        if count == k:
            break
        bit = 1 << vtx
        if kern.cover_feasible(n, reqs, chosen | bit, banned, k):
            chosen |= bit
            count += 1
        else:
            banned |= bit
    return chosen


def _lex_min_pack(kern, n: int, cov: list[int], best: int, kind: ParamKind) -> int:
    """Canonical optimal packing: fewest vertices, then lexicographically least."""
    size = 0
    while not kern.pack_feasible(n, cov, 0, 0, best, size):
        size += 1
        if size > n:
            raise RuntimeError(
                f"kernel bug: {kind.value} on n={n}: pack_feasible finds no packing "
                f"covering {best} vertices, although solve_pack did"
            )
    chosen = 0
    banned = 0
    count = 0
    for vtx in range(n):
        if count == size:
            break
        bit = 1 << vtx
        if kern.pack_feasible(n, cov, chosen | bit, banned, best, size):
            chosen |= bit
            count += 1
        else:
            banned |= bit
    return chosen


def solve(g: FiniteGraph, kind: ParamKind, deterministic: bool = True) -> SolveResult:
    """Prove the exact parameter value and return a verified witness.

    With ``deterministic`` (the default) the witness is re-selected to be the
    canonical optimal one, so repeated and concurrent runs agree bit for bit.
    """
    t0 = time.perf_counter()
    _check_feasible(g, kind)
    kern = kernels_for(g.n)
    if kind.minimizes:
        reqs = _cover_requirements(g, kind)
        value, wit_mask, nodes = kern.solve_cover(g.n, reqs)
        if deterministic:
            wit_mask = _lex_min_cover(kern, g.n, reqs, value)
    else:
        cov = list(g.closed_masks() if kind == ParamKind.F_MAX else g.open_masks())
        value, wit_mask, nodes = kern.solve_pack(g.n, cov)
        if deterministic:
            wit_mask = _lex_min_pack(kern, g.n, cov, value, kind)
    witness = _mask_to_tuple(wit_mask)
    if not verify_witness(g, kind, witness, value):
        raise RuntimeError(f"solver bug: witness failed re-verification for {kind}")
    stats = SolveStats(nodes=nodes, elapsed=time.perf_counter() - t0)
    return SolveResult(kind=kind, value=value, witness=witness, optimal=True, stats=stats)


def min_dominating(g: FiniteGraph, deterministic: bool = True) -> SolveResult:
    return solve(g, ParamKind.GAMMA, deterministic)


def min_open_dominating(g: FiniteGraph, deterministic: bool = True) -> SolveResult:
    return solve(g, ParamKind.GAMMA_OP, deterministic)


def min_ld(g: FiniteGraph, deterministic: bool = True) -> SolveResult:
    return solve(g, ParamKind.LD, deterministic)


def min_ic(g: FiniteGraph, deterministic: bool = True) -> SolveResult:
    return solve(g, ParamKind.IC, deterministic)


def min_old(g: FiniteGraph, deterministic: bool = True) -> SolveResult:
    return solve(g, ParamKind.OLD, deterministic)


def max_efficient(g: FiniteGraph, deterministic: bool = True) -> SolveResult:
    return solve(g, ParamKind.F_MAX, deterministic)


def max_efficient_open(g: FiniteGraph, deterministic: bool = True) -> SolveResult:
    return solve(g, ParamKind.F_OP_MAX, deterministic)


def has_efficient_dominating(g: FiniteGraph) -> bool:
    """True iff some packing dominates every vertex exactly once."""
    return max_efficient(g, deterministic=False).value == g.n


def has_efficient_open_dominating(g: FiniteGraph) -> bool:
    """True iff the open neighborhoods of some set partition the vertices."""
    return max_efficient_open(g, deterministic=False).value == g.n


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
        predicate = _PREDICATES[kind]
        for k in range(g.n + 1):
            for S in combinations(range(g.n), k):
                checked += 1
                if predicate(g, frozenset(S)):
                    return SolveResult(
                        kind=kind,
                        value=k,
                        witness=S,
                        optimal=True,
                        stats=SolveStats(checked, time.perf_counter() - t0),
                    )
        raise InfeasibleError(f"{kind.value}: no feasible set exists")
    closed = kind == ParamKind.F_MAX
    best_key = None
    best = None

    def extend(S: list[int], start: int):
        nonlocal best_key, best, checked
        checked += 1
        value = _packing_value(g, frozenset(S), closed)
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
    return SolveResult(
        kind=kind,
        value=value,
        witness=witness,
        optimal=True,
        stats=SolveStats(checked, time.perf_counter() - t0),
    )
