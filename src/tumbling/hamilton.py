"""Non-Hamiltonicity evidence: cut certificates, bipartite imbalance, search.

Removing k vertices from a Hamiltonian graph leaves at most k components, so
a vertex set whose removal leaves more components than its size certifies
that no Hamiltonian cycle exists.  On the tumbling-block lattice, deleting
the 19 degree-6 vertices of a radius-2 hexagonal ball isolates 24 vertices.
That ball is read off the lattice itself: its U vertices are those within
distance 4 of the centre (:func:`tumbling.lattice.tb_ball`), since every
step between U vertices passes through one W or V vertex.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .graph import FiniteGraph, bipartition
from .lattice import VClass, VertexAddr, tb_ball, u

HAMILTON_SEARCH_MAX_N = 30


@dataclass(frozen=True)
class CutCertificate:
    removed: tuple[int, ...]
    components_after: int
    isolated_after: int

    @property
    def certifies(self) -> bool:
        """More components than removed vertices rules out a Hamiltonian cycle."""
        return self.components_after > len(self.removed)


def hex_ball_cut_set(i: int, j: int) -> tuple[VertexAddr, ...]:
    """The 19 degree-6 vertices of the radius-2 hexagonal ball around u(i, j):
    the U vertices within distance 4 of it in the lattice."""
    return tuple(sorted(x for x in tb_ball(u(i, j), 4) if x.cls == VClass.U))


def verify_cut(g: FiniteGraph, S: Iterable[int]) -> CutCertificate:
    """Count components and isolated vertices of g - S."""
    S = g.check_vertex_set(S)
    seen = set(S)
    components = 0
    isolated = 0
    for start in range(g.n):
        if start in seen:
            continue
        components += 1
        stack = [start]
        seen.add(start)
        size = 0
        while stack:
            x = stack.pop()
            size += 1
            for y in g.adj[x]:
                if y not in seen:
                    seen.add(y)
                    stack.append(y)
        if size == 1:
            isolated += 1
    return CutCertificate(
        removed=tuple(sorted(S)),
        components_after=components,
        isolated_after=isolated,
    )


def bipartite_balance(g: FiniteGraph) -> tuple[int, int, bool]:
    """Part sizes in ascending order; a Hamiltonian bipartite graph is balanced."""
    p, q = bipartition(g)
    a, b = sorted((len(p), len(q)))
    return a, b, a == b


def find_hamiltonian_cycle(g: FiniteGraph) -> Optional[tuple[int, ...]]:
    """Exhaustive backtracking; returns a cycle as a vertex sequence, or None.

    None is a proof of absence: the search space is exhausted.  Capped at
    n <= 30 to keep worst cases within reach.
    """
    if g.n > HAMILTON_SEARCH_MAX_N:
        raise ValueError(f"exhaustive search capped at n <= {HAMILTON_SEARCH_MAX_N}")
    n = g.n
    if n < 3:
        return None
    if any(len(g.adj[v]) < 2 for v in range(n)):
        return None
    masks = g.open_masks()
    full = (1 << n) - 1
    path = [0]

    def extend(v: int, visited: int) -> bool:
        if visited == full:
            return bool(masks[v] & 1)  # close the cycle back to vertex 0
        # any unvisited vertex with < 2 usable endpoints is a dead end
        remaining = full & ~visited
        mm = remaining
        while mm:
            low = mm & -mm
            mm ^= low
            x = low.bit_length() - 1
            usable = masks[x] & (remaining | (1 << v) | 1)
            if usable.bit_count() < 2:
                break
        else:
            cand = masks[v] & ~visited
            while cand:
                low = cand & -cand
                cand ^= low
                nxt = low.bit_length() - 1
                path.append(nxt)
                if extend(nxt, visited | low):
                    return True
                path.pop()
            return False
        return False

    if extend(0, 1):
        return tuple(path)
    return None
