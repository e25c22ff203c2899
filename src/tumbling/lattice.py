"""Coordinate system and generators for tumbling-block lattice graphs.

The infinite tumbling block is a planar bipartite graph tiled by 7-vertex,
9-edge blocks (a hexagon subdivided into three quadrilaterals, isomorphic to
the 3-cube minus a vertex).  Vertices carry symbolic addresses: a class
(W, U or V), a block row i and a block column j.  W and V vertices have
degree 3, U vertices have degree 6, and every edge joins a U vertex to a
W or V vertex.

The adjacency convention used throughout:

    u(i,j) ~ w(i,j), w(i,j+1), w(i+1,j+1), v(i,j), v(i-1,j), v(i,j+1)
    w(i,j) ~ u(i,j), u(i,j-1), u(i-1,j-1)
    v(i,j) ~ u(i,j), u(i,j-1), u(i+1,j)

:func:`tb_ball` walks this adjacency breadth first, and :func:`ball_offsets`
keeps each class's ball as offsets from its centre: the quotient layer, the
lift check and the cut certificate read the lattice's balls from here.

Any convention differing by a lattice symmetry yields an isomorphic graph;
this one is validated by the closed-form vertex/edge counts of the finite
families, the 2:1 degree-class densities, and the 19-vertex cut certificate
(see :mod:`tumbling.hamilton`).
"""

from __future__ import annotations

import enum
from dataclasses import dataclass
from functools import cache
from typing import Iterable, NamedTuple

from .graph import FiniteGraph

#: Largest row or column count :class:`FamilySpec` accepts.
MAX_EXTENT = 10**6


class VClass(enum.IntEnum):
    """Vertex class; the integer values fix the canonical order W < U < V."""

    W = 0
    U = 1
    V = 2

    def __str__(self):
        return self.name.lower()


class VertexAddr(NamedTuple):
    """Symbolic address of an infinite-lattice vertex: class, row, column."""

    cls: VClass
    i: int
    j: int

    def __str__(self):
        return f"{self.cls}({self.i},{self.j})"


def w(i: int, j: int) -> VertexAddr:
    return VertexAddr(VClass.W, i, j)


def u(i: int, j: int) -> VertexAddr:
    return VertexAddr(VClass.U, i, j)


def v(i: int, j: int) -> VertexAddr:
    return VertexAddr(VClass.V, i, j)


def tb_neighbors(addr: VertexAddr) -> list[VertexAddr]:
    """Neighbors of ``addr`` in the infinite lattice (6 for U, 3 for W/V)."""
    c, i, j = addr
    if c == VClass.U:
        return [
            VertexAddr(VClass.W, i, j),
            VertexAddr(VClass.W, i, j + 1),
            VertexAddr(VClass.W, i + 1, j + 1),
            VertexAddr(VClass.V, i, j),
            VertexAddr(VClass.V, i - 1, j),
            VertexAddr(VClass.V, i, j + 1),
        ]
    if c == VClass.W:
        return [
            VertexAddr(VClass.U, i, j),
            VertexAddr(VClass.U, i, j - 1),
            VertexAddr(VClass.U, i - 1, j - 1),
        ]
    return [
        VertexAddr(VClass.U, i, j),
        VertexAddr(VClass.U, i, j - 1),
        VertexAddr(VClass.U, i + 1, j),
    ]


def tb_ball(root: VertexAddr, radius: int) -> dict[VertexAddr, int]:
    """Breadth-first distances within the given radius in the infinite lattice."""
    dist = {root: 0}
    frontier = [root]
    for step in range(1, radius + 1):
        nxt = []
        for x in frontier:
            for y in tb_neighbors(x):
                if y not in dist:
                    dist[y] = step
                    nxt.append(y)
        frontier = nxt
    return dist


@cache
def ball_offsets(cls: VClass, radius: int) -> tuple[tuple[int, int, int], ...]:
    """(class, di, dj) of each member of the radius-ball of a class-``cls``
    vertex, relative to the vertex, in breadth-first order: the vertex
    first, then its neighbours in :func:`tb_neighbors` order."""
    return tuple(tuple(y) for y in tb_ball(VertexAddr(cls, 0, 0), radius))


def block_edge_list(i: int, j: int) -> list[tuple[VertexAddr, VertexAddr]]:
    """The nine edges of block (i, j): the hexagon plus three center spokes."""
    hexagon = [u(i, j), w(i, j), u(i, j - 1), w(i + 1, j), u(i + 1, j), w(i + 1, j + 1)]
    edges = [(hexagon[k], hexagon[(k + 1) % 6]) for k in range(6)]
    center = v(i, j)
    edges += [(center, u(i, j)), (center, u(i, j - 1)), (center, u(i + 1, j))]
    return edges


class FamilyKind(enum.Enum):
    TBT = "tbt"
    TBP = "tbp"
    TBR = "tbr"


@dataclass(frozen=True)
class FamilySpec:
    """Shape and size of a finite family member; ``s`` is ignored for TBT."""

    kind: FamilyKind
    r: int
    s: int = 1

    def __post_init__(self):
        if self.r < 1 or self.s < 1:
            raise ValueError(f"family sizes must be >= 1, got r={self.r} s={self.s}")
        if self.r > MAX_EXTENT or self.s > MAX_EXTENT:
            raise ValueError(f"family sizes capped at {MAX_EXTENT}")


def family_blocks(spec: FamilySpec) -> list[tuple[int, int]]:
    """Block index set of the family.

    TBP fills the rectangle {1..r} x {1..s}.  TBT row i holds blocks 1..i.
    TBR row i holds s blocks starting at offset o_i, where o_1 = 1 and
    o_{i+1} = o_i + (i mod 2); the alternating shift cancels the row skew
    and produces a vertically aligned rectangle.
    """
    kind, r, s = spec.kind, spec.r, spec.s
    if kind == FamilyKind.TBP:
        return [(i, j) for i in range(1, r + 1) for j in range(1, s + 1)]
    if kind == FamilyKind.TBT:
        return [(i, j) for i in range(1, r + 1) for j in range(1, i + 1)]
    blocks = []
    offset = 1
    for i in range(1, r + 1):
        blocks.extend((i, j) for j in range(offset, offset + s))
        offset += i % 2
    return blocks


def closed_form_counts(spec: FamilySpec) -> tuple[int, int]:
    """Vertex and edge counts of the family member, by closed formula."""
    r, s = spec.r, spec.s
    if spec.kind == FamilyKind.TBT:
        return (3 * r * r + 9 * r + 2) // 2, 3 * r * r + 6 * r
    return 3 * r * s + 2 * r + 2 * s, 6 * r * s + 2 * r + 2 * s - 1


def _graph_from_blocks(blocks: Iterable[tuple[int, int]]) -> FiniteGraph:
    """The union of the blocks' edges; its vertices are their endpoints."""
    edges: set[tuple[VertexAddr, VertexAddr]] = set()
    for (i, j) in blocks:
        for a, b in block_edge_list(i, j):
            edges.add((a, b) if a <= b else (b, a))
    labels = sorted({x for e in edges for x in e})
    index = {lab: k for k, lab in enumerate(labels)}
    return FiniteGraph.from_edges(
        len(labels), [(index[a], index[b]) for a, b in edges], labels=labels
    )


def build_family(spec: FamilySpec) -> FiniteGraph:
    """Build the finite family member as the union of its blocks."""
    return _graph_from_blocks(family_blocks(spec))


def block_graph(i: int, j: int) -> FiniteGraph:
    """The single 7-vertex, 9-edge block (i, j)."""
    return _graph_from_blocks([(i, j)])
