"""Immutable finite undirected graphs with dense indices and optional lattice labels."""

from __future__ import annotations

from typing import Iterable, Sequence, Tuple


class NotBipartiteError(ValueError):
    """Raised when a two-coloring is requested for a graph with an odd cycle."""


class FiniteGraph:
    """Finite simple undirected graph over vertices 0..n-1.

    Adjacency lists are sorted and deduplicated; the graph is checked to be
    symmetric and loop-free at construction and is immutable afterwards, so
    instances are safe to share between threads.  ``labels``, when present,
    maps each index to a lattice address and must be strictly increasing in
    canonical (cls, i, j) order, so no two vertices share a label.
    """

    __slots__ = ("n", "adj", "labels", "_index_of", "_closed_masks", "_open_masks")

    def __init__(self, adjacency: Sequence[Iterable[int]], labels=None):
        adj = tuple(tuple(sorted(set(ns))) for ns in adjacency)
        n = len(adj)
        for v, ns in enumerate(adj):
            for u in ns:
                if not 0 <= u < n:
                    raise ValueError(f"neighbor {u} of vertex {v} out of range")
                if u == v:
                    raise ValueError(f"loop at vertex {v}")
                if v not in adj[u]:
                    raise ValueError(f"asymmetric edge {v}-{u}")
        self.n = n
        self.adj = adj
        self.labels = tuple(labels) if labels is not None else None
        if self.labels is not None:
            if len(self.labels) != n:
                raise ValueError("labels length must equal vertex count")
            if any(x >= y for x, y in zip(self.labels, self.labels[1:])):
                raise ValueError("labels must be strictly increasing in canonical order")
            self._index_of = {lab: v for v, lab in enumerate(self.labels)}
            from .lattice import VClass

            in_u = [lab.cls == VClass.U for lab in self.labels]
            for v in range(n):
                for u in adj[v]:
                    if in_u[v] == in_u[u]:
                        raise ValueError(
                            f"edge {self.labels[v]}-{self.labels[u]} does not join "
                            "the U class to the W/V class"
                        )
        else:
            self._index_of = None
        self._closed_masks = None
        self._open_masks = None

    @classmethod
    def from_edges(cls, n: int, edges: Iterable[Tuple[int, int]], labels=None) -> "FiniteGraph":
        adj = [[] for _ in range(n)]
        for a, b in edges:
            adj[a].append(b)
            adj[b].append(a)
        return cls(adj, labels=labels)

    @property
    def m(self) -> int:
        return sum(len(ns) for ns in self.adj) // 2

    def edges(self) -> list[Tuple[int, int]]:
        return [(v, u) for v in range(self.n) for u in self.adj[v] if v < u]

    def degree(self, v: int) -> int:
        return len(self.adj[v])

    def index_of(self, label) -> int:
        if self._index_of is None:
            raise ValueError("graph has no labels")
        return self._index_of[label]

    def has_label(self, label) -> bool:
        return self._index_of is not None and label in self._index_of

    # Bitmask views used by the solvers.
    def open_masks(self) -> tuple[int, ...]:
        if self._open_masks is None:
            self._open_masks = tuple(
                sum(1 << u for u in ns) for ns in self.adj
            )
        return self._open_masks

    def closed_masks(self) -> tuple[int, ...]:
        if self._closed_masks is None:
            self._closed_masks = tuple(
                m | (1 << v) for v, m in enumerate(self.open_masks())
            )
        return self._closed_masks

    def check_vertex_set(self, S: Iterable[int]) -> frozenset[int]:
        S = frozenset(S)
        for v in S:
            if not 0 <= v < self.n:
                raise IndexError(f"vertex {v} out of range 0..{self.n - 1}")
        return S

    def __repr__(self):
        return f"FiniteGraph(n={self.n}, m={self.m})"


def bipartition(g: FiniteGraph):
    """Two-color ``g`` and return the parts as sorted index tuples.

    When the graph carries lattice labels, the second part is the U class
    (the degree-6 class of the infinite lattice).  Raises
    :class:`NotBipartiteError` if an odd cycle is found.
    """
    color = [-1] * g.n
    for start in range(g.n):
        if color[start] != -1:
            continue
        color[start] = 0
        queue = [start]
        while queue:
            v = queue.pop()
            for u in g.adj[v]:
                if color[u] == -1:
                    color[u] = color[v] ^ 1
                    queue.append(u)
                elif color[u] == color[v]:
                    raise NotBipartiteError(
                        f"odd cycle through edge {v}-{u}"
                    )
    if g.labels is not None:
        from .lattice import VClass

        part_u = tuple(v for v in range(g.n) if g.labels[v].cls == VClass.U)
        part_rest = tuple(v for v in range(g.n) if g.labels[v].cls != VClass.U)
        return part_rest, part_u
    part0 = tuple(v for v in range(g.n) if color[v] == 0)
    part1 = tuple(v for v in range(g.n) if color[v] == 1)
    return part0, part1
