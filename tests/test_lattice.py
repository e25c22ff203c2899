"""Adjacency convention, block structure, and family generators."""

import random
from itertools import permutations

import pytest

from tumbling.graph import FiniteGraph, bipartition
from tumbling.lattice import (
    FamilyKind,
    FamilySpec,
    VClass,
    VertexAddr,
    block_graph,
    build_family,
    closed_form_counts,
    family_blocks,
    tb_neighbors,
    u,
    v,
    w,
)

ALL_FAMILIES = [FamilyKind.TBT, FamilyKind.TBP, FamilyKind.TBR]


def test_neighbor_convention_u():
    assert set(tb_neighbors(u(0, 0))) == {w(0, 0), w(0, 1), w(1, 1), v(0, 0), v(-1, 0), v(0, 1)}


def test_neighbor_convention_w():
    assert set(tb_neighbors(w(0, 0))) == {u(0, 0), u(0, -1), u(-1, -1)}


def test_neighbor_convention_v():
    assert set(tb_neighbors(v(0, 0))) == {u(0, 0), u(0, -1), u(1, 0)}


def test_neighbor_degrees_by_class():
    for i in range(-3, 4):
        for j in range(-3, 4):
            assert len(tb_neighbors(u(i, j))) == 6
            assert len(tb_neighbors(w(i, j))) == 3
            assert len(tb_neighbors(v(i, j))) == 3


def test_neighbor_symmetry_over_window():
    # mutual membership for every pair over a >1000-vertex window
    rng = random.Random(7)
    addrs = [
        VertexAddr(cls, rng.randint(-10, 10), rng.randint(-10, 10))
        for cls in (VClass.W, VClass.U, VClass.V)
        for _ in range(400)
    ]
    for a in addrs:
        for b in tb_neighbors(a):
            assert a in tb_neighbors(b)


def test_canonical_order_w_u_v():
    assert w(0, 0) < u(0, 0) < v(0, 0)
    assert u(1, 0) < u(1, 1) < u(2, -5)


def test_block_counts():
    g = block_graph(1, 1)
    assert (g.n, g.m) == (7, 9)


def test_block_degree_multiset():
    g = block_graph(1, 1)
    assert sorted(g.degree(x) for x in range(7)) == [2, 2, 2, 3, 3, 3, 3]


def test_block_three_quads_share_center():
    g = block_graph(2, 3)
    center = g.index_of(v(2, 3))
    quads = set()
    for a in g.adj[center]:
        for b in g.adj[center]:
            if a >= b:
                continue
            shared = set(g.adj[a]) & set(g.adj[b]) - {center}
            for x in shared:
                quads.add((a, x, b))
    assert len(quads) == 3


def _is_isomorphic_brute(g1: FiniteGraph, g2: FiniteGraph) -> bool:
    if (g1.n, g1.m) != (g2.n, g2.m):
        return False
    e2 = {frozenset(e) for e in g2.edges()}
    d1 = [g1.degree(x) for x in range(g1.n)]
    d2 = [g2.degree(x) for x in range(g2.n)]
    if sorted(d1) != sorted(d2):
        return False
    for perm in permutations(range(g1.n)):
        if any(d1[x] != d2[perm[x]] for x in range(g1.n)):
            continue
        if all(frozenset((perm[a], perm[b])) in e2 for a, b in g1.edges()):
            return True
    return False


def test_block_is_cube_minus_vertex():
    cube_edges = [
        (a, b)
        for a in range(8)
        for b in range(a + 1, 8)
        if bin(a ^ b).count("1") == 1
    ]
    cube = FiniteGraph.from_edges(8, cube_edges)
    removed = [e for e in cube_edges if 7 not in e]
    cube_minus = FiniteGraph.from_edges(7, removed)
    assert _is_isomorphic_brute(block_graph(1, 1), cube_minus)


def test_closed_form_examples():
    assert closed_form_counts(FamilySpec(FamilyKind.TBT, 1)) == (7, 9)
    assert closed_form_counts(FamilySpec(FamilyKind.TBT, 6)) == (82, 144)
    assert closed_form_counts(FamilySpec(FamilyKind.TBP, 5, 7)) == (129, 233)
    assert closed_form_counts(FamilySpec(FamilyKind.TBR, 5, 7)) == (129, 233)
    assert closed_form_counts(FamilySpec(FamilyKind.TBP, 1, 1)) == (7, 9)


@pytest.mark.parametrize("kind", ALL_FAMILIES)
def test_generated_counts_match_closed_forms(kind):
    for r in range(1, 13):
        for s in range(1, 13):
            spec = FamilySpec(kind, r, s)
            g = build_family(spec)
            assert (g.n, g.m) == closed_form_counts(spec), (kind, r, s)
            if kind == FamilyKind.TBT:
                break


@pytest.mark.parametrize("kind", ALL_FAMILIES)
@pytest.mark.parametrize("r,s", [(1, 1), (2, 3), (4, 2), (5, 5)])
def test_family_edges_equal_induced_edges(kind, r, s):
    g = build_family(FamilySpec(kind, r, s))
    present = set(g.labels)
    induced = set()
    for lab in g.labels:
        for nb in tb_neighbors(lab):
            if nb in present:
                induced.add(frozenset((lab, nb)))
    built = {frozenset((g.labels[a], g.labels[b])) for a, b in g.edges()}
    assert induced == built


def test_tbr_block_offsets_alternate():
    blocks = family_blocks(FamilySpec(FamilyKind.TBR, 5, 2))
    rows = {}
    for (i, j) in blocks:
        rows.setdefault(i, []).append(j)
    assert [min(rows[i]) for i in sorted(rows)] == [1, 2, 2, 3, 3]


def test_every_edge_joins_u_to_wv():
    g = build_family(FamilySpec(FamilyKind.TBP, 3, 3))
    for a, b in g.edges():
        classes = {g.labels[a].cls, g.labels[b].cls}
        assert VClass.U in classes and classes != {VClass.U}


def test_block_bipartition_sizes():
    g = block_graph(1, 1)
    part_rest, part_u = bipartition(g)
    assert (len(part_rest), len(part_u)) == (4, 3)


def test_invalid_family_sizes_rejected():
    with pytest.raises(ValueError):
        FamilySpec(FamilyKind.TBP, 0, 3)
    with pytest.raises(ValueError):
        FamilySpec(FamilyKind.TBP, 2, -1)
    with pytest.raises(ValueError):
        FamilySpec(FamilyKind.TBP, 10**7, 1)


def test_labels_are_sorted_canonically():
    g = build_family(FamilySpec(FamilyKind.TBP, 2, 2))
    assert list(g.labels) == sorted(g.labels)
    assert g.labels[0].cls == VClass.W


def test_lattice_imports_only_the_graph_module():
    """The lattice's own facts (neighbours, balls, blocks) rest on nothing
    of the package but the graph type: no quotient, solver or kernel."""
    import ast
    from pathlib import Path

    import tumbling.lattice

    tree = ast.parse(Path(tumbling.lattice.__file__).read_text())
    in_package = [
        (node.level, node.module) for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and (node.level or (node.module or "").startswith("tumbling"))
    ]
    assert in_package == [(1, "graph")]
    assert not any(
        alias.name.startswith("tumbling")
        for node in ast.walk(tree) if isinstance(node, ast.Import) for alias in node.names
    )
    assert tumbling.lattice.tb_ball.__module__ == "tumbling.lattice"
    assert tumbling.lattice.ball_offsets.__module__ == "tumbling.lattice"
