"""Quotient construction, degeneracy, arithmetic validation, HNF enumeration,
point-group symmetries and orbits."""

import itertools
import random

import pytest

from tumbling.graph import FiniteGraph, bipartition
from tumbling.lattice import VClass, VertexAddr, tb_ball, tb_neighbors
from tumbling.quotient import (
    POINT_GROUP,
    DegenerateQuotientError,
    LatticeQuotient,
    LatticeSymmetry,
    build_quotient,
    enumerate_hnf,
    induces_isomorphism,
    quotient_labels,
    quotient_orbits,
    validate_quotient,
)
from tumbling.lattice import u, w


def test_quotient_requires_hnf():
    with pytest.raises(ValueError):
        LatticeQuotient(0, 0, 1)
    with pytest.raises(ValueError):
        LatticeQuotient(3, 3, 1)
    with pytest.raises(ValueError):
        LatticeQuotient(3, -1, 1)


def test_reduce_is_idempotent():
    rng = random.Random(11)
    for _ in range(200):
        q = LatticeQuotient(rng.randint(1, 9), 0, rng.randint(1, 9))
        q = LatticeQuotient(q.a, rng.randint(0, q.a - 1), q.d)
        i, j = rng.randint(-50, 50), rng.randint(-50, 50)
        red = q.reduce(i, j)
        assert q.reduce(*red) == red
        assert 0 <= red[0] < q.a and 0 <= red[1] < q.d


def test_reduce_respects_lattice():
    q = LatticeQuotient(4, 3, 2)
    for p in range(-2, 3):
        for r in range(-2, 3):
            i, j = 1 + p * 4 + r * 3, 1 + r * 2
            assert q.reduce(i, j) == q.reduce(1, 1)


def test_build_quotient_basic_structure():
    q = LatticeQuotient(3, 0, 3)
    g = build_quotient(q)
    assert g.n == 3 * q.det == 27
    assert g.m == 6 * q.det == 54
    for k, lab in enumerate(g.labels):
        assert g.degree(k) == (6 if lab.cls == VClass.U else 3)


def test_quotient_bipartition_sizes():
    q = LatticeQuotient(3, 0, 3)
    part_rest, part_u = bipartition(build_quotient(q))
    assert len(part_u) == q.det
    assert len(part_rest) == 2 * q.det


def test_degenerate_quotients_rejected():
    for acd in [(1, 0, 1), (1, 0, 4), (2, 0, 1), (2, 1, 1), (5, 1, 1)]:
        with pytest.raises(DegenerateQuotientError):
            build_quotient(LatticeQuotient(*acd))


def test_sheared_det3_is_simple():
    g = build_quotient(LatticeQuotient(3, 2, 1))
    assert (g.n, g.m) == (9, 18)


def test_validate_examples():
    assert validate_quotient(LatticeQuotient(1, 0, 1), 1) is False
    assert validate_quotient(LatticeQuotient(6, 0, 6), 2) is True
    assert validate_quotient(LatticeQuotient(3, 0, 3), 1) is True


def test_validate_rejects_folded_balls():
    # det 3 has only 9 vertices but radius-2 balls have 13..16 vertices
    assert validate_quotient(LatticeQuotient(3, 2, 1), 2) is False
    assert validate_quotient(LatticeQuotient(3, 0, 3), 2) is True


def ball_oracle(q: LatticeQuotient, radius: int) -> bool:
    """Validity by definition: build the quotient and compare the radius-ball
    around every one of its 3*det roots with the infinite lattice.

    Independent of ``validate_quotient``: it runs its own breadth-first
    search and uses no offset table.
    """
    try:
        g = build_quotient(q)
    except DegenerateQuotientError:
        return False
    for root in g.labels:
        ball = {root}
        frontier = [root]
        for _ in range(radius):
            frontier = [y for x in frontier for y in tb_neighbors(x) if y not in ball]
            ball.update(frontier)
        projected = {}
        for x in ball:
            px = q.reduce_addr(x)
            if px in projected:
                return False  # projection folds two ball vertices together
            projected[px] = x
        for x in ball:
            nbrs_x = set(tb_neighbors(x))
            vx = g.index_of(q.reduce_addr(x))
            for nb_idx in g.adj[vx]:
                nb_lab = g.labels[nb_idx]
                if nb_lab in projected and projected[nb_lab] not in nbrs_x:
                    return False  # quotient edge with no infinite counterpart
    return True


def test_validate_matches_ball_oracle():
    pairs = [(q, r) for q in enumerate_hnf(24) for r in (1, 2, 3)]
    assert len(pairs) == 1473
    mismatches = [(str(q), r) for q, r in pairs if validate_quotient(q, r) != ball_oracle(q, r)]
    assert mismatches == []
    # both verdicts occur at every radius, so the agreement is not vacuous
    for r in (1, 2, 3):
        verdicts = {validate_quotient(q, r) for q, rr in pairs if rr == r}
        assert verdicts == {True, False}


def test_validate_radius_bounds():
    with pytest.raises(ValueError):
        validate_quotient(LatticeQuotient(6, 0, 6), 0)
    # a radius past the quotient's size is rejected without building a ball
    assert validate_quotient(LatticeQuotient(1, 0, 1), 10**6) is False


def test_forbidden_offset_counts():
    from tumbling.quotient import _forbidden_offsets

    assert [len(_forbidden_offsets(r)) for r in (1, 2, 3)] == [6, 18, 36]


def test_ball_sizes_in_infinite_lattice():
    assert len(tb_ball(u(0, 0), 1)) == 7
    assert len(tb_ball(w(0, 0), 1)) == 4
    assert len(tb_ball(u(0, 0), 2)) == 13
    assert len(tb_ball(w(0, 0), 2)) == 16


def test_enumerate_hnf_counts_and_order():
    qs = enumerate_hnf(5)
    # sum of sigma(det) for det = 1..5: 1 + 3 + 4 + 7 + 6
    assert len(qs) == 21
    assert len(set(qs)) == len(qs)
    dets = [q.det for q in qs]
    assert dets == sorted(dets)
    assert all(0 <= q.c < q.a for q in qs)


def test_all_valid_quotients_have_lattice_degrees():
    for q in enumerate_hnf(8):
        try:
            g = build_quotient(q)
        except DegenerateQuotientError:
            continue
        assert g.n == 3 * q.det
        assert g.m == 6 * q.det
        for k, lab in enumerate(g.labels):
            assert g.degree(k) == (6 if lab.cls == VClass.U else 3)
        part_rest, part_u = bipartition(g)
        assert (len(part_rest), len(part_u)) == (2 * q.det, q.det)


# ---------------------------------------------------------------------------
# point group and orbits
# ---------------------------------------------------------------------------

ROOTS = [VertexAddr(cls, 0, 0) for cls in VClass]


def _maps_neighbors(f, probe) -> bool:
    """Whether f maps the neighbors of x onto the neighbors of f(x) for every
    x in ``probe``."""
    return all({f(y) for y in tb_neighbors(x)} == set(tb_neighbors(f(x))) for x in probe)


def _affine(m, swap, w_shift, v_shift, u_shift=(0, 0)):
    """The map (cls, i, j) -> (cls', M*(i, j) + shift), written out directly."""
    def f(x):
        cls, i, j = x
        if cls == VClass.U:
            cls2, (di, dj) = VClass.U, u_shift
        elif cls == VClass.W:
            cls2, (di, dj) = (VClass.V if swap else VClass.W), w_shift
        else:
            cls2, (di, dj) = (VClass.W if swap else VClass.V), v_shift
        return VertexAddr(cls2, m[0] * i + m[1] * j + di, m[2] * i + m[3] * j + dj)

    return f


def test_point_group_is_exactly_the_small_automorphisms():
    # every map with M entries in {-1, 0, 1}, U fixed at u(0,0), W/V kept or
    # swapped and shifted by at most 2 in each coordinate
    shifts = list(itertools.product(range(-2, 3), repeat=2))
    probe = [x for root in ROOTS for x in tb_ball(root, 4)]  # roots come first
    found = set()
    for m in itertools.product((-1, 0, 1), repeat=4):
        for swap in (False, True):
            for ws in shifts:
                for vs in shifts:
                    if _maps_neighbors(_affine(m, swap, ws, vs), probe):
                        found.add(LatticeSymmetry(m, swap, ws, vs))
    assert len(found) == 12
    assert found == set(POINT_GROUP)
    assert POINT_GROUP[0] == LatticeSymmetry((1, 0, 0, 1), False, (0, 0), (0, 0))


def test_point_group_apply_matches_definition():
    """So does each block translation of the orbital roots, which shifts
    every class by the vector in its name and maps every quotient onto
    itself."""
    from tumbling.density import _TRANSLATIONS

    probe = [x for root in ROOTS for x in tb_ball(root, 3)]
    for g in POINT_GROUP + tuple(_TRANSLATIONS.values()):
        f = _affine(*g)
        assert all(g.apply(x) == f(x) for x in probe)
    assert all(g.apply(u(0, 0)) == u(0, 0) for g in POINT_GROUP)
    assert list(_TRANSLATIONS) == ["translation (1,0)", "translation (0,1)"]
    for (di, dj), t in zip([(1, 0), (0, 1)], _TRANSLATIONS.values()):
        assert all(t.apply(x) == VertexAddr(x.cls, x.i + di, x.j + dj) for x in probe)
        assert all(t.image(q) == q for q in enumerate_hnf(24))


def test_point_group_closed_under_composition():
    probe = [x for root in ROOTS for x in tb_ball(root, 2)]
    for g, h in itertools.product(POINT_GROUP, repeat=2):
        composed = [g.apply(h.apply(x)) for x in probe]
        matches = [k for k in POINT_GROUP if [k.apply(x) for x in probe] == composed]
        assert len(matches) == 1, (g, h)


def test_images_are_hnf_with_same_det_and_validity():
    for q in enumerate_hnf(24):
        for g in POINT_GROUP:
            img = g.image(q)
            assert img.det == q.det
            # M*(a, 0) and M*(c, d) lie in the image lattice; with equal
            # determinants that makes it exactly M*L
            m0, m1, m2, m3 = g.m
            assert img.reduce(m0 * q.a, m2 * q.a) == (0, 0)
            assert img.reduce(m0 * q.c + m1 * q.d, m2 * q.c + m3 * q.d) == (0, 0)
            for r in (1, 2, 3):
                assert validate_quotient(img, r) == validate_quotient(q, r), (q, g, r)


def _is_isomorphism(q, g) -> bool:
    """Whether x -> image.reduce_addr(g(x)) is a bijection between the built
    quotient graphs of q and g.image(q) that maps edges onto edges."""
    img = g.image(q)
    src, dst = build_quotient(q), build_quotient(img)
    phi = {}
    for k, lab in enumerate(src.labels):
        phi[k] = dst.index_of(img.reduce_addr(g.apply(lab)))
    if sorted(phi.values()) != list(range(dst.n)):
        return False
    src_edges = {frozenset((phi[x], phi[y])) for x in range(src.n) for y in src.adj[x]}
    dst_edges = {frozenset((x, y)) for x in range(dst.n) for y in dst.adj[x]}
    return src_edges == dst_edges


@pytest.mark.parametrize("radius", [1, 2])
def test_symmetry_maps_are_quotient_isomorphisms(radius):
    quots = [q for q in enumerate_hnf(16) if validate_quotient(q, radius)]
    assert len(quots) == {1: 174, 2: 97}[radius]
    for q in quots:
        for g in POINT_GROUP:
            assert _is_isomorphism(q, g), (q, g)


def test_quotient_orbits_representatives():
    for radius, max_det, valid, reps in [(1, 14, 125, 34), (2, 12, 40, 10), (2, 20, 180, 39)]:
        quots = [q for q in enumerate_hnf(max_det) if validate_quotient(q, radius)]
        orbits = quotient_orbits(quots)
        assert list(orbits) == quots
        assert (len(quots), sum(rep == q for q, (rep, _g) in orbits.items())) == (valid, reps)
        for q, (rep, g) in orbits.items():
            assert g.image(rep) == q
            orbit = {h.image(q) for h in POINT_GROUP}
            assert rep == min(orbit, key=lambda x: (x.det, x.a, x.c))


@pytest.mark.parametrize("radius", [1, 2])
def test_orbit_members_are_certified_isomorphic(radius):
    """Every (representative, member, symmetry) of the valid quotients with
    det <= 16 passes the arithmetic certificate, and the built graphs agree:
    the induced vertex map is an isomorphism."""
    from tumbling.density import _induced_map, valid_quotients

    orbits = quotient_orbits(valid_quotients(16, radius))
    assert len(orbits) == {1: 174, 2: 97}[radius]
    for q, (rep, g) in orbits.items():
        assert induces_isomorphism(g, rep, q), (rep, q, g)
        _induced_map(build_quotient(rep), build_quotient(q), q, g.apply, f"{g} on {rep} -> {q}")


def test_certificate_rejects_moved_shifts():
    """Each point-group element or block translation with its W, its V or
    its U shift moved by (1, 0) is no lattice automorphism, so it certifies
    no quotient, not even the image of its own matrix."""
    from tumbling.density import _TRANSLATIONS

    for rep in (LatticeQuotient(3, 0, 3), LatticeQuotient(4, 3, 2), LatticeQuotient(5, 4, 3)):
        for g in POINT_GROUP + tuple(_TRANSLATIONS.values()):
            assert induces_isomorphism(g, rep, g.image(rep))
            for moved in (
                g._replace(w_shift=(g.w_shift[0] + 1, g.w_shift[1])),
                g._replace(v_shift=(g.v_shift[0] + 1, g.v_shift[1])),
                g._replace(u_shift=(g.u_shift[0] + 1, g.u_shift[1])),
            ):
                assert not induces_isomorphism(moved, rep, g.image(rep)), (moved, rep)


def test_certificate_rejects_quotients_outside_the_orbit():
    """A true symmetry paired with a same-det quotient that is not in the
    representative's orbit, or with one of another det, is rejected."""
    quots = enumerate_hnf(12)
    pairs = 0
    for rep in quots:
        orbit = {h.image(rep) for h in POINT_GROUP}
        for q in quots:
            for g in POINT_GROUP:
                assert induces_isomorphism(g, rep, q) == (q == g.image(rep)), (g, rep, q)
            if q.det == rep.det and q not in orbit:
                pairs += 1
    assert pairs > 100


# ---------------------------------------------------------------------------
# the symmetry behind orbital branching in density solves
# ---------------------------------------------------------------------------

def _shift(di, dj):
    return lambda x: VertexAddr(x.cls, x.i + di, x.j + dj)


GENERATORS = {"t10": _shift(1, 0), "t01": _shift(0, 1), "rot180": POINT_GROUP[3].apply}


def _automorphism(q, graph, f):
    """x -> q.reduce_addr(f(x)) on the built graph of q, as an index list,
    when it is a bijection that maps the edge set onto itself; else None."""
    phi = [graph.index_of(q.reduce_addr(f(lab))) for lab in graph.labels]
    if sorted(phi) != list(range(graph.n)):
        return None
    edges = {frozenset((x, y)) for x in range(graph.n) for y in graph.adj[x]}
    return phi if {frozenset((phi[x], phi[y])) for x, y in map(tuple, edges)} == edges else None


@pytest.mark.parametrize("radius", [1, 2])
def test_translations_and_half_turn_are_quotient_automorphisms(radius):
    """On every valid quotient with det <= 16: both unit translations and the
    180-degree rotation are automorphisms, the rotation maps the W block onto
    the V block, and the translations act transitively on each block."""
    assert POINT_GROUP[3].m == (-1, 0, 0, -1) and POINT_GROUP[3].swap
    quots = [q for q in enumerate_hnf(16) if validate_quotient(q, radius)]
    assert len(quots) == {1: 174, 2: 97}[radius]
    for q in quots:
        g = build_quotient(q)
        det = q.det
        assert [lab.cls for lab in g.labels] == [VClass.W] * det + [VClass.U] * det + [VClass.V] * det
        assert [g.labels[c * det] for c in range(3)] == ROOTS
        phi = {name: _automorphism(q, g, f) for name, f in GENERATORS.items()}
        assert all(p is not None for p in phi.values()), q
        assert sorted(phi["rot180"][x] for x in range(det)) == list(range(2 * det, 3 * det)), q
        for c in range(3):
            orbit, frontier = {c * det}, [c * det]
            while frontier:
                x = frontier.pop()
                for y in (phi["t10"][x], phi["t01"][x]):
                    if y not in orbit:
                        orbit.add(y)
                        frontier.append(y)
            assert orbit == set(range(c * det, (c + 1) * det)), (q, c)


def test_generators_preserve_the_requirement_sets():
    """Each generator maps the dominance-filtered requirement set of every
    cover kind onto itself (det <= 12), so it maps optima to optima."""
    from tumbling.density import required_radius
    from tumbling.solvers import InfeasibleError, ParamKind, _check_feasible, _cover_requirements, _dominance_filter

    checked = 0
    for kind in (k for k in ParamKind if k.minimizes):
        for q in enumerate_hnf(12):
            if not validate_quotient(q, required_radius(kind)):
                continue
            g = build_quotient(q)
            try:
                _check_feasible(g, kind)
            except InfeasibleError:
                continue
            reqs = set(_dominance_filter(_cover_requirements(g, kind)))
            for f in GENERATORS.values():
                phi = _automorphism(q, g, f)
                image = {sum(1 << phi[v] for v in range(g.n) if m >> v & 1) for m in reqs}
                assert image == reqs, (kind, q)
            checked += 1
    assert checked == 306  # feasible (kind, quotient) pairs


# ---------------------------------------------------------------------------
# the index-arithmetic quotient layer against label-based references
# ---------------------------------------------------------------------------

def _label_built_quotient(q):
    """The quotient graph built the way it was before index arithmetic: an
    address per vertex, ``reduce_addr`` on each of its lattice neighbours,
    and a label -> index dict."""
    labels = sorted(VertexAddr(cls, i, j) for cls in VClass for i in range(q.a) for j in range(q.d))
    index = {lab: k for k, lab in enumerate(labels)}
    adj = []
    for lab in labels:
        reduced = [q.reduce_addr(nb) for nb in tb_neighbors(lab)]
        if len(set(reduced)) != len(reduced) or lab in reduced:
            raise DegenerateQuotientError(f"quotient {q} folds the neighborhood of {lab}")
        adj.append([index[r] for r in reduced])
    return FiniteGraph(adj, labels=labels)


def _built(build, q):
    """Adjacency and labels of build(q), or the message it raises."""
    try:
        g = build(q)
    except DegenerateQuotientError as exc:
        return str(exc)
    return g.adj, g.labels


def test_build_quotient_matches_the_label_based_reference():
    quots = enumerate_hnf(24)
    assert len(quots) == 491
    raised = 0
    for q in quots:
        ref = _built(_label_built_quotient, q)
        assert _built(build_quotient, q) == ref, q
        raised += isinstance(ref, str)
    assert raised == 70


def test_index_names_the_reduced_label():
    rng = random.Random(8)
    for q in enumerate_hnf(12):
        labels = quotient_labels(q)
        for _ in range(20):
            x = VertexAddr(rng.choice(list(VClass)), rng.randint(-30, 30), rng.randint(-30, 30))
            assert labels[q.index(*x)] == q.reduce_addr(x)


def _root_certificate(q) -> bool:
    """Whether the arithmetic certificate behind orbital branching passes."""
    from tumbling.density import _orbit_roots

    try:
        _orbit_roots(q)
    except RuntimeError:
        return False
    return True


def _root_maps_on_the_built_graph(q, translations, half_turn) -> bool:
    """The same three facts checked on the built graph: both translations and
    the half turn are automorphisms, and the half turn maps W onto V."""
    g = build_quotient(q)
    phi = [_automorphism(q, g, t.apply) for t in (*translations.values(), half_turn)]
    det = q.det
    return all(p is not None for p in phi) and sorted(phi[2][:det]) == list(range(2 * det, 3 * det))


@pytest.mark.parametrize("radius", [1, 2])
def test_root_certificate_agrees_with_the_built_graphs(radius, monkeypatch):
    """On every valid quotient with det <= 24, the arithmetic certificate of
    the root symmetries and the graph-level checks both pass for the true
    maps.  Both reject a translation that moves only W, and a half turn with
    its W shift dropped or without its class swap, except that on the
    9-vertex q(3,2,1) the two broken maps happen to be automorphisms of the
    graph; the certificate, which asks for a lattice automorphism, still
    rejects them there."""
    import tumbling.density as density_mod
    import tumbling.quotient as quotient_mod

    quots = [q for q in enumerate_hnf(24) if validate_quotient(q, radius)]
    assert len(quots) == {1: 421, 2: 296}[radius]
    real = density_mod._TRANSLATIONS
    # translations that move only the W class
    w_only = {name: t._replace(v_shift=(0, 0), u_shift=(0, 0)) for name, t in real.items()}

    rot = POINT_GROUP[3]
    small = {1: [LatticeQuotient(3, 2, 1)], 2: []}[radius]
    variants = [
        (real, rot, quots),
        (w_only, rot, small),
        (real, rot._replace(w_shift=(0, 0)), small),
        (real, rot._replace(swap=False), []),
    ]
    for translations, half_turn, graph_passes in variants:
        monkeypatch.setattr(density_mod, "_TRANSLATIONS", translations)
        monkeypatch.setattr(quotient_mod, "POINT_GROUP", POINT_GROUP[:3] + (half_turn,) + POINT_GROUP[4:])
        certified = [q for q in quots if _root_certificate(q)]
        assert certified == (quots if half_turn == rot and translations is real else []), half_turn
        assert [q for q in quots if _root_maps_on_the_built_graph(q, translations, half_turn)] == graph_passes
