"""Quotient construction, degeneracy, arithmetic validation, HNF enumeration."""

import random

import pytest

from tumbling.graph import bipartition
from tumbling.lattice import VClass, tb_neighbors
from tumbling.quotient import (
    DegenerateQuotientError,
    LatticeQuotient,
    build_quotient,
    enumerate_hnf,
    tb_ball,
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
