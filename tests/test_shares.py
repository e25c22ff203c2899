"""Exact share arithmetic, private neighbors, and the share-bound checkers."""

import random
from fractions import Fraction

import pytest

from conftest import cycle, path

from tumbling.lattice import FamilyKind, FamilySpec, build_family, u, v, w
from tumbling.quotient import LatticeQuotient, build_quotient
from tumbling.shares import (
    check_ld_pn_bound,
    check_open_share_cap,
    open_share,
    private_neighbors,
    share,
    share_report,
)
from tumbling.solvers import ParamKind, is_dominating, is_open_dominating, solve


def _idx(g, *addrs):
    return tuple(g.index_of(a) for a in addrs)


def test_private_neighbors_block_pair(block):
    D = _idx(block, w(1, 1), u(2, 1))
    pn = private_neighbors(block, D, block.index_of(w(1, 1)))
    assert set(pn) == set(_idx(block, w(1, 1), u(1, 0), u(1, 1)))


def test_private_neighbors_full_set_empty(block):
    D = tuple(range(block.n))
    for x in D:
        assert private_neighbors(block, D, x) == ()


def test_private_neighbors_requires_membership(block):
    with pytest.raises(ValueError):
        private_neighbors(block, _idx(block, w(1, 1)), block.index_of(v(1, 1)))


def test_share_block_efficient_pair(block):
    # the pair partitions the block; each share is its closed-neighborhood size
    D = _idx(block, w(1, 1), u(2, 1))
    assert share(block, D, block.index_of(w(1, 1))) == 3
    assert share(block, D, block.index_of(u(2, 1))) == 4
    assert sum(share(block, D, x) for x in D) == block.n


def test_share_block_corners(block):
    D = _idx(block, u(1, 0), u(1, 1), u(2, 1))
    for x in D:
        assert share(block, D, x) == Fraction(7, 3)
    assert sum(share(block, D, x) for x in D) == 7


def test_share_requires_dominating(block):
    D = _idx(block, w(1, 1))
    with pytest.raises(ValueError):
        share(block, D, block.index_of(w(1, 1)))


def test_open_share_c6(c6):
    D = (0, 1, 3, 4)
    assert open_share(c6, D, 0) == Fraction(3, 2)
    assert sum(open_share(c6, D, x) for x in D) == 6


def test_open_share_sole_dominator_equals_degree(p3):
    D = (0, 1)
    assert open_share(p3, D, 1) == 2


def test_share_caps():
    g = build_family(FamilySpec(FamilyKind.TBP, 2, 2))
    D = tuple(range(g.n))
    for x in range(g.n):
        assert share(g, D, x) <= 1 + g.degree(x)
        assert open_share(g, D, x) <= g.degree(x)


def _random_dominating_set(g, rng, open_variant=False):
    feasible = is_open_dominating if open_variant else is_dominating
    S = set(x for x in range(g.n) if rng.random() < 0.4)
    for x in range(g.n):
        sx = set(g.adj[x]) | (set() if open_variant else {x})
        if not sx & S:
            S.add(rng.choice(sorted(set(g.adj[x]))))
    assert feasible(g, S)
    return tuple(sorted(S))


def test_share_sum_identity_randomized():
    rng = random.Random(421)
    instances = [
        build_family(FamilySpec(FamilyKind.TBP, rng.randint(1, 3), rng.randint(1, 3)))
        for _ in range(4)
    ] + [
        build_family(FamilySpec(FamilyKind.TBR, rng.randint(1, 3), rng.randint(2, 3)))
        for _ in range(3)
    ] + [build_quotient(LatticeQuotient(3, 0, 3)), build_quotient(LatticeQuotient(4, 3, 2))]
    for g in instances:
        for _ in range(6):
            D = _random_dominating_set(g, rng)
            assert sum(share(g, D, x) for x in D) == g.n
            Do = _random_dominating_set(g, rng, open_variant=True)
            assert sum(open_share(g, Do, x) for x in Do) == g.n


def test_share_report_totals(block):
    D = _idx(block, w(1, 1), u(2, 1))
    rep = share_report(block, D)
    assert rep.total == block.n
    assert set(rep.shares.values()) == {Fraction(3), Fraction(4)}
    assert len(rep.private[block.index_of(w(1, 1))]) == 3


def test_check_open_share_cap_p4_tight(p4):
    margins = check_open_share_cap(p4, (0, 1, 2, 3))
    assert margins[1] == 0  # open share 3/2 meets 1 + (2-1)/2 exactly
    assert all(m >= 0 for m in margins.values())


def test_check_open_share_cap_rejects_non_old_set(c6):
    with pytest.raises(ValueError):
        check_open_share_cap(c6, (0, 1))


def test_check_open_share_cap_on_solved_witnesses():
    for g in (path(4), path(7), cycle(6), cycle(7)):
        res = solve(g, ParamKind.OLD)
        margins = check_open_share_cap(g, res.witness)
        assert all(m >= 0 for m in margins.values())


def test_check_ld_pn_bound_on_witnesses(block, p4):
    for g in (block, p4):
        res = solve(g, ParamKind.LD)
        counts = check_ld_pn_bound(g, res.witness)
        assert all(c <= 1 for c in counts.values())


def test_check_ld_pn_bound_full_set(block):
    counts = check_ld_pn_bound(block, range(block.n))
    assert all(c == 0 for c in counts.values())


def test_check_ld_pn_bound_rejects_non_ld(block):
    with pytest.raises(ValueError):
        check_ld_pn_bound(block, _idx(block, w(1, 1)))
