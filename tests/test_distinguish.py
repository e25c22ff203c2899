"""Locating-dominating sets, identifying codes, open-locating-dominating sets."""

from itertools import combinations

import pytest

from tumbling.lattice import u, v, w
from tumbling.solvers import (
    InfeasibleError,
    ParamKind,
    closed_twins,
    is_ic_set,
    is_ld_set,
    is_old_set,
    open_twins,
    solve,
)


def _u_corners(block):
    return tuple(block.index_of(a) for a in (u(1, 0), u(1, 1), u(2, 1)))


# --- twins ------------------------------------------------------------------

def test_closed_twins(k2, block, c4):
    assert closed_twins(k2) == [(0, 1)]
    assert closed_twins(block) == []
    assert closed_twins(c4) == []


def test_open_twins(c4, k2, block):
    assert open_twins(c4) == [(0, 2), (1, 3)]
    assert open_twins(k2) == []
    assert open_twins(block) == []


# --- predicates ---------------------------------------------------------------

def test_is_ld_set_block_corners(block):
    assert is_ld_set(block, _u_corners(block))


def test_no_two_vertex_ld_set_on_block(block):
    for S in combinations(range(block.n), 2):
        assert not is_ld_set(block, S)


def test_is_ld_set_full_vertex_set(block):
    assert is_ld_set(block, range(block.n))


def test_is_ic_set_block_corners(block):
    corners = _u_corners(block)
    assert is_ic_set(block, corners)
    # the seven codes are exactly the seven nonempty subsets of the corners
    codes = set()
    S = frozenset(corners)
    for x in range(block.n):
        code = frozenset(y for y in block.adj[x] if y in S) | ({x} if x in S else set())
        codes.add(code)
    assert len(codes) == 7
    assert all(code and code <= S for code in codes)


def test_is_ic_set_trivial_failures(block, k2):
    assert not is_ic_set(block, ())
    for S in [(0,), (1,), (0, 1)]:
        assert not is_ic_set(k2, S)


def test_is_old_set_p4(p4):
    assert is_old_set(p4, (0, 1, 2, 3))
    assert not is_old_set(p4, (1, 2))


def test_is_old_set_c4_never(c4):
    for k in range(5):
        for S in combinations(range(4), k):
            assert not is_old_set(c4, S)


# --- solvers ------------------------------------------------------------------

def test_min_ld_block(block):
    res = solve(block, ParamKind.LD)
    assert res.value == 3
    assert is_ld_set(block, res.witness)


def test_min_ic_block(block):
    res = solve(block, ParamKind.IC)
    assert res.value == 3
    assert is_ic_set(block, res.witness)


def test_min_old_p4(p4):
    res = solve(p4, ParamKind.OLD)
    assert res.value == 4


def test_min_old_c4_reports_twin_pairs(c4):
    with pytest.raises(InfeasibleError) as exc:
        solve(c4, ParamKind.OLD)
    assert exc.value.pairs == ((0, 2), (1, 3))


def test_min_ic_k2_reports_twin_pair(k2):
    with pytest.raises(InfeasibleError) as exc:
        solve(k2, ParamKind.IC)
    assert exc.value.pairs == ((0, 1),)


def test_parameter_chain_gamma_ld_ic(block):
    gamma = solve(block, ParamKind.GAMMA).value
    ld = solve(block, ParamKind.LD).value
    ic = solve(block, ParamKind.IC).value
    assert gamma <= ld <= ic


def test_ld_counting_bound(block, p4):
    for g in (block, p4):
        res = solve(g, ParamKind.LD)
        assert g.n - res.value <= 2 ** res.value - 1


# --- predicates restricted to a vertex subset ---------------------------------

def _restricted_by_definition(g, kind, S, on):
    """Each predicate's condition on the vertices ``on`` only, written out."""
    S = frozenset(S)

    def code(x, closed):
        return frozenset(y for y in g.adj[x] if y in S) | ({x} & S if closed else frozenset())

    if kind == ParamKind.GAMMA:
        return all(code(x, True) for x in on)
    if kind == ParamKind.GAMMA_OP:
        return all(code(x, False) for x in on)
    if kind == ParamKind.F_MAX:
        return all(len(code(x, True)) <= 1 for x in on)
    if kind == ParamKind.F_OP_MAX:
        return all(len(code(x, False)) <= 1 for x in on)
    checked = [x for x in on if not (kind == ParamKind.LD and x in S)]
    codes = [code(x, kind == ParamKind.IC) for x in checked]
    return all(codes) and len(set(codes)) == len(codes)


def test_predicates_check_only_the_given_vertices():
    import random

    from conftest import random_graph

    from tumbling.solvers import _objective

    rng = random.Random(5)
    for seed in range(60):
        g = random_graph(rng.randint(2, 9), 0.4, seed)
        for kind in ParamKind:
            S = frozenset(x for x in range(g.n) if rng.random() < 0.4)
            on = sorted(rng.sample(range(g.n), rng.randint(0, g.n)))
            got = _objective(g, kind, S, on=on) is not None
            whole = _objective(g, kind, S) is not None
            assert got == _restricted_by_definition(g, kind, S, on), (seed, kind, S, on)
            assert whole == _restricted_by_definition(g, kind, S, range(g.n)), (seed, kind, S)


def test_codes_compared_only_within_the_given_vertices(p4):
    # in the path 0-1-2-3 with S = {1}, vertices 0 and 2 share the code {1}
    assert not is_ld_set(p4, {1}, on=(0, 2))
    assert is_ld_set(p4, {1}, on=(0,))
    assert is_ld_set(p4, {1}, on=(1, 2))   # members of S are not compared for LD
    assert not is_old_set(p4, {1}, on=(0, 2))
    assert is_old_set(p4, {1, 2}, on=(0, 3))
    assert not is_ic_set(p4, {1}, on=(0, 2))
    assert is_ic_set(p4, {1, 2}, on=(0, 3))
