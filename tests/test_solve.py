"""Domination-type solvers: predicates, exact values, oracle agreement."""

import pytest

from conftest import complete, cycle, oracle_corpus, path, random_graph

from tumbling import _kernels_py
from tumbling.graph import FiniteGraph
from tumbling.lattice import u, v, w
from tumbling.quotient import LatticeQuotient, build_quotient
from tumbling.solvers import (
    InfeasibleError,
    ParamKind,
    brute_force,
    has_efficient_dominating,
    has_efficient_open_dominating,
    is_dominating,
    is_open_dominating,
    _conflicts,
    _cover_requirements,
    _dominance_filter,
    solve,
    verify_witness,
)


def _idx(g, *addrs):
    return tuple(g.index_of(a) for a in addrs)


def test_package_exports_only_api_names():
    import types

    import tumbling

    assert all(not isinstance(getattr(tumbling, name), types.ModuleType) for name in tumbling.__all__)
    removed = {
        "min_dominating", "min_open_dominating", "min_ld", "min_ic", "min_old",
        "max_efficient", "max_efficient_open", "f_fraction", "Rational",
    }
    assert not removed & set(tumbling.__all__)
    assert {"ParamKind", "solve", "min_density"} <= set(tumbling.__all__)


# --- predicates -----------------------------------------------------------

def test_is_dominating_block_pair(block):
    assert is_dominating(block, _idx(block, w(1, 1), u(2, 1)))


def test_is_dominating_trivial(block):
    assert not is_dominating(block, ())
    assert is_dominating(block, range(block.n))


def test_is_dominating_out_of_range(block):
    with pytest.raises(IndexError):
        is_dominating(block, [99])


def test_is_open_dominating_c6(c6):
    assert is_open_dominating(c6, (0, 1, 3, 4))
    assert not is_open_dominating(c6, (0, 1, 3))


def test_is_open_dominating_k2(k2):
    assert not is_open_dominating(k2, (0,))
    assert is_open_dominating(k2, (0, 1))


def test_is_open_dominating_isolated():
    g = FiniteGraph([[], [2], [1]])
    assert not is_open_dominating(g, (1, 2))


# --- minimization solvers -------------------------------------------------

def test_min_dominating_block(block):
    res = solve(block, ParamKind.GAMMA)
    assert res.value == 2
    assert res.witness == _idx(block, w(1, 1), u(2, 1))


def test_min_dominating_small(k1, c6):
    assert solve(k1, ParamKind.GAMMA).value == 1
    assert solve(c6, ParamKind.GAMMA).value == 2


def test_min_open_dominating_values(c6, k2):
    assert solve(c6, ParamKind.GAMMA_OP).value == 4
    assert solve(k2, ParamKind.GAMMA_OP).value == 2


def test_min_open_dominating_isolated_vertex_errors():
    g = FiniteGraph([[], [2], [1]])
    with pytest.raises(InfeasibleError) as exc:
        solve(g, ParamKind.GAMMA_OP)
    assert 0 in exc.value.vertices


# --- maximization solvers -------------------------------------------------

def test_max_efficient_block(block):
    res = solve(block, ParamKind.F_MAX)
    assert res.value == 7
    assert res.witness == _idx(block, w(1, 1), u(2, 1))


def test_max_efficient_c4_k1(c4, k1):
    assert solve(c4, ParamKind.F_MAX).value == 3
    assert solve(k1, ParamKind.F_MAX).value == 1


def test_max_efficient_open_values(p3, c6, k2):
    res = solve(p3, ParamKind.F_OP_MAX)
    assert res.value == 3
    assert res.witness == (0, 1)
    assert solve(c6, ParamKind.F_OP_MAX).value == 4
    assert solve(k2, ParamKind.F_OP_MAX).value == 2


def test_has_efficient_dominating(block, c4, k1):
    assert has_efficient_dominating(block)
    assert not has_efficient_dominating(c4)
    assert has_efficient_dominating(k1)


def test_has_efficient_open_dominating(k2, c4, c6):
    assert has_efficient_open_dominating(k2)
    assert has_efficient_open_dominating(c4)
    assert not has_efficient_open_dominating(c6)


def test_c4_efficient_open_witness(c4):
    res = solve(c4, ParamKind.F_OP_MAX)
    assert res.value == 4
    assert res.witness == (0, 1)


# --- brute force oracle ---------------------------------------------------

def test_brute_force_block(block, k1):
    assert brute_force(block, ParamKind.GAMMA).value == 2
    assert brute_force(block, ParamKind.F_MAX).value == 7
    assert brute_force(k1, ParamKind.GAMMA).value == 1


def test_brute_force_size_cap():
    g = cycle(25)
    with pytest.raises(ValueError):
        brute_force(g, ParamKind.GAMMA)


def test_oracle_agreement_sample():
    graphs = [cycle(6), path(5), complete(4), random_graph(9, 0.3, 5), random_graph(11, 0.5, 6)]
    # under F-OP the proof's witness {1, 2, 3} is not the fewest vertices:
    # the canonical pass finds {0, 4}, so its size-first step runs
    graphs.append(FiniteGraph.from_edges(6, [(0, 2), (0, 4), (1, 3), (1, 4), (1, 5), (4, 5)]))
    for g in graphs:
        for kind in ParamKind:
            try:
                expected = brute_force(g, kind)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    solve(g, kind)
                continue
            got = solve(g, kind)
            assert got.value == expected.value, kind
            assert got.witness == expected.witness, kind
            assert verify_witness(g, kind, got.witness, got.value)


def test_deterministic_witness_is_repeatable(block):
    for kind in ParamKind:
        a = solve(block, kind)
        b = solve(block, kind)
        assert a.witness == b.witness
        assert solve(block, kind, deterministic=False).value == a.value


def test_monotonicity_of_gamma_in_rows_and_cols():
    from tumbling.lattice import FamilyKind, FamilySpec, build_family

    values = {}
    for r in range(1, 5):
        for s in range(1, 5):
            g = build_family(FamilySpec(FamilyKind.TBP, r, s))
            values[r, s] = solve(g, ParamKind.GAMMA, deterministic=False).value
    for r in range(1, 5):
        for s in range(1, 4):
            assert values[r, s] <= values[r, s + 1]
            assert values[s, r] <= values[s + 1, r]


def test_f_at_most_n_with_equality_iff_efficient():
    for name, g in [("C4", cycle(4)), ("C6", cycle(6)), ("P4", path(4))]:
        res = solve(g, ParamKind.F_MAX, deterministic=False)
        assert res.value <= g.n
        assert (res.value == g.n) == has_efficient_dominating(g), name


def test_solve_stats_populated(block):
    from tumbling.solvers import SolveStats

    res = solve(block, ParamKind.GAMMA)
    assert res.stats.nodes >= 1
    assert res.stats.elapsed >= 0
    assert SolveStats(5, 0.1) == SolveStats(nodes=5, elapsed=0.1, proof_s=0.0, canon_s=0.0, canon_calls=0)
    for kind in ParamKind:
        res = solve(block, kind)
        stats = res.stats
        assert stats.proof_s >= 0 and stats.canon_s >= 0
        assert stats.proof_s + stats.canon_s <= stats.elapsed
        # at most one feasibility search per vertex outside the proof's
        # witness, plus the packing size search
        assert 0 <= stats.canon_calls <= block.n
        fast = solve(block, kind, deterministic=False).stats
        assert (fast.canon_s, fast.canon_calls) == (0.0, 0)
    # the canonical pass of C8 domination makes kernel calls
    assert solve(cycle(8), ParamKind.GAMMA).stats.canon_calls > 0


#: the one unconstrained root: a kernel call from it is the plain search
PLAIN = ((0, 0),)


# the kernels every solver runs; one fixture, so the tests that take it keep
# their ids
@pytest.fixture(params=[_kernels_py], ids=["tumbling._kernels_py"])
def kernel(request):
    return request.param


#: F, F-OP and gamma of the cycle C_n: 3 floor(n/3); 2 floor(n/2), less 2
#: when n = 2 mod 4; and ceil(n/3)
CYCLE_OPTIMA = {
    ParamKind.F_MAX: lambda n: 3 * (n // 3),
    ParamKind.F_OP_MAX: lambda n: 2 * (n // 2) - 2 * (n % 4 == 2),
    ParamKind.GAMMA: lambda n: -(-n // 3),
}


def test_cycle_optima_match_brute_force():
    for n in range(7, 21):
        for kind, optimum in CYCLE_OPTIMA.items():
            assert brute_force(cycle(n), kind).value == optimum(n), (n, kind)


# instances on either side of the 32- and 64-bit word boundaries, with their
# F, F-OP and gamma
WORD_BOUNDARY_GRAPHS = [
    pytest.param(cycle(n), tuple(optimum(n) for optimum in CYCLE_OPTIMA.values()), id=f"C{n}")
    for n in (31, 32, 33, 63, 64, 65, 130)
] + [pytest.param(build_quotient(LatticeQuotient(4, 0, 4)), (44, 36, 10), id="q(4,0,4)")]


@pytest.mark.parametrize(("g", "optima"), WORD_BOUNDARY_GRAPHS)
def test_kernel_word_boundary_consistency(kernel, g, optima):
    n = g.n
    f, f_op, gamma = optima
    for cov, best in ((list(g.closed_masks()), f), (list(g.open_masks()), f_op)):
        conf = _conflicts(cov)
        assert kernel.solve_pack(n, cov, PLAIN, conf)[0] == best
        assert kernel.pack_feasible(n, cov, 0, 0, best, n, conf) is not None
        assert kernel.pack_feasible(n, cov, 0, 0, best + 1, n, conf) is None
    reqs = _cover_requirements(g, ParamKind.GAMMA)
    assert kernel.solve_cover(n, reqs, PLAIN)[0] == gamma
    assert kernel.cover_feasible(n, reqs, 0, 0, gamma) is not None
    assert kernel.cover_feasible(n, reqs, 0, 0, gamma - 1) is None


#: the code numbers of the cycle C_n (n >= 7): LD ceil(2n/5); IC n/2 for even
#: n and (n+3)/2 for odd n; OLD ceil(2n/3)
CYCLE_CODE_OPTIMA = {
    ParamKind.LD: lambda n: -(-2 * n // 5),
    ParamKind.IC: lambda n: n // 2 if n % 2 == 0 else (n + 3) // 2,
    ParamKind.OLD: lambda n: -(-2 * n // 3),
}


@pytest.mark.parametrize("kind", list(CYCLE_CODE_OPTIMA), ids=lambda k: k.value)
@pytest.mark.parametrize("n", [31, 32, 33])
def test_code_kernels_across_the_word_boundary(kernel, kind, n):
    """LD, IC and OLD on C31..C33: the optimizing kernel finds the known
    optimum, and the feasibility kernel finds a set at the optimum and none
    below it, where the packing bound is tight at the root."""
    reqs = _dominance_filter(_cover_requirements(cycle(n), kind))
    opt, wit, _nodes = kernel.solve_cover(n, reqs, PLAIN)
    assert opt == CYCLE_CODE_OPTIMA[kind](n)
    assert wit.bit_count() == opt and all(m & wit for m in reqs)
    found = kernel.cover_feasible(n, reqs, 0, 0, opt)
    assert found is not None and _meets_cover(found, reqs, 0, 0, opt)
    assert kernel.cover_feasible(n, reqs, 0, 0, opt - 1) is None


def _quadratic_dominance_filter(masks):
    """The dominance filter as first written: each mask against every kept one."""
    masks = sorted(set(masks), key=lambda m: m.bit_count())
    kept = []
    for m in masks:
        if not any(k & m == k for k in kept):
            kept.append(m)
    return kept


def test_dominance_filter_matches_the_quadratic_filter():
    """Same kept masks in the same order, on seeded random lists (some with
    the empty mask) and on the code requirements of the word-boundary graphs."""
    import random

    rng = random.Random(20261018)
    lists = []
    for _ in range(400):
        n = rng.randint(1, 70)
        lists.append([
            sum(1 << v for v in rng.sample(range(n), rng.randint(0 if rng.random() < 0.05 else 1, min(n, 6))))
            for _ in range(rng.randint(0, 80))
        ])
    for param in WORD_BOUNDARY_GRAPHS:
        g, _optima = param.values
        lists += [_cover_requirements(g, kind) for kind in (ParamKind.LD, ParamKind.IC, ParamKind.OLD)]
    dropped = 0
    for masks in lists:
        kept = _dominance_filter(masks)
        assert kept == _quadratic_dominance_filter(masks), masks
        dropped += len(set(masks)) - len(kept)
    assert dropped > 1000


def test_canonical_packing_fails_loudly_on_inconsistent_kernel(monkeypatch):
    import types

    import tumbling.solvers as solve_mod

    stub = types.SimpleNamespace(
        MAX_N=_kernels_py.MAX_N,
        solve_pack=_kernels_py.solve_pack,
        pack_feasible=lambda *args, **kwargs: False,
    )
    monkeypatch.setattr(solve_mod, "kernels_for", lambda n: stub)
    with pytest.raises(RuntimeError, match=r"f on n=6"):
        solve(cycle(6), ParamKind.F_MAX)


@pytest.mark.parametrize(
    "fault, message",
    [("banned", "includes a banned vertex"), ("missed", "misses a requirement")],
)
def test_canonical_cover_fails_loudly_on_inconsistent_kernel(monkeypatch, fault, message):
    import types

    import tumbling.solvers as solve_mod

    def banned_too(n, reqs, forced, banned, limit):
        found = _kernels_py.cover_feasible(n, reqs, forced, banned, limit)
        return None if found is None else found | banned

    def forced_only(n, reqs, forced, banned, limit):
        return forced

    stub = types.SimpleNamespace(
        MAX_N=_kernels_py.MAX_N,
        solve_cover=_kernels_py.solve_cover,
        cover_feasible=banned_too if fault == "banned" else forced_only,
    )
    monkeypatch.setattr(solve_mod, "kernels_for", lambda n: stub)
    # C8's canonical pass bans a vertex before a later call succeeds, so
    # both faults are reached
    with pytest.raises(RuntimeError, match=rf"gamma on n=8: .*{message}"):
        solve(cycle(8), ParamKind.GAMMA)


def test_proof_witness_outside_every_root_fails_loudly(monkeypatch):
    import types

    import tumbling.solvers as solve_mod

    def unrooted_cover(n, reqs, roots):
        return _kernels_py.solve_cover(n, reqs, PLAIN)

    def unrooted_pack(n, cov, roots, conf):
        return _kernels_py.solve_pack(n, cov, PLAIN, conf)

    stub = types.SimpleNamespace(MAX_N=_kernels_py.MAX_N, solve_cover=unrooted_cover, solve_pack=unrooted_pack)
    monkeypatch.setattr(solve_mod, "kernels_for", lambda n: stub)
    # the plain C8 optima contain vertex 0, so a root banning it is never met
    for kind in (ParamKind.GAMMA, ParamKind.F_MAX):
        assert 0 in solve(cycle(8), kind, deterministic=False).witness
        with pytest.raises(RuntimeError, match=rf"{kind.value} on n=8: witness meets no root"):
            solve(cycle(8), kind, deterministic=False, _roots=[(0b10, 0b1)])


def test_conflict_table_matches_the_pairwise_definition():
    """The incidence-built table has bit b of entry a exactly when b != a and
    the two coverage masks overlap, as the pairwise loop found it."""
    import random

    rng = random.Random(13)
    for trial in range(200):
        n = rng.randint(0, 20)
        cov = [rng.getrandbits(n + 3) & rng.getrandbits(n + 3) if rng.random() < 0.9 else 0 for _ in range(n)]
        pairwise = [
            sum(1 << b for b in range(n) if b != a and cov[a] & cov[b]) for a in range(n)
        ]
        assert _conflicts(cov) == pairwise, (trial, cov)


def test_pack_size_bound_never_exceeds_the_fewest_vertices():
    from tumbling.solvers import _pack_size_bound

    tight = 0
    for name, g in oracle_corpus():
        if g.n > 12:
            continue
        for kind, cov in ((ParamKind.F_MAX, g.closed_masks()), (ParamKind.F_OP_MAX, g.open_masks())):
            ref = brute_force(g, kind)
            bound = _pack_size_bound(list(cov), ref.value)
            assert bound <= len(ref.witness), (name, kind)
            tight += bound == len(ref.witness)
    # the bound is reached (C6 and the block pair among others), so a bound
    # one too high would skip the true size
    assert tight >= 10


def _meets_cover(s, reqs, forced, banned, limit):
    return s & forced == forced and not s & banned and s.bit_count() <= limit and all(m & s for m in reqs)


def _meets_pack(s, cov, forced, banned, target, cap):
    if s & forced != forced or s & banned or s.bit_count() > cap:
        return False
    covered = 0
    for v in range(len(cov)):
        if s >> v & 1:
            if cov[v] & covered:
                return False
            covered |= cov[v]
    return covered.bit_count() >= target


#: sha256 of repr() of every cover_feasible and pack_feasible return, in
#: call order, over the seeded cases of test_feasibility_kernel_contract, as
#: the kernels return them with the cover search's narrowest-first packing
#: bound.  A search that finds a different valid set fails here.  The bound
#: moves where tight packing fires, so one of the 1,694 cover_feasible
#: returns differs from the scan-order packing's, whose digest was
#: 49c190f0c8ba9176829354d8f4f13454412900d2cc3a11b4191258742bffda47.
FEASIBLE_DIGEST = "f38df2a2cde93c616b89c11143b27ec8d80400c53f33e1b43028f290c97a224f"


def test_feasibility_kernel_contract(kernel, k1):
    """Feasibility kernels return a mask meeting every constraint of the
    call exactly when plain enumeration finds such a set, else None."""
    import hashlib
    import random

    # K1 under f-op: the empty packing reaches target 0, and its witness is
    # the mask 0, not None
    k1_cov = list(k1.open_masks())
    assert kernel.pack_feasible(1, k1_cov, 0, 0, 0, 0, _conflicts(k1_cov)) == 0
    assert kernel.pack_feasible(1, k1_cov, 0, 0, 1, 1, _conflicts(k1_cov)) is None
    res = solve(k1, ParamKind.F_OP_MAX)
    assert (res.value, res.witness) == (0, ())
    rng = random.Random(20261018)
    returns = []
    for trial in range(150):
        n = rng.randint(1, 12)
        g = random_graph(n, rng.choice((0.2, 0.35, 0.5)), 1000 + trial)
        subsets = range(1 << n)
        for _ in range(4):
            forced = rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
            banned = rng.getrandbits(n) & rng.getrandbits(n) & ~(forced if rng.random() < 0.9 else 0)
            reqs = [rng.getrandbits(n) | 1 << rng.randrange(n) for _ in range(rng.randint(0, 2 * n))]
            sizes = [s.bit_count() for s in subsets if _meets_cover(s, reqs, forced, banned, n)]
            # a random limit, and the optimum and one below it, where the
            # root's packing bound can leave no slack
            limits = [rng.randint(0, n)] + ([min(sizes), min(sizes) - 1] if sizes else [])
            for limit in limits:
                found = kernel.cover_feasible(n, reqs, forced, banned, limit)
                returns.append(found)
                exists = any(size <= limit for size in sizes)
                assert (found is not None) == exists, (trial, reqs, forced, banned, limit)
                if found is not None:
                    assert type(found) is int and _meets_cover(found, reqs, forced, banned, limit)

            cov = list(g.closed_masks() if rng.random() < 0.5 else g.open_masks())
            target = rng.randint(0, n)
            cap = rng.choice((None, rng.randint(0, n)))
            bound = n if cap is None else cap
            found = kernel.pack_feasible(n, cov, forced, banned, target, bound, _conflicts(cov))
            returns.append(found)
            exists = any(_meets_pack(s, cov, forced, banned, target, bound) for s in subsets)
            assert (found is not None) == exists, (trial, cov, forced, banned, target, cap)
            if found is not None:
                assert type(found) is int and _meets_pack(found, cov, forced, banned, target, bound)
    assert hashlib.sha256(repr(returns).encode()).hexdigest() == FEASIBLE_DIGEST


def _pack_value(s, cov):
    """Vertices covered by the set s, or None when two of its coverage masks overlap."""
    covered = 0
    for v in range(len(cov)):
        if s >> v & 1:
            if cov[v] & covered:
                return None
            covered |= cov[v]
    return covered.bit_count()


def _meets_root(s, roots):
    return any(s & forced == forced and not s & banned for forced, banned in roots)


def _roots_cases():
    """Seeded instances for the optimizing kernels: (n, reqs, cov, roots)
    with n <= 12 and one to three random (forced, banned) roots."""
    import random

    rng = random.Random(20261019)
    for trial in range(120):
        n = rng.randint(1, 12)
        g = random_graph(n, rng.choice((0.2, 0.35, 0.5)), 3000 + trial)
        reqs = [rng.getrandbits(n) | 1 << rng.randrange(n) for _ in range(rng.randint(1, 2 * n))]
        cov = list(g.closed_masks() if rng.random() < 0.5 else g.open_masks())
        roots = []
        for _ in range(rng.randint(1, 3)):
            forced = rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
            banned = rng.getrandbits(n) & rng.getrandbits(n) & ~(forced if rng.random() < 0.9 else 0)
            roots.append((forced, banned))
        yield n, reqs, cov, roots


#: sha256 of repr([(solve_cover(n, reqs, PLAIN)[:2], solve_pack(n, cov,
#: PLAIN, conf)[:2]) for each case of _roots_cases()]): the (value, witness)
#: pairs the kernels returned before they took roots.  Node counts are left
#: out, since an exact pruning rule changes them and nothing else.
PLAIN_SEARCH_DIGEST = "f1917d05ac407cd3559b9d2620fac36abd2c20ca5050e58355d2ea8b08176531"
#: solve_cover nodes summed over those plain searches before the tight-packing
#: rule; the rule brought them to 249, and packing the bound narrowest first
#: to 193
PLAIN_COVER_NODES = 344


def test_optimizing_kernel_roots_contract(kernel):
    """The optimum over the sets that meet some root equals plain
    enumeration's, the witness meets a root, and a ValueError means no root
    admits a set.  The plain search, from the one root (0, 0), finds the
    (value, witness) pairs it found before the kernels took roots."""
    import hashlib

    plain = []
    cover_nodes = 0
    for n, reqs, cov, roots in _roots_cases():
        covers = [s.bit_count() for s in range(1 << n) if all(m & s for m in reqs) and _meets_root(s, roots)]
        if covers:
            value, wit, _nodes = kernel.solve_cover(n, reqs, roots)
            assert value == min(covers), (n, reqs, roots)
            assert all(m & wit for m in reqs) and wit.bit_count() == value and _meets_root(wit, roots)
        else:
            with pytest.raises(ValueError):
                kernel.solve_cover(n, reqs, roots)

        conf = _conflicts(cov)
        packs = [_pack_value(s, cov) for s in range(1 << n) if _meets_root(s, roots)]
        packs = [v for v in packs if v is not None]
        if packs:
            value, wit, _nodes = kernel.solve_pack(n, cov, roots, conf)
            assert value == max(packs), (n, cov, roots)
            assert _pack_value(wit, cov) == value and _meets_root(wit, roots)
        else:
            with pytest.raises(ValueError):
                kernel.solve_pack(n, cov, roots, conf)

        cover, pack = kernel.solve_cover(n, reqs, PLAIN), kernel.solve_pack(n, cov, PLAIN, conf)
        plain.append((cover[:2], pack[:2]))
        cover_nodes += cover[2]
    assert hashlib.sha256(repr(plain).encode()).hexdigest() == PLAIN_SEARCH_DIGEST
    assert cover_nodes <= PLAIN_COVER_NODES


def test_cover_search_packs_its_bound_narrowest_first():
    """Packed in scan order, the wide 0b111 takes every vertex and the bound
    is 1, so the root branches; packed narrowest first, 0b001 and 0b100 are
    disjoint, the bound reaches the greedy cover's 2 and the root closes."""
    assert _kernels_py.solve_cover(3, [0b111, 0b001, 0b100], PLAIN) == (2, 0b101, 1)


def test_pack_search_closes_a_node_its_size_cap_cannot_lift():
    """Three disjoint triples and six singletons: everything is coverable,
    but two vertices cover at most 2 * 3 = 6, so a search for more than 6
    under cap 2 closes at its root (it took 13 nodes before the rule)."""
    cov = [0b111, 0b111 << 3, 0b111 << 6] + [1 << i for i in range(3, 9)]
    conf = _conflicts(cov)
    assert _kernels_py._pack_search(9, cov, conf, PLAIN, 6, 2, True) == (6, None, 1)
    assert _kernels_py.pack_feasible(9, cov, 0, 0, 6, 2, conf) == 0b11


#: F and F-OP on TBP 4x4 and q(4,0,4): nodes of the canonical pass's
#: feasibility searches, 64,103 before the size-cap bound; and proof nodes,
#: which the bound never changes (a proof's cap is n).  F-OP's conflicts lie
#: on the two sides of the bipartite lattice, and the sides proven apart
#: take the proofs 37,490 -> 7,030 nodes.
CANON_PACK_NODES = 5_923
PROOF_PACK_NODES = 7_030


def test_canonical_packing_nodes_are_pinned(monkeypatch):
    """Node counts do not depend on the machine, so a lost prune in the
    size-capped packing searches shows here as a count."""
    from tumbling.lattice import FamilyKind, FamilySpec, build_family

    search = _kernels_py._pack_search
    canon_nodes = []

    def counting(*args):
        found = search(*args)
        if args[-1]:  # first=True: a feasibility call
            canon_nodes.append(found[2])
        return found

    monkeypatch.setattr(_kernels_py, "_pack_search", counting)
    proof_nodes = 0
    for g in (build_family(FamilySpec(FamilyKind.TBP, 4, 4)), build_quotient(LatticeQuotient(4, 0, 4))):
        for kind in (ParamKind.F_MAX, ParamKind.F_OP_MAX):
            proof_nodes += solve(g, kind).stats.nodes
    assert (sum(canon_nodes), proof_nodes) == (CANON_PACK_NODES, PROOF_PACK_NODES)


def test_import_ignores_a_backend_request_in_the_environment():
    """No variable selects the kernels: with TB_BACKEND=compiled, which once
    demanded an extension that was never built, the package still imports."""
    import os
    import subprocess
    import sys
    from pathlib import Path

    import tumbling

    src = str(Path(tumbling.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "TB_BACKEND": "compiled",
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
    }
    probe = "import tumbling; print(tumbling.backend_name())"
    proc = subprocess.run(
        [sys.executable, "-c", probe], check=True, timeout=60, env=env, capture_output=True, text=True
    )
    assert proc.stdout == "python\n"


# --- canonical witnesses --------------------------------------------------

def _load_fixture_generator():
    import importlib.util
    from pathlib import Path

    path = Path(__file__).parent / "data" / "gen_canonical_witnesses.py"
    spec = importlib.util.spec_from_file_location("gen_canonical_witnesses", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


#: stats.canon_calls summed over the cases of the canonical-witness fixture.
#: The pass skips the search for each vertex of the witness it starts from,
#: so the count depends on which optimum the proof returned: 6,556 -> 6,559
#: when the proof began to solve independent parts apart, with every stored
#: witness unchanged.
FIXTURE_CANON_CALLS = 6559


def test_canonical_witnesses_match_fixture():
    """Every canonical witness is the one stored in tests/data, byte for byte,
    reached with the pinned number of feasibility calls."""
    import json

    gen = _load_fixture_generator()
    canon_calls = []

    def counting_solve(*args, **kwargs):
        res = solve(*args, **kwargs)
        canon_calls.append(res.stats.canon_calls)
        return res

    gen.solve = counting_solve
    stored = json.loads(gen.FIXTURE.read_text())
    assert [(e["graph"], e["kind"]) for e in stored] == [(name, kind.value) for name, kind in gen.cases()]
    for entry in stored:
        got = gen.solve_case(entry["graph"], ParamKind(entry["kind"]))
        assert got == entry, entry["graph"]
    assert sum(canon_calls) == FIXTURE_CANON_CALLS


# --- independent parts ------------------------------------------------------

def _definitional_objective(nbr, kind, s):
    """The kind's objective of the vertex mask s on the graph whose open
    neighbourhood masks are ``nbr``, read off the definitions, or None when
    s does not meet them."""
    n = len(nbr)
    closed = kind in (ParamKind.GAMMA, ParamKind.IC, ParamKind.F_MAX)
    codes = [(nbr[v] | 1 << v if closed else nbr[v]) & s for v in range(n)]
    if not kind.minimizes:
        return None if any(c.bit_count() > 1 for c in codes) else sum(c != 0 for c in codes)
    if kind == ParamKind.LD:
        codes = [codes[v] for v in range(n) if not s >> v & 1]
    if not all(codes):
        return None
    if kind in (ParamKind.LD, ParamKind.IC, ParamKind.OLD) and len(set(codes)) < len(codes):
        return None
    return s.bit_count()


def _disjoint_union(*graphs):
    edges, offset = [], 0
    for g in graphs:
        edges += [(a + offset, b + offset) for a, b in g.edges()]
        offset += g.n
    return FiniteGraph.from_edges(offset, edges)


def _random_bipartite(left, right, p, seed):
    import random

    rng = random.Random(seed)
    edges = [(a, left + b) for a in range(left) for b in range(right) if rng.random() < p]
    return FiniteGraph.from_edges(left + right, edges)


def _split_cases():
    """Seeded graphs with n <= 14 whose requirements fall apart: disjoint
    unions of random graphs (isolated vertices among them) and random
    bipartite graphs, each with one to three random roots."""
    import random

    rng = random.Random(20261021)
    for trial in range(24):
        if trial % 2:
            left = rng.randint(2, 7)
            g = _random_bipartite(left, rng.randint(2, 14 - left), rng.choice((0.3, 0.5)), 5000 + trial)
        else:
            sizes = [rng.randint(1, 6) for _ in range(rng.randint(2, 3))]
            sizes[-1] = min(sizes[-1], 14 - sum(sizes[:-1]))
            g = _disjoint_union(*(random_graph(k, rng.choice((0.4, 0.7)), 6000 + 10 * trial + i)
                                  for i, k in enumerate(sizes)))
        n = g.n
        roots = []
        for _ in range(rng.randint(1, 3)):
            forced = rng.getrandbits(n) & rng.getrandbits(n) & rng.getrandbits(n)
            banned = rng.getrandbits(n) & rng.getrandbits(n) & ~forced
            roots.append((forced, banned))
        yield g, roots


def test_parts_proven_apart_match_enumeration_over_the_roots():
    """On families that split into several parts, the optimum over the sets
    that meet some root is plain enumeration's, the witness meets a root,
    and a ValueError means no set meets one."""
    split = 0
    for g, roots in _split_cases():
        nbr = [sum(1 << x for x in g.adj[v]) for v in range(g.n)]
        for kind in ParamKind:
            values = [
                value for s in range(1 << g.n)
                if _meets_root(s, roots) and (value := _definitional_objective(nbr, kind, s)) is not None
            ]
            if not values:
                with pytest.raises(ValueError):
                    solve(g, kind, deterministic=False, _roots=roots)
                continue
            res = solve(g, kind, deterministic=False, _roots=roots)
            best = min(values) if kind.minimizes else max(values)
            assert res.value == best, (g.adj, kind, roots)
            mask = sum(1 << v for v in res.witness)
            assert _meets_root(mask, roots) and _definitional_objective(nbr, kind, mask) == best
            split += res.stats.parts > 1
    assert split >= 60


def test_a_root_is_valued_over_all_its_parts_at_once():
    """gamma-op on P4 plus two triangles.  P4's requirements are {1} and {2},
    so its ends 0 and 3 lie outside every part.  Root A forces 0 and all of
    the first triangle, root B forces 3 and all of the second, so each root
    costs 1 + 2 + 3 + 2 = 8.  Taking each part's best root on its own would
    read 7: a triangle at 2 from the other root, and one forced end."""
    g = _disjoint_union(path(4), complete(3), complete(3))
    roots = [(sum(1 << v for v in (0, 4, 5, 6)), 0), (sum(1 << v for v in (3, 7, 8, 9)), 0)]
    nbr = [sum(1 << x for x in g.adj[v]) for v in range(g.n)]
    sizes = [s.bit_count() for s in range(1 << g.n)
             if _meets_root(s, roots) and _definitional_objective(nbr, ParamKind.GAMMA_OP, s) is not None]
    assert min(sizes) == 8
    res = solve(g, ParamKind.GAMMA_OP, deterministic=False, _roots=roots)
    assert (res.value, res.stats.parts) == (8, 4)
    assert _meets_root(sum(1 << v for v in res.witness), roots)


def test_parts_match_a_breadth_first_search():
    """The components of random set families, with empty sets, of two
    chains, and of paths listed in random order (connected, but not in one
    sweep), are those a plain breadth-first search over shared vertices
    finds."""
    import random

    from tumbling.solvers import _parts

    def bfs_parts(sets):
        left = [i for i, m in enumerate(sets) if m]
        parts = []
        while left:
            members, support = [left[0]], sets[left[0]]
            grown = True
            while grown:
                grown = False
                for i in left:
                    if i not in members and sets[i] & support:
                        members.append(i)
                        support |= sets[i]
                        grown = True
            parts.append((support, sorted(members)))
            left = [i for i in left if i not in members]
        return sorted(parts, key=lambda part: part[0] & -part[0]) if len(parts) > 1 else []

    rng = random.Random(20261022)
    families = []
    for _ in range(300):
        n = rng.randint(1, 40)
        width = rng.choice((1, 2, 3))
        families.append((n, [sum(1 << v for v in {rng.randrange(n) for _ in range(rng.randint(0, width))}) for _ in range(rng.randint(0, 30))]))
    for _ in range(40):
        # two chains of 4-sets, each listed along its length
        cut = rng.randint(4, 56)
        families.append((60, [15 << v for start, end in ((0, cut), (cut, 60)) for v in range(start, end - 3)]))
    for _ in range(20):
        n = rng.randint(20, 300)
        path = [3 << v for v in range(n - 1)]
        rng.shuffle(path)
        families.append((n, path))
    split = 0
    for n, sets in families:
        want = bfs_parts(sets)
        assert _parts(n, sets) == want, sets
        split += len(want) > 1
    assert split >= 60


def test_a_connected_ld_or_ic_family_makes_one_kernel_call(monkeypatch):
    """LD and IC on a connected lattice family are one part each, so the
    proof is the one kernel call it always was, with every root in it."""
    import types

    import tumbling.density as density_mod
    import tumbling.solvers as solve_mod
    from tumbling.lattice import FamilyKind, FamilySpec, build_family

    calls = []

    def recording_solve_cover(n, reqs, roots):
        calls.append(tuple(roots))
        return _kernels_py.solve_cover(n, reqs, roots)

    stub = types.SimpleNamespace(
        MAX_N=_kernels_py.MAX_N, solve_cover=recording_solve_cover, cover_feasible=_kernels_py.cover_feasible
    )
    monkeypatch.setattr(solve_mod, "kernels_for", lambda n: stub)
    res = solve(build_family(FamilySpec(FamilyKind.TBP, 3, 3)), ParamKind.LD)
    assert (calls, res.stats.parts) == ([PLAIN], 1)
    calls.clear()
    q = LatticeQuotient(3, 0, 4)
    rec = density_mod._solve_quotient(ParamKind.IC, q, deterministic=False)
    assert (calls, rec.stats.parts) == ([density_mod._orbit_roots(q)], 1)


@pytest.mark.parametrize("kind", [ParamKind.GAMMA_OP, ParamKind.OLD, ParamKind.F_OP_MAX], ids=lambda k: k.value)
def test_open_kinds_on_a_quotient_split_along_the_bipartition(kind):
    """The lattice is bipartite, U against W and V, and an open kind's
    requirements and coverage lie on one side each: two parts, solved to the
    optimum of one joint kernel search."""
    import tumbling.density as density_mod

    q = LatticeQuotient(3, 0, 4)
    g = build_quotient(q)
    rec = density_mod._solve_quotient(kind, q, deterministic=True)
    if kind.minimizes:
        joint = _kernels_py.solve_cover(g.n, _dominance_filter(_cover_requirements(g, kind)), PLAIN)
    else:
        cov = list(g.open_masks())
        joint = _kernels_py.solve_pack(g.n, cov, PLAIN, _conflicts(cov))
    assert (rec.stats.parts, rec.size) == (2, joint[0])
    assert verify_witness(g, kind, rec.witness, rec.size)


def test_gamma_on_isolated_vertices_is_one_part_per_vertex():
    """Each isolated vertex is its own part.  Finding the parts is
    near-linear, so 2,000 of them take a fraction of the 2.8 s that the
    greedy bound of one joint search took."""
    import time

    g = FiniteGraph([[] for _ in range(2000)])
    t0 = time.perf_counter()
    res = solve(g, ParamKind.GAMMA)
    elapsed = time.perf_counter() - t0
    assert (res.value, res.stats.parts, res.witness) == (2000, 2000, tuple(range(2000)))
    assert elapsed < 1.4
