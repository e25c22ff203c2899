"""Acceptance suite: every quantitative claim, one test per criterion.

Each test prints a single pass line (visible with ``pytest -s`` or ``-rA``);
a failure names the violated bound.  Run the whole file with::

    pytest tests/test_acceptance.py -v
"""

import random
import time
import xml.etree.ElementTree as ET
from dataclasses import replace
from fractions import Fraction
from itertools import permutations

import pytest

from conftest import oracle_corpus

from tumbling.cli import main as cli_main
from tumbling.density import (
    density_sweep,
    lift_check,
    min_density,
    perfect_open_pattern,
    search,
    valid_quotients,
)
from tumbling.formats import load_document, serialize
from tumbling.graph import FiniteGraph, bipartition
from tumbling.hamilton import bipartite_balance, find_hamiltonian_cycle, hex_ball_cut_set, verify_cut
from tumbling.lattice import (
    FamilyKind,
    FamilySpec,
    VClass,
    block_graph,
    build_family,
    closed_form_counts,
)
from tumbling.quotient import DegenerateQuotientError, LatticeQuotient, build_quotient, enumerate_hnf
from tumbling.shares import check_ld_pn_bound, check_open_share_cap, open_share, share
from tumbling.solvers import (
    InfeasibleError,
    ParamKind,
    brute_force,
    has_efficient_dominating,
    is_dominating,
    is_open_dominating,
    solve,
    verify_witness,
)

ALL_FAMILIES = (FamilyKind.TBT, FamilyKind.TBP, FamilyKind.TBR)


def _report(num: int, label: str, detail: str = ""):
    print(f"[criterion {num:2d}] {label}: PASS {detail}".rstrip())


def test_criterion_01_count_formulas():
    t0 = time.perf_counter()
    for kind in ALL_FAMILIES:
        for r in range(1, 13):
            for s in range(1, 13):
                spec = FamilySpec(kind, r, s)
                g = build_family(spec)
                assert (g.n, g.m) == closed_form_counts(spec), (kind, r, s)
                if kind == FamilyKind.TBT:
                    break
    elapsed = time.perf_counter() - t0
    assert elapsed < 5
    _report(1, "count formulas", f"(all families r,s <= 12, {elapsed:.2f}s)")


def test_criterion_02_structure_suite():
    t0 = time.perf_counter()
    checked = 0
    for q in enumerate_hnf(8):
        try:
            g = build_quotient(q)
        except DegenerateQuotientError:
            continue
        checked += 1
        for k, lab in enumerate(g.labels):
            assert g.degree(k) == (6 if lab.cls == VClass.U else 3)
        rest, part_u = bipartition(g)
        assert (len(rest), len(part_u)) == (2 * q.det, q.det)
        for a, b in g.edges():
            assert (g.labels[a].cls == VClass.U) != (g.labels[b].cls == VClass.U)
    assert checked >= 10

    # explicit isomorphism between the block and the 3-cube minus a vertex
    cube_edges = [(a, b) for a in range(8) for b in range(a + 1, 8) if bin(a ^ b).count("1") == 1]
    q3_minus = FiniteGraph.from_edges(7, [e for e in cube_edges if 7 not in e])
    g = block_graph(1, 1)
    e2 = {frozenset(e) for e in q3_minus.edges()}
    found = False
    for perm in permutations(range(7)):
        if all(q3_minus.degree(perm[x]) == g.degree(x) for x in range(7)) and all(
            frozenset((perm[a], perm[b])) in e2 for a, b in g.edges()
        ):
            found = True
            break
    assert found, "block is not isomorphic to Q3 minus a vertex"
    elapsed = time.perf_counter() - t0
    assert elapsed < 5
    _report(2, "structure suite", f"({checked} quotients, {elapsed:.2f}s)")


def test_criterion_03_oracle_equivalence():
    t0 = time.perf_counter()
    corpus = oracle_corpus()
    assert len(corpus) >= 50
    pairs = 0
    for name, g in corpus:
        values = {}
        for kind in ParamKind:
            try:
                expected = brute_force(g, kind)
            except InfeasibleError:
                with pytest.raises(InfeasibleError):
                    solve(g, kind)
                continue
            got = solve(g, kind)
            assert got.value == expected.value, (name, kind)
            # one canonical rule for both engines: fewest vertices, then
            # lexicographically least, as brute force enumerates
            assert got.witness == expected.witness, (name, kind)
            assert verify_witness(g, kind, got.witness, got.value), (name, kind)
            assert verify_witness(g, kind, expected.witness, expected.value), (name, kind)
            values[kind] = got
            pairs += 1
        # parameter chain and the LD counting bound on every solved instance
        if ParamKind.LD in values:
            assert values[ParamKind.GAMMA].value <= values[ParamKind.LD].value, name
            ld = values[ParamKind.LD]
            assert g.n - ld.value <= 2 ** ld.value - 1, name
            if ParamKind.IC in values:
                assert values[ParamKind.LD].value <= values[ParamKind.IC].value, name
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    _report(3, "oracle equivalence", f"({len(corpus)} graphs, {pairs} solves, {elapsed:.1f}s)")


def _random_feasible_set(g, rng, open_variant):
    S = {x for x in range(g.n) if rng.random() < 0.4}
    for x in range(g.n):
        coverers = set(g.adj[x]) | (set() if open_variant else {x})
        if not coverers & S:
            S.add(rng.choice(sorted(g.adj[x])))
    return tuple(sorted(S))


def test_criterion_04_share_identities():
    t0 = time.perf_counter()
    rng = random.Random(20260809)
    instances = []
    for _ in range(6):
        instances.append(
            (False, build_family(FamilySpec(FamilyKind.TBP, rng.randint(1, 3), rng.randint(1, 3))))
        )
        instances.append(
            (False, build_family(FamilySpec(FamilyKind.TBR, rng.randint(1, 3), rng.randint(2, 4))))
        )
    for acd in [(3, 0, 3), (4, 3, 2), (3, 2, 1), (2, 0, 2)]:
        instances.append((True, build_quotient(LatticeQuotient(*acd))))
    sets_checked = 0
    while sets_checked < 100:
        is_quotient, g = instances[sets_checked % len(instances)]
        D = _random_feasible_set(g, rng, open_variant=False)
        assert is_dominating(g, D)
        assert sum(share(g, D, x) for x in D) == g.n
        Do = _random_feasible_set(g, rng, open_variant=True)
        assert is_open_dominating(g, Do)
        assert sum(open_share(g, Do, x) for x in Do) == g.n
        for x in D:
            assert share(g, D, x) <= 1 + g.degree(x)
        if is_quotient:  # every quotient dominator has degree exactly 3 or 6
            for x in D:
                cap = 7 if g.degree(x) == 6 else 4
                assert share(g, D, x) <= cap
        sets_checked += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _report(4, "share identities", f"({sets_checked} set pairs, {elapsed:.1f}s)")


def test_criterion_05_gamma_density():
    t0 = time.perf_counter()
    records = density_sweep(ParamKind.GAMMA, 14)
    best = min(r.density for r in records)
    if best != Fraction(1, 5):  # documented fallback for an unknown pattern period
        records = density_sweep(ParamKind.GAMMA, 40)
        best = min(r.density for r in records)
    assert best == Fraction(1, 5)
    assert all(r.density >= Fraction(1, 5) for r in records)
    assert all(r.density > Fraction(1, 7) for r in records)
    rec = search(ParamKind.GAMMA, 14)
    assert rec.density == Fraction(1, 5)
    assert lift_check(rec, 12, 12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800
    _report(5, "gamma density 1/5", f"({len(records)} quotients, {elapsed:.1f}s)")


def test_criterion_06_efficient_domination_fraction():
    t0 = time.perf_counter()
    rec = min_density(ParamKind.F_MAX, LatticeQuotient(4, 3, 2))  # 24 vertices; 24 divides 96
    assert rec.density >= Fraction(11, 12)
    assert lift_check(rec, 12, 12)
    tested = 0
    for q in valid_quotients(10, 2):
        g = build_quotient(q)
        assert not has_efficient_dominating(g), q
        tested += 1
    assert tested >= 10
    records = density_sweep(ParamKind.F_MAX, 10)
    assert all(r.density < 1 for r in records)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800
    _report(6, "efficient fraction >= 11/12, < 1", f"({tested} quotients, {elapsed:.1f}s)")


def test_criterion_07_perfect_open_pattern():
    t0 = time.perf_counter()
    rec = perfect_open_pattern(12)
    assert rec.density == Fraction(2, 9)
    assert rec.exact_cover
    assert lift_check(rec, 12, 12)
    best = search(ParamKind.GAMMA_OP, 12)
    assert best.density == Fraction(2, 9)
    elapsed = time.perf_counter() - t0
    assert elapsed < 600
    _report(7, "perfect open pattern 2/9", f"({elapsed:.1f}s)")


def test_criterion_08_ld_density():
    t0 = time.perf_counter()
    records = density_sweep(ParamKind.LD, 12)
    assert all(r.density > Fraction(1, 4) for r in records)
    best = search(ParamKind.LD, 12)
    assert Fraction(1, 4) < best.density <= Fraction(8, 27)
    assert lift_check(best, 12, 12)
    # private-neighbor cap on every canonical witness
    for q in valid_quotients(9, 2):
        g = build_quotient(q)
        res = solve(g, ParamKind.LD)
        counts = check_ld_pn_bound(g, res.witness)
        assert all(c <= 1 for c in counts.values())
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800
    _report(8, "LD density in (1/4, 8/27]", f"(best {best.density}, {elapsed:.1f}s)")


def test_criterion_09_ic_density():
    t0 = time.perf_counter()
    records = density_sweep(ParamKind.IC, 12)
    assert all(r.density >= Fraction(3, 11) for r in records)
    best = search(ParamKind.IC, 12)
    assert Fraction(3, 11) <= best.density <= Fraction(1, 3)
    assert lift_check(best, 12, 12)
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800
    _report(9, "IC density in [3/11, 1/3]", f"(best {best.density}, {elapsed:.1f}s)")


def test_criterion_10_old_density():
    t0 = time.perf_counter()
    records = density_sweep(ParamKind.OLD, 12)
    best = min(r.density for r in records)
    assert best == Fraction(7, 18)
    assert all(r.density >= Fraction(7, 18) for r in records)
    for q in valid_quotients(9, 2):
        g = build_quotient(q)
        res = solve(g, ParamKind.OLD)
        margins = check_open_share_cap(g, res.witness)
        assert all(m >= 0 for m in margins.values())
    elapsed = time.perf_counter() - t0
    assert elapsed < 1800
    _report(10, "OLD density 7/18", f"({len(records)} quotients, {elapsed:.1f}s)")


def test_criterion_11_non_hamiltonicity():
    t0 = time.perf_counter()
    g = build_family(FamilySpec(FamilyKind.TBP, 7, 7))
    S = [g.index_of(a) for a in hex_ball_cut_set(4, 4)]
    cert = verify_cut(g, S)
    assert cert.isolated_after == 24
    assert cert.certifies
    for kind in ALL_FAMILIES:
        for r in range(1, 13):
            for s in range(1, 13):
                _, _, balanced = bipartite_balance(build_family(FamilySpec(kind, r, s)))
                assert not balanced, (kind, r, s)
                if kind == FamilyKind.TBT:
                    break
    assert find_hamiltonian_cycle(block_graph(1, 1)) is None
    assert find_hamiltonian_cycle(build_family(FamilySpec(FamilyKind.TBP, 1, 2))) is None
    assert find_hamiltonian_cycle(build_family(FamilySpec(FamilyKind.TBP, 2, 2))) is None
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _report(11, "non-hamiltonicity", f"(24 isolated, {elapsed:.1f}s)")


def test_criterion_12_tooling(tmp_path, capsys):
    t0 = time.perf_counter()
    # byte-identical gen -> parse -> gen for every format
    for fmt in ("edges", "json", "dimacs"):
        path = tmp_path / f"g.{fmt}"
        assert cli_main(["gen", "--family", "tbp", "--rows", "2", "--cols", "3",
                         "--format", fmt, "-o", str(path)]) == 0
        doc = load_document(str(path))
        assert serialize(doc, fmt).encode() == path.read_bytes()
    # every solver witness passes cmd_verify
    for param in ("gamma", "gamma-op", "f", "f-op", "ld", "ic", "old"):
        rec = tmp_path / f"{param}.json"
        assert cli_main(["solve", "--family", "tbt", "--rows", "1",
                         "--param", param, "--emit", str(rec)]) == 0
        assert cli_main(["verify", "--input", str(rec)]) == 0
    # SVG glyph count and well-formedness
    svg = tmp_path / "tbp22.svg"
    assert cli_main(["render", "--family", "tbp", "--rows", "2", "--cols", "2",
                     "-o", str(svg)]) == 0
    root = ET.fromstring(svg.read_text())
    circles = root.findall(".//{http://www.w3.org/2000/svg}circle")
    assert len(circles) == 20
    capsys.readouterr()
    elapsed = time.perf_counter() - t0
    assert elapsed < 60
    _report(12, "tooling round trips", f"({elapsed:.1f}s)")
