"""Periodic pattern search, lifting checks, and the known density targets."""

from dataclasses import replace
from fractions import Fraction

import pytest

import logging
import re

import tumbling.density as density_mod
import tumbling.quotient as quotient_mod
from tumbling.density import (
    DensityRecord,
    NoValidQuotientError,
    density_sweep,
    lift_check,
    min_density,
    perfect_open_pattern,
    required_radius,
    search,
    valid_quotients,
)
from tumbling.lattice import FamilyKind, FamilySpec, build_family, tb_ball
from tumbling.quotient import POINT_GROUP, LatticeQuotient, build_quotient, quotient_orbits
from tumbling.solvers import InfeasibleError, ParamKind, _objective, verify_witness


def test_required_radius():
    assert required_radius(ParamKind.GAMMA) == 1
    assert required_radius(ParamKind.GAMMA_OP) == 1
    for kind in (ParamKind.F_MAX, ParamKind.F_OP_MAX, ParamKind.LD, ParamKind.IC, ParamKind.OLD):
        assert required_radius(kind) == 2


def test_min_density_gamma_fifth():
    rec = min_density(ParamKind.GAMMA, LatticeQuotient(2, 0, 5))
    assert rec.size == 6
    assert rec.density == Fraction(1, 5)
    assert lift_check(rec, 10, 10)


def test_min_density_old_check():
    rec = min_density(ParamKind.OLD, LatticeQuotient(3, 0, 4))
    assert rec.density == Fraction(7, 18)
    assert lift_check(rec, 12, 12)


def test_min_density_rejects_unvalidated_quotient():
    with pytest.raises(ValueError):
        min_density(ParamKind.OLD, LatticeQuotient(3, 2, 1))  # 9 vertices < radius-2 ball


def test_search_gamma_op_and_witness_addresses():
    rec = search(ParamKind.GAMMA_OP, 9)
    assert rec.density == Fraction(2, 9)
    addrs = rec.witness_addresses()
    assert len(addrs) == rec.size


def test_search_no_valid_quotient():
    with pytest.raises(NoValidQuotientError):
        search(ParamKind.OLD, 6)  # radius-2 validation needs det >= 7


def test_search_is_deterministic():
    a = search(ParamKind.GAMMA_OP, 8)
    b = search(ParamKind.GAMMA_OP, 8)
    assert a == b


def test_f_fraction_target_quotient():
    rec = min_density(ParamKind.F_MAX, LatticeQuotient(4, 3, 2))
    assert rec.density == Fraction(11, 12)
    assert lift_check(rec, 12, 12)


def test_f_fraction_never_perfect():
    for q in (LatticeQuotient(4, 3, 2), LatticeQuotient(7, 3, 1), LatticeQuotient(3, 0, 3)):
        rec = min_density(ParamKind.F_MAX, q)
        assert rec.density < 1


def test_perfect_open_pattern():
    rec = perfect_open_pattern(9)
    assert rec.density == Fraction(2, 9)
    assert rec.exact_cover
    assert rec.quotient == LatticeQuotient(3, 0, 3)
    assert lift_check(rec, 12, 12)


def test_perfect_open_pattern_not_found_below_det9():
    with pytest.raises(NoValidQuotientError):
        perfect_open_pattern(8)


def test_lift_check_rejects_corrupted_patterns():
    for kind, q in [
        (ParamKind.GAMMA, LatticeQuotient(2, 0, 5)),
        (ParamKind.OLD, LatticeQuotient(3, 0, 4)),
    ]:
        rec = min_density(kind, q)
        broken = replace(rec, witness=rec.witness[1:])
        assert lift_check(rec, 12, 12)
        assert not lift_check(broken, 12, 12)


def test_lift_check_rejects_corrupted_exact_cover():
    rec = perfect_open_pattern(9)
    broken = replace(rec, witness=rec.witness[1:])
    assert not lift_check(broken, 12, 12)


def test_lift_check_rejects_overfull_packing():
    rec = min_density(ParamKind.F_MAX, LatticeQuotient(4, 3, 2))
    extra = next(x for x in range(3 * 8) if x not in rec.witness)
    broken = replace(rec, witness=rec.witness + (extra,))
    assert not lift_check(broken, 12, 12)


def test_lift_check_window_too_small():
    rec = min_density(ParamKind.GAMMA, LatticeQuotient(2, 0, 5))
    with pytest.raises(ValueError):
        lift_check(rec, 3, 12)


def test_lift_check_matches_quotient_verdict():
    """On a quotient validated at the kind's radius, a pattern lifts exactly
    when it meets the definition on the quotient graph: checked on every
    optimal witness with det <= 6 and on every one-vertex toggle of it."""
    cases = 0
    for kind in ParamKind:
        for q in valid_quotients(6, required_radius(kind)):
            try:
                rec = min_density(kind, q)
            except InfeasibleError:
                continue
            g = build_quotient(q)
            for toggle in [None, *range(g.n)]:
                witness = tuple(sorted(set(rec.witness) ^ ({toggle} - {None})))
                expected = _objective(g, kind, frozenset(witness)) is not None
                assert lift_check(replace(rec, witness=witness), 12, 12) == expected, (kind, q, toggle)
                cases += 1
    assert cases == 34 + 528  # optimal witnesses + one-vertex toggles


def test_share_total_over_fundamental_domain():
    from tumbling.quotient import build_quotient
    from tumbling.shares import share

    # any dominating pattern: shares over one fundamental domain sum to 3*det
    rec = min_density(ParamKind.GAMMA, LatticeQuotient(2, 0, 5))
    g = build_quotient(rec.quotient)
    assert sum(share(g, rec.witness, x) for x in rec.witness) == 30

    # the locating-dominating pattern on 27 vertices has share total 27
    rec = min_density(ParamKind.LD, LatticeQuotient(3, 0, 3))
    assert rec.density == Fraction(8, 27)
    g = build_quotient(rec.quotient)
    assert sum(share(g, rec.witness, x) for x in rec.witness) == 27


def test_sweep_falls_back_to_serial_with_warning(monkeypatch, caplog):
    def no_pool(*args, **kwargs):
        raise OSError("no process pool here")

    monkeypatch.setattr(density_mod, "ProcessPoolExecutor", no_pool)
    with caplog.at_level(logging.WARNING, logger="tumbling"):
        records = density_mod.density_sweep(ParamKind.GAMMA, 6, threads=2)
    assert len(records) > 4
    serial = density_mod.density_sweep(ParamKind.GAMMA, 6, threads=1)
    assert [r.quotient for r in records] == [r.quotient for r in serial]
    assert any(rec.levelno == logging.WARNING and "serially" in rec.getMessage() for rec in caplog.records)


def test_pool_is_imported_only_by_a_parallel_sweep():
    import subprocess
    import sys

    probe = (
        "import sys, tumbling\n"
        "from tumbling.density import density_sweep\n"
        "from tumbling.solvers import ParamKind\n"
        "assert 'multiprocessing' not in sys.modules\n"
        "serial = density_sweep(ParamKind.GAMMA, 6, threads=1)\n"
        "assert 'multiprocessing' not in sys.modules\n"
        "assert density_sweep(ParamKind.GAMMA, 6, threads=2) == serial\n"
        "assert 'multiprocessing' in sys.modules\n"
    )
    import os
    from pathlib import Path

    import tumbling

    src = str(Path(tumbling.__file__).resolve().parents[1])
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")]))}
    subprocess.run([sys.executable, "-c", probe], check=True, timeout=120, env=env)


@pytest.mark.parametrize("kind", list(ParamKind), ids=lambda k: k.value)
def test_orbit_sweep_matches_full_sweep(kind):
    """One solve per point-group orbit gives the same records as solving
    every valid quotient, and the same search result."""
    full = [min_density(kind, q) for q in valid_quotients(12, required_radius(kind))]
    reduced = density_sweep(kind, 12, threads=1)
    assert [r.quotient for r in reduced] == [r.quotient for r in full]
    assert [(r.size, r.density) for r in reduced] == [(r.size, r.density) for r in full]
    for rec in reduced:
        assert verify_witness(build_quotient(rec.quotient), kind, rec.witness, rec.size)

    def key(rec):
        lead = rec.density if kind.minimizes else -rec.density
        return (lead, rec.quotient.det, rec.quotient.a, rec.quotient.c)

    assert search(kind, 12, threads=1) == min_density(kind, min(full, key=key).quotient)


def test_sweep_solves_only_representatives(monkeypatch):
    solved = []
    real_solve = density_mod.solve

    def recording_solve(g, kind, deterministic=True, **kwargs):
        solved.append(g.n)
        return real_solve(g, kind, deterministic=deterministic, **kwargs)

    monkeypatch.setattr(density_mod, "solve", recording_solve)
    records = density_sweep(ParamKind.LD, 12, threads=1)
    assert (len(records), len(solved)) == (40, 10)


def _broken_point_group():
    # rotation by 60 degrees with the W shift dropped: the matrix is a true
    # symmetry, so the orbits stay the same, but the vertex map is wrong
    rot = POINT_GROUP[1]
    assert rot.w_shift != (0, 0)
    return (POINT_GROUP[0], rot._replace(w_shift=(0, 0))) + POINT_GROUP[2:]


def test_sweep_raises_on_wrong_symmetry(monkeypatch):
    monkeypatch.setattr(quotient_mod, "POINT_GROUP", _broken_point_group())
    with pytest.raises(RuntimeError, match="does not map"):
        density_sweep(ParamKind.GAMMA, 8, threads=1)


def test_sweep_raises_when_carried_witness_fails(monkeypatch):
    monkeypatch.setattr(density_mod, "verify_witness", lambda *args: False)
    with pytest.raises(RuntimeError, match="re-verification"):
        density_sweep(ParamKind.LD, 9, threads=1)


def test_perfect_open_pattern_solves_only_representatives(monkeypatch):
    built = []
    real_build = density_mod.build_quotient

    def recording_build(q):
        built.append(q)
        return real_build(q)

    monkeypatch.setattr(density_mod, "build_quotient", recording_build)
    rec = perfect_open_pattern(12)
    assert rec.quotient == LatticeQuotient(3, 0, 3)
    orbits = quotient_orbits(valid_quotients(12, 2))
    assert built and all(orbits[q][0] == q for q in built)


def test_search_builds_only_representatives(monkeypatch):
    """Orbit members are certified by arithmetic: ``search`` builds the graph
    of each representative to solve it, and the winner's once more for the
    canonical pass, and no other."""
    built = []
    real_build = density_mod.build_quotient

    def recording_build(q):
        built.append(q)
        return real_build(q)

    monkeypatch.setattr(density_mod, "build_quotient", recording_build)
    rec = search(ParamKind.LD, 12, threads=1)
    reps = _representatives(12, 2)
    assert built == reps + [rec.quotient]


def test_search_raises_on_wrong_symmetry_before_any_solve(monkeypatch):
    solved = []
    monkeypatch.setattr(density_mod, "solve", lambda *args, **kwargs: solved.append(args))
    monkeypatch.setattr(quotient_mod, "POINT_GROUP", _broken_point_group())
    with pytest.raises(RuntimeError, match="does not map quotient"):
        search(ParamKind.GAMMA, 8, threads=1)
    assert solved == []


def test_carried_record_checks_the_built_graphs():
    """The sweep's graph-level isomorphism check stands on its own: a vertex
    map that the certificate would reject fails it too."""
    rep = LatticeQuotient(2, 0, 5)
    broken = _broken_point_group()[1]
    q = broken.image(rep)
    assert q == LatticeQuotient(10, 5, 1) and not quotient_mod.induces_isomorphism(broken, rep, q)
    rec = min_density(ParamKind.GAMMA, rep)
    with pytest.raises(RuntimeError, match=re.escape(f"does not map quotient {rep} onto {q}")):
        density_mod._carry_record(rec, build_quotient(rep), q, broken)
    carried = density_mod._carry_record(rec, build_quotient(rep), q, POINT_GROUP[1])
    assert (carried.quotient, carried.size) == (q, rec.size)


def _inline_pool(monkeypatch) -> tuple[list, list]:
    """Replace the sweep's process pool by one that solves in this process
    and starts no worker; return the list of the quotients it is handed, in
    order, and the list of the ``max_workers`` it was built with."""
    handed_out = []
    workers = []

    class InlinePool:
        def __init__(self, max_workers):
            workers.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, tasks):
            tasks = list(tasks)
            handed_out.extend(tasks)
            return map(fn, tasks)

    monkeypatch.setattr(density_mod, "ProcessPoolExecutor", InlinePool)
    return handed_out, workers


def test_pool_takes_the_largest_quotients_first(monkeypatch):
    """A parallel sweep hands out representatives in decreasing det and
    returns the records in (det, a, c) order, as a serial sweep does."""
    handed_out, _workers = _inline_pool(monkeypatch)
    pooled = density_sweep(ParamKind.LD, 12, threads=2)
    reps = _representatives(12, 2)
    assert sorted(handed_out, key=lambda q: (-q.det, q.a, q.c)) == handed_out
    assert sorted(handed_out, key=lambda q: (q.det, q.a, q.c)) == reps
    assert handed_out[0].det > handed_out[-1].det
    assert pooled == density_sweep(ParamKind.LD, 12, threads=1)


def test_pool_starts_at_most_one_worker_per_representative(monkeypatch):
    """A thread budget far above the number of representatives asks the
    pool for one worker per representative, not one per thread."""
    handed_out, workers = _inline_pool(monkeypatch)
    density_sweep(ParamKind.LD, 12, threads=10**6)
    assert workers == [len(handed_out)] == [10]


def test_sweep_logs_each_representative_and_a_summary(caplog):
    with caplog.at_level(logging.DEBUG, logger="tumbling"):
        records = density_sweep(ParamKind.OLD, 9, threads=1)
    orbits = quotient_orbits([r.quotient for r in records])
    reps = [q for q, (rep, _g) in orbits.items() if rep == q]
    debug = [r.getMessage() for r in caplog.records if r.levelno == logging.DEBUG]
    info = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert len(debug) == len(reps) < len(records)
    nodes = 0
    for q, msg in zip(reps, debug):
        size = sum(rep == q for rep, _g in orbits.values())
        assert msg.startswith(f"old on {q}: orbit of {size}, ")
        assert " nodes, " in msg and msg.endswith("s")
        nodes += int(msg.split(", ")[1].removesuffix(" nodes"))
    assert len(info) == 1
    assert info[0].startswith(
        f"old sweep to det 9: {len(records)} valid quotients, {len(reps)} representatives solved, slowest ("
    )
    # the summary's proof nodes are the representatives' nodes, summed
    assert nodes > 0
    assert re.search(rf", proof {nodes} nodes in \d+\.\d{{3}}s$", info[0]), info[0]


def _recording_build(monkeypatch) -> list:
    built = []
    real_build = density_mod.build_quotient

    def recording_build(q):
        built.append(q)
        return real_build(q)

    monkeypatch.setattr(density_mod, "build_quotient", recording_build)
    return built


def test_packing_search_stops_at_density_1(monkeypatch, caplog):
    """F-OP reaches density 1 on q(3,0,3): no later representative is solved,
    the winner is solved once more for its canonical witness, and the
    summary says where the sweep stopped."""
    built = _recording_build(monkeypatch)
    with caplog.at_level(logging.INFO, logger="tumbling"):
        rec = search(ParamKind.F_OP_MAX, 14, threads=1)
    reps = _representatives(14, 2)
    stop = reps.index(LatticeQuotient(3, 0, 3)) + 1
    assert (rec.quotient, rec.density, rec.witness) == (LatticeQuotient(3, 0, 3), 1, (0, 5, 7, 9, 14, 16))
    assert built == reps[:stop] + [rec.quotient]
    assert stop < len(reps)
    info = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert len(info) == 1
    assert f", stopped at density 1 after {stop} of {len(reps)} representatives, slowest (" in info[0], info[0]


def test_packing_search_below_density_1_solves_every_representative(monkeypatch, caplog):
    built = _recording_build(monkeypatch)
    with caplog.at_level(logging.INFO, logger="tumbling"):
        rec = search(ParamKind.F_MAX, 16, threads=1)
    reps = _representatives(16, 2)
    assert rec.density == Fraction(11, 12)
    assert built == reps + [rec.quotient]
    info = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert f", {len(reps)} representatives solved, " in info[0] and "stopped" not in info[0]


def test_packing_search_is_serial_under_any_thread_budget(monkeypatch, caplog):
    """With two threads to spend, a packing search still starts no pool and
    stops at density 1."""
    monkeypatch.setattr(density_mod, "ProcessPoolExecutor", lambda max_workers: pytest.fail("started a pool"))
    monkeypatch.setenv("TB_THREADS", "2")
    with caplog.at_level(logging.INFO, logger="tumbling"):
        rec = search(ParamKind.F_OP_MAX, 14)
    assert rec == search(ParamKind.F_OP_MAX, 14, threads=1)
    info = [r.getMessage() for r in caplog.records if r.levelno == logging.INFO]
    assert ", stopped at density 1 after 3 of 14 representatives, " in info[0], info[0]


def test_perfect_open_pattern_is_the_f_op_search_winner(monkeypatch):
    monkeypatch.setattr(density_mod, "ProcessPoolExecutor", lambda max_workers: pytest.fail("started a pool"))
    monkeypatch.setenv("TB_THREADS", "2")
    rec = perfect_open_pattern(12)
    assert (rec.quotient, rec.size, rec.density, rec.witness) == (
        LatticeQuotient(3, 0, 3), 6, Fraction(2, 9), (0, 5, 7, 9, 14, 16)
    )
    assert rec.exact_cover


#: search(kind, 16, threads=1) as it was before packing searches stopped at
#: density 1: (density, quotient (a, c, d), witness).
SEARCH_16 = {
    ParamKind.GAMMA: ("1/5", (2, 0, 5), (0, 11, 13, 15, 18, 27)),
    ParamKind.GAMMA_OP: ("2/9", (3, 2, 1), (0, 3)),
    ParamKind.F_MAX: ("11/12", (4, 3, 2), (0, 4, 10, 14)),
    ParamKind.F_OP_MAX: ("1", (3, 0, 3), (0, 5, 7, 9, 14, 16)),
    ParamKind.LD: ("13/45", (5, 4, 3), (0, 2, 9, 12, 15, 16, 18, 19, 21, 22, 24, 25, 28)),
    ParamKind.IC: ("5/16", (4, 0, 4), (0, 1, 12, 16, 18, 20, 21, 22, 23, 24, 26, 28, 29, 30, 42)),
    ParamKind.OLD: ("7/18", (3, 0, 4), (0, 1, 2, 12, 13, 14, 15, 16, 17, 18, 19, 29, 30, 31)),
}


@pytest.mark.parametrize("kind", list(ParamKind), ids=lambda k: k.value)
def test_search_records_to_det_16_are_pinned(kind):
    rec = search(kind, 16, threads=1)
    q = rec.quotient
    assert (str(rec.density), (q.a, q.c, q.d), rec.witness) == SEARCH_16[kind]


# ---------------------------------------------------------------------------
# orbital branching: quotient solves search only the two root branches
# ---------------------------------------------------------------------------

def _representatives(max_det, radius):
    orbits = quotient_orbits(valid_quotients(max_det, radius))
    return [q for q, (rep, _g) in orbits.items() if rep == q]


def _value_or_infeasible(fn):
    try:
        return fn()
    except InfeasibleError:
        return "infeasible"


@pytest.mark.parametrize("kind", list(ParamKind), ids=lambda k: k.value)
def test_orbital_solve_matches_plain_solve(kind):
    """Every orbit representative with det <= 12 gets the same optimum from
    the plain branch and bound and from the two orbital root branches."""
    from tumbling.solvers import solve

    reps = _representatives(12, required_radius(kind))
    assert reps
    for q in reps:
        plain = _value_or_infeasible(lambda: solve(build_quotient(q), kind, deterministic=False).value)
        orbital = _value_or_infeasible(lambda: density_mod._solve_quotient(kind, q, False).size)
        assert orbital == plain, (kind, q)


#: proof nodes of the det <= 12 sweeps, summed over the representatives.
#: Before tight-packing fixing in the cover kernels: LD 12,595, IC 19,978,
#: OLD 45,929; with it, before the narrowest-first packing bound: LD 6,316,
#: IC 10,575, OLD 16,036.  OLD's requirements lie on the two sides of the
#: bipartite lattice, and the sides proven apart take 12,316 -> 936 nodes;
#: LD and IC are one part each.
SWEEP_12_NODES = {ParamKind.LD: 2_311, ParamKind.IC: 4_473, ParamKind.OLD: 936}
#: proof nodes of the det <= 16 LD sweep (about 0.4 s); 88,321 before the
#: narrowest-first packing bound
SWEEP_16_LD_NODES = 23_228
#: proof nodes of the det <= 16 OLD sweep, its two sides proven apart;
#: 292,874 when they were searched as one product
SWEEP_16_OLD_NODES = 12_788
_SWEEP_PINS = [pytest.param(kind, 12, nodes, id=kind.value) for kind, nodes in SWEEP_12_NODES.items()] + [
    pytest.param(ParamKind.LD, 16, SWEEP_16_LD_NODES, id="ld-det16"),
    pytest.param(ParamKind.OLD, 16, SWEEP_16_OLD_NODES, id="old-det16"),
]


@pytest.mark.parametrize("kind, max_det, nodes", _SWEEP_PINS)
def test_sweep_proof_nodes_are_pinned(kind, max_det, nodes):
    """Node counts do not depend on the machine, so a lost prune shows here
    as a count, not only as seconds."""
    _quots, _orbits, solved = density_mod._solve_orbits(kind, max_det, threads=1)
    assert sum(rec.stats.nodes for rec in solved.values()) == nodes


def test_orbital_solve_reproduces_the_canonical_fixture():
    """The canonical pass does not depend on which optimum the proof found:
    every quotient case of tests/data/canonical_witnesses.json gets the
    stored witness from the orbital solve."""
    import json
    from pathlib import Path

    stored = json.loads((Path(__file__).parent / "data" / "canonical_witnesses.json").read_text())
    cases = [e for e in stored if e["graph"].startswith("q(")]
    assert len(cases) == 404
    for entry in cases:
        q = LatticeQuotient(*(int(x) for x in entry["graph"][2:-1].split(",")))
        kind = ParamKind(entry["kind"])
        try:
            rec = density_mod._solve_quotient(kind, q, deterministic=True)
        except InfeasibleError:
            assert entry.get("infeasible"), entry
            continue
        assert (rec.size, list(rec.witness)) == (entry["value"], entry["witness"]), entry


def test_orbital_solve_matches_brute_force():
    """Every quotient with det <= 6 that builds, all seven kinds."""
    from tumbling.quotient import DegenerateQuotientError, enumerate_hnf
    from tumbling.solvers import brute_force

    checked = 0
    for q in enumerate_hnf(6):
        try:
            g = build_quotient(q)
        except DegenerateQuotientError:
            continue
        for kind in ParamKind:
            ref = _value_or_infeasible(lambda: brute_force(g, kind).value)
            got = _value_or_infeasible(lambda: density_mod._solve_quotient(kind, q, False).size)
            assert got == ref, (kind, q)
            checked += 1
    assert checked == 7 * 17  # every kind on the 17 quotients that build


def _broken_half_turn_group():
    # rotation by 180 degrees with the W shift dropped: the matrix is right,
    # so the orbits stay the same, but the vertex map is no automorphism
    rot = POINT_GROUP[3]
    assert rot.m == (-1, 0, 0, -1) and rot.w_shift != (0, 0)
    return POINT_GROUP[:3] + (rot._replace(w_shift=(0, 0)),) + POINT_GROUP[4:]


def _record_solves(monkeypatch) -> list:
    solved = []
    monkeypatch.setattr(density_mod, "solve", lambda *args, **kwargs: solved.append(args))
    return solved


def test_sweep_raises_on_a_broken_half_turn(monkeypatch):
    solved = _record_solves(monkeypatch)
    monkeypatch.setattr(quotient_mod, "POINT_GROUP", _broken_half_turn_group())
    with pytest.raises(RuntimeError, match=r"rotation .* is not an automorphism of quotient"):
        density_sweep(ParamKind.LD, 9, threads=1)
    assert solved == []


def test_sweep_raises_on_a_broken_translation(monkeypatch):
    solved = _record_solves(monkeypatch)
    # a translation that moves only the W class: the arithmetic certificate
    # finds that it does not map the neighbours of w(0,0) onto those of w(1,0)
    t10 = density_mod._TRANSLATIONS["translation (1,0)"]
    monkeypatch.setitem(
        density_mod._TRANSLATIONS, "translation (1,0)", t10._replace(v_shift=(0, 0), u_shift=(0, 0))
    )
    with pytest.raises(RuntimeError, match=r"translation \(1,0\) is not an automorphism of quotient"):
        density_sweep(ParamKind.GAMMA, 8, threads=1)
    with pytest.raises(RuntimeError, match="translation"):
        perfect_open_pattern(9)
    assert solved == []


def test_translations_are_certified_once_per_process():
    """The lattice certificate runs once per symmetry, not once per quotient.
    A search asks for it once per orbit member and three times per solve
    (both translations and the half turn), but its cache misses only once
    for each point-group element that maps a representative to a member,
    for the half turn and for each translation; a second search adds no
    miss."""
    quotient_mod._is_lattice_automorphism.cache_clear()
    search(ParamKind.GAMMA, 10, threads=1)
    orbits = quotient_orbits(valid_quotients(10, 1))
    used = {g for q, (rep, g) in orbits.items() if rep != q}
    used |= {POINT_GROUP[3], *density_mod._TRANSLATIONS.values()}
    members = sum(rep != q for q, (rep, _g) in orbits.items())
    solves = len(orbits) - members + 1  # every representative, then the winner again
    first = quotient_mod._is_lattice_automorphism.cache_info()
    assert (first.misses, first.hits + first.misses) == (len(used), members + 3 * solves)
    search(ParamKind.GAMMA, 10, threads=1)
    assert quotient_mod._is_lattice_automorphism.cache_info().misses == len(used)


def _ball_search_interior(window, radius):
    """The interior as it was found before the offset tables: a lattice ball
    search from every window vertex."""
    return [
        k for k, x in enumerate(window.labels) if all(window.has_label(y) for y in tb_ball(x, radius))
    ]


@pytest.mark.parametrize("radius", [1, 2, 3])
def test_lift_interior_matches_ball_search(radius):
    for r in range(6, 14):
        for s in (r, 19 - r):
            window = build_family(FamilySpec(FamilyKind.TBP, r, s))
            interior = density_mod._interior(window, radius)
            assert interior == _ball_search_interior(window, radius), (r, s)
            assert interior  # nonempty: the check has something to check


@pytest.mark.parametrize("kind", list(ParamKind), ids=lambda k: k.value)
def test_cached_lift_window_gives_the_fresh_verdict(kind, monkeypatch):
    """Every record of a det <= 9 sweep, and the same record with its first
    witness vertex dropped, gets the same verdict from the cached window as
    from a window and interior built afresh for the call."""
    records = density_sweep(kind, 9, threads=1)
    cases = [r for rec in records for r in (rec, replace(rec, witness=rec.witness[1:]))]
    cached = [lift_check(r, 12, 12) for r in cases]
    monkeypatch.setattr(density_mod, "_lift_window", density_mod._lift_window.__wrapped__)
    monkeypatch.setattr(density_mod, "_window_interior", density_mod._window_interior.__wrapped__)
    assert [lift_check(r, 12, 12) for r in cases] == cached
    assert all(cached[::2])


def test_lift_check_fails_a_corrupted_record_after_a_pass():
    for rec in (min_density(ParamKind.LD, LatticeQuotient(3, 0, 3)), perfect_open_pattern(9)):
        broken = replace(rec, witness=rec.witness[1:])
        assert lift_check(rec, 12, 12)
        assert not lift_check(broken, 12, 12)
        assert lift_check(rec, 12, 12)


def test_lift_window_is_built_once_per_process(monkeypatch):
    builds = []
    interiors = []
    real_build, real_interior = density_mod.build_family, density_mod._interior
    monkeypatch.setattr(density_mod, "build_family", lambda spec: builds.append(spec) or real_build(spec))
    monkeypatch.setattr(density_mod, "_interior", lambda w, r: interiors.append(r) or real_interior(w, r))
    density_mod._lift_window.cache_clear()
    density_mod._window_interior.cache_clear()
    try:
        ld = min_density(ParamKind.LD, LatticeQuotient(3, 0, 3))
        gamma = min_density(ParamKind.GAMMA, LatticeQuotient(2, 0, 5))
        for rec in (ld, gamma, ld, gamma, ld):
            assert lift_check(rec, 12, 12)
        assert builds == [FamilySpec(FamilyKind.TBP, 12, 12)]
        assert interiors == [2, 1]
    finally:
        density_mod._lift_window.cache_clear()
        density_mod._window_interior.cache_clear()


def test_lift_check_and_witness_addresses_build_no_quotient_graph(monkeypatch):
    rec = min_density(ParamKind.LD, LatticeQuotient(3, 0, 3))
    labels = build_quotient(rec.quotient).labels
    monkeypatch.setattr(density_mod, "build_quotient", lambda q: pytest.fail(f"built {q}"))
    assert lift_check(rec, 12, 12)
    assert rec.witness_addresses() == tuple(labels[v] for v in rec.witness)


@pytest.mark.parametrize("bad", [-1, 30, 999])
def test_lift_check_and_witness_addresses_reject_a_vertex_outside_the_quotient(bad):
    rec = min_density(ParamKind.GAMMA, LatticeQuotient(2, 0, 5))  # 30 vertices
    broken = replace(rec, witness=rec.witness + (bad,))
    with pytest.raises(ValueError, match="names a vertex outside"):
        lift_check(broken, 12, 12)
    with pytest.raises(ValueError, match="names a vertex outside"):
        broken.witness_addresses()


def test_records_carry_their_solve_stats():
    rec = min_density(ParamKind.GAMMA, LatticeQuotient(2, 0, 5))
    assert rec.stats.nodes > 0 and rec.stats.proof_s > 0
    # stats take no part in comparison or hashing
    other = replace(rec, stats=None)
    assert other == rec and hash(other) == hash(rec)
    assert search(ParamKind.GAMMA, 8, threads=1).stats is not None
    assert perfect_open_pattern(9).stats is not None
    assert all(r.stats is not None for r in density_sweep(ParamKind.GAMMA, 8, threads=1))
