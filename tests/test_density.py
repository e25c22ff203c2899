"""Periodic pattern search, lifting checks, and the known density targets."""

from dataclasses import replace
from fractions import Fraction

import pytest

from tumbling.density import (
    DensityRecord,
    NoValidQuotientError,
    f_fraction,
    lift_check,
    min_density,
    perfect_open_pattern,
    required_radius,
    search,
)
from tumbling.quotient import LatticeQuotient
from tumbling.solvers import ParamKind


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
    rec = f_fraction(LatticeQuotient(4, 3, 2))
    assert rec.density == Fraction(11, 12)
    assert lift_check(rec, 12, 12)


def test_f_fraction_never_perfect():
    for q in (LatticeQuotient(4, 3, 2), LatticeQuotient(7, 3, 1), LatticeQuotient(3, 0, 3)):
        rec = f_fraction(q)
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
    rec = f_fraction(LatticeQuotient(4, 3, 2))
    extra = next(x for x in range(3 * 8) if x not in rec.witness)
    broken = replace(rec, witness=rec.witness + (extra,))
    assert not lift_check(broken, 12, 12)


def test_lift_check_window_too_small():
    rec = min_density(ParamKind.GAMMA, LatticeQuotient(2, 0, 5))
    with pytest.raises(ValueError):
        lift_check(rec, 3, 12)


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
    import logging

    import tumbling.density as density_mod

    def no_pool(*args, **kwargs):
        raise OSError("no process pool here")

    monkeypatch.setattr(density_mod, "ProcessPoolExecutor", no_pool)
    with caplog.at_level(logging.WARNING, logger="tumbling"):
        records = density_mod.density_sweep(ParamKind.GAMMA, 6, threads=2)
    assert len(records) > 4
    serial = density_mod.density_sweep(ParamKind.GAMMA, 6, threads=1)
    assert [r.quotient for r in records] == [r.quotient for r in serial]
    assert any(rec.levelno == logging.WARNING and "serially" in rec.getMessage() for rec in caplog.records)
