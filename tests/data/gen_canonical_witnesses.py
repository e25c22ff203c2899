"""Generate ``canonical_witnesses.json``: the canonical witness of every case
in ``CASES`` below, as ``solve(g, kind)`` returns it with the default
``deterministic=True``.

Run this only on a commit whose canonical witnesses are trusted (one whose
witnesses were not produced by the change being tested), from the repository
root:

    PYTHONPATH=src python3 tests/data/gen_canonical_witnesses.py

``tests/test_solve.py::test_canonical_witnesses_match_fixture`` re-solves
every case and asserts the same value and the same witness tuple, so any
change to the canonical pass that alters a witness fails there.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

from tumbling.density import required_radius, valid_quotients
from tumbling.lattice import FamilyKind, FamilySpec, build_family
from tumbling.quotient import LatticeQuotient, build_quotient
from tumbling.solvers import InfeasibleError, ParamKind, solve

FIXTURE = Path(__file__).with_name("canonical_witnesses.json")

#: Quotient sweep bound: every kind on every valid quotient up to this det.
MAX_DET = 12

PACK_AND_DOMINATION = (ParamKind.GAMMA, ParamKind.GAMMA_OP, ParamKind.F_MAX, ParamKind.F_OP_MAX)


def build_graph(name: str):
    """Graph of a case name: ``q(a,c,d)`` is a quotient, ``tbp(r,s)`` a family member."""
    head, args = name[:-1].split("(")
    nums = [int(x) for x in args.split(",")]
    if head == "q":
        return build_quotient(LatticeQuotient(*nums))
    return build_family(FamilySpec(FamilyKind(head), *nums))


def cases() -> list[tuple[str, ParamKind]]:
    out = []
    for kind in ParamKind:
        for q in valid_quotients(MAX_DET, required_radius(kind)):
            out.append((f"q({q.a},{q.c},{q.d})", kind))
    for name in ("tbp(1,6)", "q(11,3,1)", "q(3,0,4)", "tbp(3,3)"):
        out.extend((name, kind) for kind in ParamKind)
    for name in ("q(4,0,4)", "tbp(4,4)"):
        out.extend((name, kind) for kind in PACK_AND_DOMINATION)
    return out


def solve_case(name: str, kind: ParamKind) -> dict:
    entry = {"graph": name, "kind": kind.value}
    try:
        res = solve(build_graph(name), kind)
    except InfeasibleError:
        return {**entry, "infeasible": True}
    return {**entry, "value": res.value, "witness": list(res.witness)}


def main() -> int:
    entries = [solve_case(name, kind) for name, kind in cases()]
    FIXTURE.write_text(json.dumps(entries, separators=(",", ":")).replace("},{", "},\n{") + "\n")
    print(f"wrote {len(entries)} cases to {FIXTURE}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
