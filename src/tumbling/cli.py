"""Command-line interface: generate, solve, search densities, verify, render.

Exit codes: 0 success, 1 infeasible or not found, 2 usage or parse errors,
141 (``EXIT_BROKEN_PIPE``) when the reader of stdout closed it early.
"""

from __future__ import annotations

import argparse
import json
import logging
import os
import sys
from contextlib import contextmanager
from dataclasses import asdict
from fractions import Fraction

from . import __version__
from ._backend import backend_name
from .density import (
    DensityRecord,
    NoValidQuotientError,
    lift_check,
    search,
)
from .formats import (
    GraphDocument,
    ParseError,
    document_from_graph,
    document_from_payload,
    graph_from_document,
    load_document,
    serialize,
    to_payload,
)
from .graph import FiniteGraph, NotBipartiteError
from .hamilton import (
    bipartite_balance,
    find_hamiltonian_cycle,
    hex_ball_cut_set,
    verify_cut,
)
from .lattice import FamilyKind, FamilySpec, VClass, VertexAddr, build_family, closed_form_counts
from .quotient import DegenerateQuotientError, LatticeQuotient, build_quotient, validate_quotient
from .render import render_svg
from .shares import share_report
from .solvers import (
    InfeasibleError,
    ParamKind,
    brute_force,
    is_dominating,
    is_open_dominating,
    solve,
    verify_witness,
)

#: Known density targets for the infinite lattice, used by ``tb density``
#: to grade search results (d = best density, f = best covered fraction).
DENSITY_TARGETS = {
    ParamKind.GAMMA: ("1/7 < d <= 1/5", lambda d: Fraction(1, 7) < d <= Fraction(1, 5)),
    ParamKind.GAMMA_OP: ("d = 2/9", lambda d: d == Fraction(2, 9)),
    ParamKind.LD: ("1/4 < d <= 8/27", lambda d: Fraction(1, 4) < d <= Fraction(8, 27)),
    ParamKind.IC: ("3/11 <= d <= 1/3", lambda d: Fraction(3, 11) <= d <= Fraction(1, 3)),
    ParamKind.OLD: ("d = 7/18", lambda d: d == Fraction(7, 18)),
    ParamKind.F_MAX: ("11/12 <= f < 1", lambda d: Fraction(11, 12) <= d < 1),
    ParamKind.F_OP_MAX: ("f = 1", lambda d: d == 1),
}


#: Exit status when stdout's reader is gone: 128 + SIGPIPE, as a shell
#: reports a writer that the closed pipe killed.  Any ``--emit`` record was
#: written before the first line of output.
EXIT_BROKEN_PIPE = 141


#: Largest det a density record may name, and the largest ``tb density
#: --max-det``: far above any sweep that finishes, and small enough that
#: ``tb verify`` builds the record's quotient (3*det vertices) in well under
#: a second, so every record the tool emits can be verified.
MAX_RECORD_DET = 1024

#: Largest vertex and edge counts of the graph document in a solve or cut
#: record, as many as in the largest quotient a density record may name.
#: ``--emit`` refuses larger graphs, so every record the tool emits can be
#: verified.
MAX_RECORD_VERTICES = 3 * MAX_RECORD_DET
MAX_RECORD_EDGES = 6 * MAX_RECORD_DET


def _add_graph_source_args(p: argparse.ArgumentParser, with_input: bool = True):
    if with_input:
        p.add_argument("--input", help="read a graph file (edges, json, or dimacs)")
    p.add_argument("--family", choices=[k.value for k in FamilyKind])
    p.add_argument("--rows", type=int)
    p.add_argument("--cols", type=int, default=1)
    p.add_argument("--quotient", help="lattice quotient a,c,d")


def _parse_ints(flag: str, text: str, names: str) -> list[int]:
    """The comma-separated integers of ``flag``, one for each of ``names``
    ("i,j" or "a,c,d"); ValueError, naming the flag, when they are not."""
    try:
        values = [int(x) for x in text.split(",")]
    except ValueError:
        values = []
    if len(values) != len(names.split(",")):
        raise ValueError(f"{flag} must be {names} integers, got {text!r}")
    return values


def _resolve_graph(args) -> tuple[FiniteGraph, GraphDocument]:
    """The graph the arguments name, and its document.  With ``--emit`` the
    record cap is checked on the graph's counts before the graph is built."""
    if getattr(args, "input", None):
        doc = load_document(args.input)
        _check_emittable(args, doc.n, doc.m)
        return graph_from_document(doc), doc
    if args.family:
        if args.rows is None:
            raise ValueError("--family needs --rows")
        spec = FamilySpec(FamilyKind(args.family), args.rows, args.cols)
        _check_emittable(args, *closed_form_counts(spec))
        g = build_family(spec)
        source = {"family": args.family, "rows": args.rows, "cols": args.cols}
        return g, document_from_graph(g, source)
    if args.quotient:
        q = LatticeQuotient(*_parse_ints("--quotient", args.quotient, "a,c,d"))
        _check_emittable(args, 3 * q.det, 6 * q.det)
        g = build_quotient(q)
        return g, document_from_graph(g, {"quotient": [q.a, q.c, q.d]})
    raise ValueError("no graph given: use --input, --family, or --quotient")


def _parse_vertex(g: FiniteGraph, tok: str) -> int:
    """Index of one ``--set`` token: a vertex index, or a lattice address
    ``cls:i:j``.  Raises ValueError naming the token or the valid range."""
    parts = tok.split(":")
    try:
        if len(parts) == 1:
            v = int(tok)
        else:
            cls_s, i_s, j_s = parts
            addr = VertexAddr(VClass[cls_s.upper()], int(i_s), int(j_s))
    except (KeyError, ValueError):
        raise ValueError(f"bad vertex {tok!r}: give an index or an address cls:i:j with cls w, u or v") from None
    if len(parts) == 1:
        if not 0 <= v < g.n:
            raise ValueError(f"vertex {v} out of range 0..{g.n - 1}")
        return v
    try:
        return g.index_of(addr)
    except KeyError:
        raise ValueError(f"vertex {addr} is not in the graph") from None


def _parse_vertex_set(g: FiniteGraph, text: str) -> tuple[int, ...]:
    return tuple(_parse_vertex(g, tok) for tok in map(str.strip, text.split(",")) if tok)


def _vertex_names(g: FiniteGraph, vs) -> str:
    if g.labels is not None:
        return ", ".join(str(g.labels[v]) for v in vs)
    return ", ".join(str(v) for v in vs)


def _write_output(text: str, path) -> None:
    if path:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _over_record_cap(n: int, m: int) -> bool:
    return n > MAX_RECORD_VERTICES or m > MAX_RECORD_EDGES


def _check_emittable(args, n: int, m: int) -> None:
    """With ``--emit``, refuse a graph of n vertices and m edges over the cap."""
    if getattr(args, "emit", None) and _over_record_cap(n, m):
        raise ValueError(
            f"--emit writes graphs of at most {MAX_RECORD_VERTICES} vertices and "
            f"{MAX_RECORD_EDGES} edges, got n={n} m={m}"
        )


def _emit(payload: dict, path: str) -> None:
    """Write a record for ``tb verify``, stamped with the kernel backend and
    package version that produced it (``tb verify`` ignores both)."""
    payload = {**payload, "backend": backend_name(), "version": __version__}
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(payload, fh, indent=1)
        fh.write("\n")


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------

def cmd_gen(args) -> int:
    g, doc = _resolve_graph(args)
    _write_output(serialize(doc, args.format), args.output)
    if doc.source and "family" in doc.source:
        spec = FamilySpec(FamilyKind(doc.source["family"]), doc.source["rows"], doc.source["cols"])
        cn, cm = closed_form_counts(spec)
        print(f"n={g.n} m={g.m} (closed form: n={cn} m={cm})", file=sys.stderr)
    elif doc.source and "quotient" in doc.source:
        det = doc.source["quotient"][0] * doc.source["quotient"][2]
        print(f"n={g.n} m={g.m} (3*det={3 * det}, 6*det={6 * det})", file=sys.stderr)
    else:
        print(f"n={g.n} m={g.m}", file=sys.stderr)
    return 0


def cmd_solve(args) -> int:
    g, doc = _resolve_graph(args)
    kind = ParamKind(args.param)
    result = brute_force(g, kind) if args.brute else solve(g, kind)
    # the record first, so that a reader closing stdout early cannot lose it
    if args.emit:
        _emit(
            {
                "type": "solve",
                "param": kind.value,
                "graph": to_payload(doc),
                "value": result.value,
                "witness": list(result.witness),
                "stats": asdict(result.stats),
            },
            args.emit,
        )
    print(f"{kind.value} = {result.value}")
    print(f"witness: {_vertex_names(g, result.witness)}")
    ok = verify_witness(g, kind, result.witness, result.value)
    print(f"verification: {'OK' if ok else 'FAIL'}")
    print(
        f"stats: nodes={result.stats.nodes} elapsed={result.stats.elapsed:.3f}s "
        f"proof={result.stats.proof_s:.3f}s canon={result.stats.canon_s:.3f}s "
        f"canon_calls={result.stats.canon_calls} backend={backend_name()} parts={result.stats.parts}"
    )
    return 0 if ok else 1


def cmd_density(args) -> int:
    kind = ParamKind(args.param)
    if args.max_det < 1:
        raise ValueError(f"--max-det must be at least 1, got {args.max_det}")
    if args.max_det > MAX_RECORD_DET:
        raise ValueError(f"--max-det is capped at {MAX_RECORD_DET}, got {args.max_det}")
    record = search(kind, args.max_det)
    if args.emit:
        _emit(_density_payload(record), args.emit)
    q = record.quotient
    print(f"{kind.value} best density: {record.density}")
    print(f"quotient: a={q.a} c={q.c} d={q.d} (det={q.det}, {3 * q.det} vertices)")
    print(f"pattern: {', '.join(str(a) for a in record.witness_addresses())}")
    label, good = DENSITY_TARGETS[kind]
    print(f"target: {label} -> {'met' if good(record.density) else 'NOT met'}")
    return 0


def _density_payload(record: DensityRecord) -> dict:
    """A density record for ``tb verify``, with the ``stats`` of the solve
    that produced it (``tb verify`` ignores them)."""
    q = record.quotient
    return {
        "type": "density",
        "param": record.kind.value,
        "quotient": [q.a, q.c, q.d],
        "size": record.size,
        "density": str(record.density),
        "witness": list(record.witness),
        "validated_radius": record.validated_radius,
        "exact_cover": record.exact_cover,
        **({"stats": asdict(record.stats)} if record.stats is not None else {}),
    }


def cmd_shares(args) -> int:
    g, _doc = _resolve_graph(args)
    S = frozenset(_parse_vertex_set(g, args.set))
    # report the first uncovered vertex rather than a bare failure
    dominates = is_open_dominating if args.open else is_dominating
    uncovered = next((v for v in range(g.n) if not dominates(g, S, on=(v,))), None)
    if uncovered is not None:
        name = g.labels[uncovered] if g.labels else uncovered
        raise InfeasibleError(
            f"set is not {'open-' if args.open else ''}dominating: "
            f"vertex {name} is uncovered"
        )
    report = share_report(g, S, open_variant=args.open)
    for v, sh in report.shares.items():
        name = g.labels[v] if g.labels else v
        print(f"{name}: {sh}")
        if not args.open and report.private.get(v):
            print(f"  private neighbors: {_vertex_names(g, report.private[v])}")
    print(f"total: {report.total}")
    return 0


def cmd_verify(args) -> int:
    with open(args.input, "r", encoding="utf-8") as fh:
        try:
            payload = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON record: {exc}") from exc
    if not isinstance(payload, dict):
        raise ParseError(f"a record is a JSON object, not {type(payload).__name__}")
    rtype = payload.get("type")
    if rtype == "solve":
        ok = _verify_solve_record(payload)
    elif rtype == "density":
        ok = _verify_density_record(payload)
    elif rtype == "cut":
        ok = _verify_cut_record(payload)
    else:
        raise ParseError(f"unknown record type {rtype!r}")
    print("OK" if ok else "FAIL")
    return 0 if ok else 1


def _field(payload: dict, key: str, kind: type = int):
    """``payload[key]``, present and exactly of type ``kind`` (a bool is no int)."""
    if key not in payload:
        raise ParseError(f"record has no field {key!r}")
    value = payload[key]
    if type(value) is not kind:
        raise ParseError(f"record field {key!r} must be {kind.__name__}, got {value!r}")
    return value


def _int_list(payload: dict, key: str) -> list[int]:
    values = _field(payload, key, list)
    if any(type(x) is not int for x in values):
        raise ParseError(f"record field {key!r} must be a list of integers, got {values!r}")
    return values


def _fraction(payload: dict, key: str) -> Fraction:
    text = _field(payload, key, str)
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise ParseError(f"record field {key!r} must be a fraction, got {text!r}") from exc


def _in_range(g: FiniteGraph, witness) -> bool:
    """Every witness entry names a vertex of g."""
    return all(0 <= v < g.n for v in witness)


def _record_graph(payload: dict) -> FiniteGraph:
    """The graph document of a solve or cut record, checked and capped."""
    doc = document_from_payload(_field(payload, "graph", dict))
    if _over_record_cap(doc.n, doc.m):
        raise ParseError(
            f"a record's graph has at most {MAX_RECORD_VERTICES} vertices and "
            f"{MAX_RECORD_EDGES} edges, got n={doc.n} m={doc.m}"
        )
    return graph_from_document(doc)


def _verify_solve_record(payload: dict) -> bool:
    g = _record_graph(payload)
    kind = ParamKind(_field(payload, "param", str))
    witness = _int_list(payload, "witness")
    return _in_range(g, witness) and verify_witness(g, kind, witness, _field(payload, "value"))


def _verify_density_record(payload: dict) -> bool:
    acd = _int_list(payload, "quotient")
    if len(acd) != 3:
        raise ParseError(f"record field 'quotient' must be the 3 integers a, c, d, got {acd!r}")
    q = LatticeQuotient(*acd)
    if q.det > MAX_RECORD_DET:
        raise ParseError(f"a density record's det is at most {MAX_RECORD_DET}, got {q.det}")
    kind = ParamKind(_field(payload, "param", str))
    radius = _field(payload, "validated_radius")
    size = _field(payload, "size")
    density = _fraction(payload, "density")
    record = DensityRecord(
        kind=kind,
        quotient=q,
        size=size,
        witness=tuple(_int_list(payload, "witness")),
        exact_cover=_field(payload, "exact_cover", bool) if "exact_cover" in payload else False,
    )
    # every producer records exactly the kind's radius; a larger one would
    # only make validation slower (its offset table grows with the radius)
    if radius != record.validated_radius or not validate_quotient(q, radius):
        return False
    g = build_quotient(q)
    # an exact cover's size is its pattern size, and it covers all n vertices
    value = g.n if record.exact_cover else record.size
    if not _in_range(g, record.witness) or not verify_witness(g, kind, record.witness, value):
        return False
    if record.exact_cover and len(record.witness) != record.size:
        return False
    if density != record.density:
        return False
    return lift_check(record, 12, 12)


def _verify_cut_record(payload: dict) -> bool:
    g = _record_graph(payload)
    removed = _int_list(payload, "removed")
    components, isolated = _field(payload, "components_after"), _field(payload, "isolated_after")
    if not _in_range(g, removed):
        return False
    cert = verify_cut(g, removed)
    return cert.components_after == components and cert.isolated_after == isolated


def cmd_hamilton(args) -> int:
    g, doc = _resolve_graph(args)
    a, b, balanced = bipartite_balance(g)
    cert = None
    if args.cut:
        addrs = hex_ball_cut_set(*_parse_ints("--cut", args.cut, "i,j"))
        missing = [a_ for a_ in addrs if not g.has_label(a_)]
        if missing:
            raise ValueError(f"cut vertices outside graph: {missing[:3]} ...")
        cert = verify_cut(g, [g.index_of(a_) for a_ in addrs])
    # the record first, as in cmd_solve
    if args.emit and cert is not None:
        _emit(
            {
                "type": "cut",
                "graph": to_payload(doc),
                "removed": list(cert.removed),
                "components_after": cert.components_after,
                "isolated_after": cert.isolated_after,
            },
            args.emit,
        )
    print(f"bipartition sizes: {a}, {b} ({'balanced' if balanced else 'unbalanced'})")
    if not balanced:
        print("unbalanced bipartition: no hamiltonian cycle")
    if cert is not None:
        print(
            f"cut of {len(cert.removed)} vertices leaves {cert.components_after} components, "
            f"{cert.isolated_after} isolated"
        )
        print(f"certificate: {'valid (components > removed)' if cert.certifies else 'inconclusive'}")
    if args.search:
        cycle = find_hamiltonian_cycle(g)
        if cycle is None:
            print("exhaustive search: no hamiltonian cycle")
        else:
            print(f"hamiltonian cycle: {_vertex_names(g, cycle)}")
    return 0


def cmd_render(args) -> int:
    g, _doc = _resolve_graph(args)
    highlight = _parse_vertex_set(g, args.set) if args.set else ()
    _write_output(render_svg(g, highlight=highlight, scale=args.scale), args.output)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="tb",
        description="Tumbling-block lattice graphs: generation, exact domination-type "
        "solvers, periodic density search, share analysis, and rendering.",
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "-v", "--verbose", action="count", default=0,
        help="log to stderr: -v sweep summaries (INFO), -vv each solved quotient too (DEBUG)",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen", help="generate a graph file")
    _add_graph_source_args(p, with_input=False)
    p.add_argument("--format", choices=["edges", "json", "dimacs"], default="edges")
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_gen)

    p = sub.add_parser("solve", help="solve a parameter exactly")
    _add_graph_source_args(p)
    p.add_argument("--param", required=True, choices=[k.value for k in ParamKind])
    p.add_argument("--brute", action="store_true", help="use the enumeration oracle")
    p.add_argument("--emit", help="write a verifiable result record (JSON)")
    p.set_defaults(func=cmd_solve)

    p = sub.add_parser("density", help="search periodic patterns on quotients")
    p.add_argument("--param", required=True, choices=[k.value for k in ParamKind])
    p.add_argument("--max-det", type=int, default=12)
    p.add_argument("--emit", help="write a verifiable density record (JSON)")
    p.set_defaults(func=cmd_density)

    p = sub.add_parser("shares", help="exact share report for a dominating set")
    _add_graph_source_args(p)
    p.add_argument("--set", required=True, help="vertices: 'w:1:1,u:2:1' or '0,4'")
    p.add_argument("--open", action="store_true", help="open shares instead of shares")
    p.set_defaults(func=cmd_shares)

    p = sub.add_parser(
        "verify",
        help="re-check an emitted record: its witness and arithmetic, not its optimality",
        description="Re-check a record written by --emit: its witness and its arithmetic, "
        "not its optimality, which only the branch and bound proves.",
    )
    p.add_argument("--input", required=True)
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("hamilton", help="non-hamiltonicity evidence")
    _add_graph_source_args(p)
    p.add_argument("--cut", help="anchor i,j for the 19-vertex cut certificate")
    p.add_argument("--search", action="store_true", help="exhaustive cycle search (n <= 30)")
    p.add_argument("--emit", help="write a verifiable cut record (JSON)")
    p.set_defaults(func=cmd_hamilton)

    p = sub.add_parser("render", help="render a labeled graph to SVG")
    _add_graph_source_args(p)
    p.add_argument("--set", help="vertices to highlight")
    p.add_argument("--scale", type=float, default=30.0)
    p.add_argument("-o", "--output")
    p.set_defaults(func=cmd_render)

    return parser


@contextmanager
def _log_to_stderr(verbosity: int):
    """Write the ``tumbling`` logger to stderr while the command runs: INFO
    with one ``-v``, DEBUG with two or more.  Without ``-v`` nothing changes;
    stdout is never touched."""
    if not verbosity:
        yield
        return
    log = logging.getLogger("tumbling")
    handler = logging.StreamHandler(sys.stderr)
    handler.setFormatter(logging.Formatter("%(levelname)s %(name)s: %(message)s"))
    level = log.level
    log.addHandler(handler)
    log.setLevel(logging.DEBUG if verbosity > 1 else logging.INFO)
    try:
        yield
    finally:
        log.removeHandler(handler)
        log.setLevel(level)


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    with _log_to_stderr(args.verbose):
        try:
            code = args.func(args)
            # flushed here, so that a closed pipe raises below, not at exit
            sys.stdout.flush()
            return code
        except BrokenPipeError:
            # the reader of stdout is gone (`tb ... | head`): send the unflushed
            # rest to os.devnull, as Python's SIGPIPE notes advise, so that the
            # flush at exit prints no second error
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            return EXIT_BROKEN_PIPE
        except (InfeasibleError, NoValidQuotientError, DegenerateQuotientError, NotBipartiteError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        except (FileNotFoundError, ValueError, KeyError) as exc:
            # usage and parse errors: a ParseError is a ValueError
            print(f"error: {exc}", file=sys.stderr)
            return 2


if __name__ == "__main__":
    sys.exit(main())
