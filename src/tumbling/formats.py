"""Graph documents and their serializations (edge list, JSON, DIMACS).

A :class:`GraphDocument` is the lossless interchange form: a vertex count,
the vertices' lattice addresses when known, the edges over ids, and the
source (generator descriptor) so files can be regenerated bit-identically.
Only the JSON form writes a record per vertex.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from typing import Optional

from .graph import FiniteGraph
from .lattice import VClass, VertexAddr

FORMAT_VERSION = "tumbling-graph/1"


class ParseError(ValueError):
    """Input text is not a recognized graph format."""


@dataclass(frozen=True)
class GraphDocument:
    """A graph's vertex count, its addresses (None when unlabeled), its sorted edges and its source."""

    source: Optional[dict]
    n: int
    labels: Optional[tuple[VertexAddr, ...]]
    edges: tuple[tuple[int, int], ...]

    @property
    def m(self) -> int:
        return len(self.edges)


def document_from_graph(g: FiniteGraph, source: Optional[dict] = None) -> GraphDocument:
    return GraphDocument(source=source, n=g.n, labels=g.labels, edges=tuple(sorted(g.edges())))


def graph_from_document(doc: GraphDocument) -> FiniteGraph:
    """The graph of a document; ParseError unless it is a simple graph (no
    loop, no edge listed twice) whose labels, if any, are strictly
    increasing and make it U-bipartite."""
    try:
        g = FiniteGraph.from_edges(doc.n, doc.edges, labels=doc.labels)
    except ValueError as exc:
        raise ParseError(f"graph document is not a valid graph: {exc}") from exc
    if g.m != doc.m:
        raise ParseError(f"graph document repeats an edge: {doc.m} edges listed, {g.m} distinct")
    return g


# ---------------------------------------------------------------------------
# serialization
# ---------------------------------------------------------------------------

def to_edge_list(doc: GraphDocument) -> str:
    lines = [f"p {doc.n} {doc.m}"]
    lines += [f"{a} {b}" for a, b in sorted(doc.edges)]
    return "\n".join(lines) + "\n"


def to_dimacs(doc: GraphDocument) -> str:
    lines = [f"p edge {doc.n} {doc.m}"]
    lines += [f"e {a + 1} {b + 1}" for a, b in sorted(doc.edges)]
    return "\n".join(lines) + "\n"


def to_payload(doc: GraphDocument) -> dict:
    """The JSON object of a document, as ``to_json`` writes it; the only
    writer of vertex records."""
    vertices = [{"id": k} for k in range(doc.n)]
    for vr, lab in zip(vertices, doc.labels or ()):
        vr.update(cls=str(lab.cls), i=lab.i, j=lab.j)
    return {
        "format": FORMAT_VERSION,
        "source": doc.source,
        "vertices": vertices,
        "edges": [list(e) for e in sorted(doc.edges)],
    }


def to_json(doc: GraphDocument) -> str:
    return json.dumps(to_payload(doc), indent=1) + "\n"


SERIALIZERS = {"edges": to_edge_list, "json": to_json, "dimacs": to_dimacs}


def serialize(doc: GraphDocument, fmt: str) -> str:
    try:
        return SERIALIZERS[fmt](doc)
    except KeyError:
        raise ParseError(f"unknown format {fmt!r} (choose from {sorted(SERIALIZERS)})")


# ---------------------------------------------------------------------------
# parsing
# ---------------------------------------------------------------------------

def _parse_edge_header(line: str, dimacs: bool) -> tuple[int, int]:
    parts = line.split()
    want = 4 if dimacs else 3
    if len(parts) != want:
        raise ParseError(f"malformed header line {line!r}")
    try:
        n, m = int(parts[-2]), int(parts[-1])
    except ValueError as exc:
        raise ParseError(f"malformed header line {line!r}") from exc
    if n < 0 or m < 0:
        raise ParseError(f"header line {line!r} has a negative count")
    return n, m


def parse_document(text: str) -> GraphDocument:
    """Parse any supported format, sniffing by leading characters."""
    stripped = text.lstrip()
    if not stripped:
        raise ParseError("empty input")
    if stripped.startswith("{"):
        try:
            payload = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ParseError(f"bad JSON: {exc}") from exc
        return document_from_payload(payload)
    lines = [ln for ln in text.splitlines() if ln.strip() and not ln.startswith("c")]
    if not lines or not lines[0].startswith("p"):
        raise ParseError("expected 'p' header line")
    dimacs = lines[0].split()[:2] == ["p", "edge"]
    n, m = _parse_edge_header(lines[0], dimacs)
    edges = []
    for ln in lines[1:]:
        parts = ln.split()
        if dimacs:
            if len(parts) != 3 or parts[0] != "e":
                raise ParseError(f"malformed edge line {ln!r}")
            parts = parts[1:]
        elif len(parts) != 2:
            raise ParseError(f"malformed edge line {ln!r}")
        try:
            a, b = int(parts[0]), int(parts[1])
        except ValueError as exc:
            raise ParseError(f"malformed edge line {ln!r}") from exc
        if dimacs:
            a, b = a - 1, b - 1
        if not (0 <= a < n and 0 <= b < n):
            raise ParseError(f"edge {a} {b} out of range for n={n}")
        edges.append((a, b) if a < b else (b, a))
    if len(edges) != m:
        raise ParseError(f"header promised {m} edges, found {len(edges)}")
    return GraphDocument(source=None, n=n, labels=None, edges=tuple(sorted(edges)))


def document_from_payload(payload) -> GraphDocument:
    """The document of a JSON object written by :func:`to_payload`.

    Raises ParseError unless every vertex record is an object whose ``id``
    is its position, all or none of them carry an address (``cls`` one of
    w, u, v; integer ``i`` and ``j``), and every edge is a pair of vertex
    ids.
    """
    if not isinstance(payload, dict):
        raise ParseError(f"expected a JSON object, got {type(payload).__name__}")
    if payload.get("format") != FORMAT_VERSION:
        raise ParseError(f"unsupported document format {payload.get('format')!r}")
    records, pairs = payload.get("vertices"), payload.get("edges")
    if type(records) is not list or type(pairs) is not list:
        raise ParseError("a graph document's vertices and edges must be lists")
    labeled = bool(records) and isinstance(records[0], dict) and "cls" in records[0]
    addrs = tuple(_vertex_record(vr, k, labeled) for k, vr in enumerate(records))
    n = len(addrs)
    edges = []
    for pair in pairs:
        if type(pair) is not list or len(pair) != 2 or any(type(x) is not int for x in pair):
            raise ParseError(f"an edge is a pair of vertex ids, got {pair!r}")
        a, b = pair
        if not (0 <= a < n and 0 <= b < n):
            raise ParseError(f"edge {a} {b} out of range for n={n}")
        edges.append((a, b))
    labels = addrs if labeled else None
    return GraphDocument(source=payload.get("source"), n=n, labels=labels, edges=tuple(sorted(edges)))


def _vertex_record(vr, k: int, labeled: bool) -> Optional[VertexAddr]:
    """The checked address of vertex record ``k``, or None unless ``labeled``."""
    if not isinstance(vr, dict) or type(vr.get("id")) is not int or vr["id"] != k:
        raise ParseError(f"vertex record {k} must be an object with id {k}, got {vr!r}")
    if not labeled:
        if "cls" in vr:
            raise ParseError(f"vertex record {k} has an address, but vertex 0 has none")
        return None
    cls, i, j = vr.get("cls"), vr.get("i"), vr.get("j")
    named = isinstance(cls, str) and cls.upper() in VClass.__members__
    if not named or type(i) is not int or type(j) is not int:
        raise ParseError(f"vertex record {k} needs cls w, u or v and integer i, j, got {vr!r}")
    return VertexAddr(VClass[cls.upper()], i, j)


def load_document(path: str) -> GraphDocument:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_document(fh.read())
