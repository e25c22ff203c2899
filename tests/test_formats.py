"""Graph document serialization and parsing round trips."""

import json
import tracemalloc

import pytest

from conftest import cycle

from tumbling.formats import (
    GraphDocument,
    ParseError,
    document_from_graph,
    document_from_payload,
    graph_from_document,
    parse_document,
    serialize,
    to_payload,
)
from tumbling.lattice import FamilyKind, FamilySpec, build_family, u, w
from tumbling.quotient import LatticeQuotient, build_quotient


def _docs():
    g1 = build_family(FamilySpec(FamilyKind.TBP, 2, 3))
    g2 = build_quotient(LatticeQuotient(3, 2, 1))
    g3 = cycle(6)
    return [
        document_from_graph(g1, {"family": "tbp", "rows": 2, "cols": 3}),
        document_from_graph(g2, {"quotient": [3, 2, 1]}),
        document_from_graph(g3),
    ]


@pytest.mark.parametrize("fmt", ["edges", "json", "dimacs"])
def test_round_trip_is_byte_identical(fmt):
    for doc in _docs():
        text = serialize(doc, fmt)
        reparsed = parse_document(text)
        assert serialize(reparsed, fmt) == text


def test_edge_list_header():
    doc = document_from_graph(build_family(FamilySpec(FamilyKind.TBP, 5, 7)))
    text = serialize(doc, "edges")
    lines = text.splitlines()
    assert lines[0] == "p 129 233"
    assert len(lines) == 234
    a, b = map(int, lines[1].split())
    assert a < b


def test_dimacs_is_one_based():
    doc = document_from_graph(cycle(3))
    text = serialize(doc, "dimacs")
    lines = text.splitlines()
    assert lines[0] == "p edge 3 3"
    assert lines[1] == "e 1 2"


def test_json_preserves_labels_and_source():
    g = build_family(FamilySpec(FamilyKind.TBP, 2, 2))
    doc = document_from_graph(g, {"family": "tbp", "rows": 2, "cols": 2})
    back = parse_document(serialize(doc, "json"))
    assert back.source == {"family": "tbp", "rows": 2, "cols": 2}
    g2 = graph_from_document(back)
    assert g2.labels == g.labels
    assert g2.edges() == g.edges()


def test_edge_list_drops_labels_but_keeps_structure():
    g = build_family(FamilySpec(FamilyKind.TBP, 2, 2))
    doc = document_from_graph(g)
    back = parse_document(serialize(doc, "edges"))
    g2 = graph_from_document(back)
    assert g2.labels is None
    assert g2.edges() == g.edges()


def test_parse_errors():
    with pytest.raises(ParseError):
        parse_document("")
    with pytest.raises(ParseError):
        parse_document("hello world\n")
    with pytest.raises(ParseError):
        parse_document("p 2 1\n0 5\n")  # endpoint out of range
    with pytest.raises(ParseError):
        parse_document("p 3 2\n0 1\n")  # wrong edge count
    with pytest.raises(ParseError):
        parse_document('{"format": "something-else"}')
    with pytest.raises(ParseError):
        parse_document("{not json")
    with pytest.raises(ParseError, match="'p -1 0'"):
        parse_document("p -1 0\n")  # negative vertex count
    with pytest.raises(ParseError, match="'p edge -1 0'"):
        parse_document("p edge -1 0\n")


def test_parsing_is_bounded_by_the_file_not_the_header():
    """A header's vertex count is stored, not expanded into a record per
    vertex, so a one-line file parses in little memory."""
    tracemalloc.start()
    try:
        doc = parse_document("p 1000000 0\n")
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert (doc.n, doc.m, doc.labels) == (1000000, 0, None)
    assert peak < 1_000_000


def test_an_upper_case_class_is_written_back_in_lower_case():
    text = json.dumps({
        "format": "tumbling-graph/1",
        "source": None,
        "vertices": [{"id": 0, "cls": "W", "i": 0, "j": 0}, {"id": 1, "cls": "u", "i": 0, "j": 0}],
        "edges": [[0, 1]],
    })
    doc = parse_document(text)
    assert doc.labels == (w(0, 0), u(0, 0))
    assert graph_from_document(doc).labels == (w(0, 0), u(0, 0))
    assert [vr["cls"] for vr in to_payload(doc)["vertices"]] == ["w", "u"]


def test_payload_round_trip():
    for doc in _docs():
        payload = to_payload(doc)
        assert json.dumps(payload, indent=1) + "\n" == serialize(doc, "json")
        assert document_from_payload(payload) == doc
    with pytest.raises(ParseError):
        document_from_payload([to_payload(_docs()[0])])
    with pytest.raises(ParseError):
        document_from_payload({"format": "something-else"})


def test_unknown_serialize_format():
    with pytest.raises(ParseError):
        serialize(_docs()[0], "yaml")
