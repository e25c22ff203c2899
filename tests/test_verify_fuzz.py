"""Seeded fuzzing of ``tb verify``: a mutated record gets exit 0, 1 or 2,
never a traceback, and quickly.

The records start as what ``tb solve``, ``tb density`` and ``tb hamilton``
emit.  Mutations touch the record's own fields: a deleted key, a field of
another JSON type, huge or negative integers, out-of-range vertices, an
unknown ``type``.  They also edit inside the graph document of solve and cut
records: its keys, its vertex records and their fields, its edges, and
labels shared by two vertices.  A document's vertex and edge counts are
capped, so no edit makes verification slow.
"""

import contextlib
import copy
import io
import json
import random
import time

import pytest

from tumbling.cli import MAX_RECORD_VERTICES, main

SEED = 20261018
HUGE = 10**30
#: one value of every JSON type, and the integers verify must survive
REPLACEMENTS = [None, True, False, 0.5, "x", "1/0", [], {}, [1, "a"], [HUGE], 0, -1, HUGE, -HUGE]
#: fields naming vertices of the record's graph
VERTEX_LISTS = {"solve": "witness", "density": "witness", "cut": "removed"}


def _run(argv) -> tuple[int, str, str]:
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = main(argv)
    return code, out.getvalue(), err.getvalue()


@pytest.fixture(scope="module")
def records(tmp_path_factory):
    tmp = tmp_path_factory.mktemp("records")
    commands = {
        "solve": ["solve", "--family", "tbt", "--rows", "2", "--param", "ld"],
        "density": ["density", "--param", "gamma", "--max-det", "10"],
        "cut": ["hamilton", "--family", "tbp", "--rows", "7", "--cols", "7", "--cut", "4,4"],
    }
    out = {}
    for rtype, argv in commands.items():
        path = tmp / f"{rtype}.json"
        assert _run([*argv, "--emit", str(path)])[0] == 0
        out[rtype] = json.loads(path.read_text())
        assert out[rtype]["type"] == rtype
    # the stats key, which verify ignores, is among the fields mutated
    assert "stats" in out["solve"] and "stats" in out["density"]
    return out


def _verify(tmp_path, payload) -> tuple[int, str]:
    """Exit code and stderr of ``tb verify`` on the payload, checked to be
    clean and quick."""
    path = tmp_path / "mutated.json"
    path.write_text(json.dumps(payload))
    start = time.perf_counter()
    code, out, err = _run(["verify", "--input", str(path)])
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, (payload, elapsed)
    assert code in (0, 1, 2), payload
    assert out == {0: "OK\n", 1: "FAIL\n", 2: ""}[code], (payload, out)
    return code, err


def _mutations(records, rng):
    """(record type, mutated payload) pairs: every key deleted, every key
    replaced by every value of REPLACEMENTS, vertex lists spoiled, and a
    seeded batch of two mutations at once."""
    cases = []
    for rtype, payload in records.items():
        for key in payload:
            cases.append((rtype, {k: v for k, v in payload.items() if k != key}))
            cases += [(rtype, {**payload, key: bad}) for bad in REPLACEMENTS]
        cases += [(rtype, {**payload, "type": bad}) for bad in ("unknown", "SOLVE", "")]
        vertices = payload[VERTEX_LISTS[rtype]]
        for bad in (HUGE, -HUGE, -1, 10**6):
            for pos in (0, len(vertices) - 1):
                spoiled = list(vertices)
                spoiled[pos] = bad
                cases.append((rtype, {**payload, VERTEX_LISTS[rtype]: spoiled}))
    singles = list(cases)
    for _ in range(150):
        rtype, first = rng.choice(singles)
        key = rng.choice([k for k in records[rtype] if k != "graph"])
        cases.append((rtype, {**first, key: rng.choice(REPLACEMENTS)}))
    return cases


def test_mutated_records_exit_cleanly(records, tmp_path):
    rng = random.Random(SEED)
    cases = _mutations(records, rng)
    codes = [_verify(tmp_path, payload)[0] for _rtype, payload in cases]
    assert len(cases) > 500
    # the unmutated records verify, and every exit code occurs
    assert all(_verify(tmp_path, payload)[0] == 0 for payload in records.values())
    assert set(codes) == {0, 1, 2}


class First(int):
    """A mutation that replaces only the first entry of a vertex list."""


@pytest.mark.parametrize("rtype, field, bad, expected", [
    ("cut", "removed", First(99999), 1),
    ("cut", "removed", First(-1), 1),
    ("cut", "removed", First(175), 1),  # tbp(7,7) has 175 vertices
    ("cut", "removed", 5, 2),
    ("cut", "removed", ["a"], 2),
    ("cut", "components_after", "24", 2),
    ("cut", "isolated_after", 24.0, 2),
    ("density", "density", "1/0", 2),
    ("density", "exact_cover", "yes", 2),
    ("density", "witness", First(99999), 1),
    ("solve", "witness", First(-1), 1),
    ("solve", "value", HUGE, 1),
    ("density", "size", -HUGE, 1),
    ("density", "quotient", [HUGE, 0, 1], 2),
    ("density", "validated_radius", HUGE, 1),
    ("solve", "stats", None, 0),
    ("solve", "stats", {"nodes": -HUGE}, 0),
    ("density", "stats", "x", 0),
])
def test_named_mutations(records, tmp_path, rtype, field, bad, expected):
    payload = copy.deepcopy(records[rtype])
    if isinstance(bad, First):
        payload[field][0] = int(bad)
    else:
        payload[field] = bad
    code, err = _verify(tmp_path, payload)
    assert code == expected
    if code == 2 and field != "quotient":
        assert f"record field {field!r}" in err


# ---------------------------------------------------------------------------
# edits inside the graph document of solve and cut records
# ---------------------------------------------------------------------------

#: edges that name no pair of vertices, or a loop
BAD_EDGES = [[0, 999], [0, 10**6], [-1, 0], [0, 0], [0], [0, 1, 2], [HUGE, 0], ["0", 1], [True, 1]]


#: a value for _setter that deletes the key instead
DELETE = object()


def _with_graph(payload, edit):
    """A copy of the record whose graph document has had ``edit`` applied."""
    payload = copy.deepcopy(payload)
    edit(payload["graph"])
    return payload


def _setter(path, value):
    """An edit that sets doc[path[0]][path[1]]... to value, or deletes the
    last key when value is DELETE."""
    def edit(doc):
        target = doc
        for key in path[:-1]:
            target = target[key]
        if value is DELETE:
            del target[path[-1]]
        else:
            target[path[-1]] = copy.deepcopy(value)

    return edit


def _share_label(doc):
    """Give vertex 1 the address of vertex 0."""
    doc["vertices"][1].update({k: doc["vertices"][0][k] for k in ("cls", "i", "j")})


def _repeat_edge(doc):
    """List edge 0 a second time."""
    doc["edges"].append(list(doc["edges"][0]))


def _graph_edits(doc):
    """Edits of one graph document: every key deleted or replaced, vertex
    records and their fields deleted or replaced, edges spoiled, a label
    shared, and a vertex or an edge appended."""
    edits = []
    for key in doc:
        edits += [_setter([key], bad) for bad in [DELETE, *REPLACEMENTS]]
    vertices, edges = doc["vertices"], doc["edges"]
    for pos in (0, 1, len(vertices) - 1):
        edits += [_setter(["vertices", pos], bad) for bad in REPLACEMENTS]
        for field in vertices[pos]:
            edits += [_setter(["vertices", pos, field], bad) for bad in [DELETE, *REPLACEMENTS]]
    for pos in (0, len(edges) - 1):
        edits += [_setter(["edges", pos], bad) for bad in [*REPLACEMENTS, *BAD_EDGES]]
    edits.append(_share_label)
    edits.append(lambda doc: doc["vertices"].append({**doc["vertices"][-1], "id": len(doc["vertices"])}))
    edits.append(_repeat_edge)
    return edits


def test_edited_graph_documents_exit_cleanly(records, tmp_path):
    rng = random.Random(SEED)
    codes = []
    for rtype in ("solve", "cut"):
        payload = records[rtype]
        edits = _graph_edits(payload["graph"])
        cases = [_with_graph(payload, edit) for edit in edits]
        doubles = 0
        while doubles < 60:
            first, second = rng.sample(edits, 2)
            try:
                cases.append(_with_graph(_with_graph(payload, first), second))
            except (TypeError, KeyError, IndexError, AttributeError):
                continue  # the first edit removed what the second one edits
            doubles += 1
        codes += [_verify(tmp_path, case)[0] for case in cases]
    assert len(codes) > 500
    assert set(codes) == {0, 1, 2}


@pytest.mark.parametrize("rtype, edit, message", [
    ("solve", _setter(["edges", 0], [0, 999]), "out of range"),
    ("cut", _setter(["edges", 0], [-1, 0]), "out of range"),
    ("solve", _setter(["edges"], 5), "must be lists"),
    ("solve", _setter(["vertices", 0, "cls"], 3), "needs cls w, u or v"),
    ("solve", _setter(["vertices", 1, "i"], "1"), "needs cls w, u or v"),
    ("solve", _setter(["vertices", 2], 7), "vertex record 2"),
    ("solve", _setter(["vertices", 2, "id"], 5), "vertex record 2"),
    ("solve", _setter(["vertices", 0, "cls"], DELETE), "has an address"),
    ("solve", _setter(["vertices", 1, "cls"], DELETE), "needs cls w, u or v"),
    ("solve", _setter(["edges", 0], [1, 1]), "loop"),
    ("solve", _share_label, "strictly increasing"),
    ("cut", _share_label, "strictly increasing"),
    ("solve", _repeat_edge, "repeats an edge"),
    ("cut", _repeat_edge, "repeats an edge"),
])
def test_named_graph_edits_are_parse_errors(records, tmp_path, rtype, edit, message):
    code, err = _verify(tmp_path, _with_graph(records[rtype], edit))
    assert code == 2
    assert message in err


def test_a_graph_over_the_cap_is_a_parse_error_quickly(records, tmp_path):
    n = MAX_RECORD_VERTICES + 1
    payload = _with_graph(records["solve"], _setter(["vertices"], [{"id": k} for k in range(n)]))
    code, err = _verify(tmp_path, {**payload, "witness": []})
    assert code == 2
    assert "at most" in err


def test_emit_refuses_a_graph_over_the_cap(tmp_path):
    path = tmp_path / "big.json"
    # tbp(40, 40) has 4960 vertices, more than a record may hold
    code, _out, err = _run(["hamilton", "--family", "tbp", "--rows", "40", "--cols", "40",
                            "--cut", "4,4", "--emit", str(path)])
    assert code == 2 and "--emit" in err
    assert not path.exists()


#: the fields each record type must carry
REQUIRED = {
    "solve": ("graph", "param", "witness", "value"),
    "density": ("param", "quotient", "size", "density", "witness", "validated_radius"),
    "cut": ("graph", "removed", "components_after", "isolated_after"),
}
#: ``type`` selects the record type; the others may be left out
OPTIONAL = {"type", "exact_cover", "stats", "backend", "version"}


@pytest.mark.parametrize("rtype, field", [(r, f) for r, fields in REQUIRED.items() for f in fields])
def test_a_missing_field_is_named(records, tmp_path, rtype, field):
    assert set(records[rtype]) - set(REQUIRED[rtype]) <= OPTIONAL
    payload = copy.deepcopy(records[rtype])
    _setter([field], DELETE)(payload)
    code, err = _verify(tmp_path, payload)
    assert code == 2
    assert f"record has no field {field!r}" in err


@pytest.mark.parametrize("bad", [[3, 0], [3, 0, 4, 1], []], ids=["two", "four", "none"])
def test_a_quotient_of_other_than_three_integers_is_named(records, tmp_path, bad):
    code, err = _verify(tmp_path, {**records["density"], "quotient": bad})
    assert code == 2
    assert "record field 'quotient'" in err
