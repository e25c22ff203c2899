"""Seeded fuzzing of ``tb verify``: a mutated record gets exit 0, 1 or 2,
never a traceback, and quickly.

The records start as what ``tb solve``, ``tb density`` and ``tb hamilton``
emit.  Mutations touch the record's own fields: a deleted key, a field of
another JSON type, huge or negative integers, out-of-range vertices, an
unknown ``type``.  The embedded graph document is replaced whole at most,
never edited inside, because its size is not capped yet.
"""

import contextlib
import copy
import io
import json
import random
import time

import pytest

from tumbling.cli import main

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
