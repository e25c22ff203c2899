"""End-to-end command-line interface behavior and exit codes."""

import json
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from pathlib import Path

import pytest

from tumbling import __version__, backend_name
from tumbling.cli import EXIT_BROKEN_PIPE, main


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_gen_tbp_edges(capsys, tmp_path):
    out = tmp_path / "tbp.txt"
    code, _, err = run(capsys, "gen", "--family", "tbp", "--rows", "5", "--cols", "7",
                       "--format", "edges", "-o", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "p 129 233"
    assert len(lines) == 234
    assert "closed form: n=129 m=233" in err


def test_gen_single_block(capsys):
    code, out, err = run(capsys, "gen", "--family", "tbt", "--rows", "1")
    assert code == 0
    assert out.splitlines()[0] == "p 7 9"
    assert "n=7 m=9" in err


def test_gen_quotient(capsys):
    code, out, err = run(capsys, "gen", "--quotient", "3,0,3")
    assert code == 0
    assert out.splitlines()[0] == "p 27 54"
    assert "3*det=27" in err


def test_gen_degenerate_quotient_fails(capsys):
    code, _, err = run(capsys, "gen", "--quotient", "1,0,1")
    assert code == 1
    assert "folds" in err


def test_gen_missing_source_usage_error(capsys):
    code, _, err = run(capsys, "gen")
    assert code == 2


@pytest.mark.parametrize("fmt", ["edges", "json", "dimacs"])
def test_gen_parse_gen_round_trip(capsys, tmp_path, fmt):
    from tumbling.formats import load_document, serialize

    first = tmp_path / f"a.{fmt}"
    code, _, _ = run(capsys, "gen", "--family", "tbr", "--rows", "2", "--cols", "3",
                     "--format", fmt, "-o", str(first))
    assert code == 0
    doc = load_document(str(first))
    assert serialize(doc, fmt).encode() == first.read_bytes()


def test_solve_gamma_on_block(capsys):
    code, out, _ = run(capsys, "solve", "--family", "tbt", "--rows", "1", "--param", "gamma")
    assert code == 0
    assert "gamma = 2" in out
    assert "verification: OK" in out


def test_solve_prints_proof_and_canonical_stats(capsys):
    import re

    code, out, _ = run(capsys, "solve", "--family", "tbp", "--rows", "2", "--cols", "2", "--param", "gamma")
    assert code == 0
    line = next(ln for ln in out.splitlines() if ln.startswith("stats:"))
    assert re.search(r"nodes=\d+ elapsed=[\d.]+s proof=[\d.]+s canon=[\d.]+s canon_calls=\d+ backend=\w+", line)


def test_solve_stats_line_counts_the_parts_proven_apart(capsys, tmp_path):
    """On an edgeless graph every vertex is its own part, and the stats line
    says so; a connected block is one part."""
    edgeless = tmp_path / "edgeless.txt"
    edgeless.write_text("p 6 0\n")
    code, out, _ = run(capsys, "solve", "--input", str(edgeless), "--param", "gamma")
    assert code == 0 and "gamma = 6" in out
    assert next(ln for ln in out.splitlines() if ln.startswith("stats:")).endswith(" parts=6")
    code, out, _ = run(capsys, "solve", "--family", "tbt", "--rows", "1", "--param", "ld")
    assert code == 0
    assert next(ln for ln in out.splitlines() if ln.startswith("stats:")).endswith(" parts=1")


def test_verbose_sweep_lines_count_the_parts(capsys, monkeypatch):
    """-vv reports the parts of each representative's proof: OLD on a
    quotient is two, one per side of the bipartition."""
    monkeypatch.setenv("TB_THREADS", "1")
    code, _out, err = run(capsys, "-vv", "density", "--param", "old", "--max-det", "8")
    debug = [ln for ln in err.splitlines() if "DEBUG tumbling: old on " in ln]
    assert code == 0 and debug
    assert all(" nodes, 2 parts, " in ln for ln in debug), debug


def test_solve_brute_matches(capsys):
    code, out, _ = run(capsys, "solve", "--family", "tbt", "--rows", "1",
                       "--param", "gamma", "--brute")
    assert code == 0
    assert "gamma = 2" in out


def test_solve_ic_on_block(capsys):
    code, out, _ = run(capsys, "solve", "--family", "tbt", "--rows", "1", "--param", "ic")
    assert code == 0
    assert "ic = 3" in out


def test_solve_old_on_c4_lists_twins(capsys, tmp_path):
    c4 = tmp_path / "c4.txt"
    c4.write_text("p 4 4\n0 1\n0 3\n1 2\n2 3\n")
    code, _, err = run(capsys, "solve", "--input", str(c4), "--param", "old")
    assert code == 1
    assert "(0, 2)" in err and "(1, 3)" in err


def _assert_stamped(path):
    payload = json.loads(path.read_text())
    assert payload["backend"] == backend_name()
    assert payload["version"] == __version__


def test_solve_emit_verify_round_trip(capsys, tmp_path):
    rec = tmp_path / "rec.json"
    code, _, _ = run(capsys, "solve", "--family", "tbt", "--rows", "1",
                     "--param", "ld", "--emit", str(rec))
    assert code == 0
    _assert_stamped(rec)
    code, out, _ = run(capsys, "verify", "--input", str(rec))
    assert code == 0
    assert "OK" in out


def test_verify_rejects_tampered_record(capsys, tmp_path):
    rec = tmp_path / "rec.json"
    code, _, _ = run(capsys, "solve", "--family", "tbt", "--rows", "1",
                     "--param", "gamma", "--emit", str(rec))
    assert code == 0
    payload = json.loads(rec.read_text())
    payload["value"] = 1
    payload["witness"] = payload["witness"][:1]
    rec.write_text(json.dumps(payload))
    code, out, _ = run(capsys, "verify", "--input", str(rec))
    assert code == 1
    assert "FAIL" in out


class _ClosedPipe:
    """A stdout whose reader is gone: every write raises BrokenPipeError.
    Its descriptor is a scratch file's, which main points at os.devnull."""

    def __init__(self, fd):
        self._fd = fd

    def write(self, text):
        raise BrokenPipeError(32, "Broken pipe")

    def flush(self):
        pass

    def fileno(self):
        return self._fd


@pytest.mark.parametrize(
    "argv",
    [
        ["solve", "--family", "tbt", "--rows", "1", "--param", "ld"],
        ["density", "--param", "gamma-op", "--max-det", "6"],
        ["hamilton", "--family", "tbp", "--rows", "7", "--cols", "7", "--cut", "4,4"],
    ],
    ids=["solve", "density", "hamilton"],
)
def test_closed_stdout_ends_quietly_after_the_record(capsys, monkeypatch, tmp_path, argv):
    rec = tmp_path / "rec.json"
    with open(tmp_path / "stdout", "w") as sink:
        monkeypatch.setattr(sys, "stdout", _ClosedPipe(sink.fileno()))
        code = main([*argv, "--emit", str(rec)])
        monkeypatch.undo()
    assert code == EXIT_BROKEN_PIPE
    assert capsys.readouterr().err == ""
    code, out, _ = run(capsys, "verify", "--input", str(rec))
    assert (code, out) == (0, "OK\n")


def test_closed_pipe_at_exit_prints_nothing(tmp_path):
    """A real pipe whose reader left before the first write: output is
    buffered until exit, and that flush raises no second error either."""
    import tumbling

    src = str(Path(tumbling.__file__).resolve().parents[1])
    env = {
        **os.environ,
        "PYTHONPATH": os.pathsep.join(filter(None, [src, os.environ.get("PYTHONPATH")])),
        "PYTHONUNBUFFERED": "",
    }
    rec = tmp_path / "rec.json"
    argv = ["solve", "--family", "tbt", "--rows", "1", "--param", "ld", "--emit", str(rec)]
    proc = subprocess.Popen(
        [sys.executable, "-m", "tumbling.cli", *argv], env=env, stdout=subprocess.PIPE, stderr=subprocess.PIPE
    )
    proc.stdout.close()
    err = proc.stderr.read()
    assert (proc.wait(timeout=60), err) == (EXIT_BROKEN_PIPE, b"")
    assert main(["verify", "--input", str(rec)]) == 0


def test_malformed_input_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("not a graph\n")
    code, _, err = run(capsys, "solve", "--input", str(bad), "--param", "gamma")
    assert code == 2


@pytest.mark.parametrize(
    "text",
    [
        "p 3 3\n0 1\n1 0\n1 2\n",
        "p edge 3 2\ne 1 2\ne 2 1\n",
        '{"format": "tumbling-graph/1", "source": null, "vertices": [{"id": 0}, {"id": 1}], "edges": [[0, 1], [1, 0]]}\n',
    ],
    ids=["edge-list", "dimacs", "json"],
)
def test_repeated_edge_input_exit_2(capsys, tmp_path, text):
    """A document that lists an edge twice is not a simple graph: it is
    refused, not solved with the copy dropped."""
    doc = tmp_path / "repeated.txt"
    doc.write_text(text)
    code, out, err = run(capsys, "solve", "--input", str(doc), "--param", "gamma")
    assert code == 2
    assert out == "" and "repeats an edge" in err


@pytest.mark.parametrize("header", ["p -1 0", "p edge -1 0"], ids=["edge-list", "dimacs"])
def test_negative_header_count_exit_2(capsys, tmp_path, header):
    """A negative vertex count is refused, not read as the empty graph."""
    doc = tmp_path / "negative.txt"
    doc.write_text(header + "\n")
    code, out, err = run(capsys, "solve", "--input", str(doc), "--param", "gamma")
    assert (code, out) == (2, "")
    assert repr(header) in err


def test_missing_input_exit_2(capsys):
    code, _, _ = run(capsys, "solve", "--input", "/nonexistent/file", "--param", "gamma")
    assert code == 2


def test_density_gamma_op(capsys):
    code, out, _ = run(capsys, "density", "--param", "gamma-op", "--max-det", "9")
    assert code == 0
    assert "best density: 2/9" in out
    assert "target: d = 2/9 -> met" in out


def test_verbose_logs_the_sweep_to_stderr_and_leaves_stdout_alone(capsys, monkeypatch):
    """-v writes the INFO sweep summary (proof nodes and seconds) to stderr,
    -vv adds a DEBUG line per solved quotient; stdout is byte-identical."""
    monkeypatch.setenv("TB_THREADS", "1")
    argv = ("density", "--param", "ld", "--max-det", "8")
    code, quiet_out, quiet_err = run(capsys, *argv)
    assert code == 0 and "sweep" not in quiet_err
    code, info_out, info_err = run(capsys, "-v", *argv)
    assert (code, info_out) == (0, quiet_out)
    assert "INFO tumbling: ld sweep to det 8:" in info_err and " nodes in " in info_err
    assert "DEBUG" not in info_err
    code, debug_out, debug_err = run(capsys, "-vv", *argv)
    assert (code, debug_out) == (0, quiet_out)
    assert "INFO tumbling: ld sweep to det 8:" in debug_err
    assert "DEBUG tumbling: ld on " in debug_err and "orbit of" in debug_err
    # the handler leaves with the command
    code, _out, err = run(capsys, *argv)
    assert "sweep" not in err


def test_density_emit_verify(capsys, tmp_path):
    rec = tmp_path / "density.json"
    code, out, _ = run(capsys, "density", "--param", "gamma", "--max-det", "10",
                       "--emit", str(rec))
    assert code == 0
    assert "best density: 1/5" in out
    _assert_stamped(rec)
    code, out, _ = run(capsys, "verify", "--input", str(rec))
    assert code == 0
    assert "OK" in out


def _assert_emitted_stats_are_ignored(capsys, tmp_path, *argv):
    rec = tmp_path / "emitted.json"
    assert run(capsys, *argv, "--emit", str(rec))[0] == 0
    payload = json.loads(rec.read_text())
    stats = payload["stats"]
    assert set(stats) == {"nodes", "elapsed", "proof_s", "canon_s", "canon_calls", "parts"}
    assert stats["nodes"] > 0 and stats["canon_calls"] > 0 and stats["parts"] >= 1
    # a record written before stats carried parts still verifies
    before_parts = {key: value for key, value in stats.items() if key != "parts"}
    for bad in (None, "x", {"nodes": -1}, before_parts):
        code, out, _ = _verify_payload(capsys, tmp_path, {**payload, "stats": bad})
        assert (code, out) == (0, "OK\n")


def test_density_emit_carries_stats_that_verify_ignores(capsys, tmp_path):
    _assert_emitted_stats_are_ignored(capsys, tmp_path, "density", "--param", "ld", "--max-det", "8")


def test_solve_emit_carries_stats_that_verify_ignores(capsys, tmp_path):
    argv = ("solve", "--family", "tbt", "--rows", "2", "--param", "ld")
    _assert_emitted_stats_are_ignored(capsys, tmp_path, *argv)


def _verify_payload(capsys, tmp_path, payload):
    rec = tmp_path / "rec.json"
    rec.write_text(json.dumps(payload))
    return run(capsys, "verify", "--input", str(rec))


def test_density_exact_cover_round_trip(capsys, tmp_path):
    from tumbling.cli import _density_payload
    from tumbling.density import perfect_open_pattern

    payload = _density_payload(perfect_open_pattern(9))
    assert payload["exact_cover"] and payload["size"] == len(payload["witness"])
    code, out, _ = _verify_payload(capsys, tmp_path, payload)
    assert (code, out) == (0, "OK\n")
    code, out, _ = _verify_payload(capsys, tmp_path, {**payload, "witness": payload["witness"][1:]})
    assert (code, out) == (1, "FAIL\n")


def test_verify_rejects_a_radius_other_than_the_kinds_quickly(capsys, tmp_path):
    import time

    payload = {"type": "density", "param": "gamma", "quotient": [1, 0, 1000], "size": 1,
               "density": "1/3000", "witness": [0], "validated_radius": 2999, "exact_cover": False}
    start = time.perf_counter()
    code, out, _ = _verify_payload(capsys, tmp_path, payload)
    assert time.perf_counter() - start < 1.0
    assert (code, out) == (1, "FAIL\n")


def test_verify_rejects_a_larger_radius_on_a_good_record(capsys, tmp_path):
    from tumbling.cli import _density_payload
    from tumbling.density import min_density
    from tumbling.quotient import LatticeQuotient, validate_quotient
    from tumbling.solvers import ParamKind

    q = LatticeQuotient(3, 0, 3)
    assert validate_quotient(q, 2)
    payload = _density_payload(min_density(ParamKind.GAMMA, q))
    assert _verify_payload(capsys, tmp_path, payload)[0] == 0
    code, out, _ = _verify_payload(capsys, tmp_path, {**payload, "validated_radius": 2})
    assert (code, out) == (1, "FAIL\n")


@pytest.mark.parametrize("field, bad", [("value", "2"), ("value", True), ("witness", ["0", 1])])
def test_verify_malformed_solve_record_exit_2(capsys, tmp_path, field, bad):
    rec = tmp_path / "rec.json"
    assert run(capsys, "solve", "--family", "tbt", "--rows", "1", "--param", "gamma",
               "--emit", str(rec))[0] == 0
    payload = {**json.loads(rec.read_text()), field: bad}
    code, _, err = _verify_payload(capsys, tmp_path, payload)
    assert code == 2
    assert f"record field {field!r}" in err


@pytest.mark.parametrize("field, bad", [
    ("quotient", ["2", 0, 5]),
    ("size", 6.0),
    ("validated_radius", True),
    ("witness", [0, None]),
    ("density", 0.2),
])
def test_verify_malformed_density_record_exit_2(capsys, tmp_path, field, bad):
    payload = {"type": "density", "param": "gamma", "quotient": [2, 0, 5], "size": 6,
               "density": "1/5", "witness": [0, 1, 2, 3, 4, 5], "validated_radius": 1,
               "exact_cover": False, field: bad}
    code, _, err = _verify_payload(capsys, tmp_path, payload)
    assert code == 2
    assert f"record field {field!r}" in err


def test_verify_out_of_range_density_witness_fails(capsys, tmp_path):
    # q(2,0,5) has 30 vertices, so 99 names none of them
    payload = {"type": "density", "param": "gamma", "quotient": [2, 0, 5], "size": 6,
               "density": "1/5", "witness": [0, 1, 2, 3, 4, 99], "validated_radius": 1,
               "exact_cover": False}
    code, out, _ = _verify_payload(capsys, tmp_path, payload)
    assert (code, out) == (1, "FAIL\n")


def test_verify_negative_solve_witness_fails(capsys, tmp_path):
    rec = tmp_path / "rec.json"
    assert run(capsys, "solve", "--family", "tbt", "--rows", "1", "--param", "gamma",
               "--emit", str(rec))[0] == 0
    payload = json.loads(rec.read_text())
    code, out, _ = _verify_payload(capsys, tmp_path, {**payload, "witness": [-1, *payload["witness"][1:]]})
    assert (code, out) == (1, "FAIL\n")


def test_verify_rejects_a_det_over_the_cap_quickly(capsys, tmp_path):
    import time

    from tumbling.cli import MAX_RECORD_DET

    assert MAX_RECORD_DET < 1000000
    payload = {"type": "density", "param": "gamma", "quotient": [1000000, 0, 1], "size": 1,
               "density": "1/3000000", "witness": [0], "validated_radius": 1, "exact_cover": False}
    start = time.perf_counter()
    code, _, err = _verify_payload(capsys, tmp_path, payload)
    assert time.perf_counter() - start < 1.0
    assert code == 2
    assert str(MAX_RECORD_DET) in err


def test_density_max_det_over_the_cap_exit_2(capsys):
    from tumbling.cli import MAX_RECORD_DET

    code, out, err = run(capsys, "density", "--param", "gamma", "--max-det", str(MAX_RECORD_DET + 1))
    assert code == 2
    assert out == "" and str(MAX_RECORD_DET) in err


@pytest.mark.parametrize(
    "source",
    [["--family", "tbp", "--rows", "160", "--cols", "160"], ["--quotient", "32,0,33"], ["--input"]],
    ids=["family", "quotient", "input"],
)
@pytest.mark.parametrize("command", [["solve", "--param", "gamma"], ["hamilton"]], ids=["solve", "hamilton"])
def test_emit_over_the_cap_exits_2_before_building_the_graph(capsys, monkeypatch, tmp_path, command, source):
    """--emit refuses an oversized graph from its vertex and edge counts:
    closed forms for a family, 3 det and 6 det for a quotient (det 1056
    here), the parsed document's counts for an input file."""
    import tumbling.cli as cli_mod
    from tumbling.cli import MAX_RECORD_VERTICES

    for name in ("build_family", "build_quotient", "graph_from_document"):
        monkeypatch.setattr(cli_mod, name, lambda *args, name=name: pytest.fail(f"{name} was called"))
    if source == ["--input"]:
        big = tmp_path / "big.txt"
        big.write_text(f"p {MAX_RECORD_VERTICES + 1} 0\n")
        source = ["--input", str(big)]
    rec = tmp_path / "rec.json"
    code, out, err = run(capsys, *command, *source, "--emit", str(rec))
    assert (code, out) == (2, "")
    assert f"--emit writes graphs of at most {MAX_RECORD_VERTICES} vertices" in err
    assert not rec.exists()


@pytest.mark.parametrize("max_det", ["0", "-3"])
def test_density_max_det_below_one_exit_2(capsys, max_det):
    code, out, err = run(capsys, "density", "--param", "gamma", "--max-det", max_det)
    assert code == 2
    assert out == "" and err == f"error: --max-det must be at least 1, got {max_det}\n"


def test_density_malformed_thread_budget_exit_2(capsys, monkeypatch):
    monkeypatch.setenv("TB_THREADS", "two")
    code, out, err = run(capsys, "density", "--param", "gamma", "--max-det", "6")
    assert code == 2
    assert out == "" and err == "error: TB_THREADS must be an integer, got 'two'\n"


def test_verify_non_object_record_exit_2(capsys, tmp_path):
    code, _, err = _verify_payload(capsys, tmp_path, [1, 2, 3])
    assert code == 2
    assert "JSON object" in err


def test_shares_block_pair(capsys):
    code, out, _ = run(capsys, "shares", "--family", "tbt", "--rows", "1",
                       "--set", "w:1:1,u:2:1")
    assert code == 0
    assert "w(1,1): 3" in out
    assert "u(2,1): 4" in out
    assert "total: 7" in out


def test_shares_non_dominating_names_uncovered(capsys):
    code, _, err = run(capsys, "shares", "--family", "tbt", "--rows", "1", "--set", "w:1:1")
    assert code == 1
    assert "uncovered" in err


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (("shares", "--family", "tbt", "--rows", "2", "--set", "99"), "vertex 99 out of range 0..15"),
        (("shares", "--family", "tbt", "--rows", "2", "--set", "-1"), "vertex -1 out of range 0..15"),
        (("render", "--family", "tbp", "--rows", "1", "--set", "99"), "vertex 99 out of range 0..6"),
        (("shares", "--family", "tbt", "--rows", "2", "--set", "w:1"), "bad vertex 'w:1'"),
        (("shares", "--family", "tbt", "--rows", "2", "--set", "x:1:1"), "bad vertex 'x:1:1'"),
    ],
    ids=["index-too-large", "negative-index", "render-index", "short-address", "unknown-class"],
)
def test_bad_vertex_set_exit_2(capsys, argv, message):
    """A --set token that names no vertex is a usage error that names it or
    the valid range, not a traceback."""
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err.startswith(f"error: {message}") and "Traceback" not in err


def test_shares_open_variant(capsys, tmp_path):
    c6 = tmp_path / "c6.txt"
    c6.write_text("p 6 6\n0 1\n0 5\n1 2\n2 3\n3 4\n4 5\n")
    code, out, _ = run(capsys, "shares", "--input", str(c6), "--set", "0,1,3,4", "--open")
    assert code == 0
    assert "0: 3/2" in out
    assert "total: 6" in out


def test_hamilton_cut_certificate(capsys, tmp_path):
    rec = tmp_path / "cut.json"
    code, out, _ = run(capsys, "hamilton", "--family", "tbp", "--rows", "7", "--cols", "7",
                       "--cut", "4,4", "--emit", str(rec))
    assert code == 0
    assert "24 isolated" in out
    assert "certificate: valid" in out
    _assert_stamped(rec)
    code, out, _ = run(capsys, "verify", "--input", str(rec))
    assert code == 0
    assert "OK" in out


@pytest.mark.parametrize(
    ("argv", "message"),
    [
        (("hamilton", "--family", "tbp", "--rows", "7", "--cols", "7", "--cut", "1"),
         "--cut must be i,j integers, got '1'"),
        (("hamilton", "--family", "tbp", "--rows", "7", "--cols", "7", "--cut", "a,b"),
         "--cut must be i,j integers, got 'a,b'"),
        (("gen", "--quotient", "3,0"), "--quotient must be a,c,d integers, got '3,0'"),
    ],
    ids=["cut-one-value", "cut-not-integers", "quotient-two-values"],
)
def test_malformed_coordinates_exit_2(capsys, argv, message):
    code, out, err = run(capsys, *argv)
    assert code == 2
    assert out == "" and err == f"error: {message}\n"


def test_verify_help_says_what_is_checked(capsys):
    with pytest.raises(SystemExit):
        main(["verify", "--help"])
    assert "not its optimality" in " ".join(capsys.readouterr().out.split())


def test_hamilton_search_block(capsys):
    code, out, _ = run(capsys, "hamilton", "--family", "tbt", "--rows", "1", "--search")
    assert code == 0
    assert "no hamiltonian cycle" in out


def test_render_tbp22_glyph_count(capsys, tmp_path):
    svg = tmp_path / "tbp22.svg"
    code, _, _ = run(capsys, "render", "--family", "tbp", "--rows", "2", "--cols", "2",
                     "-o", str(svg))
    assert code == 0
    root = ET.fromstring(svg.read_text())
    circles = root.findall(".//{http://www.w3.org/2000/svg}circle")
    assert len(circles) == 20


def test_render_with_highlight(capsys, tmp_path):
    svg = tmp_path / "hl.svg"
    code, _, _ = run(capsys, "render", "--family", "tbt", "--rows", "1",
                     "--set", "w:1:1,u:2:1", "-o", str(svg))
    assert code == 0
    root = ET.fromstring(svg.read_text())
    circles = root.findall(".//{http://www.w3.org/2000/svg}circle")
    assert len(circles) == 7


def test_render_unlabeled_input_fails(capsys, tmp_path):
    c6 = tmp_path / "c6.txt"
    c6.write_text("p 6 6\n0 1\n0 5\n1 2\n2 3\n3 4\n4 5\n")
    code, _, err = run(capsys, "render", "--input", str(c6))
    assert code == 2


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as exc:
        main(["solve", "--param", "nope", "--family", "tbt", "--rows", "1"])
    assert exc.value.code == 2
