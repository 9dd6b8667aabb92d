"""Command line behavior: formats, exit codes, config handling."""

import concurrent.futures
import json
import os
import re
import resource
import subprocess
import sys

import pytest

from crosslat import cli
from crosslat.cli import (
    EXIT_BREACH,
    EXIT_CAP,
    EXIT_OK,
    EXIT_USAGE,
    MAX_OUTPUT_ELEMENTS,
    graph_literal,
    main,
    parse_family_literal,
    parse_graph_literal,
)
from crosslat.crosslattice import MAX_POSET_ELEMENTS
from crosslat.errors import CrossLatError
from crosslat.theorem_suite import CriterionReport


# -- literal parsing ----------------------------------------------------------


def test_parse_graph_literal_forms():
    g = parse_graph_literal("path A 5")
    assert g.kind == "path_A" and g.n == 5
    assert parse_graph_literal("cycle 6").kind == "cycle"
    g = parse_graph_literal("custom 4: 1-2,2-3")
    assert g.n == 4 and g.edges == frozenset({(1, 2), (2, 3)})


def test_parse_graph_literal_errors():
    for bad in ["", "path A", "path Z 3", "cycle", "custom 3 1-2",
                "custom 3: 1+2", "tree 5", "path A five", "path D 3",
                "path A 5 6", "cycle 6 7"]:
        with pytest.raises(CrossLatError):
            parse_graph_literal(bad)


def test_parse_family_literal():
    assert parse_family_literal("path A") == "path_A"
    assert parse_family_literal("path b") == "path_B"
    assert parse_family_literal("cycle") == "cycle"
    with pytest.raises(CrossLatError):
        parse_family_literal("hexagon")


def test_graph_literal_round_trip():
    for text in ["path A 5", "cycle 6", "custom 4: 1-2,2-3", "path B 4", "path C 2",
                 "cycle 3"]:
        assert graph_literal(parse_graph_literal(text)) == text


# -- build --------------------------------------------------------------------


def test_build_text_output(capsys):
    assert main(["build", "--graph", "path A 3", "--j0", "{2}"]) == EXIT_OK
    cap = capsys.readouterr()
    lines = cap.out.splitlines()
    assert len(lines) == 7
    assert lines[0] == "0\t0x0\t{}"
    assert lines[-1] == "3\t0x7\t{1,2,3}"
    assert cap.err.strip() == "7 elements"


def test_build_json_output(capsys):
    assert main(["build", "--graph", "path A 2", "--format", "json"]) == EXIT_OK
    rows = json.loads(capsys.readouterr().out)
    assert len(rows) == 4
    assert rows[0] == {"rank": 0, "mask": "0x0", "members": "{}"}


def test_build_csv_output(capsys):
    assert main(["build", "--graph", "path A 2", "--format", "csv"]) == EXIT_OK
    lines = capsys.readouterr().out.splitlines()
    assert lines[0] == "rank,mask,members"
    assert lines[1] == "0,0x0,{}"


def test_build_cycle_matches_path_cut(capsys):
    # cutting the cycle between two adjacent free vertices gives a path
    assert main(["build", "--graph", "cycle 5", "--j0", "{3}"]) == EXIT_OK
    assert capsys.readouterr().err.strip() == "28 elements"
    assert main(["build", "--graph", "path A 5", "--j0", "{3}"]) == EXIT_OK
    assert capsys.readouterr().err.strip() == "28 elements"


def test_build_out_file(tmp_path, capsys):
    target = tmp_path / "rows.txt"
    code = main(["build", "--graph", "path A 3", "--j0", "{2}",
                 "--out", str(target)])
    assert code == EXIT_OK
    cap = capsys.readouterr()
    # with --out, the summary moves to stdout and the data leaves it
    assert cap.out.strip() == "7 elements"
    assert cap.err == ""
    assert target.read_text().splitlines()[0] == "0\t0x0\t{}"


BUILD_PATH2_JSON = """[
  {
    "rank": 0,
    "mask": "0x0",
    "members": "{}"
  },
  {
    "rank": 1,
    "mask": "0x2",
    "members": "{2}"
  },
  {
    "rank": 2,
    "mask": "0x3",
    "members": "{1,2}"
  }
]
"""


def test_build_json_out_file_golden(tmp_path, capsys):
    target = tmp_path / "rows.json"
    code = main(["build", "--graph", "path A 2", "--j0", "{1}",
                 "--format", "json", "--out", str(target)])
    assert code == EXIT_OK
    assert target.read_text() == BUILD_PATH2_JSON
    assert capsys.readouterr() == ("3 elements\n", "")


def test_out_naming_a_directory_exits_2(tmp_path, capsys):
    code = main(["build", "--graph", "path A 3", "--out", str(tmp_path)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


def test_out_under_a_missing_directory_exits_2(tmp_path, capsys):
    target = tmp_path / "missing" / "rows.txt"
    code = main(["build", "--graph", "path A 3", "--out", str(target)])
    assert code == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")
    assert not target.parent.exists()


def test_build_requires_graph(capsys):
    assert main(["build"]) == EXIT_USAGE
    assert "error:" in capsys.readouterr().err


def test_build_rejects_dot_format(capsys):
    assert main(["build", "--graph", "path A 2", "--format", "dot"]) == EXIT_USAGE


def test_build_single_size_cap(capsys):
    assert main(["build", "--graph", "path A 25"]) == EXIT_CAP


def refuse_work(*args, **kwargs):
    raise AssertionError("work ran")


@pytest.mark.parametrize("command, fmt", [
    ("analyze", "csv"), ("analyze", "dot"), ("build", "dot"), ("export-dot", "json"),
])
def test_unsupported_format_exits_before_any_lattice(command, fmt, tmp_path,
                                                     monkeypatch, capsys):
    # path A 13 with nothing marked is an 8,192-element analysis
    argv = [command, "--graph", "path A 13", "--j0", "{}"]
    monkeypatch.setattr(cli, "CrossSectionLattice", refuse_work)
    monkeypatch.setattr(cli, "_analyze_report", refuse_work)
    with pytest.raises(AssertionError, match="work ran"):
        main(argv)
    conf = tmp_path / "run.conf"
    conf.write_text(f"format = {fmt}\n")
    for source in (["--format", fmt], ["--config", str(conf)]):
        assert main(argv + source) == EXIT_USAGE
        assert capsys.readouterr() == (
            "", f"error: {command} does not support format '{fmt}'\n")


@pytest.mark.parametrize("argv", [
    ["build", "--graph", "path A 25"],
    ["scan", "charpoly", "--family", "path A", "--n-max", "13"],
])
def test_usage_error_wins_over_the_size_cap(argv, capsys):
    assert main(argv) == EXIT_CAP
    capsys.readouterr()
    assert main(argv + ["--format", "dot"]) == EXIT_USAGE
    assert capsys.readouterr().err == f"error: {argv[0]} does not support format 'dot'\n"


@pytest.mark.parametrize("argv, formats", [
    (["build"], ["text", "json", "csv"]),
    (["analyze"], ["text", "json"]),
    (["scan", "charpoly"], ["text", "json", "csv"]),
    (["export-dot"], ["dot"]),
])
def test_help_names_exactly_the_commands_formats(argv, formats, capsys):
    with pytest.raises(SystemExit) as exc:
        main(argv + ["--help"])
    assert exc.value.code == EXIT_OK
    text = capsys.readouterr().out
    entry = text.split("\n  --format FORMAT")[1].split("\n  --out")[0]
    # the formats in order, then the default
    assert re.findall(r"\b(?:text|json|csv|dot)\b", entry) == formats + formats[:1]


def test_analyze_over_element_budget_exits_before_allocating():
    # path A 14 with nothing marked has 2**14 = 16,384 elements, over the
    # poset budget; its dense order products would need several GB, so the
    # call must end with exit 3 in a process that cannot map 3 GB
    limit = 3 << 30

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "crosslat.cli", "analyze", "--graph", "path A 14", "--j0", "{}"],
        env=env, preexec_fn=cap_address_space, capture_output=True, text=True, timeout=30)
    assert proc.returncode == EXIT_CAP, proc.stderr
    assert proc.stderr == (f"error: poset view capped at {MAX_POSET_ELEMENTS} elements, "
                           "got 16384\n")


@pytest.mark.parametrize("argv, size", [
    (["build", "--graph", "path A 22"], 1 << 22),
    (["build", "--graph", "path A 22", "--format", "json"], 1 << 22),
    (["export-dot", "--graph", "path A 20"], 1 << 20),
])
def test_output_over_element_budget_exits_before_building_rows(argv, size):
    # enumeration fits in 1 GB of address space, but the rows or DOT lines
    # of these calls would not: each must end with exit 3, not MemoryError
    limit = 1 << 30

    def cap_address_space():
        resource.setrlimit(resource.RLIMIT_AS, (limit, limit))

    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    env = dict(os.environ, PYTHONPATH=src, OPENBLAS_NUM_THREADS="1")
    proc = subprocess.run(
        [sys.executable, "-m", "crosslat.cli", *argv],
        env=env, preexec_fn=cap_address_space, capture_output=True, text=True, timeout=60)
    assert proc.returncode == EXIT_CAP, proc.stderr
    assert proc.stdout == ""
    assert proc.stderr == (f"error: output capped at {MAX_OUTPUT_ELEMENTS} elements, "
                           f"got {size}\n")


@pytest.mark.parametrize("command", ["build", "export-dot"])
def test_output_cap_admits_exactly_its_size(command, monkeypatch, capsys):
    # path A 3 with {2} marked has 7 elements
    argv = [command, "--graph", "path A 3", "--j0", "{2}"]
    monkeypatch.setattr(cli, "MAX_OUTPUT_ELEMENTS", 7)
    assert main(argv) == EXIT_OK
    monkeypatch.setattr(cli, "MAX_OUTPUT_ELEMENTS", 6)
    capsys.readouterr()
    assert main(argv) == EXIT_CAP
    assert capsys.readouterr() == ("", "error: output capped at 6 elements, got 7\n")


def test_build_rejects_out_of_range_node(capsys):
    assert main(["build", "--graph", "path A 3", "--j0", "{7}"]) == EXIT_USAGE


@pytest.mark.parametrize("j0", ["{\u00b2}", "{%s}" % ("9" * 5000), "{65}", "{200000000}"])
def test_j0_labels_that_are_no_node_exit_2(j0, capsys):
    assert main(["analyze", "--graph", "path A 3", "--j0", j0]) == EXIT_USAGE
    assert capsys.readouterr().err.startswith("error: ")


# -- analyze ------------------------------------------------------------------

ANALYZE_PATH3_LINES = [
    "graph: path A 3",
    "n: 3",
    "j0: {2}",
    "j0_mask: 0x2",
    "size: 7",
    "degenerate: false",
    "atoms: {1}, {3}",
    "join_irreducibles: {1}, {3}, {1,2}, {2,3}",
    "distributive.criterion: false",
    "distributive.engine: false",
    "distributive.agree: true",
    "charpoly.direct: x^3 - 2x^2 + x",
    "charpoly.formula: x^3 - 2x^2 + x",
    "charpoly.agree: true",
    "charpoly.note: ",
    "supersolvable.criterion: true",
    "supersolvable.bruteforce: true",
    "supersolvable.agree: true",
    "supersolvable.witness: {}, {1}, {1,3}, {1,2,3}",
    "supersolvable.m_chain: {}, {1}, {1,3}, {1,2,3}",
    "supersolvable.stanley: x^3 - 2x^2 + x",
    "partition_type: null",
    "combinatorially_smooth: false",
    "flag_symmetric: false",
]


def test_analyze_text_golden(capsys):
    assert main(["analyze", "--graph", "path A 3", "--j0", "{2}"]) == EXIT_OK
    cap = capsys.readouterr()
    assert cap.out == "".join(line + "\n" for line in ANALYZE_PATH3_LINES)
    assert cap.err.strip() == "ok"


def test_analyze_json_keys_and_values(capsys):
    assert main(["analyze", "--graph", "path A 4", "--j0", "{1,2}",
                 "--format", "json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert list(report) == [
        "graph", "n", "j0", "j0_mask", "size", "degenerate", "atoms",
        "join_irreducibles", "distributive", "charpoly", "supersolvable",
        "partition_type", "combinatorially_smooth", "flag_symmetric",
    ]
    assert report["distributive"] == {
        "criterion": True, "engine": True, "agree": True}
    assert report["supersolvable"]["agree"] is True
    assert report["partition_type"] == [3, 1]
    assert report["combinatorially_smooth"] is True
    assert report["flag_symmetric"] is True


def test_analyze_degenerate(capsys):
    assert main(["analyze", "--graph", "path A 2", "--j0", "{1,2}",
                 "--format", "json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["degenerate"] is True
    assert report["size"] == 1
    assert report["charpoly"]["direct"] == "1"
    # the product form x^n is honest about not covering the empty lattice
    assert report["charpoly"]["agree"] is False
    assert "degenerate" in report["charpoly"]["note"]
    assert report["supersolvable"]["m_chain"] == ["{}"]
    assert report["supersolvable"]["stanley"] == "1"


def test_analyze_cycle_skips_path_only_criteria(capsys):
    assert main(["analyze", "--graph", "cycle 4", "--j0", "{1}",
                 "--format", "json"]) == EXIT_OK
    report = json.loads(capsys.readouterr().out)
    assert report["supersolvable"] is None
    assert report["combinatorially_smooth"] is None
    # connected free set yet not distributive: the tree criterion does not
    # transfer to the circuit, so no agreement is claimed there
    assert report["distributive"] == {
        "criterion": True, "engine": False, "agree": None}


# -- scan ---------------------------------------------------------------------


def test_scan_csv_golden(capsys):
    code = main(["scan", "distributive-count", "--family", "path A",
                 "--n-max", "3", "--format", "csv"])
    assert code == EXIT_OK
    cap = capsys.readouterr()
    lines = cap.out.splitlines()
    assert lines[0] == "graph,n,j0_mask,criterion,value,oracle,agree,note"
    assert lines[1] == ("path_A,1,0x0,distributive_class_count,1,1,true,"
                        "partitions=1;nonproduct_classes=0")
    assert lines[3] == ("path_A,3,0x0,distributive_class_count,3,3,true,"
                        "partitions=3;nonproduct_classes=1")
    assert cap.err.strip() == (
        "rows=3 agree=3 disagree=0 flagged=0 degenerate-skipped=3")


SCAN_SUPERSOLVABLE_CONFIGS = [(1, 0), (1, 1), (2, 0), (2, 1), (2, 2), (2, 3)]

SCAN_SUPERSOLVABLE_JSON_ROW = """  {
    "graph": "path_A",
    "n": %d,
    "j0_mask": "0x%x",
    "criterion": "supersolvable_end_or_singleton",
    "value": "True",
    "oracle": "True",
    "agree": true,
    "note": ""
  }"""


def test_scan_text_golden(capsys):
    code = main(["scan", "supersolvable", "--family", "path A", "--n-max", "2"])
    assert code == EXIT_OK
    assert capsys.readouterr() == ("".join(
        f"path_A\t{n}\t0x{j0:x}\tsupersolvable_end_or_singleton\tTrue\tTrue\ttrue\t\n"
        for n, j0 in SCAN_SUPERSOLVABLE_CONFIGS),
        "rows=6 agree=6 disagree=0 flagged=0 degenerate-skipped=0\n")


def test_scan_json_golden(capsys):
    code = main(["scan", "supersolvable", "--family", "path A", "--n-max", "2",
                 "--format", "json"])
    assert code == EXIT_OK
    rows = ",\n".join(SCAN_SUPERSOLVABLE_JSON_ROW % c for c in SCAN_SUPERSOLVABLE_CONFIGS)
    assert capsys.readouterr() == (
        f"[\n{rows}\n]\n",
        "rows=6 agree=6 disagree=0 flagged=0 degenerate-skipped=0\n")


def test_scan_requires_family_and_nmax(capsys):
    assert main(["scan", "charpoly", "--n-max", "3"]) == EXIT_USAGE
    assert main(["scan", "charpoly", "--family", "path A"]) == EXIT_USAGE


def test_scan_cap(capsys):
    assert main(["scan", "charpoly", "--family", "path A",
                 "--n-max", "13"]) == EXIT_CAP


def test_scan_parallel_output_is_identical(capsys):
    # each chunk keeps its own orbit values and interval flags, so reuse
    # never crosses workers
    for args in (["scan", "charpoly", "--family", "path A", "--n-max", "5"],
                 ["scan", "charpoly", "--family", "path B", "--n-max", "6"],
                 ["scan", "circuit", "--family", "cycle", "--n-max", "7"],
                 ["scan", "theorems", "--family", "path C", "--n-max", "5"]):
        args = args + ["--format", "csv"]
        assert main(args) == EXIT_OK
        seq = capsys.readouterr()
        assert main(args + ["--jobs", "3"]) == EXIT_OK
        par = capsys.readouterr()
        assert par.out == seq.out, args
        assert par.err == seq.err, args


def test_scan_circuit_starts_at_three(capsys):
    assert main(["scan", "circuit", "--family", "cycle",
                 "--n-max", "3", "--format", "csv"]) == EXIT_OK
    cap = capsys.readouterr()
    rows = cap.out.splitlines()[1:]
    assert rows and all(r.split(",")[1] == "3" for r in rows)
    # the three lone-free-vertex configurations disagree but carry the flag
    assert "flagged=3" in cap.err and "disagree=0" in cap.err


def test_scan_n_max_below_first_n_names_the_option(capsys):
    assert main(["scan", "circuit", "--family", "cycle", "--n-max", "2"]) == EXIT_USAGE
    assert "--n-max must be at least 3" in capsys.readouterr().err
    assert main(["scan", "charpoly", "--family", "path A", "--n-max", "0"]) == EXIT_USAGE
    assert "--n-max must be at least 1" in capsys.readouterr().err


def test_scan_rejects_non_positive_jobs(tmp_path, capsys):
    args = ["scan", "charpoly", "--family", "path A", "--n-max", "2"]
    for jobs in ("0", "-3"):
        assert main(args + ["--jobs", jobs]) == EXIT_USAGE
        assert f"--jobs must be at least 1, got {jobs}" in capsys.readouterr().err
        conf = tmp_path / "scan.conf"
        conf.write_text(f"jobs = {jobs}\n")
        assert main(args + ["--config", str(conf)]) == EXIT_USAGE
        assert "--jobs" in capsys.readouterr().err
    assert main(args) == EXIT_OK
    assert "rows=4" in capsys.readouterr().err


@pytest.mark.parametrize("key,value", [("jobs", "x"), ("n-max", "y"), ("jobs", "2.5")])
def test_integer_options_read_alike_from_flag_and_config(key, value, tmp_path, capsys):
    base = ["scan", "charpoly", "--family", "path A"]
    base += [] if key == "n-max" else ["--n-max", "3"]
    conf = tmp_path / "scan.conf"
    conf.write_text(f"{key} = {value}\n")
    errors = []
    for argv in (base + [f"--{key}", value], base + ["--config", str(conf)]):
        assert main(argv) == EXIT_USAGE
        captured = capsys.readouterr()
        assert captured.out == ""
        errors.append(captured.err)
    assert errors[0] == errors[1] == f"error: --{key} expects an integer, got {value!r}\n"


def fake_scan(rows):
    def run(kind, n_max, n_min=1):
        return rows
    return run


def test_scan_breach_exit_code(monkeypatch, capsys):
    bad = CriterionReport("path_A", 2, 0, "x", "a", "b", False)
    monkeypatch.setitem(cli.SCAN_FUNCTIONS, "theorems", fake_scan([bad]))
    code = main(["scan", "theorems", "--family", "path A", "--n-max", "1"])
    assert code == EXIT_BREACH
    assert "disagree=1" in capsys.readouterr().err


def test_scan_conjecture_disagreement_still_exits_zero(monkeypatch, capsys):
    bad = CriterionReport("path_A", 2, 0, "x", "a", "b", False)
    monkeypatch.setitem(cli.SCAN_FUNCTIONS, "charpoly", fake_scan([bad]))
    code = main(["scan", "charpoly", "--family", "path A", "--n-max", "1"])
    assert code == EXIT_OK
    assert "disagree=1" in capsys.readouterr().err


def test_scan_hypothesis_flag_shields_breach(monkeypatch, capsys):
    flagged = CriterionReport("cycle", 4, 7, "x", "a", "b", False,
                              note="no-adjacent-free-pair")
    monkeypatch.setitem(cli.SCAN_FUNCTIONS, "circuit", fake_scan([flagged]))
    code = main(["scan", "circuit", "--family", "cycle", "--n-max", "3"])
    assert code == EXIT_OK
    assert "flagged=1" in capsys.readouterr().err


def test_scan_informational_note_does_not_shield(monkeypatch, capsys):
    bad = CriterionReport("path_A", 3, 0, "x", "a", "b", False,
                          note="partitions=3;nonproduct_classes=1")
    monkeypatch.setitem(cli.SCAN_FUNCTIONS, "distributive-count", fake_scan([bad]))
    code = main(["scan", "distributive-count", "--family", "path A",
                 "--n-max", "1"])
    assert code == EXIT_BREACH


class FakeExecutor:
    """Stands in for ProcessPoolExecutor: records its size, runs in-process."""

    created = []

    def __init__(self, max_workers):
        self.created.append(max_workers)

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False

    def map(self, fn, *iterables):
        return map(fn, *iterables)


def test_scan_range_checked_before_any_chunk(monkeypatch, capsys):
    calls = []

    def recording(kind, n_max, n_min=1):
        calls.append(n_max)
        return []

    monkeypatch.setitem(cli.SCAN_FUNCTIONS, "theorems", recording)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakeExecutor)
    monkeypatch.setattr(FakeExecutor, "created", [])
    for jobs in ("1", "2"):
        code = main(["scan", "theorems", "--family", "path A",
                     "--n-max", "13", "--jobs", jobs])
        assert code == EXIT_CAP
    assert calls == [] and FakeExecutor.created == []


def test_scan_format_checked_before_any_chunk(monkeypatch, capsys):
    def refuse(kind, n_max, n_min=1):
        raise AssertionError("scan ran")

    monkeypatch.setitem(cli.SCAN_FUNCTIONS, "charpoly", refuse)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakeExecutor)
    monkeypatch.setattr(FakeExecutor, "created", [])
    for jobs in ("1", "2"):
        code = main(["scan", "charpoly", "--family", "path A", "--n-max", "10",
                     "--format", "dot", "--jobs", jobs])
        assert code == EXIT_USAGE
        assert capsys.readouterr().err == "error: scan does not support format 'dot'\n"
    assert FakeExecutor.created == []


def test_scan_workers_capped_at_chunk_count(monkeypatch, capsys):
    calls = []

    def recording(kind, n_max, n_min=1):
        calls.append((n_min, n_max))
        return []

    monkeypatch.setitem(cli.SCAN_FUNCTIONS, "circuit", recording)
    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", FakeExecutor)
    monkeypatch.setattr(FakeExecutor, "created", [])
    code = main(["scan", "circuit", "--family", "cycle", "--n-max", "4",
                 "--jobs", "64"])
    assert code == EXIT_OK
    assert FakeExecutor.created == [2]
    assert calls == [(3, 3), (4, 4)]
    assert "degenerate-skipped=2" in capsys.readouterr().err


def test_cli_import_leaves_the_process_pool_out():
    # the pool pulls in multiprocessing, socket and logging; only --jobs
    # above 1 needs it
    src = os.path.join(os.path.dirname(os.path.abspath(__file__)), os.pardir, "src")
    proc = subprocess.run(
        [sys.executable, "-c", "import sys, crosslat.cli; "
         "print('concurrent.futures.process' in sys.modules)"],
        env=dict(os.environ, PYTHONPATH=src), capture_output=True, text=True, timeout=30)
    assert proc.stdout == "False\n", proc.stderr


def test_scan_rejects_wrong_family(capsys):
    for name in ["theorems", "charpoly", "supersolvable", "chains",
                 "inner-product", "distributive-count"]:
        assert main(["scan", name, "--family", "cycle", "--n-max", "4"]) == EXIT_USAGE
        assert "path A, path B, path C" in capsys.readouterr().err
    assert main(["scan", "circuit", "--family", "path B", "--n-max", "4"]) == EXIT_USAGE
    assert "runs on cycle" in capsys.readouterr().err


# -- export-dot ---------------------------------------------------------------

DOT_PATH3 = """\
digraph crosslattice {
  rankdir=BT;
  e0 [label="{}"];
  e1 [label="{1}"];
  e2 [label="{3}"];
  e3 [label="{1,2}"];
  e4 [label="{1,3}"];
  e5 [label="{2,3}"];
  e6 [label="{1,2,3}"];
  e0 -> e1;
  e0 -> e2;
  e1 -> e3;
  e1 -> e4;
  e2 -> e4;
  e2 -> e5;
  e3 -> e6;
  e4 -> e6;
  e5 -> e6;
}
"""


def test_export_dot_golden(capsys):
    assert main(["export-dot", "--graph", "path A 3", "--j0", "{2}"]) == EXIT_OK
    cap = capsys.readouterr()
    assert cap.out == DOT_PATH3
    assert cap.err.strip() == "7 nodes, 9 cover edges"


def test_export_dot_larger_graph(capsys):
    assert main(["export-dot", "--graph", "path A 4", "--j0", "{2,3}"]) == EXIT_OK
    assert capsys.readouterr().err.strip() == "11 nodes, 16 cover edges"


def test_export_dot_rejects_other_formats(capsys):
    assert main(["export-dot", "--graph", "path A 3",
                 "--format", "json"]) == EXIT_USAGE


# -- config files -------------------------------------------------------------


def test_config_file_defaults(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("# sample\ngraph = path A 3\nj0 = {2}\n")
    assert main(["build", "--config", str(conf)]) == EXIT_OK
    assert capsys.readouterr().err.strip() == "7 elements"


def test_config_flag_wins_over_file(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("graph = path A 3\nj0 = {2}\n")
    assert main(["build", "--config", str(conf), "--j0", "{}"]) == EXIT_OK
    assert capsys.readouterr().err.strip() == "8 elements"


def test_config_naming_a_missing_file_exits_2(tmp_path, capsys):
    conf = tmp_path / "absent.conf"
    assert main(["build", "--config", str(conf)]) == EXIT_USAGE
    err = capsys.readouterr().err
    assert err.startswith("error: ") and str(conf) in err


def test_config_rejects_unknown_key(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("verbosity = 3\n")
    assert main(["build", "--config", str(conf)]) == EXIT_USAGE
    assert "unknown key" in capsys.readouterr().err


def test_config_rejects_bare_line(tmp_path, capsys):
    conf = tmp_path / "run.conf"
    conf.write_text("just words\n")
    assert main(["build", "--config", str(conf)]) == EXIT_USAGE


def test_config_scan_settings(tmp_path, capsys):
    conf = tmp_path / "scan.conf"
    conf.write_text("family = path A\nn-max = 3\nformat = csv\njobs = 2\n")
    assert main(["scan", "charpoly", "--config", str(conf)]) == EXIT_OK
    cap = capsys.readouterr()
    assert cap.out.splitlines()[0] == (
        "graph,n,j0_mask,criterion,value,oracle,agree,note")
    assert "rows=11" in cap.err
