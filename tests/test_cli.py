import io
import random
import subprocess
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from itertools import combinations

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from haan.cli.files import (
    InstanceDocument,
    ResultDocument,
    parse_allocation_text,
    parse_instance_text,
    parse_result_text,
    read_instance_file,
    render_instance_text,
    render_result_text,
)
from haan.cli import main as main_module
from haan.cli.main import main
from haan.cli.sources import named_source_graph
from haan.errors import FormatError
from haan.model import AnnotatedInstance, Instance
from haan.reductions import SourceGraph
from haan.solvers import ALGORITHMS

TRIANGLE_TEXT = """\
haan/1 instance
agents 3
houses 3
edge 0 1
edge 0 2
edge 1 2
prefs 0 : 0
prefs 1 : 0
prefs 2 : 0
"""


def run_cli(*argv):
    return main(list(argv))


def run_cli_capture(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# -- file formats --------------------------------------------------------------

def test_instance_round_trip_is_byte_identical():
    doc = parse_instance_text(TRIANGLE_TEXT)
    assert render_instance_text(doc) == TRIANGLE_TEXT
    assert doc.instance.n_agents == 3


def test_instance_parse_accepts_reordered_lines():
    shuffled = """\
haan/1 instance
prefs 2 : 0
houses 3
edge 1 2
agents 3
prefs 0 : 0
edge 0 2
prefs 1 : 0
edge 0 1
"""
    doc = parse_instance_text(shuffled)
    assert render_instance_text(doc) == TRIANGLE_TEXT


def test_instance_round_trip_with_annotated_and_meta():
    base = Instance(2, 3, [(0, 1)], [[0], [1, 2]])
    ann = AnnotatedInstance(base, [[0, 1], [2]], [1])
    doc = InstanceDocument(base, annotated=ann, target_envy=1,
                           provenance={"generator": "test", "params": {"k": 1}})
    text = render_instance_text(doc)
    again = parse_instance_text(text)
    assert render_instance_text(again) == text
    assert again.annotated == ann
    assert again.target_envy == 1
    assert again.provenance == {"generator": "test", "params": {"k": 1}}


def test_instance_parse_errors():
    with pytest.raises(FormatError):
        parse_instance_text("nonsense\n")
    with pytest.raises(FormatError):
        parse_instance_text("haan/1 instance\nagents 1\nhouses 1\n")  # no prefs
    with pytest.raises(FormatError):
        parse_instance_text(
            "haan/1 instance\nagents 1\nhouses 1\nprefs 0 : 0\nbogus 1\n"
        )
    with pytest.raises(FormatError):
        parse_instance_text(
            "haan/1 instance\nagents 2\nhouses 1\nedge 0 0\nprefs 0 :\nprefs 1 :\n"
        )


@pytest.mark.parametrize("bad_line", [
    "meta target_envy abc",
    "agents",
    "edge 1",
    "prefs 0 1 : 0",
])
def test_malformed_line_is_a_format_error(tmp_path, capsys, bad_line):
    text = TRIANGLE_TEXT + bad_line + "\n"
    with pytest.raises(FormatError):
        parse_instance_text(text)
    path = tmp_path / "bad.haan"
    path.write_text(text)
    code, out, err = run_cli_capture(capsys, "solve", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("error: ") and err.count("\n") == 1


@pytest.mark.parametrize("repeated", [
    "agents 3",
    "houses 4",
    "angry :\nangry : 1",
    "meta target_envy 0\nmeta target_envy 1",
    'meta provenance {}\nmeta provenance {"k": 1}',
])
def test_repeated_singleton_line_is_a_format_error(tmp_path, capsys, repeated):
    # TRIANGLE_TEXT already holds one agents and one houses line.
    text = TRIANGLE_TEXT + repeated + "\n"
    with pytest.raises(FormatError, match="duplicate"):
        parse_instance_text(text)
    path = tmp_path / "repeated.haan"
    path.write_text(text)
    code, out, err = run_cli_capture(capsys, "solve", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("error: duplicate") and err.count("\n") == 1


def test_result_round_trip():
    doc = ResultDocument("brute", "envy", 2, 1, 6, 0, (0, 1, 2))
    text = render_result_text(doc)
    assert parse_result_text(text) == doc
    assert parse_allocation_text(text).assignment == (0, 1, 2)


def test_parse_allocation_empty():
    alloc = parse_allocation_text("haan/1 allocation\nallocation :\n")
    assert alloc.assignment == ()


# -- solve ----------------------------------------------------------------------

def write_triangle(tmp_path, name="tri.haan"):
    path = tmp_path / name
    path.write_text(TRIANGLE_TEXT)
    return path


def test_solve_brute_triangle(tmp_path, capsys):
    path = write_triangle(tmp_path)
    code, out, _ = run_cli_capture(capsys, "solve", str(path), "--algo", "brute",
                                   "--omit-timing")
    assert code == 0
    doc = parse_result_text(out)
    assert doc.min_envy == 2
    assert doc.solver_id == "brute"
    assert doc.wall_time_ms == 0


def test_solve_writes_output_file(tmp_path, capsys):
    path = write_triangle(tmp_path)
    out_path = tmp_path / "result.haan"
    code = run_cli("solve", str(path), "--algo", "envy-guess", "--output",
                   str(out_path), "--omit-timing")
    capsys.readouterr()
    assert code == 0
    assert parse_result_text(out_path.read_text()).min_envy == 2


def test_solve_wrong_solver_exit_code(tmp_path, capsys):
    path = tmp_path / "d2.haan"
    path.write_text(
        "haan/1 instance\nagents 1\nhouses 2\nprefs 0 : 0 1\n"
    )
    code, out, err = run_cli_capture(capsys, "solve", str(path), "--algo", "d1")
    assert code == 6
    assert out == ""
    assert "error" in err


def test_solve_envy_happy_objective(tmp_path, capsys):
    path = tmp_path / "pair.haan"
    path.write_text(
        "haan/1 instance\nagents 2\nhouses 2\nprefs 0 : 0\nprefs 1 : 0\n"
    )
    code, out, _ = run_cli_capture(
        capsys, "solve", str(path), "--algo", "auto", "--objective", "envy-happy",
        "--omit-timing",
    )
    assert code == 0
    doc = parse_result_text(out)
    assert (doc.min_envy, doc.happiness) == (0, 1)
    assert doc.objective == "envy-happy"


def test_solve_auto_takes_the_separator_past_vc_xp_guess_limit(tmp_path, capsys):
    # The 12-agent instance has a 7-cover: perm(12, 7)·2^7 vc-xp guesses
    # are over the default limit, so auto runs the separator instead.
    path = tmp_path / "rr12.haan"
    assert run_cli("generate", "halfsep-3reg", "--graph", "random-regular:12:3:1",
                   "--k", "2", "--output", str(path)) == 0
    capsys.readouterr()
    code, out, _ = run_cli_capture(capsys, "solve", str(path), "--omit-timing")
    assert code == 0
    doc = parse_result_text(out)
    assert (doc.solver_id, doc.min_envy) == ("separator", 3)


def test_solve_infeasible_exit_code(tmp_path, capsys):
    path = tmp_path / "bad.haan"
    path.write_text("haan/1 instance\nagents 2\nhouses 1\nprefs 0 :\nprefs 1 :\n")
    code, _, _ = run_cli_capture(capsys, "solve", str(path), "--algo", "brute")
    assert code == 4


def test_solve_budget_exit_code(tmp_path, capsys):
    path = write_triangle(tmp_path)
    code, _, _ = run_cli_capture(capsys, "solve", str(path), "--algo", "brute",
                                 "--guess-limit", "2")
    assert code == 5


def test_solve_parse_error_exit_code(tmp_path, capsys):
    path = tmp_path / "junk.haan"
    path.write_text("not a file\n")
    code, _, _ = run_cli_capture(capsys, "solve", str(path))
    assert code == 3


def test_solve_annotated_instance(tmp_path, capsys):
    path = tmp_path / "ann.haan"
    path.write_text(
        "haan/1 instance\nagents 1\nhouses 2\nprefs 0 : 0\n"
        "feasible 0 : 1\nangry : 0\n"
    )
    code, out, _ = run_cli_capture(capsys, "solve", str(path), "--omit-timing")
    assert code == 0
    doc = parse_result_text(out)
    assert doc.min_envy == 1
    assert doc.solver_id == "separator"
    code, _, _ = run_cli_capture(capsys, "solve", str(path), "--algo", "brute")
    assert code == 6


def test_solve_no_feasible_allocation_exit(tmp_path, capsys):
    path = tmp_path / "nofeas.haan"
    path.write_text(
        "haan/1 instance\nagents 2\nhouses 2\nprefs 0 :\nprefs 1 :\n"
        "feasible 0 : 0\nfeasible 1 : 0\nangry :\n"
    )
    code, _, _ = run_cli_capture(capsys, "solve", str(path))
    assert code == 8


# -- generate -------------------------------------------------------------------

def test_generate_clique_bip_d2(tmp_path, capsys):
    out_path = tmp_path / "k4.haan"
    code = run_cli("generate", "clique-bip-d2", "--graph", "k4", "--k", "3",
                   "--output", str(out_path))
    capsys.readouterr()
    assert code == 0
    doc = parse_instance_text(out_path.read_text())
    assert doc.instance.n_agents == 18
    assert doc.target_envy == 6
    assert doc.provenance["generator"] == "clique-bip-d2"


def test_generate_witness_verifies_to_target(tmp_path, capsys):
    inst_path = tmp_path / "k4.haan"
    wit_path = tmp_path / "wit.haan"
    assert run_cli("generate", "clique-bip-d2", "--graph", "k4", "--k", "3",
                   "--output", str(inst_path), "--witness", str(wit_path)) == 0
    capsys.readouterr()
    code, out, _ = run_cli_capture(capsys, "verify", str(inst_path), str(wit_path))
    assert code == 0
    lines = dict(
        (ln.split()[0], ln.split()[1:]) for ln in out.splitlines() if ln.split()
    )
    assert lines["envy"] == ["6"]
    assert lines["valid"] == ["true"]


def test_generate_same_seed_is_byte_identical(tmp_path, capsys):
    a = tmp_path / "a.haan"
    b = tmp_path / "b.haan"
    for out in (a, b):
        assert run_cli("generate", "halfsep-3reg", "--graph",
                       "random-regular:8:3", "--seed", "11", "--k", "2",
                       "--output", str(out)) == 0
    capsys.readouterr()
    assert a.read_bytes() == b.read_bytes()


def test_generate_halfsep_witness_on_a_20_vertex_cubic_graph(tmp_path, capsys):
    # Separators of 4 of the 20 vertices, each split into two 8-vertex
    # parts by grouping the components of the rest.
    inst_path = tmp_path / "rr20.haan"
    wit_path = tmp_path / "wit.haan"
    assert run_cli("generate", "halfsep-3reg", "--graph", "random-regular:20:3:1", "--k", "4",
                   "--output", str(inst_path), "--witness", str(wit_path)) == 0
    capsys.readouterr()
    code, out, _ = run_cli_capture(capsys, "verify", str(inst_path), str(wit_path))
    assert code == 0
    assert "envy 4" in out.splitlines()


def test_generate_halfsep_witness_without_a_separator_triple(tmp_path, capsys):
    code, _, err = run_cli_capture(
        capsys, "generate", "halfsep-3reg", "--graph", "petersen", "--k", "2",
        "--output", str(tmp_path / "p.haan"), "--witness", str(tmp_path / "w.haan"),
    )
    assert code == 9
    assert err.startswith("error: ") and err.count("\n") == 1


def test_first_half_separator_is_first_in_combinations_order():
    rng = random.Random(7)
    for _ in range(40):
        n = rng.randint(0, 7)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.3]
        for size in range(n + 1):
            for t in range(n - size + 1):
                want = next((
                    [list(sep), list(part1), [v for v in range(n) if v not in sep + part1]]
                    for sep in combinations(range(n), size)
                    for part1 in combinations([v for v in range(n) if v not in sep], t)
                    if not any((u in part1) != (v in part1)
                               for u, v in edges if u not in sep and v not in sep)
                ), None)
                got = main_module._first_half_separator(SourceGraph(n, edges), size, t)
                assert got == want, (n, edges, size, t)


def test_generate_k0_halfsep(tmp_path, capsys):
    out = tmp_path / "hs.haan"
    assert run_cli("generate", "halfsep-3reg", "--graph", "k4", "--k", "0",
                   "--output", str(out)) == 0
    capsys.readouterr()
    assert parse_instance_text(out.read_text()).target_envy == 0


def test_generate_bad_k_exit_code(tmp_path, capsys):
    out = tmp_path / "x.haan"
    code, _, err = run_cli_capture(
        capsys, "generate", "clique-bip-d2", "--graph", "k4", "--k", "9",
        "--output", str(out),
    )
    assert code == 9
    assert "error" in err


def test_generate_unknown_graph(tmp_path, capsys):
    code, _, _ = run_cli_capture(
        capsys, "generate", "clique-bip-d2", "--graph", "blob", "--k", "1",
        "--output", str(tmp_path / "x.haan"),
    )
    assert code == 2


# -- verify ---------------------------------------------------------------------

def test_verify_rejects_non_injective(tmp_path, capsys):
    inst = write_triangle(tmp_path)
    alloc = tmp_path / "alloc.haan"
    alloc.write_text("haan/1 allocation\nallocation : 0 0 1\n")
    code, _, err = run_cli_capture(capsys, "verify", str(inst), str(alloc))
    assert code == 7
    assert "twice" in err


def test_verify_empty_instance(tmp_path, capsys):
    inst = tmp_path / "empty.haan"
    inst.write_text("haan/1 instance\nagents 0\nhouses 0\n")
    alloc = tmp_path / "alloc.haan"
    alloc.write_text("haan/1 allocation\nallocation :\n")
    code, out, _ = run_cli_capture(capsys, "verify", str(inst), str(alloc))
    assert code == 0
    assert "envy 0" in out


def test_verify_reports_infeasible_annotated(tmp_path, capsys):
    inst = tmp_path / "ann.haan"
    inst.write_text(
        "haan/1 instance\nagents 1\nhouses 1\nprefs 0 :\n"
        "feasible 0 :\nangry :\n"
    )
    alloc = tmp_path / "alloc.haan"
    alloc.write_text("haan/1 allocation\nallocation : 0\n")
    code, out, _ = run_cli_capture(capsys, "verify", str(inst), str(alloc))
    assert code == 0
    assert "feasible false" in out


# -- bench ----------------------------------------------------------------------

def make_corpus(tmp_path, count=3):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    for i in range(count):
        (corpus / f"tri{i}.haan").write_text(TRIANGLE_TEXT)
    return corpus


def test_bench_rows_and_agreement(tmp_path, capsys):
    corpus = make_corpus(tmp_path, 2)
    code, out, _ = run_cli_capture(capsys, "bench", str(corpus),
                                   "--algos", "brute,envy-guess,separator,vc-xp")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0].startswith("#")
    rows = [ln for ln in lines[1:] if not ln.startswith("FAILURE")]
    assert len(rows) == 2 * 4
    assert all(row.split("\t")[7] == "ok" for row in rows)
    assert not [ln for ln in lines if ln.startswith("FAILURE")]


def test_bench_d1_rows_error_on_wrong_shape(tmp_path, capsys):
    corpus = make_corpus(tmp_path, 1)
    (corpus / "d2.haan").write_text(
        "haan/1 instance\nagents 1\nhouses 2\nprefs 0 : 0 1\n"
    )
    code, out, _ = run_cli_capture(capsys, "bench", str(corpus), "--algos", "d1")
    assert code == 0
    statuses = {
        ln.split("\t")[0]: ln.split("\t")[7]
        for ln in out.strip().splitlines()[1:]
    }
    assert statuses["d2.haan"] == "error:WrongSolver"
    assert statuses["tri0.haan"] == "ok"


def test_bench_empty_corpus(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    code, out, _ = run_cli_capture(capsys, "bench", str(corpus))
    assert code == 0
    assert out.strip().splitlines()[0].startswith("#")
    assert len(out.strip().splitlines()) == 1


def test_bench_timeout_recorded(tmp_path, capsys):
    corpus = tmp_path / "corpus"
    corpus.mkdir()
    # 18 agents, complete bipartite: hopeless for brute force in 10 ms.
    code = run_cli("generate", "clique-bip-d2", "--graph", "k4", "--k", "3",
                   "--output", str(corpus / "big.haan"))
    capsys.readouterr()
    assert code == 0
    code, out, _ = run_cli_capture(
        capsys, "bench", str(corpus), "--algos", "separator",
        "--timeout", "0.05", "--guess-limit", "0",
    )
    assert code == 0
    rows = out.strip().splitlines()[1:]
    assert rows and rows[0].split("\t")[7] == "timeout"


def test_solve_timeout_exits_10_with_one_error_line(tmp_path, capsys):
    # Envy-guess needs about 9 s on this instance without a timeout.
    path = tmp_path / "rr20.haan"
    assert run_cli("generate", "halfsep-3reg", "--graph", "random-regular:20:3:1",
                   "--k", "4", "--output", str(path)) == 0
    capsys.readouterr()
    start = time.monotonic()
    code, out, err = run_cli_capture(capsys, "solve", str(path), "--algo", "envy-guess",
                                     "--guess-limit", "0", "--timeout", "0.2")
    assert time.monotonic() - start < 5
    assert (code, out) == (10, "")
    assert err.startswith("error: ") and err.count("\n") == 1


# -- entry point ----------------------------------------------------------------

def test_console_script_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "haan.cli.main", "--help"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert "solve" in proc.stdout


def test_named_source_graphs():
    assert named_source_graph("k4").n_vertices == 4
    assert named_source_graph("prism").regular_degree() == 3
    assert named_source_graph("petersen").regular_degree() == 3
    assert named_source_graph("cycle:7").n_vertices == 7
    g1 = named_source_graph("random-regular:8:3:5")
    assert g1.regular_degree() == 3
    assert g1 == named_source_graph("random-regular:8:3", seed=5)
    with pytest.raises(ValueError):
        named_source_graph("mystery")


def test_bench_parallel_jobs_match_sequential(tmp_path, capsys):
    corpus = make_corpus(tmp_path, 3)
    _, seq_out, _ = run_cli_capture(capsys, "bench", str(corpus),
                                    "--algos", "brute,vc-xp")
    _, par_out, _ = run_cli_capture(capsys, "bench", str(corpus),
                                    "--algos", "brute,vc-xp", "--jobs", "2")

    def strip_timing(text):
        rows = []
        for ln in text.strip().splitlines()[1:]:
            cells = ln.split("\t")
            cells[6] = ""
            rows.append(tuple(cells))
        return rows

    assert strip_timing(seq_out) == strip_timing(par_out)


def test_workers_env_var_sets_default(tmp_path, capsys, monkeypatch):
    monkeypatch.setenv("HAAN_WORKERS", "2")
    from haan.cli.main import build_parser
    args = build_parser().parse_args(["solve", "x.haan"])
    assert args.workers == 2
    path = write_triangle(tmp_path)
    code, out, _ = run_cli_capture(capsys, "solve", str(path), "--algo", "brute",
                                   "--omit-timing")
    assert code == 0
    assert parse_result_text(out).min_envy == 2


def test_invalid_workers_env_var_is_usage_error(tmp_path, capsys, monkeypatch):
    path = str(write_triangle(tmp_path))
    for value, message in [("abc", "invalid int value: 'abc'"),
                           ("0", "must be at least 1, got 0")]:
        monkeypatch.setenv("HAAN_WORKERS", value)
        with pytest.raises(SystemExit) as exc:
            main(["solve", path])
        assert exc.value.code == 2
        assert message in capsys.readouterr().err


@pytest.mark.parametrize("command, flag, value", [
    ("solve", "--workers", "0"),
    ("bench", "--jobs", "0"),
    ("bench", "--jobs", "-1"),
    ("bench", "--workers", "-3"),
])
def test_count_below_one_is_usage_error(tmp_path, capsys, command, flag, value):
    target = str(write_triangle(tmp_path)) if command == "solve" else str(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, target, flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert "must be at least 1, got" in captured.err


@pytest.mark.parametrize("command, flag, value, message", [
    ("solve", "--guess-limit", "-1", "must be at least 0, got -1"),
    ("bench", "--guess-limit", "-2", "must be at least 0, got -2"),
    ("solve", "--guess-limit", "1e3", "invalid int value: '1e3'"),
    ("bench", "--timeout", "nan", "must be a finite number of seconds above 0, got nan"),
    ("bench", "--timeout", "inf", "must be a finite number of seconds above 0, got inf"),
    ("bench", "--timeout", "-1", "must be a finite number of seconds above 0, got -1"),
    ("bench", "--timeout", "0", "must be a finite number of seconds above 0, got 0"),
    ("bench", "--timeout", "soon", "invalid float value: 'soon'"),
    ("solve", "--timeout", "0", "must be a finite number of seconds above 0, got 0"),
    ("solve", "--timeout", "nan", "must be a finite number of seconds above 0, got nan"),
])
def test_bad_guess_limit_or_timeout_is_usage_error(tmp_path, capsys, command, flag,
                                                   value, message):
    target = str(write_triangle(tmp_path)) if command == "solve" else str(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, target, flag, value])
    assert exc.value.code == 2
    captured = capsys.readouterr()
    assert captured.out == ""
    assert f"argument {flag}: {message}" in captured.err


@pytest.mark.parametrize("command", ["generate-output", "generate-witness", "solve-output"])
def test_output_in_missing_directory_exit_code(tmp_path, capsys, monkeypatch, command):
    def no_solve(*args):
        raise AssertionError("solved before checking the output directory")

    monkeypatch.setattr(main_module, "solve", no_solve)
    missing = str(tmp_path / "no-such-dir" / "out.haan")
    generate = ["generate", "clique-bip-d2", "--graph", "k4", "--k", "3"]
    if command == "generate-output":
        argv = generate + ["--output", missing]
    elif command == "generate-witness":
        argv = generate + ["--output", str(tmp_path / "k4.haan"), "--witness", missing]
    else:
        argv = ["solve", str(write_triangle(tmp_path)), "--output", missing]
    code, _, err = run_cli_capture(capsys, *argv)
    assert code == 3
    assert err.startswith("error: ") and err.count("\n") == 1


# -- non-UTF-8 input ----------------------------------------------------------

BINARY = b"\xff\xfehaan/1 instance\x80\n"


def test_solve_non_utf8_instance_is_a_format_error(tmp_path, capsys):
    path = tmp_path / "binary.haan"
    path.write_bytes(BINARY)
    code, out, err = run_cli_capture(capsys, "solve", str(path))
    assert code == 3
    assert out == ""
    assert err.startswith("error: cannot read ") and err.count("\n") == 1


@pytest.mark.parametrize("binary_arg", ["instance", "allocation"])
def test_verify_non_utf8_file_is_a_format_error(tmp_path, capsys, binary_arg):
    inst = write_triangle(tmp_path)
    alloc = tmp_path / "alloc.haan"
    alloc.write_text("haan/1 allocation\nallocation : 0 1 2\n")
    (inst if binary_arg == "instance" else alloc).write_bytes(BINARY)
    code, out, err = run_cli_capture(capsys, "verify", str(inst), str(alloc))
    assert code == 3
    assert out == ""
    assert err.startswith("error: cannot read ") and err.count("\n") == 1


def test_bench_row_for_non_utf8_file(tmp_path, capsys):
    corpus = make_corpus(tmp_path, 1)
    (corpus / "binary.haan").write_bytes(BINARY)
    code, out, _ = run_cli_capture(capsys, "bench", str(corpus), "--algos", "brute")
    assert code == 0
    statuses = {
        ln.split("\t")[0]: ln.split("\t")[7]
        for ln in out.strip().splitlines()[1:]
    }
    assert statuses == {"binary.haan": "error:FormatError", "tri0.haan": "ok"}


# -- removed options -------------------------------------------------------------

@pytest.mark.parametrize("command", ["solve", "bench"])
def test_separator_max_size_is_not_an_option(tmp_path, capsys, command):
    target = str(write_triangle(tmp_path)) if command == "solve" else str(tmp_path)
    with pytest.raises(SystemExit) as exc:
        main([command, target, "--separator-max-size", "2"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --separator-max-size" in capsys.readouterr().err


# -- dense random regular graphs ---------------------------------------------------

@pytest.mark.parametrize("spec", [
    "random-regular:16:6:1",
    "random-regular:22:6:2",
    "random-regular:24:6:1",
])
def test_dense_random_regular_specs_sample_quickly(spec):
    start = time.monotonic()
    g = named_source_graph(spec)
    assert time.monotonic() - start < 0.5
    n = int(spec.split(":")[1])
    assert (g.n_vertices, g.regular_degree(), len(g.edges)) == (n, 6, 3 * n)
    assert named_source_graph(spec) == g


# -- parser properties ------------------------------------------------------------

_TOKENS = st.one_of(
    st.sampled_from([
        "haan/1", "instance", "agents", "houses", "edge", "prefs", "feasible",
        "angry", "meta", "target_envy", "provenance", ":", "{}", "[", '"', "1.5",
    ]),
    st.integers(-2, 6).map(str),
    st.text(max_size=4),
)


@st.composite
def instance_texts(draw):
    """Mostly well-formed-looking instance files built from the grammar's
    own tokens, with small numbers only."""
    lines = draw(st.lists(st.lists(_TOKENS, max_size=6).map(" ".join), max_size=12))
    if draw(st.booleans()):
        lines.insert(0, "haan/1 instance")
    return "\n".join(lines) + draw(st.sampled_from(["", "\n"]))


@pytest.fixture(scope="module")
def scratch_file(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz") / "input.haan"


def parses_or_format_error(parse, data):
    try:
        doc = parse(data)
    except FormatError:
        return
    assert isinstance(doc, InstanceDocument)


@given(st.one_of(st.text(), instance_texts()))
@settings(max_examples=400, deadline=None)
def test_any_text_parses_or_is_a_format_error(text):
    parses_or_format_error(parse_instance_text, text)


@given(st.one_of(
    st.binary(),
    st.builds(lambda text, junk: text.encode() + junk, instance_texts(), st.binary(max_size=4)),
))
@settings(max_examples=200, deadline=None)
def test_any_file_reads_or_is_a_format_error(scratch_file, data):
    scratch_file.write_bytes(data)
    parses_or_format_error(read_instance_file, scratch_file)


# Strings rich in the characters a line-oriented format may mangle.
_STRINGS = st.text(" \t\n:\\\"a", max_size=6) | st.text(max_size=6)
_JSON = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | _STRINGS,
    lambda inner: st.lists(inner, max_size=3) | st.dictionaries(_STRINGS, inner, max_size=3),
    max_leaves=6,
)


@st.composite
def documents(draw):
    n = draw(st.integers(0, 5))
    m = draw(st.integers(0, 6))
    houses = st.sets(st.integers(0, m - 1)) if m else st.just(set())
    edges = [e for e in combinations(range(n), 2) if draw(st.booleans())]
    inst = Instance(n, m, edges, [draw(houses) for _ in range(n)])
    annotated = None
    if draw(st.booleans()):
        angry = draw(st.sets(st.integers(0, n - 1))) if n else set()
        annotated = AnnotatedInstance(inst, [draw(houses) for _ in range(n)], angry)
    return InstanceDocument(
        instance=inst,
        annotated=annotated,
        target_envy=draw(st.none() | st.integers(-3, 10)),
        provenance=draw(st.none() | st.dictionaries(_STRINGS, _JSON, max_size=3)),
    )


@given(documents())
@example(InstanceDocument(Instance(0, 0, [], []), provenance={"note": "two  spaces"}))
@settings(max_examples=300, deadline=None)
def test_canonical_render_parse_render_is_byte_identical(doc):
    text = render_instance_text(doc)
    assert render_instance_text(parse_instance_text(text)) == text


# The codes of the README's exit-code table.
DOCUMENTED_EXITS = {0, 2, 3, 4, 5, 6, 7, 8, 9, 10}


@st.composite
def allocation_texts(draw):
    houses = draw(st.lists(st.integers(-2, 7), max_size=7))
    text = "haan/1 allocation\nallocation :" + "".join(f" {h}" for h in houses) + "\n"
    return draw(st.sampled_from([text, text[len("haan/1 allocation\n"):]]) | st.text(max_size=12))


@given(instance_texts() | documents().map(render_instance_text), allocation_texts())
@settings(max_examples=150, deadline=None)
def test_solve_and_verify_exit_with_a_documented_code(scratch_file, text, alloc_text):
    scratch_file.write_text(text)
    alloc_file = scratch_file.with_name("allocation.haan")
    alloc_file.write_text(alloc_text)
    argvs = [["solve", str(scratch_file), "--algo", algo, "--guess-limit", "1000",
              "--omit-timing"] for algo in ALGORITHMS]
    argvs.append(["verify", str(scratch_file), str(alloc_file)])
    for argv in argvs:
        err = io.StringIO()
        with redirect_stdout(io.StringIO()), redirect_stderr(err):
            code = main(argv)
        assert code in DOCUMENTED_EXITS, argv
        if code:
            assert err.getvalue().startswith("error: "), argv
            assert err.getvalue().count("\n") == 1, argv


def test_deeply_nested_provenance_is_a_format_error():
    text = "haan/1 instance\nagents 0\nhouses 0\nmeta provenance " + "[" * 100_000 + "\n"
    with pytest.raises(FormatError, match="malformed provenance JSON"):
        parse_instance_text(text)
