import subprocess
import sys

import pytest

from haan.cli.files import (
    InstanceDocument,
    ResultDocument,
    parse_allocation_text,
    parse_instance_text,
    parse_result_text,
    render_instance_text,
    render_result_text,
)
from haan.cli import main as main_module
from haan.cli.main import main
from haan.cli.sources import named_source_graph
from haan.errors import FormatError
from haan.model import AnnotatedInstance, Instance

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
    monkeypatch.setenv("HAAN_WORKERS", "abc")
    with pytest.raises(SystemExit) as exc:
        main(["solve", str(write_triangle(tmp_path))])
    assert exc.value.code == 2
    assert "invalid int value: 'abc'" in capsys.readouterr().err


def test_separator_size_cap_miss_exit_code(tmp_path, capsys):
    path = write_triangle(tmp_path)
    code, out, err = run_cli_capture(capsys, "solve", str(path), "--algo", "separator",
                                     "--separator-max-size", "0")
    assert code == 5
    assert out == ""
    assert "no balanced separator" in err


@pytest.mark.parametrize("command", ["solve", "bench"])
def test_negative_separator_max_size_exit_code(tmp_path, capsys, command):
    target = str(write_triangle(tmp_path)) if command == "solve" else str(tmp_path)
    code, out, err = run_cli_capture(capsys, command, target, "--separator-max-size", "-2")
    assert code == 3
    assert out == ""
    assert err == "error: separator_max_size must be non-negative\n"


@pytest.mark.parametrize("command", ["generate-output", "generate-witness", "solve-output"])
def test_output_in_missing_directory_exit_code(tmp_path, capsys, monkeypatch, command):
    def no_solve(*args):
        raise AssertionError("solved before checking the output directory")

    monkeypatch.setattr(main_module, "_solve_document", no_solve)
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
