"""``haan`` command-line entry point.

Exit codes are stable: 0 success, 2 usage (argparse), 3 parse/format
error or a file that cannot be read or written, 4 infeasible instance,
5 guess budget exceeded or no balanced separator within
``--separator-max-size``, 6 wrong solver for the instance shape, 7 invalid
allocation, 8 no feasible allocation (annotated), 9 generator
precondition failure. Machine-readable output goes to stdout only; every
diagnostic goes to stderr.
"""

from __future__ import annotations

import argparse
import os
import sys
import time
from itertools import combinations
from pathlib import Path

from ..errors import (
    BudgetExceeded,
    FormatError,
    GeneratorError,
    HaanError,
    InstanceInfeasible,
    InvalidAllocation,
    InvalidInstance,
    NoFeasibleAllocation,
    SeparatorNotFound,
    SolveTimeout,
    WrongSolver,
)
from ..model import evaluate, evaluate_annotated
from ..reductions import (
    gen_clique_bipartite_d2,
    gen_clique_vc_bipartite,
    gen_clique_vc_split,
    gen_halfsep_3regular,
    witness_from_clique,
    witness_from_clique_vc,
    witness_from_separator,
)
from ..solvers import (
    ALGORITHMS,
    DEFAULT_GUESS_LIMIT,
    Objective,
    SolverConfig,
    solve,
    solve_separator,
)
from .files import (
    InstanceDocument,
    ResultDocument,
    parse_allocation_text,
    read_instance_file,
    render_allocation_text,
    render_result_text,
    write_instance_file,
)
from .sources import named_source_graph

EXIT_OK = 0
EXIT_PARSE = 3
EXIT_INFEASIBLE = 4
EXIT_BUDGET = 5
EXIT_WRONG_SOLVER = 6
EXIT_INVALID_ALLOCATION = 7
EXIT_NO_FEASIBLE = 8
EXIT_GENERATOR = 9

_ERROR_EXITS = (
    (FormatError, EXIT_PARSE),
    (InstanceInfeasible, EXIT_INFEASIBLE),
    (BudgetExceeded, EXIT_BUDGET),
    (SeparatorNotFound, EXIT_BUDGET),
    (WrongSolver, EXIT_WRONG_SOLVER),
    (InvalidAllocation, EXIT_INVALID_ALLOCATION),
    (NoFeasibleAllocation, EXIT_NO_FEASIBLE),
    (GeneratorError, EXIT_GENERATOR),
    (InvalidInstance, EXIT_PARSE),
)

GENERATOR_FAMILIES = ("clique-bip-d2", "halfsep-3reg", "clique-vc-bip", "clique-vc-split")


def _fail(exc: HaanError) -> int:
    print(f"error: {exc}", file=sys.stderr)
    for kind, code in _ERROR_EXITS:
        if isinstance(exc, kind):
            return code
    return 1


def _config_from_args(args, deadline: float | None = None) -> SolverConfig:
    limit = args.guess_limit
    return SolverConfig(
        objective=Objective(args.objective),
        workers=args.workers,
        guess_limit=None if limit == 0 else limit,
        separator_max_size=args.separator_max_size,
        deadline=deadline,
    )


def _emit(text: str, output: str) -> None:
    if output == "-":
        sys.stdout.write(text)
    else:
        Path(output).write_text(text)


def _solve_document(doc: InstanceDocument, algo: str, cfg: SolverConfig):
    if doc.annotated is not None:
        if algo not in ("separator", "auto"):
            raise WrongSolver(
                "annotated instances are solved by the separator algorithm only"
            )
        return solve_separator(doc.annotated, cfg)
    return solve(doc.instance, algo, cfg)


def cmd_solve(args) -> int:
    if args.output != "-" and not Path(args.output).parent.is_dir():
        print(f"error: cannot write {args.output}: no such directory", file=sys.stderr)
        return EXIT_PARSE
    try:
        doc = read_instance_file(args.instance)
        cfg = _config_from_args(args)
        start = time.monotonic()
        result = _solve_document(doc, args.algo, cfg)
        elapsed_ms = 0 if args.omit_timing else int((time.monotonic() - start) * 1000)
    except HaanError as exc:
        return _fail(exc)
    out = ResultDocument(
        solver_id=result.solver_id,
        objective=args.objective,
        min_envy=result.min_envy,
        happiness=result.happiness,
        guesses_explored=result.guesses_explored,
        wall_time_ms=elapsed_ms,
        allocation=result.allocation.assignment,
    )
    try:
        _emit(render_result_text(out), args.output)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


def _first_clique(source, k: int):
    for vs in combinations(range(source.n_vertices), k):
        if source.is_clique(vs):
            return list(vs)
    return None


def _first_half_separator(source, size: int, t: int):
    vertices = range(source.n_vertices)
    edge_set = set(source.edges)
    for sep in combinations(vertices, size):
        rest = [v for v in vertices if v not in sep]
        for part1 in combinations(rest, t):
            p1 = set(part1)
            part2 = [v for v in rest if v not in p1]
            if not any(
                (min(u, v), max(u, v)) in edge_set for u in part1 for v in part2
            ):
                return list(sep), list(part1), list(part2)
    return None


def cmd_generate(args) -> int:
    try:
        source = named_source_graph(args.graph, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        witness = None
        if args.family == "clique-bip-d2":
            red = gen_clique_bipartite_d2(source, args.k)
        elif args.family == "halfsep-3reg":
            red = gen_halfsep_3regular(source, args.k)
        elif args.family == "clique-vc-bip":
            red = gen_clique_vc_bipartite(source, args.k, args.t_pad)
        else:
            red = gen_clique_vc_split(source, args.k, args.t)
        if args.witness:
            if args.family == "halfsep-3reg":
                triple = _first_half_separator(
                    source, red.target_envy, red.provenance["params"]["t"]
                )
                if triple is None:
                    raise GeneratorError(
                        "no exact-size separator triple exists in the source graph"
                    )
                witness = witness_from_separator(red, *triple)
            else:
                clique = _first_clique(source, args.k)
                if clique is None:
                    raise GeneratorError(
                        f"source graph has no clique of size {args.k}"
                    )
                if args.family == "clique-bip-d2":
                    witness = witness_from_clique(red, clique)
                else:
                    witness = witness_from_clique_vc(red, clique)
    except HaanError as exc:
        return _fail(exc)
    doc = InstanceDocument(
        instance=red.instance,
        target_envy=red.target_envy,
        provenance=red.provenance,
    )
    try:
        write_instance_file(args.output, doc)
        if args.witness and witness is not None:
            Path(args.witness).write_text(render_allocation_text(witness))
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    return EXIT_OK


def cmd_verify(args) -> int:
    try:
        doc = read_instance_file(args.instance)
        alloc = parse_allocation_text(Path(args.allocation).read_text())
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_PARSE
    except HaanError as exc:
        return _fail(exc)
    try:
        if doc.annotated is not None:
            feasible_ok, report = evaluate_annotated(doc.annotated, alloc)
        else:
            feasible_ok, report = True, evaluate(doc.instance, alloc)
    except InvalidAllocation as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID_ALLOCATION
    envious = " ".join(str(a) for a, f in enumerate(report.envious) if f)
    happy = " ".join(str(a) for a, f in enumerate(report.happy) if f)
    lines = [
        "haan/1 report",
        "valid true",
        f"feasible {'true' if feasible_ok else 'false'}",
        f"envy {report.n_envious}",
        f"happiness {report.n_happy}",
        f"envious :{' ' + envious if envious else ''}",
        f"happy :{' ' + happy if happy else ''}",
    ]
    sys.stdout.write("\n".join(lines) + "\n")
    return EXIT_OK


def _bench_one(job) -> tuple[str, ...]:
    path, algo, args = job
    name = path.name
    objective = args.objective
    try:
        doc = read_instance_file(path)
    except HaanError as exc:
        return (name, algo, objective, "", "", "", "", f"error:{type(exc).__name__}")
    deadline = None
    if args.timeout is not None:
        deadline = time.monotonic() + args.timeout
    start = time.monotonic()
    try:
        result = _solve_document(doc, algo, _config_from_args(args, deadline))
    except SolveTimeout:
        return (name, algo, objective, "", "", "", "", "timeout")
    except HaanError as exc:
        return (name, algo, objective, "", "", "", "", f"error:{type(exc).__name__}")
    wall_ms = int((time.monotonic() - start) * 1000)
    return (
        name, algo, objective,
        str(result.min_envy), str(result.happiness),
        str(result.guesses_explored), str(wall_ms), "ok",
    )


def cmd_bench(args) -> int:
    corpus = Path(args.corpus)
    if not corpus.is_dir():
        print(f"error: {corpus} is not a directory", file=sys.stderr)
        return EXIT_PARSE
    paths = sorted(corpus.glob("*.haan"))
    algos = [a.strip() for a in args.algos.split(",") if a.strip()]
    for algo in algos:
        if algo not in ALGORITHMS:
            print(f"error: unknown algorithm {algo!r}", file=sys.stderr)
            return 2
    try:
        _config_from_args(args)
    except HaanError as exc:
        return _fail(exc)
    jobs = [(path, algo, args) for path in paths for algo in algos]
    print("# instance\talgo\tobjective\tmin_envy\thappiness\tguesses\twall_ms\tstatus")
    if args.jobs > 1 and len(jobs) > 1:
        from concurrent.futures import ProcessPoolExecutor

        with ProcessPoolExecutor(max_workers=args.jobs) as pool:
            rows = list(pool.map(_bench_one, jobs))
    else:
        rows = [_bench_one(job) for job in jobs]
    for row in rows:
        print("\t".join(row))
    # Disagreements between completed solvers are failures.
    by_instance: dict[str, dict[str, tuple[str, str]]] = {}
    for row in rows:
        name, algo, _, envy, hap, _, _, status = row
        if status == "ok":
            by_instance.setdefault(name, {})[algo] = (envy, hap)
    for name in sorted(by_instance):
        outcomes = by_instance[name]
        compare = (
            {v for v in outcomes.values()}
            if args.objective == "envy-happy"
            else {v[0] for v in outcomes.values()}
        )
        if len(compare) > 1:
            detail = ",".join(
                f"{algo}={envy}/{hap}" for algo, (envy, hap) in sorted(outcomes.items())
            )
            print(f"FAILURE\t{name}\tdisagreement\t{detail}")
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haan",
        description="Exact envy minimization for house allocation on agent graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solver_flags(p):
        p.add_argument("--objective", choices=["envy", "envy-happy"], default="envy")
        p.add_argument("--workers", type=int,
                       default=os.environ.get("HAAN_WORKERS") or "1")
        p.add_argument("--guess-limit", type=int, default=DEFAULT_GUESS_LIMIT,
                       help="maximum explored guesses; 0 lifts the cap")
        p.add_argument("--separator-max-size", type=int, default=None)

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("instance")
    p_solve.add_argument("--algo", choices=ALGORITHMS, default="auto")
    add_solver_flags(p_solve)
    p_solve.add_argument("--output", default="-", help="result file path or - for stdout")
    p_solve.add_argument("--omit-timing", action="store_true",
                         help="write wall_time_ms 0 for reproducible output")
    p_solve.set_defaults(func=cmd_solve)

    p_gen = sub.add_parser("generate", help="generate a reduction instance")
    p_gen.add_argument("family", choices=GENERATOR_FAMILIES)
    p_gen.add_argument("--graph", required=True,
                       help="named source graph, e.g. k4, prism, cycle:6, "
                            "random-regular:8:3:7")
    p_gen.add_argument("--k", type=int, required=True)
    p_gen.add_argument("--t", type=int, default=1,
                       help="edge-agent multiplicity (clique-vc-split)")
    p_gen.add_argument("--t-pad", type=int, default=0,
                       help="isolated source vertices to add (clique-vc-bip)")
    p_gen.add_argument("--seed", type=int, default=0,
                       help="seed for random source graphs")
    p_gen.add_argument("--output", required=True)
    p_gen.add_argument("--witness", default=None,
                       help="also write a witness allocation file here")
    p_gen.set_defaults(func=cmd_generate)

    p_verify = sub.add_parser("verify", help="evaluate an allocation against an instance")
    p_verify.add_argument("instance")
    p_verify.add_argument("allocation", help="allocation or result file")
    p_verify.set_defaults(func=cmd_verify)

    p_bench = sub.add_parser("bench", help="run solvers over a corpus directory")
    p_bench.add_argument("corpus")
    p_bench.add_argument("--algos", default="brute,d1,envy-guess,separator,vc-xp")
    p_bench.add_argument("--timeout", type=float, default=None,
                         help="per-instance wall-clock timeout in seconds")
    p_bench.add_argument("--jobs", type=int, default=1,
                         help="instances run sequentially by default; "
                              "values > 1 opt into a process pool")
    add_solver_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
