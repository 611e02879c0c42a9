"""``haan`` command-line entry point.

Exit codes are stable: 0 success, 2 usage (argparse), 3 parse/format
error or a file that cannot be read or written, 4 infeasible instance,
5 guess budget exceeded, 6 wrong solver for the instance shape, 7 invalid
allocation, 8 no feasible allocation (annotated), 9 generator precondition
failure, 10 solve timeout, 11 out of memory or of recursion depth. Every
command reports a failure by raising; ``main`` alone turns the exception
into its exit code and one ``error:`` line. Machine-readable output goes
to stdout only; every diagnostic goes to stderr.
"""

from __future__ import annotations

import argparse
import math
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
    SolveTimeout,
    WrongSolver,
)
from ..graphtools import first_half_separator
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
    _map_jobs,
    solve,
)
from .files import (
    InstanceDocument,
    ResultDocument,
    read_allocation_file,
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
EXIT_TIMEOUT = 10
EXIT_MEMORY = 11

_ERROR_EXITS = (
    (FormatError, EXIT_PARSE),
    (InstanceInfeasible, EXIT_INFEASIBLE),
    (BudgetExceeded, EXIT_BUDGET),
    (WrongSolver, EXIT_WRONG_SOLVER),
    (InvalidAllocation, EXIT_INVALID_ALLOCATION),
    (NoFeasibleAllocation, EXIT_NO_FEASIBLE),
    (GeneratorError, EXIT_GENERATOR),
    (SolveTimeout, EXIT_TIMEOUT),
    (InvalidInstance, EXIT_PARSE),
)


def _solve_file(path, algo: str, args):
    """Read the instance at ``path`` and solve it with ``algo`` under the
    solver flags of ``args``. The timeout starts after the read. Returns
    the result and the solve's wall time in ms."""
    doc = read_instance_file(path)
    start = time.monotonic()
    limit = args.guess_limit
    cfg = SolverConfig(
        objective=Objective(args.objective),
        workers=args.workers,
        guess_limit=None if limit == 0 else limit,
        deadline=None if args.timeout is None else start + args.timeout,
    )
    result = solve(doc.annotated or doc.instance, algo, cfg)
    return result, int((time.monotonic() - start) * 1000)


def cmd_solve(args) -> int:
    if args.output != "-" and not Path(args.output).parent.is_dir():
        raise FormatError(f"cannot write {args.output}: no such directory")
    result, wall_ms = _solve_file(args.instance, args.algo, args)
    out = ResultDocument(
        solver_id=result.solver_id,
        objective=args.objective,
        min_envy=result.min_envy,
        happiness=result.happiness,
        guesses_explored=result.guesses_explored,
        wall_time_ms=0 if args.omit_timing else wall_ms,
        allocation=result.allocation.assignment,
    )
    if args.output == "-":
        sys.stdout.write(render_result_text(out))
    else:
        Path(args.output).write_text(render_result_text(out))
    return EXIT_OK


# Each family's generator, called with the source graph and the parsed
# flags, and its witness constructor.
_FAMILIES = {
    "clique-bip-d2": (lambda g, args: gen_clique_bipartite_d2(g, args.k),
                      witness_from_clique),
    "halfsep-3reg": (lambda g, args: gen_halfsep_3regular(g, args.k),
                     witness_from_separator),
    "clique-vc-bip": (lambda g, args: gen_clique_vc_bipartite(g, args.k, args.t_pad),
                      witness_from_clique_vc),
    "clique-vc-split": (lambda g, args: gen_clique_vc_split(g, args.k, args.t),
                        witness_from_clique_vc),
}


def _witness(source, red, k: int, construct):
    """``construct``'s witness for ``red``: from the first exact-size
    separator triple of ``source`` for halfsep-3reg, else from its first
    k-clique in ``combinations`` order."""
    if construct is witness_from_separator:
        nbr = [0] * source.n_vertices
        for u, v in source.edges:
            nbr[u] |= 1 << v
            nbr[v] |= 1 << u
        triple = first_half_separator(nbr, red.target_envy, red.provenance["params"]["t"])
        if triple is None:
            raise GeneratorError("no exact-size separator triple exists in the source graph")
        return construct(red, *triple)
    for clique in combinations(range(source.n_vertices), k):
        if source.is_clique(clique):
            return construct(red, clique)
    raise GeneratorError(f"source graph has no clique of size {k}")


def cmd_generate(args) -> int:
    try:
        source = named_source_graph(args.graph, args.seed)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    generate, construct = _FAMILIES[args.family]
    red = generate(source, args)
    if args.witness:
        witness = _witness(source, red, args.k, construct)
    doc = InstanceDocument(
        instance=red.instance,
        target_envy=red.target_envy,
        provenance=red.provenance,
    )
    write_instance_file(args.output, doc)
    if args.witness:
        Path(args.witness).write_text(render_allocation_text(witness))
    return EXIT_OK


def cmd_verify(args) -> int:
    doc = read_instance_file(args.instance)
    alloc = read_allocation_file(args.allocation)
    if doc.annotated is not None:
        feasible_ok, report = evaluate_annotated(doc.annotated, alloc)
    else:
        feasible_ok, report = True, evaluate(doc.instance, alloc)
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
    head = (path.name, algo, args.objective)
    try:
        result, wall_ms = _solve_file(path, algo, args)
    except SolveTimeout:
        return head + ("", "", "", "", "timeout")
    except (HaanError, MemoryError, RecursionError) as exc:
        return head + ("", "", "", "", f"error:{type(exc).__name__}")
    return head + (
        str(result.min_envy), str(result.happiness),
        str(result.guesses_explored), str(wall_ms), "ok",
    )


def cmd_bench(args) -> int:
    corpus = Path(args.corpus)
    if not corpus.is_dir():
        raise FormatError(f"{corpus} is not a directory")
    paths = sorted(corpus.glob("*.haan"))
    jobs = [(path, algo, args) for path in paths for algo in args.algos]
    print("# instance\talgo\tobjective\tmin_envy\thappiness\tguesses\twall_ms\tstatus")
    rows = _map_jobs(_bench_one, jobs, args.jobs)
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


def _checked(convert, ok, requirement: str):
    """argparse type that converts a flag value and requires ``ok`` of it."""
    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"invalid {convert.__name__} value: {text!r}") from None
        if not ok(value):
            raise argparse.ArgumentTypeError(f"must be {requirement}, got {text}")
        return value
    return parse


_count = _checked(int, lambda v: v >= 1, "at least 1")
_guess_limit = _checked(int, lambda v: v >= 0, "at least 0")
_seconds = _checked(float, lambda v: 0 < v < math.inf,
                    "a finite number of seconds above 0")


def _algos(text: str) -> list[str]:
    """argparse type of ``--algos``: comma-separated solver labels."""
    algos = [a.strip() for a in text.split(",") if a.strip()]
    for algo in algos:
        if algo not in ALGORITHMS:
            raise argparse.ArgumentTypeError(f"unknown algorithm {algo!r}")
    return algos


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="haan",
        description="Exact envy minimization for house allocation on agent graphs.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_solver_flags(p):
        p.add_argument("--objective", choices=["envy", "envy-happy"], default="envy")
        p.add_argument("--workers", type=_count,
                       default=os.environ.get("HAAN_WORKERS") or "1")
        p.add_argument("--guess-limit", type=_guess_limit, default=DEFAULT_GUESS_LIMIT,
                       help="maximum explored guesses; 0 lifts the cap")
        p.add_argument("--timeout", type=_seconds, default=None,
                       help="wall-clock timeout in seconds, per instance")

    p_solve = sub.add_parser("solve", help="solve an instance file")
    p_solve.add_argument("instance")
    p_solve.add_argument("--algo", choices=ALGORITHMS, default="auto")
    add_solver_flags(p_solve)
    p_solve.add_argument("--output", default="-", help="result file path or - for stdout")
    p_solve.add_argument("--omit-timing", action="store_true",
                         help="write wall_time_ms 0 for reproducible output")
    p_solve.set_defaults(func=cmd_solve)

    p_gen = sub.add_parser("generate", help="generate a reduction instance")
    p_gen.add_argument("family", choices=_FAMILIES)
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
    p_bench.add_argument("--algos", type=_algos,
                         default="brute,d1,envy-guess,separator,vc-xp")
    p_bench.add_argument("--jobs", type=_count, default=1,
                         help="most processes to run the solves on, capped at "
                              "the cores and the solves; 1 runs them in this one")
    add_solver_flags(p_bench)
    p_bench.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except HaanError as exc:
        message = str(exc)
        code = next((code for kind, code in _ERROR_EXITS if isinstance(exc, kind)), 1)
    except OSError as exc:
        message, code = str(exc), EXIT_PARSE
    except MemoryError:
        message, code = "out of memory", EXIT_MEMORY
    except RecursionError:
        message, code = "recursion too deep", EXIT_MEMORY
    # Printed outside the handlers, so that the exception's frames, and
    # whatever memory they hold, are already released.
    print(f"error: {message}", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
