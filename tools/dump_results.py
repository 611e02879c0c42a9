"""Dump every solver call of the benchmark corpora as JSON, for diffing.

Each record is ``[label, algo, objective, min_envy, happiness, allocation
or error, guesses_explored]``; a call that raises a ``HaanError``, a
``MemoryError`` or a ``RecursionError`` has ``null`` optimum and count and
the error's class name and message in place of the allocation. The calls
are those of the three corpora of ``perfbench/corpus.py`` at seeds 0-3,
then the deep searches of ``HEAVY`` under both objectives (envy-guess
where its Hall tests prune most, vc-xp with one worker and with two, and
on its 13-house row also with 16, more than its ranges or the cores,
brute force over all 40,320 assignments of an 8-agent instance), then the
inputs of ``DEEP`` under ``auto`` with both objectives, then brute force
on the 1,200-agent inputs of ``DEEP_BRUTE`` (its walk is one level per
agent) under the objectives where it ends at its first assignment, then
a seeded random set of small instances, half of them annotated with
forbidden houses and angry agents, solved by the separator under both
objectives, then ``COVER_DRAWS`` seeded small instances with a given
vertex cover, drawn by ``tests/oracles.restricted_cover_instance`` of
this script's own checkout, solved by vc-xp on that cover under both
objectives (its cover agents often forbid houses to several rest agents,
to every one of them, or every remaining house to one). Every call runs
with no deadline and the given guess limit (none by default), and with
one worker, or N where its label ends in ``:wN``. Last come the
generator records ``["generate", generator, graph, k, further arguments,
instance text or error]``: each generator of ``GENERATE`` over the named
graphs of ``GRAPHS`` and k in ``KS``, with the rendered ``haan/1`` text
of its instance (provenance and target included) or the class name and
message of its ``GeneratorError``. The output depends only on the code
under ``ROOT``.

Compare two checkouts (``ROOT`` defaults to the one holding this script)::

    python3 tools/dump_results.py --out new.json
    python3 tools/dump_results.py --root ../old --out old.json
    diff old.json new.json

Nothing under ``perfbench/`` is written: bytecode caching is off.
"""

from __future__ import annotations

import argparse
import json
import random
import sys
from itertools import combinations
from pathlib import Path

sys.dont_write_bytecode = True

SEEDS = (0, 1, 2, 3)

COVER_DRAWS = 400

# (algorithm, worker counts, generator in haan.reductions, source graph,
# its other arguments) of the heavy calls.
HEAVY = (
    ("envy-guess", (1,), "gen_halfsep_3regular", "petersen", (2,)),
    ("envy-guess", (1,), "gen_halfsep_3regular", "random-regular:12:3:1", (2,)),
    ("envy-guess", (1,), "gen_clique_vc_split", "k4", (2, 1)),
    ("vc-xp", (1, 2, 16), "gen_clique_vc_split", "k4", (3, 1)),
    ("vc-xp", (1, 2), "gen_clique_vc_split", "k4", (2, 1)),
    ("vc-xp", (1, 2), "gen_clique_bipartite_d2", "k3", (2,)),
    ("brute", (1,), "gen_halfsep_3regular", "random-regular:8:3:2", (2,)),
)

# (label, agents = houses, edges, preferences) of inputs whose searches run
# over a thousand steps deep: the key floor's matching augments along a
# path through all 1,200 agents, and the separator's first part takes
# 1,200 of 2,400 houses that every agent prefers.
DEEP = (
    ("deep:chain-1200", 1200, (), [[a, a + 1] for a in range(1199)] + [[0]]),
    ("deep:pairs-2400", 2400, [(a, a + 1) for a in range(0, 2400, 2)],
     [range(1200)] * 2400),
)

# (label, agents = houses, preferences, objectives) of brute force's deep
# walks, one level per agent: inputs with no edges whose first assignment
# is at the key floor under the given objectives. Under ``envy-happy``
# chain-1200's first assignment leaves its last agent unhappy, and the
# walk would reach its optimum only after about 1,199! more.
DEEP_BRUTE = (
    ("deep:chain-1200", 1200, DEEP[0][3], ("envy",)),
    ("deep:identity-1200", 1200, [[a] for a in range(1200)], ("envy", "envy-happy")),
)


# Source graphs, values of k and (generator, further arguments) of the
# generator records: regular and irregular graphs, a dense sampled one and
# one with no edges, and each family's t or t_pad including a refused one.
GRAPHS = ("k3", "k4", "k5", "prism", "petersen", "cycle:4", "cycle:7",
          "random-regular:8:3:2", "random-regular:12:3:1", "random-regular:8:6:1",
          "random-regular:6:0:1")
KS = range(8)
GENERATE = (
    ("gen_clique_bipartite_d2", ()),
    ("gen_halfsep_3regular", ()),
    ("gen_clique_vc_bipartite", (None,)),
    ("gen_clique_vc_bipartite", (2,)),
    ("gen_clique_vc_bipartite", (-1,)),
    ("gen_clique_vc_split", (1,)),
    ("gen_clique_vc_split", (2,)),
    ("gen_clique_vc_split", (0,)),
)


def _args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--root", type=Path, default=Path(__file__).resolve().parents[1],
                        help="checkout whose src/ and perfbench/ are imported")
    parser.add_argument("--out", type=Path, required=True)
    parser.add_argument("--random", type=int, default=1500,
                        help="random instances (default 1500)")
    parser.add_argument("--random-seed", type=int, default=0)
    parser.add_argument("--guess-limit", type=int, default=None)
    return parser.parse_args(argv)


def _random_cases(rng: random.Random, count: int):
    """``count`` instances with n <= 7 and m <= n + 2; odd ones annotated:
    each agent may receive a random nonempty set of houses, and about a
    third of the agents are angry."""
    from haan.model import AnnotatedInstance, Instance

    for i in range(count):
        n = rng.randint(1, 7)
        m = rng.randint(n, n + 2)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
        prefs = [rng.sample(range(m), rng.randint(0, min(3, m))) for _ in range(n)]
        inst = Instance(n, m, edges, prefs)
        if i % 2:
            feas = [rng.sample(range(m), rng.randint(1, m)) for _ in range(n)]
            angry = [a for a in range(n) if rng.random() < 0.3]
            yield f"random-{i}", AnnotatedInstance(inst, feas, angry)
        else:
            yield f"random-{i}", AnnotatedInstance.plain(inst)


def main(argv=None) -> int:
    args = _args(argv)
    root = args.root.resolve()
    sys.path[:0] = [str(root / "src"), str(root / "perfbench")]
    sys.path.append(str(Path(__file__).resolve().parents[1] / "tests"))
    import corpus
    from oracles import restricted_cover_instance
    from haan import reductions, solvers
    from haan.cli.files import InstanceDocument, render_instance_text
    from haan.cli.sources import named_source_graph
    from haan.errors import GeneratorError, HaanError
    from haan.model import AnnotatedInstance, Instance
    from haan.solvers import Objective, SolverConfig

    def call(label, algo, objective, inst, ann, workers=1, cover=None):
        cfg = SolverConfig(objective=objective, workers=workers,
                           guess_limit=args.guess_limit)
        try:
            if algo == "separator":
                r = solvers.solve_separator(ann or AnnotatedInstance.plain(inst), cfg)
            elif cover is not None:
                r = solvers.solve_vertex_cover_xp(inst, cover, cfg)
            else:
                r = solvers.solve(inst, algo, cfg)
        except (HaanError, MemoryError, RecursionError) as exc:
            return [label, algo, objective.value, None, None,
                    f"{type(exc).__name__}: {exc}", None]
        return [label, algo, objective.value, r.min_envy, r.happiness,
                list(r.allocation.assignment), r.guesses_explored]

    workloads = {"sweep-small": corpus.sweep_small, "vcxp-cover": corpus.vcxp_cover,
                 "halfsep-guess": corpus.halfsep_guess}
    records = []
    for workload, build in workloads.items():
        for seed in SEEDS:
            for case in build(random.Random(seed)):
                label = f"{workload}:{seed}:{case.label}"
                for algo, objective in case.calls:
                    records.append(call(label, algo, objective, case.instance, case.annotated))
    for algo, worker_counts, gen, graph, more in HEAVY:
        inst = getattr(reductions, gen)(named_source_graph(graph), *more).instance
        label = ":".join(["heavy", gen, graph, *map(str, more)])
        for workers in worker_counts:
            suffix = "" if workers == 1 else f":w{workers}"
            for objective in Objective:
                records.append(call(label + suffix, algo, objective, inst, None, workers))
    for label, n, edges, prefs in DEEP:
        inst = Instance(n, n, edges, prefs)
        for objective in Objective:
            records.append(call(label, "auto", objective, inst, None))
    for label, n, prefs, objectives in DEEP_BRUTE:
        inst = Instance(n, n, (), prefs)
        for objective in objectives:
            records.append(call(label, "brute", Objective(objective), inst, None))
    for label, ann in _random_cases(random.Random(args.random_seed), args.random):
        for objective in Objective:
            records.append(call(label, "separator", objective, ann.base, ann))
    rng = random.Random(args.random_seed)
    for i in range(COVER_DRAWS):
        inst, cover = restricted_cover_instance(rng)
        for objective in Objective:
            records.append(call(f"cover-{i}", "vc-xp", objective, inst, None, cover=cover))
    for gen, more in GENERATE:
        for graph in GRAPHS:
            g = named_source_graph(graph)
            for k in KS:
                try:
                    red = getattr(reductions, gen)(g, k, *more)
                except GeneratorError as exc:
                    out = f"{type(exc).__name__}: {exc}"
                else:
                    out = render_instance_text(InstanceDocument(
                        red.instance, target_envy=red.target_envy,
                        provenance=red.provenance))
                records.append(["generate", gen, graph, k, list(more), out])
    args.out.write_text("[\n" + ",\n".join(json.dumps(r) for r in records) + "\n]\n")
    print(f"{len(records)} records written to {args.out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
