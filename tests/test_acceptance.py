"""Acceptance suite: one test per criterion, one PASS/FAIL line each.

Run with ``pytest tests/test_acceptance.py -v -s``. The heavy sweeps are
split across a small process pool; every check itself is deterministic.
"""

import math
import os
import random
import time
from concurrent.futures import ProcessPoolExecutor
from itertools import combinations, product
from pathlib import Path

import pytest

from haan.cli.main import main as cli_main
from haan.errors import BadK, BadPartition, GeneratorError
from haan.matching import min_cost_saturating_assignment
from haan.model import AnnotatedInstance, Instance, evaluate
from haan.reductions import (
    SourceGraph,
    gen_clique_bipartite_d2,
    gen_clique_vc_bipartite,
    gen_clique_vc_split,
    gen_halfsep_3regular,
    witness_from_clique,
    witness_from_clique_vc,
    witness_from_separator,
)
from haan.solvers import (
    Objective,
    SolverConfig,
    solve_bruteforce,
    solve_d1_matching,
    solve_envy_guess,
    solve_separator,
    solve_vertex_cover_xp,
)

from oracles import all_optima_happiness, brute_optimum, clique_exists, matching_optimum

POOL_WORKERS = min(4, os.cpu_count() or 1)
PERM_CAP = 600_000  # brute-force enumeration cap for criterion 3

HAPPY = Objective.MIN_ENVY_THEN_MAX_HAPPY


def conclude(number: int, name: str, failures: list, extra: str = ""):
    status = "PASS" if not failures else "FAIL"
    note = f" ({extra})" if extra else ""
    print(f"ACCEPTANCE {number} {name}: {status}{note}")
    assert not failures, failures[:5]


def run_all_solvers(inst: Instance, objective: Objective):
    cfg = SolverConfig(objective=objective)
    reference = solve_bruteforce(inst, cfg)
    others = {
        "envy-guess": solve_envy_guess(inst, cfg),
        "separator": solve_separator(AnnotatedInstance.plain(inst), cfg),
        "vc-xp": solve_vertex_cover_xp(inst, None, cfg),
    }
    if inst.n_agents > 0 and all(len(p) == 1 for p in inst.preferences):
        others["d1"] = solve_d1_matching(inst, cfg)
    return reference, others


def check_instance(inst: Instance) -> list:
    failures = []
    for objective in (Objective.MIN_ENVY, HAPPY):
        reference, others = run_all_solvers(inst, objective)
        for name, result in others.items():
            ok = result.min_envy == reference.min_envy
            if objective is HAPPY:
                ok = ok and result.happiness == reference.happiness
            if not ok:
                failures.append(
                    (name, objective.value, inst.n_agents, inst.n_houses,
                     inst.edges, inst.preferences,
                     (reference.min_envy, reference.happiness),
                     (result.min_envy, result.happiness))
                )
            rep = evaluate(inst, result.allocation)
            if (rep.n_envious, rep.n_happy) != (result.min_envy, result.happiness):
                failures.append(("witness", name, inst))
    return failures


def _sweep_edge_set(args) -> tuple[int, list]:
    n, edge_mask = args
    all_pairs = list(combinations(range(n), 2))
    edges = [all_pairs[i] for i in range(len(all_pairs)) if edge_mask >> i & 1]
    checked = 0
    failures = []
    for m in (n, n + 1):
        for profile in product(range(m + 1), repeat=n):
            prefs = [[p - 1] if p else [] for p in profile]
            inst = Instance(n, m, edges, prefs)
            failures.extend(check_instance(inst))
            checked += 1
    return checked, failures


def _check_random_batch(args) -> tuple[int, list]:
    seed, count = args
    rng = random.Random(seed)
    checked = 0
    failures = []
    while checked < count:
        n = rng.randint(0, 6)
        m = rng.randint(n, 7)
        p_edge = rng.choice((0.2, 0.4, 0.6))
        edges = [e for e in combinations(range(n), 2) if rng.random() < p_edge]
        degs = [0] * n
        for u, v in edges:
            degs[u] += 1
            degs[v] += 1
        space = 1
        for d in degs:
            space *= (1 << d) + 1
        if space > 1 << 22:
            continue  # keep every solver inside the default guess budget
        prefs = [rng.sample(range(m), rng.randint(0, min(3, m))) for _ in range(n)]
        inst = Instance(n, m, edges, prefs)
        failures.extend(check_instance(inst))
        checked += 1
    return checked, failures


@pytest.mark.slow
def test_criterion_1_oracle_agreement():
    start = time.monotonic()
    tasks = []
    for n in range(5):
        n_pairs = n * (n - 1) // 2
        for edge_mask in range(1 << n_pairs):
            tasks.append((n, edge_mask))
    failures = []
    checked = 0
    with ProcessPoolExecutor(max_workers=POOL_WORKERS) as pool:
        for got_checked, got_failures in pool.map(_sweep_edge_set, tasks,
                                                  chunksize=4):
            checked += got_checked
            failures.extend(got_failures)
    expected = sum(
        (1 << (n * (n - 1) // 2)) * ((n + 1) ** n + (n + 2) ** n)
        for n in range(5)
    )
    assert checked == expected

    random_checked = 0
    with ProcessPoolExecutor(max_workers=POOL_WORKERS) as pool:
        for got_checked, got_failures in pool.map(
            _check_random_batch, [(101, 250), (202, 250)]
        ):
            random_checked += got_checked
            failures.extend(got_failures)
    assert random_checked == 500
    elapsed = time.monotonic() - start
    conclude(1, "oracle agreement", failures,
             f"{checked} exhaustive + {random_checked} random instances, "
             f"{elapsed:.0f}s")


def test_criterion_2_matching_oracle():
    rng = random.Random(2024)
    failures = []
    for trial in range(1000):
        n_left = rng.randint(0, 6)
        n_right = rng.randint(0, 6)
        p_edge = rng.choice((0.3, 0.6, 0.9))
        costs = {
            (l, r): rng.randint(0, 9)
            for l in range(n_left)
            for r in range(n_right)
            if rng.random() < p_edge
        }
        size, cost = matching_optimum(n_left, n_right, costs)
        rows = [[costs.get((l, r)) for r in range(n_right)] for l in range(n_left)]
        got = min_cost_saturating_assignment(rows)
        want = None if size < n_left else cost
        if (None if got is None else got[0]) != want:
            failures.append((trial, costs, want, got))
        elif got is not None:
            total, assignment = got
            if (len(set(assignment)) != n_left
                    or any(rows[l][r] is None for l, r in enumerate(assignment))
                    or total != sum(rows[l][r] for l, r in enumerate(assignment))):
                failures.append((trial, costs, "invalid assignment", got))
    conclude(2, "matching oracle", failures, "1000 graphs")


def _all_source_graphs(max_n: int):
    for n in range(max_n + 1):
        pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(pairs)):
            edges = [pairs[i] for i in range(len(pairs)) if mask >> i & 1]
            yield SourceGraph(n, edges)


def _decide_reduced(red) -> bool | None:
    """Min envy <= target by brute force, None when over the size cap;
    an infeasible instance (m < n) decides to False."""
    inst = red.instance
    if inst.n_houses < inst.n_agents:
        return False
    if inst.n_agents > 10:
        return None
    if math.perm(inst.n_houses, inst.n_agents) > PERM_CAP:
        return None
    opt = brute_optimum(inst)
    return opt[0] <= red.target_envy


@pytest.mark.slow
def test_criterion_3_reduction_equivalence():
    start = time.monotonic()
    failures = []
    checked = {"clique-bip-d2": 0, "clique-vc-bip": 0, "clique-vc-split": 0}
    skipped = {"clique-bip-d2": 0, "clique-vc-bip": 0, "clique-vc-split": 0}

    def handle(family, g, k, make):
        try:
            red = make()
        except (BadK, GeneratorError):
            skipped[family] += 1
            return
        decided = _decide_reduced(red)
        if decided is None:
            skipped[family] += 1
            return
        has = clique_exists(g.n_vertices, set(g.edges), k)
        if has != decided:
            failures.append((family, g.n_vertices, g.edges, k, has, decided))
        checked[family] += 1

    for g in _all_source_graphs(5):
        regular = g.regular_degree() is not None
        for k in range(1, g.n_vertices + 1):
            if regular:
                handle("clique-bip-d2", g, k,
                       lambda g=g, k=k: gen_clique_bipartite_d2(g, k))
            handle("clique-vc-bip", g, k,
                   lambda g=g, k=k: gen_clique_vc_bipartite(g, k))
            if g.edges:
                handle("clique-vc-split", g, k,
                       lambda g=g, k=k: gen_clique_vc_split(g, k, 1))

    # The sweep must actually exercise each family, including yes-instances.
    # Regular source graphs on <= 5 vertices mostly reduce past the brute
    # cap (K4 alone yields 18 agents), so the d=2 family checks fewer cases.
    floors = {"clique-bip-d2": 10, "clique-vc-bip": 20, "clique-vc-split": 20}
    for family, count in checked.items():
        assert count >= floors[family], (family, count)
    elapsed = time.monotonic() - start
    conclude(3, "reduction equivalence", failures,
             f"checked {checked}, skipped-over-cap {skipped}, {elapsed:.0f}s")


def test_criterion_4_witness_soundness():
    failures = []
    k4 = SourceGraph(4, list(combinations(range(4), 2)))
    for k in (1, 2, 3):
        red = gen_clique_bipartite_d2(k4, k)
        envy = evaluate(red.instance, witness_from_clique(red, list(range(k)))).n_envious
        if envy != red.target_envy:
            failures.append(("clique-bip-d2", k, envy, red.target_envy))

    # Thm-3 family, prism at k=2: the triangular prism is 3-connected, so
    # no exact-size triple (|S|=2, equal non-adjacent halves) exists; every
    # candidate must be rejected, making soundness hold vacuously. A
    # bridged 3-regular graph with a genuine 2-cut provides the positive
    # case.
    prism = SourceGraph(6, [(0, 1), (1, 2), (0, 2), (3, 4), (4, 5), (3, 5),
                            (0, 3), (1, 4), (2, 5)])
    red = gen_halfsep_3regular(prism, 2)
    t = red.provenance["params"]["t"]
    produced = 0
    for sep in combinations(range(6), red.target_envy):
        rest = [v for v in range(6) if v not in sep]
        for x in combinations(rest, t):
            y = [v for v in rest if v not in x]
            try:
                w = witness_from_separator(red, sep, x, y)
            except BadPartition:
                continue
            produced += 1
            if evaluate(red.instance, w).n_envious > red.target_envy:
                failures.append(("halfsep-3reg", "prism", sep, x, y))
    if produced != 0:
        failures.append(("halfsep-3reg", "prism admitted a triple", produced))

    double_diamond = SourceGraph(8, [
        (0, 2), (0, 3), (1, 2), (1, 3), (2, 3),
        (4, 6), (4, 7), (5, 6), (5, 7), (6, 7),
        (0, 4), (1, 5),
    ])
    red = gen_halfsep_3regular(double_diamond, 2)
    w = witness_from_separator(red, [0, 5], [1, 2, 3], [4, 6, 7])
    if evaluate(red.instance, w).n_envious > red.target_envy:
        failures.append(("halfsep-3reg", "double-diamond witness too envious"))

    k3 = SourceGraph(3, [(0, 1), (0, 2), (1, 2)])
    for k in (1, 2, 3):
        for family, make in (
            ("clique-vc-bip", lambda k=k: gen_clique_vc_bipartite(k3, k)),
            ("clique-vc-split", lambda k=k: gen_clique_vc_split(k3, k, 1)),
        ):
            red = make()
            envy = evaluate(
                red.instance, witness_from_clique_vc(red, list(range(k)))
            ).n_envious
            if envy > red.target_envy:
                failures.append((family, k, envy, red.target_envy))
    conclude(4, "witness soundness", failures)


def test_criterion_5_happiness_tie_break():
    rng = random.Random(5150)
    failures = []
    cfg = SolverConfig(objective=HAPPY)
    for trial in range(200):
        n = rng.randint(0, 5)
        m = rng.randint(n, n + 2)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        prefs = [rng.sample(range(m), rng.randint(0, min(3, m))) for _ in range(n)]
        inst = Instance(n, m, edges, prefs)
        want = all_optima_happiness(inst)
        solvers = {
            "brute": solve_bruteforce(inst, cfg),
            "envy-guess": solve_envy_guess(inst, cfg),
            "separator": solve_separator(AnnotatedInstance.plain(inst), cfg),
            "vc-xp": solve_vertex_cover_xp(inst, None, cfg),
        }
        if n > 0 and all(len(p) == 1 for p in prefs):
            solvers["d1"] = solve_d1_matching(inst, cfg)
        for name, result in solvers.items():
            if (result.min_envy, result.happiness) != want:
                failures.append((trial, name, want,
                                 (result.min_envy, result.happiness)))
    conclude(5, "scaled happiness tie-break", failures, "200 instances")


def test_criterion_6_monotonicity():
    rng = random.Random(616)
    failures = []
    for trial in range(200):
        n = rng.randint(0, 5)
        m = rng.randint(n, n + 2)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        prefs = [rng.sample(range(m), rng.randint(0, min(3, m))) for _ in range(n)]
        inst = Instance(n, m, edges, prefs)
        base = solve_bruteforce(inst).min_envy
        padded = Instance(n, m + 1, edges, prefs)
        if solve_bruteforce(padded).min_envy > base:
            failures.append(("dummy-house", trial))
        if edges:
            drop = edges[rng.randrange(len(edges))]
            thinner = Instance(n, m, [e for e in edges if e != drop], prefs)
            if solve_bruteforce(thinner).min_envy > base:
                failures.append(("edge-deletion", trial))
    conclude(6, "monotonicity", failures, "200 dummy-house + edge-deletion cases")


def _criterion_7_corpus(tmp_path: Path) -> list[tuple[Path, str]]:
    # Generated instances get the solver that matches their size; the
    # random small ones rotate through all four exact solvers.
    jobs: list[tuple[Path, str]] = []
    rng = random.Random(7)
    gens = [
        ("clique-bip-d2", "k3", 2, {}, "vc-xp"),
        ("halfsep-3reg", "k4", 2, {}, "brute"),
        ("halfsep-3reg", "prism", 2, {}, "separator"),
        ("clique-vc-split", "k3", 2, {"--t": "1"}, "vc-xp"),
        ("halfsep-3reg", "k4", 0, {}, "envy-guess"),
    ]
    for i, (family, graph, k, extra, algo) in enumerate(gens):
        path = tmp_path / f"gen{i}.haan"
        argv = ["generate", family, "--graph", graph, "--k", str(k),
                "--output", str(path)]
        for key, value in extra.items():
            argv += [key, value]
        assert cli_main(argv) == 0
        jobs.append((path, algo))
    algos = ["brute", "envy-guess", "vc-xp", "separator"]
    for i in range(15):
        n = rng.randint(1, 5)
        m = rng.randint(n, n + 2)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        prefs = [rng.sample(range(m), rng.randint(0, min(2, m))) for _ in range(n)]
        lines = [f"haan/1 instance", f"agents {n}", f"houses {m}"]
        lines += [f"edge {u} {v}" for u, v in edges]
        for a in range(n):
            houses = " ".join(str(h) for h in sorted(prefs[a]))
            lines.append(f"prefs {a} :{' ' + houses if houses else ''}")
        path = tmp_path / f"rand{i}.haan"
        path.write_text("\n".join(lines) + "\n")
        jobs.append((path, algos[i % len(algos)]))
    return jobs


def test_criterion_7_worker_determinism(tmp_path, capsys):
    jobs = _criterion_7_corpus(tmp_path)
    assert len(jobs) == 20
    failures = []
    for i, (path, algo) in enumerate(jobs):
        outputs = []
        for workers in (1, 2, 8):
            out = tmp_path / f"out{i}w{workers}.haan"
            code = cli_main([
                "solve", str(path), "--algo", algo, "--objective", "envy-happy",
                "--workers", str(workers), "--omit-timing", "--output", str(out),
            ])
            if code != 0:
                failures.append((path.name, algo, workers, f"exit {code}"))
                continue
            outputs.append(out.read_bytes())
        if len(set(outputs)) != 1:
            failures.append((path.name, algo, "outputs differ"))
    capsys.readouterr()
    conclude(7, "determinism under parallelism", failures, "20 instances x {1,2,8} workers")


def test_criterion_8_desk_scale_runtime():
    failures = []
    # Envy-guessing solver on a sparse 10-agent instance within the
    # default guess budget (space <= 2^26 nominally, much less explored).
    rng = random.Random(88)
    all_pairs = list(combinations(range(10), 2))
    edges = rng.sample(all_pairs, 8)
    prefs = [rng.sample(range(11), rng.randint(1, 3)) for _ in range(10)]
    inst = Instance(10, 11, edges, prefs)
    result = solve_envy_guess(inst)
    rep = evaluate(inst, result.allocation)
    if (rep.n_envious, rep.n_happy) != (result.min_envy, result.happiness):
        failures.append("envy-guess witness mismatch")
    if result.guesses_explored > SolverConfig().guess_limit:
        failures.append("envy-guess blew the default budget")

    # Vertex-cover solver on a 51-agent star with 60 houses in < 5 s.
    n = 51
    star_edges = [(0, leaf) for leaf in range(1, n)]
    star_prefs = [[rng.randrange(60)] for _ in range(n)]
    star = Instance(n, 60, star_edges, star_prefs)
    start = time.monotonic()
    vc_result = solve_vertex_cover_xp(star, None, SolverConfig())
    elapsed = time.monotonic() - start
    if elapsed >= 5.0:
        failures.append(f"vc-xp took {elapsed:.2f}s")
    d1_result = solve_d1_matching(star)
    if vc_result.min_envy != d1_result.min_envy:
        failures.append("vc-xp disagrees with d1 on the star")
    conclude(8, "desk-scale runtime", failures,
             f"envy-guess explored {result.guesses_explored}, vc-xp {elapsed:.2f}s")
