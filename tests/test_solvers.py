import json
import math
import os
import random
import subprocess
import sys
import time
from itertools import combinations, permutations
from pathlib import Path

import pytest

import haan

from haan.cli.sources import named_source_graph
from haan.errors import (
    BudgetExceeded,
    HaanError,
    InstanceInfeasible,
    NoFeasibleAllocation,
    NotACover,
    SolveTimeout,
    UnknownAlgorithm,
    WrongSolver,
)
from haan.graphtools import balanced_separator_of_subgraph
from haan.model import AnnotatedInstance, Instance, evaluate, evaluate_annotated
from haan.reductions import (
    SourceGraph,
    gen_clique_bipartite_d2,
    gen_clique_vc_bipartite,
    gen_halfsep_3regular,
)
from haan.solvers import (
    ALGORITHMS,
    Objective,
    SolverConfig,
    solve,
    solve_bruteforce,
    solve_d1_matching,
    solve_envy_guess,
    solve_separator,
    solve_vertex_cover_xp,
)

from oracles import (
    all_optima_happiness,
    annotated_optimum,
    brute_optimum,
    matching_optimum,
    random_instance,
)

HAPPY = SolverConfig(objective=Objective.MIN_ENVY_THEN_MAX_HAPPY)

TRIANGLE = Instance(3, 3, [(0, 1), (0, 2), (1, 2)], [[0], [0], [0]])
TRIANGLE_M4 = Instance(3, 4, [(0, 1), (0, 2), (1, 2)], [[0], [0], [0]])

ALL_SOLVERS = [
    ("brute", lambda inst, cfg: solve_bruteforce(inst, cfg)),
    ("envy-guess", lambda inst, cfg: solve_envy_guess(inst, cfg)),
    ("separator", lambda inst, cfg: solve_separator(AnnotatedInstance.plain(inst), cfg)),
    ("vc-xp", lambda inst, cfg: solve_vertex_cover_xp(inst, None, cfg)),
]


def check_witness(inst, result):
    rep = evaluate(inst, result.allocation)
    assert (rep.n_envious, rep.n_happy) == (result.min_envy, result.happiness)


# -- brute force -------------------------------------------------------------

def test_brute_empty_instance():
    r = solve_bruteforce(Instance(0, 0, [], []))
    assert (r.min_envy, r.happiness) == (0, 0)
    assert r.allocation.assignment == ()


def test_brute_triangle():
    assert solve_bruteforce(TRIANGLE).min_envy == 2


def test_brute_triangle_extra_house():
    assert solve_bruteforce(TRIANGLE_M4).min_envy == 0


def test_brute_witness_is_lexicographic_first():
    r = solve_bruteforce(TRIANGLE)
    # (0, 1, 2) already achieves envy 2, and it is the first assignment.
    assert r.allocation.assignment == (0, 1, 2)


def test_brute_infeasible():
    with pytest.raises(InstanceInfeasible):
        solve_bruteforce(Instance(2, 1, [], [[], []]))


def test_brute_budget():
    inst = Instance(4, 6, [], [[]] * 4)
    with pytest.raises(BudgetExceeded):
        solve_bruteforce(inst, SolverConfig(guess_limit=359))
    solve_bruteforce(inst, SolverConfig(guess_limit=360))


# -- d = 1 matching solver ---------------------------------------------------

def test_d1_disjoint_preferences():
    inst = Instance(2, 2, [], [[0], [1]])
    r = solve_d1_matching(inst)
    assert (r.min_envy, r.happiness) == (0, 2)


def test_d1_star_example():
    inst = Instance(3, 3, [(0, 1), (0, 2)], [[0], [0], [0]])
    r = solve_d1_matching(inst)
    assert r.min_envy == 1
    assert brute_optimum(inst)[0] == 1
    check_witness(inst, r)


def test_d1_happiness_tie_break():
    inst = Instance(2, 2, [], [[0], [0]])
    r = solve_d1_matching(inst, HAPPY)
    assert (r.min_envy, r.happiness) == (0, 1)


def test_d1_wrong_solver():
    with pytest.raises(WrongSolver):
        solve_d1_matching(Instance(1, 2, [], [[0, 1]]))
    with pytest.raises(WrongSolver):
        solve_d1_matching(Instance(1, 2, [], [[]]))


def test_d1_infeasible():
    with pytest.raises(InstanceInfeasible):
        solve_d1_matching(Instance(2, 1, [], [[0], [0]]))


# -- envy-guessing solver ----------------------------------------------------

def test_envy_guess_edgeless():
    inst = Instance(3, 3, [], [[0], [0], [1]])
    assert solve_envy_guess(inst).min_envy == 0


def test_envy_guess_triangle():
    assert solve_envy_guess(TRIANGLE).min_envy == 2


def test_envy_guess_path_happiness():
    inst = Instance(2, 2, [(0, 1)], [[0], [0]])
    assert solve_envy_guess(inst).min_envy == 1
    r = solve_envy_guess(inst, HAPPY)
    assert (r.min_envy, r.happiness) == (1, 1)


def test_envy_guess_budget_precheck():
    # Guess space is prod(deg + 2) = 4^3 = 64 for a triangle.
    with pytest.raises(BudgetExceeded):
        solve_envy_guess(TRIANGLE, SolverConfig(guess_limit=63))
    solve_envy_guess(TRIANGLE, SolverConfig(guess_limit=64))


def test_envy_guess_counts_first_envied_neighbour_guesses():
    # Per agent: happy, non-envious and unhappy, or envious with its first
    # envied neighbour at one of deg positions.
    rng = random.Random(41)
    for trial in range(30):
        inst = random_instance(rng, n_max=6, extra_houses=2, d_max=3, p_edge=0.6)
        want = math.prod(inst.degree(a) + 2 for a in range(inst.n_agents))
        for objective in Objective:
            for workers in (1, 2):
                cfg = SolverConfig(workers=workers, objective=objective)
                assert solve_envy_guess(inst, cfg).guesses_explored == want, trial


# -- separator solver --------------------------------------------------------

def test_separator_empty():
    ann = AnnotatedInstance.plain(Instance(0, 0, [], []))
    assert solve_separator(ann).min_envy == 0


EMPTY_GUESSES = {"brute": 1, "d1": 0, "envy-guess": 1, "separator": 0, "vc-xp": 1}


@pytest.mark.parametrize("m", [0, 2])
@pytest.mark.parametrize("objective", list(Objective))
@pytest.mark.parametrize("algo", sorted(EMPTY_GUESSES))
def test_empty_instance_allocation_and_guess_count(algo, objective, m):
    r = solve(Instance(0, m, [], []), algo, SolverConfig(objective=objective))
    assert (r.min_envy, r.happiness, r.allocation.assignment) == (0, 0, ())
    assert (r.solver_id, r.guesses_explored) == (algo, EMPTY_GUESSES[algo])


def test_separator_single_angry_agent():
    base = Instance(1, 2, [], [[0]])
    ann = AnnotatedInstance(base, [[1]], [0])
    r = solve_separator(ann)
    assert r.min_envy == 1
    assert r.allocation.assignment == (1,)


@pytest.mark.parametrize("algo", ALGORITHMS)
def test_solve_routes_annotated_input_to_the_separator(algo):
    ann = AnnotatedInstance(Instance(1, 2, [], [[0]]), [[1]], [0])
    if algo in ("auto", "separator"):
        r = solve(ann, algo)
        assert (r.solver_id, r.min_envy, r.allocation.assignment) == ("separator", 1, (1,))
        assert r == solve_separator(ann)
    else:
        with pytest.raises(WrongSolver, match="separator algorithm only"):
            solve(ann, algo)


def test_separator_plain_triangle():
    assert solve_separator(AnnotatedInstance.plain(TRIANGLE)).min_envy == 2


def test_separator_no_feasible_allocation():
    base = Instance(2, 2, [], [[], []])
    ann = AnnotatedInstance(base, [[0], [0]], [])
    with pytest.raises(NoFeasibleAllocation):
        solve_separator(ann)


def _random_annotation(rng, inst):
    feas = [
        set(rng.sample(range(inst.n_houses), rng.randint(1, inst.n_houses)))
        if inst.n_houses else set()
        for _ in range(inst.n_agents)
    ]
    angry = [a for a in range(inst.n_agents) if rng.random() < 0.3]
    return AnnotatedInstance(inst, feas, angry)


def _class_key_cases():
    """Annotated instances with 1-3 spare houses and few house classes.

    Agents draw their preferences from two sets, so many houses have the
    same likers; each agent may not receive up to two random houses, so
    some of those houses differ only in who may receive them and must not
    share a class. Neighbours of the top-level separator are angry at
    random. The first case goes wrong if the class key ignores
    feasibility: its optimum gives agent 0 house 2, which is liked by
    nobody, like house 1, but only house 2 is feasible for agent 0.
    """
    yield AnnotatedInstance(Instance(2, 3, [(0, 1)], [[], [0]]), [[0, 2], [0, 1, 2]], [])
    rng = random.Random(1107)
    for _ in range(60):
        n = rng.randint(2, 5)
        m = n + rng.randint(1, 3)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        pool = [rng.sample(range(m), rng.randint(1, 2)) for _ in range(2)]
        inst = Instance(n, m, edges, [rng.choice(pool) for _ in range(n)])
        feas = [sorted(set(range(m)) - set(rng.sample(range(m), rng.randint(0, 2))))
                for _ in range(n)]
        S, _, _ = balanced_separator_of_subgraph(tuple(range(n)), inst.neighbors)
        near = sorted({b for a in S for b in inst.neighbors[a]})
        angry = [a for a in near if rng.random() < 0.5]
        yield AnnotatedInstance(inst, feas, angry)


def _separator_oracle_cases():
    """40 small annotated instances with at most one spare house, then 20
    with 3-5 agents and up to as many spare houses, every other one
    annotated: each split hands the houses its first part does not take
    to the second part, through several levels. Then the house-class
    cases."""
    rng = random.Random(21)
    for _ in range(40):
        yield _random_annotation(rng, random_instance(rng, n_max=4, extra_houses=1))
    for i in range(20):
        n = rng.randint(3, 5)
        m = rng.randint(n + 1, 2 * n)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.4]
        prefs = [rng.sample(range(m), rng.randint(0, 3)) for _ in range(n)]
        inst = Instance(n, m, edges, prefs)
        yield _random_annotation(rng, inst) if i % 2 else AnnotatedInstance.plain(inst)
    yield from _class_key_cases()


def test_separator_respects_feasibility_sets():
    for ann in _separator_oracle_cases():
        for happy in (False, True):
            cfg = HAPPY if happy else SolverConfig()
            want = annotated_optimum(ann, happy=happy)
            if want is None:
                with pytest.raises(NoFeasibleAllocation):
                    solve_separator(ann, cfg)
                continue
            r = solve_separator(ann, cfg)
            feasible_ok, rep = evaluate_annotated(ann, r.allocation)
            assert feasible_ok
            assert (rep.n_envious, rep.n_happy) == (r.min_envy, r.happiness)
            assert r.min_envy == want[0]
            if happy:
                assert r.happiness == want[1]


def test_separator_matches_envy_guess_on_plain_instances():
    rng = random.Random(31)
    for _ in range(40):
        inst = random_instance(rng, n_max=5)
        a = solve_envy_guess(inst, HAPPY)
        b = solve_separator(AnnotatedInstance.plain(inst), HAPPY)
        assert (a.min_envy, a.happiness) == (b.min_envy, b.happiness)


# Pinned (min_envy, happiness, allocation, guesses_explored) per objective
# (envy, envy-happy), or the error class, for SEPARATOR_GOLDEN_CASES: the
# separator's witness order and guess count are part of its contract. Rows
# whose optimum is at the key floor count only the triples tried before
# the top level reached it.
SEPARATOR_GOLDEN = [
    [(0, 1, (0,), 1), (0, 1, (0,), 1)],
    [(1, 0, (4, 2, 1, 0, 3), 227), (1, 2, (2, 0, 3, 5, 6), 257)],
    [(0, 3, (4, 3, 2, 1, 0), 20), (0, 3, (4, 3, 2, 1, 0), 35)],
    [(2, 2, (1, 5, 3, 2, 0, 7), 239), (2, 2, (1, 5, 3, 2, 0, 7), 239)],
    [(0, 1, (2, 4, 0, 1, 3), 76), (0, 3, (2, 4, 1, 5, 0), 210)],
    [(1, 0, (0, 5, 2, 3), 114), (1, 1, (0, 3, 2, 4), 116)],
    [(0, 1, (2, 0, 4, 1), 17), (0, 2, (1, 0, 4, 5), 28)],
    [(0, 0, (0, 2), 6), (0, 0, (0, 2), 6)],
    [(0, 3, (0, 1, 4, 3), 20), (0, 4, (2, 1, 4, 3), 50)],
    [(0, 1, (0,), 1), (0, 1, (0,), 1)],
    [(0, 1, (0,), 1), (0, 1, (0,), 1)],
    [(0, 3, (1, 4, 6, 0, 2), 34), (0, 3, (1, 4, 6, 0, 2), 124)],
    [(0, 1, (2, 1, 0), 8), (0, 3, (0, 1, 3), 34)],
    [(1, 2, (1, 0, 2, 3, 4, 5), 27), (1, 2, (1, 0, 2, 3, 4, 5), 27)],
    [(0, 1, (0,), 1), (0, 1, (0,), 1)],
    [(0, 2, (2, 0, 1), 4), (0, 2, (2, 0, 1), 4)],
    [(0, 1, (1, 0), 4), (0, 2, (1, 2), 14)],
    [(0, 4, (1, 0, 4, 3), 30), (0, 4, (1, 0, 4, 3), 30)],
    [(0, 2, (1, 0), 3), (0, 2, (1, 0), 3)],
    ['NoFeasibleAllocation', 'NoFeasibleAllocation'],
    [(0, 0, (0,), 2), (0, 0, (0,), 2)],
    [(0, 2, (3, 2, 0, 1), 17), (0, 2, (3, 2, 0, 1), 43)],
    [(0, 1, (0, 3, 2, 1), 7), (0, 1, (0, 3, 2, 1), 7)],
    [(1, 3, (2, 0, 1, 5, 6), 159), (1, 4, (2, 0, 3, 5, 6), 165)],
    [(0, 1, (1, 0), 4), (0, 1, (1, 0), 4)],
    [(2, 1, (1, 4, 3, 2, 5), 80), (2, 1, (1, 4, 3, 2, 5), 80)],
    [(0, 1, (1, 0), 7), (0, 1, (1, 0), 7)],
    [(0, 2, (4, 0, 2, 1, 3), 83), (0, 2, (4, 0, 2, 1, 3), 90)],
    [(0, 4, (5, 1, 3, 2, 0, 4), 159), (0, 4, (5, 1, 3, 2, 0, 4), 306)],
    [(0, 1, (0,), 1), (0, 1, (0,), 1)],
    [(0, 1, (0,), 1), (0, 1, (0,), 1)],
    [(2, 0, (0, 1, 2), 7), (2, 0, (0, 1, 2), 7)],
    [(0, 0, (0, 2, 1), 8), (0, 1, (3, 1, 0), 15)],
    [(0, 1, (0, 3, 1, 2, 5, 4), 54), (0, 1, (0, 3, 1, 2, 5, 4), 110)],
    [(0, 2, (3, 1, 0, 2), 37), (0, 3, (0, 1, 4, 2), 71)],
    [(0, 4, (4, 0, 1, 5, 2, 3), 86), (0, 4, (4, 0, 1, 5, 2, 3), 102)],
    [(0, 0, (0,), 2), (0, 0, (0,), 2)],
    [(1, 1, (5, 1, 3, 0), 133), (1, 1, (5, 1, 3, 0), 137)],
    [(0, 0, (0,), 2), (0, 0, (0,), 2)],
    [(0, 1, (0,), 1), (0, 1, (0,), 1)],
]


def separator_golden_cases():
    """40 seeded instances, odd ones annotated."""
    rng = random.Random(2026)
    for i in range(40):
        n = rng.randint(1, 6)
        m = rng.randint(n, n + 2)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        prefs = [rng.sample(range(m), rng.randint(0, min(2, m))) for _ in range(n)]
        inst = Instance(n, m, edges, prefs)
        if i % 2:
            feas = [rng.sample(range(m), rng.randint(1, m)) for _ in range(n)]
            angry = [a for a in range(n) if rng.random() < 0.3]
            ann = AnnotatedInstance(inst, feas, angry)
        else:
            ann = AnnotatedInstance.plain(inst)
        yield ann


def test_separator_golden_witnesses_and_guess_counts():
    got = []
    for ann in separator_golden_cases():
        row = []
        for objective in Objective:
            cfg = SolverConfig(objective=objective)
            try:
                r = solve_separator(ann, cfg)
            except HaanError as exc:
                row.append(type(exc).__name__)
                continue
            row.append((r.min_envy, r.happiness, r.allocation.assignment,
                        r.guesses_explored))
        got.append(row)
    assert got == SEPARATOR_GOLDEN


# Reductions whose agents all prefer the same houses, so their houses fall
# into two or three classes. (min_envy, happiness, allocation) per
# objective (envy, envy-happy), pinned from the separator's full
# enumeration of every house tuple and every split: handing out each
# class's houses lowest first must keep the same witnesses.
CLASS_HEAVY_WITNESSES = {
    ("halfsep-3reg", "k4", 0): [(2, 2, (0, 1, 2, 3)), (2, 2, (0, 1, 2, 3))],
    ("halfsep-3reg", "k4", 1): [(2, 2, (0, 1, 2, 3)), (2, 2, (0, 1, 2, 3))],
    ("halfsep-3reg", "k4", 2): [(3, 1, (0, 1, 2, 3)), (3, 1, (0, 1, 2, 3))],
    ("halfsep-3reg", "k4", 3): [(3, 1, (0, 1, 2, 3)), (3, 1, (0, 1, 2, 3))],
    ("halfsep-3reg", "k4", 4): [(0, 0, (0, 1, 2, 3)), (0, 0, (0, 1, 2, 3))],
    ("halfsep-3reg", "prism", 0): [(3, 3, (0, 1, 5, 3, 4, 2)), (3, 3, (0, 1, 5, 3, 4, 2))],
    ("halfsep-3reg", "prism", 1): [(3, 3, (0, 1, 5, 3, 4, 2)), (3, 3, (0, 1, 5, 3, 4, 2))],
    ("halfsep-3reg", "prism", 2): [(3, 2, (0, 1, 5, 3, 4, 2)), (3, 2, (0, 1, 5, 3, 4, 2))],
    ("halfsep-3reg", "prism", 3): [(3, 2, (0, 1, 5, 3, 4, 2)), (3, 2, (0, 1, 5, 3, 4, 2))],
    ("halfsep-3reg", "prism", 4): [(3, 1, (0, 1, 5, 3, 4, 2)), (3, 1, (0, 1, 5, 3, 4, 2))],
    ("halfsep-3reg", "prism", 5): [(3, 1, (0, 1, 5, 3, 4, 2)), (3, 1, (0, 1, 5, 3, 4, 2))],
    ("halfsep-3reg", "prism", 6): [(0, 0, (0, 1, 5, 3, 4, 2)), (0, 0, (0, 1, 5, 3, 4, 2))],
    ("halfsep-3reg", "k33", 0): [(3, 3, (0, 1, 2, 5, 4, 3)), (3, 3, (0, 1, 2, 5, 4, 3))],
    ("halfsep-3reg", "k33", 1): [(3, 3, (0, 1, 2, 5, 4, 3)), (3, 3, (0, 1, 2, 5, 4, 3))],
    ("halfsep-3reg", "k33", 2): [(3, 2, (0, 1, 2, 5, 4, 3)), (3, 2, (0, 1, 2, 5, 4, 3))],
    ("halfsep-3reg", "k33", 3): [(3, 2, (0, 1, 2, 5, 4, 3)), (3, 2, (0, 1, 2, 5, 4, 3))],
    ("halfsep-3reg", "k33", 4): [(3, 1, (0, 1, 2, 5, 4, 3)), (3, 1, (0, 1, 2, 5, 4, 3))],
    ("halfsep-3reg", "k33", 5): [(3, 1, (0, 1, 2, 5, 4, 3)), (3, 1, (0, 1, 2, 5, 4, 3))],
    ("halfsep-3reg", "k33", 6): [(0, 0, (0, 1, 2, 5, 4, 3)), (0, 0, (0, 1, 2, 5, 4, 3))],
    ("clique-vc-bip", "k3", 2): [(2, 1, (0, 3, 4, 10, 9, 8, 7, 6, 5)),
                                 (2, 1, (0, 3, 4, 10, 9, 8, 7, 6, 5))],
    ("clique-bip-d2", "k3", 2): [(3, 1, (9, 8, 7, 6, 5, 1, 0, 3, 4)),
                                 (3, 3, (8, 0, 7, 1, 6, 2, 3, 4, 5))],
}

# Optima under envy-happy that the benchmark's class enumeration, vc-xp
# and the separator agreed on when they were committed.
EXPECTED_JSON = Path(__file__).resolve().parents[1] / "perfbench" / "expected.json"


def _reduction(family, graph, k):
    if graph == "k33":
        g = SourceGraph(6, [(a, b) for a in range(3) for b in range(3, 6)])
    else:
        g = named_source_graph(graph)
    make = {
        "halfsep-3reg": gen_halfsep_3regular,
        "clique-vc-bip": gen_clique_vc_bipartite,
        "clique-bip-d2": gen_clique_bipartite_d2,
    }[family]
    return make(g, k).instance


@pytest.mark.parametrize("case", list(CLASS_HEAVY_WITNESSES),
                         ids=lambda case: ":".join(map(str, case)))
def test_separator_class_heavy_witnesses(case):
    inst = _reduction(*case)
    ann = AnnotatedInstance.plain(inst)
    rows = [solve_separator(ann, SolverConfig(objective=objective)) for objective in Objective]
    got = [(r.min_envy, r.happiness, r.allocation.assignment) for r in rows]
    assert got == CLASS_HEAVY_WITNESSES[case]
    if inst.n_agents <= 6:
        want = brute_optimum(inst, happy=True)[:2]
    else:
        expected = json.loads(EXPECTED_JSON.read_text())
        want = tuple(expected[":".join(map(str, case))]["optimum"])
    assert (rows[0].min_envy, (rows[1].min_envy, rows[1].happiness)) == (want[0], want)


def test_separator_deadline_on_a_class_heavy_reduction():
    # The untimed solve takes about a second; the canonical house tuples
    # are generated lazily, so the deadline check once per separator
    # house tuple still stops it.
    inst = _reduction("clique-bip-d2", "k4", 3)
    start = time.monotonic()
    with pytest.raises(SolveTimeout):
        solve_separator(AnnotatedInstance.plain(inst), SolverConfig(deadline=start + 0.05))
    assert time.monotonic() - start < 1.0


# (min_envy, happiness, guesses_explored) per objective (envy, envy-happy)
# under the default guess limit: a full enumeration explored 563,283 and
# 2,331,079 guesses under envy on these.
@pytest.mark.parametrize("spec, want", [
    ("petersen", [(4, 4, 588), (4, 4, 605)]),
    ("random-regular:12:3:1", [(3, 5, 1193), (3, 5, 1288)]),
])
def test_separator_guess_count_on_cubic_halfsep(spec, want):
    ann = AnnotatedInstance.plain(gen_halfsep_3regular(named_source_graph(spec), 2).instance)
    rows = [solve_separator(ann, SolverConfig(objective=objective)) for objective in Objective]
    assert [(r.min_envy, r.happiness, r.guesses_explored) for r in rows] == want


# -- vertex-cover solver -----------------------------------------------------

def test_vc_xp_star_with_spare_house():
    # With a spare house, h0 stays unassigned and nobody envies.
    inst = Instance(4, 5, [(0, 1), (0, 2), (0, 3)], [[0], [0], [0], [0]])
    r = solve_vertex_cover_xp(inst, [0])
    assert r.min_envy == 0
    assert brute_optimum(inst)[0] == 0
    check_witness(inst, r)


def test_vc_xp_star_without_spare_house():
    # All houses must be used, so some leaf or the center holds h0.
    inst = Instance(4, 4, [(0, 1), (0, 2), (0, 3)], [[0], [0], [0], [0]])
    r = solve_vertex_cover_xp(inst, [0])
    assert r.min_envy == 1
    assert brute_optimum(inst)[0] == 1
    check_witness(inst, r)


def test_vc_xp_edgeless_empty_cover():
    inst = Instance(3, 3, [], [[0], [1], [2]])
    r = solve_vertex_cover_xp(inst, [])
    assert r.min_envy == 0
    assert r.guesses_explored == 1


def test_vc_xp_triangle_with_given_cover():
    r = solve_vertex_cover_xp(TRIANGLE, [0, 1])
    assert r.min_envy == 2


def test_vc_xp_rejects_non_cover():
    with pytest.raises(NotACover):
        solve_vertex_cover_xp(TRIANGLE, [0])
    with pytest.raises(NotACover):
        solve_vertex_cover_xp(TRIANGLE, [9])


def test_vc_xp_non_minimal_cover_allowed():
    r = solve_vertex_cover_xp(TRIANGLE, [0, 1, 2])
    assert r.min_envy == 2


# Pinned (min_envy, happiness, allocation, guesses_explored) per objective
# (envy, envy-happy) of envy-guess and vc-xp (minimum cover) on
# guess_golden_cases(): their witness order and guess counts are part of
# their contract.
GUESS_GOLDEN = {
    "envy-guess": [
        [(0, 0, (1,), 2), (0, 1, (0,), 2)],
        [(2, 2, (5, 4, 0, 3, 1, 2), 45360), (2, 2, (5, 4, 0, 3, 1, 2), 45360)],
        [(2, 2, (4, 3, 2, 0, 1), 2400), (2, 2, (4, 3, 2, 0, 1), 2400)],
        [(0, 0, (4, 3, 2, 1), 400), (0, 0, (4, 3, 2, 1), 400)],
        [(0, 0, (6, 5, 4, 3, 2, 1), 44100), (0, 0, (6, 5, 4, 3, 2, 1), 44100)],
        [(0, 0, (5, 4, 3, 2, 1), 5400), (0, 0, (5, 4, 3, 2, 1), 5400)],
        [(0, 0, (2, 1), 9), (0, 0, (2, 1), 9)],
        [(1, 1, (3, 2, 0, 1), 240), (1, 1, (3, 2, 0, 1), 240)],
        [(0, 1, (0,), 2), (0, 1, (0,), 2)],
        [(0, 1, (0,), 2), (0, 1, (0,), 2)],
        [(0, 0, (1,), 2), (0, 1, (0,), 2)],
        [(0, 0, (4, 3, 2, 1), 240), (0, 0, (4, 3, 2, 1), 240)],
        [(0, 0, (6, 5, 4, 3, 2, 1), 61740), (0, 0, (6, 5, 4, 3, 2, 1), 61740)],
        [(0, 0, (3, 0, 2), 36), (0, 1, (0, 3, 2), 36)],
        [(2, 1, (0, 4, 3, 2, 1), 3600), (2, 1, (0, 4, 3, 2, 1), 3600)],
        [(1, 2, (3, 0, 2, 1), 128), (1, 2, (3, 0, 2, 1), 128)],
        [(1, 1, (0, 4, 3, 2, 1), 1440), (1, 1, (0, 4, 3, 2, 1), 1440)],
        [(0, 0, (2, 1), 9), (0, 0, (2, 1), 9)],
        [(1, 0, (4, 0, 3, 2), 400), (1, 2, (0, 3, 1, 2), 400)],
        [(1, 2, (0, 2, 1), 64), (1, 2, (0, 2, 1), 64)],
        [(0, 1, (0,), 2), (0, 1, (0,), 2)],
        [(0, 0, (1, 0), 4), (0, 1, (0, 1), 4)],
        [(1, 2, (2, 1, 0), 36), (1, 2, (2, 1, 0), 36)],
        [(3, 1, (5, 4, 0, 3, 2, 1), 61740), (3, 1, (5, 4, 0, 3, 2, 1), 61740)],
        [(0, 0, (5, 4, 3, 2, 1), 3600), (0, 0, (5, 4, 3, 2, 1), 3600)],
        [(3, 1, (3, 2, 1, 0), 625), (3, 1, (3, 2, 1, 0), 625)],
        [(1, 1, (6, 1, 5, 4, 3, 2), 20160), (1, 1, (6, 1, 5, 4, 3, 2), 20160)],
        [(0, 1, (0, 1), 4), (0, 1, (0, 1), 4)],
        [(0, 0, (1,), 2), (0, 1, (0,), 2)],
        [(1, 1, (1, 2, 0), 36), (1, 2, (2, 1, 0), 36)],
        [(0, 1, (0,), 2), (0, 1, (0,), 2)],
        [(0, 0, (5, 4, 3, 2, 1), 3600), (0, 0, (5, 4, 3, 2, 1), 3600)],
        [(2, 2, (5, 1, 0, 4, 3, 2), 31500), (2, 2, (5, 1, 0, 4, 3, 2), 31500)],
        [(0, 1, (0, 1, 2), 36), (0, 2, (2, 1, 0), 36)],
        [(2, 2, (3, 2, 1, 0), 400), (2, 2, (3, 2, 1, 0), 400)],
        [(0, 0, (6, 5, 4, 3, 2, 1), 14000), (0, 0, (6, 5, 4, 3, 2, 1), 14000)],
        [(0, 1, (1, 0), 9), (0, 1, (1, 0), 9)],
        [(2, 1, (4, 3, 0, 2, 1), 1600), (2, 1, (4, 3, 0, 2, 1), 1600)],
        [(0, 1, (0,), 2), (0, 1, (0,), 2)],
        [(0, 2, (1, 0), 9), (0, 2, (1, 0), 9)],
    ],
    "vc-xp": [
        [(0, 0, (1,), 1), (0, 1, (0,), 1)],
        [(2, 2, (2, 0, 3, 4, 1, 5), 2400), (2, 2, (2, 0, 3, 4, 1, 5), 2400)],
        [(2, 2, (0, 4, 2, 3, 1), 288), (2, 2, (0, 4, 2, 3, 1), 288)],
        [(0, 0, (1, 4, 2, 3), 64), (0, 0, (1, 4, 2, 3), 64)],
        [(0, 0, (1, 2, 6, 5, 3, 4), 8400), (0, 0, (1, 2, 6, 5, 3, 4), 8400)],
        [(0, 0, (5, 1, 2, 3, 4), 600), (0, 0, (5, 1, 2, 3, 4), 600)],
        [(0, 0, (1, 2), 6), (0, 0, (1, 2), 6)],
        [(1, 1, (1, 2, 0, 3), 36), (1, 1, (1, 2, 0, 3), 36)],
        [(0, 1, (0,), 1), (0, 1, (0,), 1)],
        [(0, 1, (0,), 1), (0, 1, (0,), 1)],
        [(0, 0, (1,), 1), (0, 1, (0,), 1)],
        [(0, 0, (1, 4, 2, 3), 64), (0, 0, (1, 4, 2, 3), 64)],
        [(0, 0, (1, 2, 6, 5, 3, 4), 6720), (0, 0, (1, 2, 6, 5, 3, 4), 6720)],
        [(0, 0, (3, 0, 2), 8), (0, 1, (0, 3, 2), 8)],
        [(2, 1, (0, 1, 2, 3, 4), 264), (2, 1, (0, 1, 2, 3, 4), 264)],
        [(1, 2, (1, 3, 0, 2), 37), (1, 2, (1, 3, 0, 2), 37)],
        [(1, 1, (0, 3, 4, 1, 2), 64), (1, 1, (0, 4, 3, 1, 2), 64)],
        [(0, 0, (1, 2), 6), (0, 0, (1, 2), 6)],
        [(1, 2, (0, 4, 1, 2), 60), (1, 2, (0, 4, 1, 2), 60)],
        [(1, 2, (0, 1, 2), 17), (1, 2, (0, 1, 2), 17)],
        [(0, 1, (0,), 1), (0, 1, (0,), 1)],
        [(0, 0, (2, 1), 1), (0, 1, (0, 2), 1)],
        [(1, 2, (1, 0, 3), 8), (1, 2, (1, 0, 3), 8)],
        [(3, 1, (1, 2, 0, 3, 4, 5), 2400), (3, 1, (1, 2, 0, 3, 4, 5), 2400)],
        [(0, 0, (5, 1, 4, 2, 3), 600), (0, 0, (5, 1, 4, 2, 3), 600)],
        [(3, 1, (0, 1, 2, 3), 84), (3, 1, (0, 1, 2, 3), 84)],
        [(1, 1, (2, 6, 5, 1, 4, 3), 900), (1, 1, (2, 6, 5, 1, 4, 3), 900)],
        [(0, 1, (1, 0), 1), (0, 1, (0, 1), 1)],
        [(0, 0, (1,), 1), (0, 1, (0,), 1)],
        [(1, 1, (3, 2, 0), 8), (1, 2, (3, 1, 0), 8)],
        [(0, 1, (0,), 1), (0, 1, (0,), 1)],
        [(0, 0, (1, 2, 3, 5, 4), 680), (0, 0, (1, 2, 3, 5, 4), 680)],
        [(2, 2, (2, 1, 0, 3, 5, 4), 1704), (2, 2, (2, 1, 0, 3, 5, 4), 1704)],
        [(0, 1, (3, 1, 2), 8), (0, 2, (3, 1, 0), 8)],
        [(2, 2, (0, 3, 2, 1), 32), (2, 2, (0, 3, 2, 1), 32)],
        [(0, 0, (1, 6, 2, 5, 3, 4), 1260), (0, 0, (1, 6, 2, 5, 3, 4), 1260)],
        [(0, 1, (1, 0), 4), (0, 1, (1, 0), 4)],
        [(2, 1, (0, 1, 2, 4, 3), 312), (2, 1, (0, 1, 2, 4, 3), 312)],
        [(0, 1, (0,), 1), (0, 1, (0,), 1)],
        [(0, 2, (0, 1), 4), (0, 2, (0, 1), 4)],
    ],
}


def guess_golden_cases():
    """40 seeded plain instances whose agents draw preferences from one or
    two shared houses, so that many optima hold envious agents."""
    rng = random.Random(2027)
    for _ in range(40):
        n = rng.randint(1, 6)
        m = rng.randint(n, n + 1)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.7]
        pool = rng.randint(1, min(2, m))
        prefs = [rng.sample(range(pool), rng.randint(rng.random() < 0.8, pool))
                 for _ in range(n)]
        yield Instance(n, m, edges, prefs)


@pytest.mark.parametrize("label", list(GUESS_GOLDEN))
def test_guess_solver_golden_witnesses_and_guess_counts(label):
    got = []
    for inst in guess_golden_cases():
        rows = [solve(inst, label, SolverConfig(objective=objective)) for objective in Objective]
        got.append([(r.min_envy, r.happiness, r.allocation.assignment, r.guesses_explored)
                    for r in rows])
    assert got == GUESS_GOLDEN[label]


# -- dispatcher --------------------------------------------------------------

def test_solve_routes_d1():
    inst = Instance(2, 2, [], [[0], [1]])
    assert solve(inst, "auto").solver_id == "d1"


def test_solve_routes_vc_xp():
    inst = Instance(3, 3, [(0, 1)], [[0, 1], [], []])
    assert solve(inst, "auto").solver_id == "vc-xp"


def test_solve_routes_separator_when_vc_xp_is_over_the_limit():
    # Minimum 7-cover on 12 houses: perm(12, 7)·2^7 = 510,935,040 guesses.
    inst = gen_halfsep_3regular(named_source_graph("random-regular:12:3:1"), 2).instance
    r = solve(inst, "auto")
    assert (r.solver_id, r.min_envy) == ("separator", 3)
    # Minimum 6-cover on 19 houses: perm(19, 6)·2^6 = 1,675,514,880 guesses.
    red = gen_clique_bipartite_d2(SourceGraph(4, list(combinations(range(4), 2))), 3)
    r = solve(red.instance, "auto")
    assert r.solver_id == "separator"
    assert r.min_envy <= red.target_envy


def test_solve_unknown_algorithm():
    with pytest.raises(UnknownAlgorithm):
        solve(TRIANGLE, "magic")


def test_solve_explicit_labels():
    for algo in ("brute", "envy-guess", "separator", "vc-xp"):
        assert solve(TRIANGLE, algo).min_envy == 2


# -- cross-solver properties -------------------------------------------------

def test_exhaustive_small_oracle_agreement():
    # All edge sets for n <= 4 (plus sampled ones at n = 5), preference
    # sets with d <= 2 sampled per edge set.
    rng = random.Random(77)
    cases = []
    for n in (3, 4):
        all_pairs = list(combinations(range(n), 2))
        for mask in range(1 << len(all_pairs)):
            edges = [all_pairs[i] for i in range(len(all_pairs)) if mask >> i & 1]
            cases.append((n, edges, 2 if n == 3 else 1))
    pairs5 = list(combinations(range(5), 2))
    for _ in range(40):
        mask = rng.randrange(1 << len(pairs5))
        edges = [pairs5[i] for i in range(len(pairs5)) if mask >> i & 1]
        cases.append((5, edges, 1))
    for n, edges, samples in cases:
        for _ in range(samples):
            m = rng.randint(n, min(n + 2, 6))
            prefs = [rng.sample(range(m), rng.randint(0, 2)) for _ in range(n)]
            inst = Instance(n, m, edges, prefs)
            for happy in (False, True):
                cfg = HAPPY if happy else SolverConfig()
                want = solve_bruteforce(inst, cfg)
                for name, fn in ALL_SOLVERS[1:]:
                    got = fn(inst, cfg)
                    assert got.min_envy == want.min_envy, (name, inst)
                    if happy:
                        assert got.happiness == want.happiness, (name, inst)
                    check_witness(inst, got)


def test_happiness_tie_break_matches_full_enumeration():
    rng = random.Random(13)
    for _ in range(40):
        inst = random_instance(rng, n_max=4, extra_houses=2, d_max=3)
        want = all_optima_happiness(inst)
        for name, fn in ALL_SOLVERS:
            r = fn(inst, HAPPY)
            assert (r.min_envy, r.happiness) == want, name


def test_scaled_objective_preserves_min_envy():
    rng = random.Random(17)
    for _ in range(40):
        inst = random_instance(rng, n_max=5)
        for name, fn in ALL_SOLVERS:
            assert fn(inst, SolverConfig()).min_envy == fn(inst, HAPPY).min_envy


def test_dummy_house_monotonicity():
    rng = random.Random(19)
    for _ in range(40):
        inst = random_instance(rng, n_max=5)
        bigger = Instance(inst.n_agents, inst.n_houses + 1, inst.edges, inst.preferences)
        assert solve_bruteforce(bigger).min_envy <= solve_bruteforce(inst).min_envy


def test_edge_deletion_monotonicity_of_optimum():
    rng = random.Random(23)
    for _ in range(40):
        inst = random_instance(rng, n_max=5)
        if not inst.edges:
            continue
        drop = inst.edges[rng.randrange(len(inst.edges))]
        smaller = Instance(
            inst.n_agents, inst.n_houses,
            [e for e in inst.edges if e != drop], inst.preferences,
        )
        assert solve_bruteforce(smaller).min_envy <= solve_bruteforce(inst).min_envy


def test_worker_count_does_not_change_results():
    rng = random.Random(29)
    instances = [random_instance(rng, n_max=5, extra_houses=1) for _ in range(10)]
    instances += [
        Instance(0, 0, [], []),
        Instance(0, 2, [], []),
        Instance(1, 1, [], [[]]),
        Instance(1, 3, [], [[1, 2]]),
    ]
    for inst in instances:
        for fn in (solve_bruteforce, solve_envy_guess,
                   lambda i, c: solve_vertex_cover_xp(i, None, c)):
            results = [
                fn(inst, SolverConfig(workers=w, objective=Objective.MIN_ENVY_THEN_MAX_HAPPY))
                for w in (1, 2, 3)
            ]
            assert len({
                (r.min_envy, r.happiness, r.allocation.assignment, r.guesses_explored)
                for r in results
            }) == 1


def _most_happy(inst: Instance) -> int:
    """H, the most agents that can hold a preferred house at once."""
    pairs = {(a, h): 0 for a, p in enumerate(inst.preferences) for h in p}
    return matching_optimum(inst.n_agents, inst.n_houses, pairs)[0]


def _at_floor(inst: Instance, r) -> bool:
    """Whether a result's key is the floor under envy-happy: no envy and H
    happy agents (its envy part alone is the floor under envy)."""
    return r.min_envy == 0 and r.happiness == _most_happy(inst)


def test_brute_and_envy_guess_keep_witnesses_and_counts_at_the_floor():
    rng = random.Random(37)
    hits = {False: 0, True: 0}
    for _ in range(60):
        inst = random_instance(rng, n_max=5, extra_houses=1, d_max=3)
        n, m = inst.n_agents, inst.n_houses
        for happy in (False, True):
            cfg = HAPPY if happy else SolverConfig()
            envy, hap, witness = brute_optimum(inst, happy)
            brute = solve_bruteforce(inst, cfg)
            assert (brute.min_envy, brute.happiness, brute.allocation.assignment) == (
                envy, hap, witness)
            assert brute.guesses_explored == math.perm(m, n)
            guess = solve_envy_guess(inst, cfg)
            check_witness(inst, guess)
            assert guess.min_envy == envy
            if happy:
                assert guess.happiness == hap
            assert guess.guesses_explored == math.prod(inst.degree(a) + 2 for a in range(n))
            hits[happy] += envy == 0 and (not happy or _at_floor(inst, brute))
    assert min(hits.values()) >= 15, hits


def test_floor_stop_gives_the_same_results_for_every_worker_count():
    rng = random.Random(41)
    instances = []
    while len(instances) < 4:
        inst = random_instance(rng, n_max=5, extra_houses=1)
        if inst.n_agents >= 3 and _at_floor(inst, solve_bruteforce(inst, HAPPY)):
            instances.append(inst)
    for inst in instances:
        for fn in (solve_bruteforce, solve_envy_guess):
            for objective in Objective:
                results = {
                    (r.min_envy, r.happiness, r.allocation.assignment, r.guesses_explored)
                    for r in (fn(inst, SolverConfig(workers=w, objective=objective))
                              for w in (1, 2, 3))
                }
                assert len(results) == 1, (fn.__name__, objective, inst)


def test_brute_never_starts_a_pool(monkeypatch):
    # Every agent of this path prefers its own house, so the first
    # assignment is at the floor under envy-happy.
    inst = Instance(8, 9, [(a, a + 1) for a in range(7)], [[a] for a in range(8)])
    want = solve_bruteforce(inst, HAPPY)

    def no_pool(*args, **kwargs):
        raise AssertionError("brute force started a process pool")

    monkeypatch.setattr("haan.solvers.ProcessPoolExecutor", no_pool)
    got = solve_bruteforce(
        inst, SolverConfig(workers=2, objective=Objective.MIN_ENVY_THEN_MAX_HAPPY))
    assert got == want


# Untimed, on a shared 2-core host, each takes 13-17 s (no assignment of
# the 10-clique reaches brute's floor). Envy-guess spends seconds between
# two of its every-64-supports checks here, so only the check every 4096
# nodes stops it in time.
@pytest.mark.parametrize("label", ["brute", "envy-guess", "vc-xp"])
def test_guess_solvers_honour_the_deadline(label):
    if label == "brute":
        inst = Instance(10, 10, list(combinations(range(10), 2)), [[0]] * 10)
    else:
        inst = _reduction("clique-vc-bip", "k4", 3)
    start = time.monotonic()
    with pytest.raises(SolveTimeout):
        dict(ALL_SOLVERS)[label](inst, SolverConfig(guess_limit=None, deadline=start + 0.05))
    assert time.monotonic() - start < 1.0


def test_all_solvers_reject_infeasible():
    inst = Instance(3, 2, [], [[], [], []])
    for name, fn in ALL_SOLVERS:
        with pytest.raises(InstanceInfeasible):
            fn(inst, SolverConfig())


def _vc_guess_count(inst: Instance, cover: list[int]) -> int:
    """vc-xp's guess count from its definition: per injective cover tuple,
    2^(cover agents not already envious within the cover)."""
    prefs = [set(p) for p in inst.preferences]
    cover_set = set(cover)
    total = 0
    for phi in permutations(range(inst.n_houses), len(cover)):
        house = dict(zip(cover, phi))
        eligible = sum(
            1 for a in cover
            if house[a] in prefs[a]
            or not any(house[b] in prefs[a] for b in inst.neighbors[a] if b in cover_set)
        )
        total += 1 << eligible
    return total


def _vc_pruning_instance(rng: random.Random):
    """A small instance and a vertex cover of it that exercise vc-xp's
    free-agent rule: cover agents prefer few low houses (so the cover often
    holds them, or holds all of them), and one cover agent may have no
    neighbour outside the cover."""
    n = rng.randint(2, 7)
    m = rng.randint(n, min(n + 3, 8 if n == 7 else 9))
    k = rng.randint(1, min(3, n - 1))
    cover = sorted(rng.sample(range(n), k))
    rest = [a for a in range(n) if a not in cover]
    isolated = cover[0] if rng.random() < 0.5 else None
    edges = set()
    for c in cover:
        for a in range(n):
            if a == c or (a in cover and a < c):
                continue
            if a in rest and c == isolated:
                continue
            if rng.random() < (0.6 if a in rest else 0.3):
                edges.add((min(a, c), max(a, c)))
    prefs = [
        rng.sample(range(min(3, m)), rng.randint(1, 2)) if a in cover
        else rng.sample(range(m), rng.randint(0, min(3, m)))
        for a in range(n)
    ]
    return Instance(n, m, sorted(edges), prefs), cover


def test_vc_xp_pruning_keeps_optimum_and_guess_count():
    rng = random.Random(4242)
    seen = {"happy cover agent": 0, "no rest neighbour": 0, "prefs taken by cover": 0}
    for trial in range(60):
        inst, cover = _vc_pruning_instance(rng)
        prefs = [set(p) for p in inst.preferences]
        rest_set = set(range(inst.n_agents)) - set(cover)
        for a in cover:
            seen["no rest neighbour"] += not rest_set & set(inst.neighbors[a])
            seen["prefs taken by cover"] += len(prefs[a]) <= len(cover)
            seen["happy cover agent"] += bool(prefs[a])
        want_count = _vc_guess_count(inst, cover)
        if not any(b in cover for a in cover for b in inst.neighbors[a]):
            assert want_count == math.perm(inst.n_houses, len(cover)) << len(cover)
        for happy in (False, True):
            objective = Objective.MIN_ENVY_THEN_MAX_HAPPY if happy else Objective.MIN_ENVY
            ref_envy, ref_happy, _ = brute_optimum(inst, happy=happy)
            runs = [
                solve_vertex_cover_xp(inst, cover, SolverConfig(objective=objective, workers=w))
                for w in ((1, 2) if trial % 4 == 0 else (1,))
            ]
            got = runs[0]
            assert got.min_envy == ref_envy, (trial, happy)
            if happy:
                assert got.happiness == ref_happy, trial
            assert got.guesses_explored == want_count, trial
            assert len({
                (r.min_envy, r.happiness, r.allocation.assignment, r.guesses_explored)
                for r in runs
            }) == 1, trial
    assert all(count >= 10 for count in seen.values()), seen


def test_import_loads_neither_numpy_nor_scipy():
    code = (
        "import sys\n"
        "import haan\n"
        "from haan.model import Instance\n"
        "from haan.solvers import solve\n"
        "star = Instance(3, 3, [(0, 1), (0, 2)], [[0], [0], [1]])\n"
        "assert solve(star, 'd1').min_envy == solve(star, 'brute').min_envy\n"
        "path = Instance(3, 3, [(0, 1), (1, 2)], [[0, 1], [0], [0, 2]])\n"
        "assert solve(path, 'vc-xp').min_envy == solve(path, 'brute').min_envy\n"
        "print(sorted(m for m in ('numpy', 'scipy') if m in sys.modules))\n"
    )
    src = str(Path(haan.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
