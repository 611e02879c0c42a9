import gc
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
    gen_clique_vc_split,
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
    restricted_cover_instance,
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


def test_brute_walk_agrees_with_the_definition():
    # The depth-first walk against plain enumeration of the definition:
    # same optimum, same first witness, same count. An optimum with envy is
    # above the floor under both objectives, so those walks run to the end;
    # every other instance has dense edges and agents that all like some of
    # the first three houses, so that envy is often forced.
    rng = random.Random(53)
    uncut = 0
    for i in range(120):
        if i % 2:
            inst = random_instance(rng, n_max=6, extra_houses=2, d_max=3)
        else:
            n = rng.randint(1, 6)
            m = rng.randint(n, n + 2)
            edges = [e for e in combinations(range(n), 2) if rng.random() < 0.8]
            popular = range(min(m, 3))
            prefs = [rng.sample(popular, rng.randint(1, len(popular))) for _ in range(n)]
            inst = Instance(n, m, edges, prefs)
        for happy in (False, True):
            want = brute_optimum(inst, happy)
            got = solve_bruteforce(inst, HAPPY if happy else SolverConfig())
            assert (got.min_envy, got.happiness, got.allocation.assignment) == want
            assert got.guesses_explored == math.perm(inst.n_houses, inst.n_agents)
        uncut += want[0] > 0
    assert uncut >= 20, uncut


def test_guess_solvers_agree_with_the_definition_on_envious_draws():
    # Dense draws with agents that all like some of the first three houses,
    # as the even draws above: about half of them have an optimum with
    # envy, so the envy floor does not end the walks at their first guess.
    # d1 joins where every agent prefers one house.
    rng = random.Random(59)
    envious = single = 0
    for _ in range(60):
        n = rng.randint(1, 6)
        m = rng.randint(n, n + 2)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.8]
        popular = range(min(m, 3))
        prefs = [rng.sample(popular, rng.randint(1, len(popular))) for _ in range(n)]
        inst = Instance(n, m, edges, prefs)
        solvers = ALL_SOLVERS[1:]
        if all(len(p) == 1 for p in prefs):
            solvers = solvers + [("d1", solve_d1_matching)]
            single += 1
        for happy in (False, True):
            envy, hap, _ = brute_optimum(inst, happy)
            for name, fn in solvers:
                got = fn(inst, HAPPY if happy else SolverConfig())
                assert got.min_envy == envy, (name, inst)
                if happy:
                    assert got.happiness == hap, (name, inst)
                check_witness(inst, got)
        envious += envy > 0
    assert envious >= 25, envious
    assert single >= 10, single


def test_brute_memory_is_linear_in_the_houses():
    # A table keyed by house bitmasks would hold ~m^2/16 bytes (156 MB here).
    import tracemalloc

    m = 50_000
    inst = Instance(1, m, [], [[m - 1]])
    tracemalloc.start()
    try:
        r = solve_bruteforce(inst, HAPPY)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert (r.min_envy, r.happiness, r.allocation.assignment) == (0, 1, (m - 1,))
    assert peak < 16 << 20, peak


def test_brute_with_an_expired_deadline_times_out():
    inst = Instance(2, 2, [(0, 1)], [[0], [0]])
    with pytest.raises(SolveTimeout):
        solve_bruteforce(inst, SolverConfig(deadline=time.monotonic() - 1))


def test_auto_refuses_fewer_houses_than_agents_at_once():
    # No cover above 3 agents has a house tuple on 3 houses, so `auto`
    # searches none before the house count is checked.
    rng = random.Random(0)
    inst = Instance(80, 3, rng.sample(list(combinations(range(80), 2)), 160),
                    [rng.sample(range(3), rng.randint(1, 2)) for _ in range(80)])
    with pytest.raises(InstanceInfeasible):
        solve(inst, "auto", SolverConfig(deadline=time.monotonic() + 2.0))


# -- d = 1 matching solver ---------------------------------------------------

def test_d1_with_an_expired_deadline_times_out():
    with pytest.raises(SolveTimeout):
        solve_d1_matching(Instance(2, 2, [(0, 1)], [[0], [0]]),
                          SolverConfig(deadline=time.monotonic() - 1))


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


# One agent preferring house 2 of 4 and allowed houses 1-3, or preferring
# house 0 and allowed 1-2: its lowest liked house when being happy lowers
# the key, else its lowest allowed house, with no guess.
@pytest.mark.parametrize("prefs, angry, objective, want", [
    ([2], [], Objective.MIN_ENVY, (0, 0, (1,))),
    ([2], [], Objective.MIN_ENVY_THEN_MAX_HAPPY, (0, 1, (2,))),
    ([2], [0], Objective.MIN_ENVY, (0, 1, (2,))),
    ([2], [0], Objective.MIN_ENVY_THEN_MAX_HAPPY, (0, 1, (2,))),
    ([0], [0], Objective.MIN_ENVY, (1, 0, (1,))),
    ([0], [0], Objective.MIN_ENVY_THEN_MAX_HAPPY, (1, 0, (1,))),
])
def test_separator_one_agent(prefs, angry, objective, want):
    feasible = [1, 2, 3] if prefs == [2] else [1, 2]
    ann = AnnotatedInstance(Instance(1, 4, [], [prefs]), [feasible], angry)
    r = solve_separator(ann, SolverConfig(objective=objective))
    assert (r.min_envy, r.happiness, r.allocation.assignment, r.guesses_explored) == want + (0,)


@pytest.mark.parametrize("n", [1, 3])
def test_separator_agent_with_no_feasible_house(n):
    base = Instance(n, 4, [(a, a + 1) for a in range(n - 1)], [[0]] * n)
    ann = AnnotatedInstance(base, [[0, 1, 2, 3]] * (n - 1) + [[]], [])
    for objective in Objective:
        with pytest.raises(NoFeasibleAllocation):
            solve_separator(ann, SolverConfig(objective=objective))


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


def test_separator_guess_limit():
    # Petersen halfsep at k = 2 takes 448 separator guesses with no limit.
    ann = AnnotatedInstance.plain(
        gen_halfsep_3regular(named_source_graph("petersen"), 2).instance)
    assert solve_separator(ann, SolverConfig(guess_limit=None)).guesses_explored == 448
    with pytest.raises(BudgetExceeded) as exc:
        solve_separator(ann, SolverConfig(guess_limit=1))
    assert str(exc.value) == "separator: guess count exceeded limit 1"


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
        masks = [sum(1 << b for b in nbrs) for nbrs in inst.neighbors]
        S, _, _ = balanced_separator_of_subgraph(tuple(range(n)), masks)
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
# separator's witness order and guess count are part of its contract.
# Each subproblem counts only the guesses it tried before reaching its own
# key floor, and one- and two-agent subproblems, solved outright, count
# none.
SEPARATOR_GOLDEN = [
    [(0, 1, (0,), 0), (0, 1, (0,), 0)],
    [(1, 0, (4, 2, 1, 0, 3), 91), (1, 2, (2, 0, 3, 5, 6), 92)],
    [(0, 3, (4, 3, 2, 1, 0), 2), (0, 3, (4, 3, 2, 1, 0), 2)],
    [(2, 2, (1, 5, 3, 2, 0, 7), 140), (2, 2, (1, 5, 3, 2, 0, 7), 140)],
    [(0, 1, (2, 4, 0, 1, 3), 12), (0, 3, (2, 4, 1, 5, 0), 15)],
    [(1, 0, (0, 5, 2, 3), 80), (1, 1, (0, 3, 2, 4), 80)],
    [(0, 1, (2, 0, 4, 1), 4), (0, 2, (1, 0, 4, 5), 6)],
    [(0, 0, (0, 2), 0), (0, 0, (0, 2), 0)],
    [(0, 3, (0, 1, 4, 3), 8), (0, 4, (2, 1, 4, 3), 9)],
    [(0, 1, (0,), 0), (0, 1, (0,), 0)],
    [(0, 1, (0,), 0), (0, 1, (0,), 0)],
    [(0, 3, (1, 4, 6, 0, 2), 17), (0, 3, (1, 4, 6, 0, 2), 17)],
    [(0, 1, (2, 1, 0), 1), (0, 3, (0, 1, 3), 3)],
    [(1, 2, (1, 0, 2, 3, 4, 5), 14), (1, 2, (1, 0, 2, 3, 4, 5), 14)],
    [(0, 1, (0,), 0), (0, 1, (0,), 0)],
    [(0, 2, (2, 0, 1), 1), (0, 2, (2, 0, 1), 1)],
    [(0, 1, (1, 0), 0), (0, 2, (1, 2), 0)],
    [(0, 4, (1, 0, 4, 3), 7), (0, 4, (1, 0, 4, 3), 7)],
    [(0, 2, (1, 0), 0), (0, 2, (1, 0), 0)],
    ['NoFeasibleAllocation', 'NoFeasibleAllocation'],
    [(0, 0, (0,), 0), (0, 0, (0,), 0)],
    [(0, 2, (3, 2, 0, 1), 2), (0, 2, (3, 2, 0, 1), 2)],
    [(0, 1, (0, 3, 2, 1), 4), (0, 1, (0, 3, 2, 1), 4)],
    [(1, 3, (2, 0, 1, 5, 6), 120), (1, 4, (2, 0, 3, 5, 6), 120)],
    [(0, 1, (1, 0), 0), (0, 1, (1, 0), 0)],
    [(2, 1, (1, 4, 3, 2, 5), 30), (2, 1, (1, 4, 3, 2, 5), 30)],
    [(0, 1, (1, 0), 0), (0, 1, (1, 0), 0)],
    [(0, 2, (4, 0, 2, 1, 3), 27), (0, 2, (4, 0, 2, 1, 3), 27)],
    [(0, 4, (5, 1, 3, 2, 0, 4), 118), (0, 4, (5, 1, 3, 2, 0, 4), 118)],
    [(0, 1, (0,), 0), (0, 1, (0,), 0)],
    [(0, 1, (0,), 0), (0, 1, (0,), 0)],
    [(2, 0, (0, 1, 2), 4), (2, 0, (0, 1, 2), 4)],
    [(0, 0, (0, 2, 1), 2), (0, 1, (3, 1, 0), 3)],
    [(0, 1, (0, 3, 1, 2, 5, 4), 23), (0, 1, (0, 3, 1, 2, 5, 4), 31)],
    [(0, 2, (3, 1, 0, 2), 8), (0, 3, (0, 1, 4, 2), 10)],
    [(0, 4, (4, 0, 1, 5, 2, 3), 39), (0, 4, (4, 0, 1, 5, 2, 3), 39)],
    [(0, 0, (0,), 0), (0, 0, (0,), 0)],
    [(1, 1, (5, 1, 3, 0), 15), (1, 1, (5, 1, 3, 0), 15)],
    [(0, 0, (0,), 0), (0, 0, (0,), 0)],
    [(0, 1, (0,), 0), (0, 1, (0,), 0)],
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


def separator_deep_cases():
    """40 seeded instances with 6-7 agents, dense edges and preferences
    from the lowest houses, so the separator splits into parts of several
    agents on two or three levels. Odd ones are annotated: each agent may
    not receive one to three houses, and about a third are angry."""
    rng = random.Random(1414)
    for i in range(40):
        n = rng.randint(6, 7)
        m = rng.randint(n, n + 1)
        edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
        liked = rng.randint(3, m)
        prefs = [rng.sample(range(liked), rng.randint(1, 2)) for _ in range(n)]
        inst = Instance(n, m, edges, prefs)
        if i % 2:
            feas = [sorted(set(range(m)) - set(rng.sample(range(m), rng.randint(1, 3))))
                    for _ in range(n)]
            angry = [a for a in range(n) if rng.random() < 0.3]
            yield AnnotatedInstance(inst, feas, angry)
        else:
            yield AnnotatedInstance.plain(inst)


# (min_envy, happiness, allocation) per objective (envy, envy-happy) for
# separator_deep_cases(), pinned from the separator before its subproblems
# stopped at their own key floors: the floors may cut guesses, never move
# a witness.
SEPARATOR_DEEP_WITNESSES = [
    [(0, 3, (0, 1, 4, 3, 5, 2)), (0, 4, (0, 1, 2, 5, 4, 3))],
    [(3, 2, (4, 3, 1, 0, 5, 2)), (3, 2, (4, 3, 1, 0, 5, 2))],
    [(0, 3, (1, 5, 4, 2, 6, 0, 3)), (0, 3, (1, 5, 4, 2, 6, 0, 3))],
    [(2, 1, (2, 3, 0, 1, 4, 5)), (2, 2, (2, 3, 4, 0, 1, 5))],
    [(1, 0, (3, 1, 4, 2, 5, 6)), (1, 2, (4, 3, 1, 0, 5, 6))],
    [(3, 2, (2, 3, 1, 0, 4, 5)), (3, 3, (2, 3, 1, 5, 4, 0))],
    [(1, 3, (4, 0, 3, 6, 1, 5, 2)), (1, 3, (4, 0, 3, 6, 1, 5, 2))],
    [(1, 2, (0, 5, 3, 6, 2, 1)), (1, 2, (0, 5, 3, 6, 2, 1))],
    [(2, 3, (1, 3, 5, 4, 6, 0, 2)), (2, 3, (1, 3, 5, 4, 6, 0, 2))],
    [(0, 3, (0, 5, 1, 3, 2, 4)), (0, 3, (0, 5, 1, 3, 2, 4))],
    [(0, 5, (5, 0, 3, 2, 1, 4)), (0, 5, (5, 0, 3, 2, 1, 4))],
    [(1, 3, (4, 0, 5, 2, 3, 1)), (1, 3, (4, 0, 5, 2, 3, 1))],
    [(3, 3, (0, 1, 5, 2, 4, 3)), (3, 3, (0, 1, 5, 2, 4, 3))],
    [(1, 1, (6, 3, 5, 0, 4, 1, 7)), (1, 1, (6, 3, 5, 0, 4, 1, 7))],
    [(0, 3, (1, 4, 0, 3, 5, 2)), (0, 3, (1, 4, 0, 3, 5, 2))],
    [(1, 2, (6, 0, 3, 2, 4, 5, 1)), (1, 3, (6, 0, 4, 3, 5, 2, 1))],
    [(2, 3, (1, 6, 3, 0, 2, 4, 5)), (2, 3, (1, 6, 3, 0, 2, 4, 5))],
    [(0, 2, (1, 5, 3, 4, 2, 0)), (0, 3, (1, 5, 3, 0, 2, 4))],
    [(1, 5, (0, 6, 4, 2, 1, 5, 3)), (1, 5, (0, 6, 4, 2, 1, 5, 3))],
    [(2, 5, (4, 5, 6, 0, 2, 3, 1)), (2, 5, (4, 5, 6, 0, 2, 3, 1))],
    [(1, 2, (0, 5, 3, 2, 4, 1)), (1, 4, (0, 2, 3, 5, 1, 4))],
    [(2, 3, (3, 2, 0, 4, 1, 5)), (2, 3, (3, 2, 0, 4, 1, 5))],
    [(0, 2, (5, 0, 2, 1, 3, 4)), (0, 3, (4, 2, 1, 5, 3, 0))],
    [(1, 2, (2, 0, 6, 4, 3, 5, 1)), (1, 2, (2, 0, 6, 4, 3, 5, 1))],
    [(0, 2, (3, 4, 2, 6, 1, 0, 5)), (0, 2, (3, 4, 2, 6, 1, 0, 5))],
    [(0, 3, (2, 1, 4, 5, 3, 0)), (0, 3, (2, 1, 4, 5, 3, 0))],
    [(0, 1, (4, 1, 0, 3, 5, 2)), (0, 1, (4, 1, 0, 3, 5, 2))],
    [(3, 2, (5, 1, 3, 4, 0, 2)), (3, 2, (5, 1, 3, 4, 0, 2))],
    [(0, 3, (2, 3, 0, 1, 5, 4)), (0, 4, (2, 5, 0, 3, 1, 4))],
    [(0, 4, (4, 7, 3, 1, 0, 5, 2)), (0, 6, (6, 2, 3, 1, 0, 4, 5))],
    [(0, 0, (6, 4, 3, 1, 0, 5, 2)), (0, 4, (1, 5, 6, 2, 4, 3, 0))],
    [(2, 3, (2, 6, 4, 0, 3, 1, 5)), (2, 3, (2, 6, 4, 0, 3, 1, 5))],
    [(0, 2, (0, 6, 5, 3, 1, 4)), (0, 2, (0, 6, 5, 3, 1, 4))],
    [(1, 2, (4, 1, 2, 0, 3, 5)), (1, 2, (4, 1, 2, 0, 3, 5))],
    [(0, 5, (4, 1, 6, 0, 5, 3, 2)), (0, 6, (0, 1, 4, 2, 5, 3, 6))],
    [(1, 4, (6, 1, 4, 5, 2, 3, 0)), (1, 4, (6, 1, 4, 5, 2, 3, 0))],
    [(0, 3, (5, 0, 3, 6, 4, 2, 1)), (0, 3, (5, 0, 3, 6, 4, 2, 1))],
    [(1, 2, (6, 2, 0, 5, 3, 4)), (1, 3, (1, 2, 5, 0, 3, 4))],
    [(0, 5, (1, 2, 4, 7, 3, 0, 5)), (0, 6, (1, 0, 4, 7, 3, 5, 6))],
    [(1, 4, (2, 5, 3, 1, 0, 4, 6)), (1, 4, (2, 5, 3, 1, 0, 4, 6))],
]


def test_separator_deep_witnesses():
    for ann, pinned in zip(separator_deep_cases(), SEPARATOR_DEEP_WITNESSES, strict=True):
        for objective, want in zip(Objective, pinned):
            r = solve_separator(ann, SolverConfig(objective=objective))
            assert (r.min_envy, r.happiness, r.allocation.assignment) == want
            feasible_ok, rep = evaluate_annotated(ann, r.allocation)
            assert feasible_ok and (rep.n_envious, rep.n_happy) == want[:2]


@pytest.mark.slow
def test_separator_deep_witnesses_are_optimal():
    for ann, (envy_row, happy_row) in zip(separator_deep_cases(), SEPARATOR_DEEP_WITNESSES,
                                          strict=True):
        want = annotated_optimum(ann, happy=True)
        assert envy_row[0] == want[0]
        assert happy_row[:2] == want


def separator_pair_cases():
    """48 seeded instances whose separator subproblems have two agents:
    two-agent roots, adjacent or not; paths of five agents, whose middle
    agent separates two adjacent pairs; and stars of five, whose centre
    separates two pairs of leaves. Preferences come from two small sets,
    so houses fall into classes of several houses. Odd ones are annotated:
    each agent may not receive up to two houses, and about two in five
    are angry."""
    rng = random.Random(1515)
    for i in range(48):
        shape = i % 3
        if shape == 0:
            n = 2
            edges = [(0, 1)] if rng.random() < 0.5 else []
        elif shape == 1:
            n = 5
            edges = [(a, a + 1) for a in range(4)]
        else:
            n = 5
            edges = [(0, a) for a in range(1, 5)]
        m = n + rng.randint(0, 2)
        pool = [rng.sample(range(m), rng.randint(1, min(3, m))) for _ in range(2)] + [[]]
        inst = Instance(n, m, edges, [rng.choice(pool) for _ in range(n)])
        if i % 2:
            feas = [sorted(set(range(m)) - set(rng.sample(range(m), rng.randint(0, min(2, m - 1)))))
                    for _ in range(n)]
            angry = [a for a in range(n) if rng.random() < 0.4]
            yield AnnotatedInstance(inst, feas, angry)
        else:
            yield AnnotatedInstance.plain(inst)


# (min_envy, happiness, allocation) per objective (envy, envy-happy), or
# the error class, for separator_pair_cases(), pinned from the separator
# before it solved two-agent subproblems without a separator search.
SEPARATOR_PAIR_WITNESSES = [
    [(0, 1, (1, 0)), (0, 1, (1, 0))],
    [(1, 3, (4, 3, 0, 2, 1)), (1, 3, (4, 3, 0, 2, 1))],
    [(0, 1, (1, 4, 3, 2, 0)), (0, 2, (1, 3, 4, 2, 0))],
    [(1, 1, (0, 1)), (1, 1, (0, 1))],
    [(0, 3, (4, 3, 0, 1, 2)), (0, 3, (4, 3, 0, 1, 2))],
    [(1, 3, (1, 4, 3, 0, 2)), (1, 3, (1, 4, 3, 0, 2))],
    [(0, 1, (1, 0)), (0, 1, (1, 0))],
    [(2, 3, (4, 2, 0, 3, 1)), (2, 3, (4, 2, 0, 3, 1))],
    [(1, 3, (0, 4, 2, 1, 3)), (1, 3, (0, 4, 2, 1, 3))],
    [(1, 1, (0, 1)), (1, 1, (0, 1))],
    [(0, 0, (2, 4, 0, 1, 3)), (0, 2, (1, 4, 2, 5, 0))],
    [(1, 2, (0, 3, 5, 2, 1)), (1, 3, (0, 1, 5, 2, 6))],
    [(0, 1, (1, 0)), (0, 1, (1, 0))],
    [(1, 2, (4, 3, 0, 2, 1)), (1, 3, (5, 3, 0, 2, 1))],
    [(0, 2, (3, 2, 4, 1, 0)), (0, 3, (3, 1, 4, 0, 2))],
    ['NoFeasibleAllocation', 'NoFeasibleAllocation'],
    [(0, 2, (1, 4, 0, 2, 3)), (0, 3, (2, 5, 3, 0, 1))],
    [(0, 2, (3, 2, 6, 1, 0)), (0, 2, (3, 2, 6, 1, 0))],
    [(0, 0, (0, 1)), (0, 0, (0, 1))],
    [(0, 2, (1, 5, 0, 2, 4)), (0, 2, (1, 5, 0, 2, 4))],
    [(0, 0, (0, 4, 3, 2, 1)), (0, 2, (0, 6, 2, 3, 1))],
    [(1, 0, (0, 1)), (1, 0, (0, 1))],
    [(0, 1, (4, 5, 1, 0, 2)), (0, 3, (2, 6, 3, 0, 1))],
    [(0, 1, (0, 3, 4, 2, 1)), (0, 2, (0, 3, 4, 1, 2))],
    [(0, 1, (0, 1)), (0, 1, (0, 1))],
    [(2, 0, (2, 4, 0, 3, 1)), (2, 1, (0, 4, 1, 3, 2))],
    [(0, 1, (0, 4, 3, 2, 1)), (0, 2, (0, 4, 3, 1, 2))],
    [(0, 0, (3, 0)), (0, 1, (0, 3))],
    [(0, 2, (3, 4, 0, 1, 2)), (0, 2, (3, 4, 0, 1, 2))],
    [(1, 1, (0, 5, 2, 3, 1)), (1, 2, (0, 3, 2, 4, 1))],
    [(0, 0, (1, 0)), (0, 0, (1, 0))],
    [(0, 1, (0, 4, 1, 3, 2)), (0, 2, (0, 2, 1, 3, 4))],
    [(0, 1, (0, 4, 5, 3, 1)), (0, 1, (0, 4, 5, 3, 1))],
    [(0, 2, (0, 1)), (0, 2, (0, 1))],
    [(0, 2, (3, 4, 1, 0, 2)), (0, 2, (3, 4, 1, 0, 2))],
    [(0, 3, (0, 2, 1, 4, 3)), (0, 3, (0, 2, 1, 4, 3))],
    [(0, 0, (0, 1)), (0, 0, (0, 1))],
    [(1, 3, (4, 2, 0, 3, 1)), (1, 3, (4, 2, 0, 3, 1))],
    [(0, 3, (0, 4, 3, 1, 2)), (0, 3, (0, 4, 3, 1, 2))],
    [(0, 2, (0, 1)), (0, 2, (0, 1))],
    [(0, 1, (2, 5, 0, 1, 4)), (0, 1, (2, 5, 0, 1, 4))],
    [(0, 2, (0, 4, 6, 2, 1)), (0, 2, (0, 4, 6, 2, 1))],
    [(0, 1, (0, 1)), (0, 1, (0, 1))],
    [(2, 2, (3, 4, 0, 1, 2)), (2, 2, (3, 4, 0, 1, 2))],
    [(0, 1, (0, 4, 3, 2, 1)), (0, 3, (0, 5, 2, 3, 1))],
    [(1, 0, (0, 1)), (1, 1, (2, 0))],
    [(0, 1, (2, 3, 0, 1, 4)), (0, 1, (2, 3, 0, 1, 4))],
    [(1, 1, (0, 3, 1, 6, 2)), (1, 1, (0, 3, 1, 6, 2))],
]


def test_separator_pair_witnesses():
    for ann, pinned in zip(separator_pair_cases(), SEPARATOR_PAIR_WITNESSES, strict=True):
        for objective, want in zip(Objective, pinned):
            cfg = SolverConfig(objective=objective)
            if isinstance(want, str):
                with pytest.raises(NoFeasibleAllocation):
                    solve_separator(ann, cfg)
                continue
            r = solve_separator(ann, cfg)
            assert (r.min_envy, r.happiness, r.allocation.assignment) == want
            if ann.base.n_agents == 2:
                assert r.guesses_explored == 0  # two agents: no guess
            feasible_ok, rep = evaluate_annotated(ann, r.allocation)
            assert feasible_ok and (rep.n_envious, rep.n_happy) == want[:2]


def test_separator_pair_witnesses_are_optimal():
    for ann, (envy_row, happy_row) in zip(separator_pair_cases(), SEPARATOR_PAIR_WITNESSES,
                                          strict=True):
        want = annotated_optimum(ann, happy=True)
        if want is None:
            assert envy_row == happy_row == "NoFeasibleAllocation"
            continue
        assert envy_row[0] == want[0]
        assert happy_row[:2] == want


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
        "clique-vc-split": lambda g, k: gen_clique_vc_split(g, k, 1),
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
    ("petersen", [(4, 4, 448), (4, 4, 448)]),
    ("random-regular:12:3:1", [(3, 5, 871), (3, 5, 871)]),
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


def disjoint_edges(k):
    """k disjoint edges, each agent preferring its own house: the minimum
    cover has k agents, and searching for it takes time exponential in k."""
    return Instance(2 * k, 2 * k, [(2 * i, 2 * i + 1) for i in range(k)],
                    [[a] for a in range(2 * k)])


def test_vc_xp_searches_only_covers_that_fit_the_guess_limit():
    # On 2,400 houses a 2-agent cover's guess space, 2400·2399·2^2, is over
    # the default limit, so no cover above one agent is searched for.
    cfg = SolverConfig(deadline=time.monotonic() + 2.0)
    with pytest.raises(BudgetExceeded, match="guess space 23030400 exceeds limit 16777216"):
        solve_vertex_cover_xp(disjoint_edges(1200), cfg=cfg)
    r = solve_vertex_cover_xp(disjoint_edges(3), cfg=SolverConfig(guess_limit=None))
    assert (r.min_envy, r.guesses_explored) == (0, math.perm(6, 3) << 3)


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
        [(2, 2, (2, 0, 3, 4, 1, 5), 5760), (2, 2, (2, 0, 3, 4, 1, 5), 5760)],
        [(2, 2, (0, 4, 2, 3, 1), 480), (2, 2, (0, 4, 2, 3, 1), 480)],
        [(0, 0, (1, 4, 2, 3), 80), (0, 0, (1, 4, 2, 3), 80)],
        [(0, 0, (1, 2, 6, 5, 3, 4), 13440), (0, 0, (1, 2, 6, 5, 3, 4), 13440)],
        [(0, 0, (5, 1, 2, 3, 4), 960), (0, 0, (5, 1, 2, 3, 4), 960)],
        [(0, 0, (1, 2), 6), (0, 0, (1, 2), 6)],
        [(1, 1, (1, 2, 0, 3), 48), (1, 1, (1, 2, 0, 3), 48)],
        [(0, 1, (0,), 1), (0, 1, (0,), 1)],
        [(0, 1, (0,), 1), (0, 1, (0,), 1)],
        [(0, 0, (1,), 1), (0, 1, (0,), 1)],
        [(0, 0, (1, 4, 2, 3), 80), (0, 0, (1, 4, 2, 3), 80)],
        [(0, 0, (1, 2, 6, 5, 3, 4), 13440), (0, 0, (1, 2, 6, 5, 3, 4), 13440)],
        [(0, 0, (3, 0, 2), 8), (0, 1, (0, 3, 2), 8)],
        [(2, 1, (0, 1, 2, 3, 4), 480), (2, 1, (0, 1, 2, 3, 4), 480)],
        [(1, 2, (1, 3, 0, 2), 48), (1, 2, (1, 3, 0, 2), 48)],
        [(1, 1, (0, 3, 4, 1, 2), 80), (1, 1, (0, 4, 3, 1, 2), 80)],
        [(0, 0, (1, 2), 6), (0, 0, (1, 2), 6)],
        [(1, 2, (0, 4, 1, 2), 80), (1, 2, (0, 4, 1, 2), 80)],
        [(1, 2, (0, 1, 2), 24), (1, 2, (0, 1, 2), 24)],
        [(0, 1, (0,), 1), (0, 1, (0,), 1)],
        [(0, 0, (2, 1), 1), (0, 1, (0, 2), 1)],
        [(1, 2, (1, 0, 3), 8), (1, 2, (1, 0, 3), 8)],
        [(3, 1, (1, 2, 0, 3, 4, 5), 5760), (3, 1, (1, 2, 0, 3, 4, 5), 5760)],
        [(0, 0, (5, 1, 4, 2, 3), 960), (0, 0, (5, 1, 4, 2, 3), 960)],
        [(3, 1, (0, 1, 2, 3), 192), (3, 1, (0, 1, 2, 3), 192)],
        [(1, 1, (2, 6, 5, 1, 4, 3), 1680), (1, 1, (2, 6, 5, 1, 4, 3), 1680)],
        [(0, 1, (1, 0), 1), (0, 1, (0, 1), 1)],
        [(0, 0, (1,), 1), (0, 1, (0,), 1)],
        [(1, 1, (3, 2, 0), 8), (1, 2, (3, 1, 0), 8)],
        [(0, 1, (0,), 1), (0, 1, (0,), 1)],
        [(0, 0, (1, 2, 3, 5, 4), 960), (0, 0, (1, 2, 3, 5, 4), 960)],
        [(2, 2, (2, 1, 0, 3, 5, 4), 5760), (2, 2, (2, 1, 0, 3, 5, 4), 5760)],
        [(0, 1, (3, 1, 2), 8), (0, 2, (3, 1, 0), 8)],
        [(2, 2, (0, 3, 2, 1), 48), (2, 2, (0, 3, 2, 1), 48)],
        [(0, 0, (1, 6, 2, 5, 3, 4), 1680), (0, 0, (1, 6, 2, 5, 3, 4), 1680)],
        [(0, 1, (1, 0), 4), (0, 1, (1, 0), 4)],
        [(2, 1, (0, 1, 2, 4, 3), 480), (2, 1, (0, 1, 2, 4, 3), 480)],
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


def test_envy_guess_on_petersen_halfsep():
    # Every house is handed out and all agents prefer one set, so Hall's
    # condition is tight and the Hall test of each choice prunes most here.
    inst = gen_halfsep_3regular(named_source_graph("petersen"), 2).instance
    rows = [solve_envy_guess(inst, SolverConfig(objective=objective)) for objective in Objective]
    got = [(r.min_envy, r.happiness, r.allocation.assignment, r.guesses_explored) for r in rows]
    assert got == [(4, 4, (3, 2, 9, 1, 8, 7, 6, 5, 0, 4), 9765625)] * 2


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


# Inputs whose searches run over a thousand steps deep: the key floor's
# matching augments along a path through all 1,200 agents (agent a prefers
# a and a+1, the last agent house 0), and the separator's first part
# takes 1,200 of 2,400 houses that every agent prefers.
DEEP = {
    "chain-1200": Instance(1200, 1200, [], [[a, a + 1] for a in range(1199)] + [[0]]),
    "pairs-2400": Instance(2400, 2400, [(a, a + 1) for a in range(0, 2400, 2)],
                           [range(1200)] * 2400),
}


@pytest.mark.parametrize("label, happy, want", [
    ("chain-1200", False, ("vc-xp", 0, 2, 1)),
    ("chain-1200", True, ("vc-xp", 0, 1200, 1)),
    ("pairs-2400", False, ("separator", 0, 1200, 1199)),
    ("pairs-2400", True, ("separator", 0, 1200, 1199)),
])
def test_auto_solves_inputs_a_thousand_steps_deep(label, happy, want):
    inst = DEEP[label]
    r = solve(inst, "auto", HAPPY if happy else SolverConfig())
    assert (r.solver_id, r.min_envy, r.happiness, r.guesses_explored) == want
    check_witness(inst, r)


def _edgeless(n):
    """n agents with no edges, agent a preferring house a: the first
    assignment of brute force's walk is at the key floor under both
    objectives, and so is envy-guess's first guess under ``envy``."""
    return Instance(n, n, [], [[a] for a in range(n)])


@pytest.mark.parametrize("happy", [False, True])
def test_brute_walks_1200_agents_to_its_first_assignment(happy):
    inst = _edgeless(1200)
    cfg = SolverConfig(objective=HAPPY.objective if happy else Objective.MIN_ENVY,
                       guess_limit=None)
    r = solve_bruteforce(inst, cfg)
    assert (r.min_envy, r.happiness) == (0, 1200)
    assert r.allocation.assignment == tuple(range(1200))
    assert r.guesses_explored == math.factorial(1200)


@pytest.mark.parametrize("label", ["brute", "envy-guess"])
def test_guess_walks_do_not_recurse_per_agent(label):
    # 300 levels deep under a recursion limit of 200. Envy-guess runs under
    # ``envy`` only: under ``envy-happy`` its first guess leaves every agent
    # unhappy, and it takes about 10 s to reach the floor.
    inst = _edgeless(300)
    objectives = list(Objective) if label == "brute" else [Objective.MIN_ENVY]
    limit = sys.getrecursionlimit()
    sys.setrecursionlimit(200)
    try:
        got = [dict(ALL_SOLVERS)[label](inst, SolverConfig(objective=o, guess_limit=None))
               for o in objectives]
    finally:
        sys.setrecursionlimit(limit)
    for r in got:
        assert r.min_envy == 0
        check_witness(inst, r)


def test_envy_guess_checks_the_deadline_while_it_builds_its_tables():
    # Its choice tables hold about 4n masks of n(m+1) bits: 860 MB and
    # about 4 s on this input, all built before the first node.
    inst = _edgeless(1200)
    start = time.monotonic()
    with pytest.raises(SolveTimeout):
        solve_envy_guess(inst, SolverConfig(guess_limit=None, deadline=start + 0.2))
    assert time.monotonic() - start < 1.0


def test_solve_unknown_algorithm():
    with pytest.raises(UnknownAlgorithm):
        solve(TRIANGLE, "magic")


def test_solve_explicit_labels():
    for algo in ("brute", "envy-guess", "separator", "vc-xp"):
        assert solve(TRIANGLE, algo).min_envy == 2


@pytest.mark.parametrize("label", ["brute", "d1", "envy-guess", "separator", "vc-xp", "auto"])
def test_solves_leave_no_cyclic_garbage(label):
    # A reference cycle would keep a solve's tables alive until the next
    # cyclic collection. d1 needs one preferred house per agent.
    prefs = [[0], [1], [2], [3], [5]] if label == "d1" else [[0, 1], [1], [2, 3], [3], [0, 5]]
    inst = Instance(5, 6, [(0, 1), (1, 2), (2, 3), (3, 4)], prefs)
    gc.collect()
    gc.disable()
    try:
        assert solve(inst, label, HAPPY).solver_id == ("vc-xp" if label == "auto" else label)
        assert gc.collect() == 0
    finally:
        gc.enable()


# -- cross-solver properties -------------------------------------------------

def test_exhaustive_small_oracle_agreement():
    # All edge sets for n <= 4 (plus sampled ones at n = 5), preference
    # sets with d <= 2 sampled per edge set. Then instances whose agents
    # all prefer one house set: with m = n, where Hall's condition is tight
    # as in the halfsep reductions, with spare houses, and at n = m = 8,
    # where envy-guess packs its masks into 8 * 9 = 72 bits.
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
    instances = []
    for n, edges, samples in cases:
        for _ in range(samples):
            m = rng.randint(n, min(n + 2, 6))
            prefs = [rng.sample(range(m), rng.randint(0, 2)) for _ in range(n)]
            instances.append(Instance(n, m, edges, prefs))
    for n, spare, samples in [(4, 0, 8), (5, 0, 8), (6, 0, 6), (4, 1, 4), (5, 2, 4),
                              (6, 1, 4), (8, 0, 2)]:
        for _ in range(samples):
            edges = [e for e in combinations(range(n), 2) if rng.random() < 0.5]
            shared = rng.sample(range(n + spare), rng.randint(1, n - 1))
            instances.append(Instance(n, n + spare, edges, [shared] * n))
    for inst in instances:
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
    vc_xp = dict(ALL_SOLVERS)["vc-xp"]
    happy = Objective.MIN_ENVY_THEN_MAX_HAPPY
    runs = [(inst, fn, happy) for inst in instances
            for fn in (solve_bruteforce, solve_envy_guess, vc_xp)]
    # 13 houses: vc-xp cuts the first cover agent's houses into 8 ranges for
    # 2 workers and 12 for 3, neither evenly. Under envy-happy the optimum
    # gives that agent house 12 or 7, in a later range; under envy the
    # lowest-ranked of several optima must win.
    star = Instance(3, 13, [(0, 1), (0, 2)], [[12], [0], [0]])
    path = Instance(5, 13, [(0, 2), (0, 3), (1, 3), (1, 4)], [[7, 9], [8], [9], [8, 9], [7]])
    runs += [(star, vc_xp, happy), (path, vc_xp, happy), (path, vc_xp, Objective.MIN_ENVY)]
    for inst, fn, objective in runs:
        results = [fn(inst, SolverConfig(workers=w, objective=objective)) for w in (1, 2, 3)]
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


def _own_house_path(n: int) -> Instance:
    """A path of n agents where agent a prefers house a, with one spare
    house: its first envy-guess support already holds an optimum at the
    floor."""
    return Instance(n, n + 1, [(a, a + 1) for a in range(n - 1)], [[a] for a in range(n)])


def test_envy_guess_stops_at_the_floor():
    # Without the stop, walking the remaining 2^20 supports takes about 5 s.
    inst = _own_house_path(20)
    want = {
        Objective.MIN_ENVY: (0, 0, (19, 18, 17, 16, 15, 14, 13, 9, 10, 11, 12, 8, 7, 6, 5,
                                    4, 3, 2, 1, 0)),
        Objective.MIN_ENVY_THEN_MAX_HAPPY: (0, 20, tuple(range(20))),
    }
    for objective, row in want.items():
        cfg = SolverConfig(objective=objective, guess_limit=None,
                           deadline=time.monotonic() + 0.5)
        r = solve_envy_guess(inst, cfg)
        assert (r.min_envy, r.happiness, r.allocation.assignment) == row
        assert r.guesses_explored == 618_475_290_624  # 3^2 * 4^18


def test_envy_guess_floor_stop_gives_the_same_results_for_every_worker_count():
    inst = _own_house_path(12)
    for objective in Objective:
        results = {
            (r.min_envy, r.happiness, r.allocation.assignment, r.guesses_explored)
            for r in (solve_envy_guess(inst, SolverConfig(workers=w, objective=objective))
                      for w in (1, 2, 3))
        }
        assert len(results) == 1, objective


def test_vc_xp_stops_at_the_floor():
    # K5,5 with 16 houses, where cover agent a prefers house a: the first
    # cover tuple is at the floor, and walking the other tuples takes 2-6 s.
    # When every agent can be happy (own houses), the prefix bound alone
    # prunes the rest; when the rest agents all prefer house 5, at most one
    # of them is happy, and only the floor stop ends the search early.
    edges = [(a, b) for a in range(5) for b in range(5, 10)]
    cases = [
        ([[a] for a in range(10)], Objective.MIN_ENVY, (0, 5, (0, 1, 2, 3, 4, 15, 14, 13, 12, 11))),
        ([[a] for a in range(10)], Objective.MIN_ENVY_THEN_MAX_HAPPY, (0, 10, tuple(range(10)))),
        ([[a] for a in range(5)] + [[5]] * 5, Objective.MIN_ENVY_THEN_MAX_HAPPY,
         (0, 6, (0, 1, 2, 3, 4, 5, 15, 14, 13, 12))),
    ]
    for prefs, objective, row in cases:
        cfg = SolverConfig(objective=objective, deadline=time.monotonic() + 0.2)
        r = solve_vertex_cover_xp(Instance(10, 16, edges, prefs), None, cfg)
        assert (r.min_envy, r.happiness, r.allocation.assignment) == row
        assert r.guesses_explored == 16_773_120  # perm(16, 5) * 2^5


def test_brute_never_starts_a_pool(monkeypatch):
    # Every agent of this path prefers its own house, so the first
    # assignment is at the floor under envy-happy.
    inst = Instance(8, 9, [(a, a + 1) for a in range(7)], [[a] for a in range(8)])
    want = solve_bruteforce(inst, HAPPY)
    want_eg = solve_envy_guess(inst, HAPPY)

    def no_pool(*args, **kwargs):
        raise AssertionError("a one-range solve started a process pool")

    # ``_search`` imports the pool class from here when it needs one.
    monkeypatch.setattr("concurrent.futures.ProcessPoolExecutor", no_pool)
    two = SolverConfig(workers=2, objective=Objective.MIN_ENVY_THEN_MAX_HAPPY)
    assert solve_bruteforce(inst, two) == want
    # Envy-guess carries one incumbent and one floor stop across its
    # supports, so it is one in-order search too.
    assert solve_envy_guess(inst, two) == want_eg
    # vc-xp with an empty cover has a single top-level choice: no pool either.
    edgeless = Instance(3, 4, [], [[0], [0], [1]])
    got = solve_vertex_cover_xp(edgeless, None, SolverConfig(workers=2))
    assert got == solve_vertex_cover_xp(edgeless, None, SolverConfig())


# Untimed, on a shared 2-core host, brute takes about 4 s (no assignment
# of the 10-clique reaches its floor), envy-guess about 0.5-0.7 s, and
# vc-xp more than 30 s on clique-bip-d2 k5 k=4 (30 agents, 200 edges).
# Envy-guess spends most of its time inside one support here, so only the
# check every 4,096 nodes stops it in time.
@pytest.mark.parametrize("label", ["brute", "envy-guess", "vc-xp"])
def test_guess_solvers_honour_the_deadline(label):
    if label == "brute":
        inst = Instance(10, 10, list(combinations(range(10), 2)), [[0]] * 10)
    elif label == "envy-guess":
        inst = _reduction("clique-vc-bip", "k4", 3)
    else:
        inst = _reduction("clique-bip-d2", "k5", 4)
    start = time.monotonic()
    with pytest.raises(SolveTimeout):
        dict(ALL_SOLVERS)[label](inst, SolverConfig(guess_limit=None, deadline=start + 0.05))
    assert time.monotonic() - start < 1.0


def test_all_solvers_reject_infeasible():
    # Infeasibility is reported ahead of the budget, even of a one-guess one.
    for inst in (Instance(3, 2, [], [[], [], []]),
                 Instance(3, 2, [(0, 1), (1, 2)], [[0], [0, 1], [1]])):
        for name, fn in ALL_SOLVERS:
            for cfg in (SolverConfig(), SolverConfig(guess_limit=1)):
                with pytest.raises(InstanceInfeasible):
                    fn(inst, cfg)


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
        want_count = math.perm(inst.n_houses, len(cover)) << len(cover)
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


def _vc_leaf_cases(inst, cover):
    """Which of four leaf cases of vc-xp the guess space of ``inst`` and
    ``cover`` holds, from the definitions: a cover placement with two or
    more forbidders (unhappy cover agents, not envious within the cover,
    with a rest neighbour and a liked remaining house), and a choice of
    forbidders that restricts one rest agent several times, that restricts
    every rest agent, or that leaves a rest agent no remaining house."""
    pref = [set(p) for p in inst.preferences]
    nbrs = [set(nb) for nb in inst.neighbors]
    rest = set(range(inst.n_agents)) - set(cover)
    found = set()
    for phi in permutations(range(inst.n_houses), len(cover)):
        held = dict(zip(cover, phi))
        remaining = set(range(inst.n_houses)) - set(phi)
        forbidders = [
            a for a in cover
            if held[a] not in pref[a] and nbrs[a] & rest and pref[a] & remaining
            and not any(held.get(c) in pref[a] for c in nbrs[a])
        ]
        if len(forbidders) >= 2:
            found.add("two or more forbidders")
        for r in range(1, len(forbidders) + 1):
            for chosen in combinations(forbidders, r):
                by = {b: [a for a in chosen if b in nbrs[a]] for b in rest}
                if any(len(agents) >= 2 for agents in by.values()):
                    found.add("rest agent restricted by several")
                if all(by.values()):
                    found.add("every rest agent restricted")
                if any(remaining <= set().union(*(pref[a] for a in agents))
                       for agents in by.values()):
                    found.add("rest agent with no house")
    return found


# vc-xp on 120 ``restricted_cover_instance`` draws (seed 2026) with the
# drawn cover: (min_envy, happiness, allocation, guesses_explored) per
# objective (envy, envy-happy).
VC_XP_RESTRICTED = [
    [(0, 3, (1, 2, 0), 24), (0, 3, (1, 2, 0), 24)],
    [(1, 2, (2, 0, 1), 24), (1, 2, (2, 0, 1), 24)],
    [(0, 2, (3, 4, 5, 2, 0, 1), 960), (0, 3, (3, 4, 1, 5, 0, 2), 960)],
    [(0, 2, (0, 1, 3), 48), (0, 3, (0, 1, 2), 48)],
    [(0, 1, (1, 3, 2, 0), 48), (0, 1, (1, 3, 2, 0), 48)],
    [(1, 1, (5, 0, 4, 1, 2), 960), (1, 2, (5, 0, 4, 3, 1), 960)],
    [(0, 2, (3, 1, 0, 2), 48), (0, 3, (1, 3, 2, 0), 48)],
    [(0, 2, (6, 0, 1, 2, 5, 3), 1680), (0, 3, (4, 0, 1, 2, 5, 6), 1680)],
    [(1, 2, (2, 3, 0, 1), 48), (1, 2, (2, 3, 0, 1), 48)],
    [(1, 2, (0, 1, 3, 5, 2), 960), (1, 4, (1, 2, 3, 0, 4), 960)],
    [(0, 4, (2, 0, 3, 1), 48), (0, 4, (2, 0, 3, 1), 48)],
    [(0, 0, (1, 0, 2), 24), (0, 0, (1, 0, 2), 24)],
    [(0, 0, (3, 0, 1, 2), 480), (0, 2, (1, 0, 4, 3), 480)],
    [(0, 2, (2, 1, 0), 24), (0, 2, (2, 1, 0), 24)],
    [(0, 2, (4, 0, 1, 2, 5), 960), (0, 2, (4, 0, 1, 2, 5), 960)],
    [(0, 2, (3, 0, 1), 48), (0, 3, (3, 0, 2), 48)],
    [(0, 2, (3, 2, 0, 1), 80), (0, 4, (3, 4, 1, 2), 80)],
    [(1, 3, (1, 0, 2, 5, 4), 960), (1, 3, (1, 0, 2, 5, 4), 960)],
    [(0, 2, (0, 1, 4, 5, 2, 3), 960), (0, 4, (0, 2, 5, 3, 4, 1), 960)],
    [(0, 1, (1, 0, 2), 24), (0, 2, (1, 2, 0), 24)],
    [(0, 3, (3, 0, 1, 4, 2), 480), (0, 4, (1, 0, 3, 4, 2), 480)],
    [(0, 3, (1, 0, 3, 2), 48), (0, 4, (0, 2, 1, 3), 48)],
    [(1, 2, (1, 0, 3), 48), (1, 2, (1, 0, 3), 48)],
    [(0, 2, (3, 1, 0, 2), 48), (0, 2, (3, 1, 0, 2), 48)],
    [(0, 3, (1, 3, 4, 2, 0), 80), (0, 4, (1, 3, 2, 4, 0), 80)],
    [(0, 2, (0, 1, 3), 48), (0, 3, (0, 2, 3), 48)],
    [(0, 1, (0, 3, 1), 48), (0, 3, (1, 3, 0), 48)],
    [(0, 2, (0, 1, 2, 3), 80), (0, 3, (1, 0, 4, 3), 80)],
    [(1, 2, (0, 4, 5, 1, 2, 3), 960), (1, 2, (0, 4, 5, 1, 2, 3), 960)],
    [(0, 2, (1, 0, 3), 48), (0, 3, (2, 0, 3), 48)],
    [(0, 3, (1, 0, 4, 2), 480), (0, 3, (1, 0, 4, 2), 480)],
    [(0, 2, (1, 6, 5, 0, 4, 3), 1680), (0, 4, (2, 5, 6, 0, 1, 3), 1680)],
    [(0, 3, (4, 0, 1, 2, 3), 480), (0, 3, (4, 0, 1, 2, 3), 480)],
    [(0, 2, (1, 0, 2, 4, 3), 480), (0, 4, (1, 0, 2, 3, 4), 480)],
    [(2, 2, (5, 3, 2, 4, 0, 1), 960), (2, 2, (5, 3, 2, 4, 0, 1), 960)],
    [(1, 2, (0, 5, 2, 1, 4, 3), 960), (1, 2, (0, 5, 2, 1, 4, 3), 960)],
    [(0, 4, (0, 5, 3, 4, 1, 2), 120), (0, 4, (0, 5, 3, 4, 1, 2), 120)],
    [(0, 0, (3, 0, 1), 48), (0, 2, (3, 1, 0), 48)],
    [(0, 2, (1, 0, 2, 3, 5), 960), (0, 3, (1, 0, 4, 3, 5), 960)],
    [(0, 1, (1, 0, 4, 3, 5, 2), 120), (0, 2, (1, 4, 0, 5, 3, 2), 120)],
    [(0, 1, (1, 3, 4, 0), 480), (0, 1, (1, 3, 4, 0), 480)],
    [(0, 4, (4, 0, 3, 2, 1), 80), (0, 5, (1, 0, 3, 4, 2), 80)],
    [(2, 2, (0, 1, 3, 6, 2, 5), 1680), (2, 2, (0, 1, 3, 6, 2, 5), 1680)],
    [(0, 2, (0, 1, 3), 48), (0, 3, (0, 2, 3), 48)],
    [(0, 2, (3, 0, 5, 4, 2), 120), (0, 3, (3, 0, 1, 5, 2), 120)],
    [(0, 2, (1, 5, 0, 6, 2, 4), 1680), (0, 3, (5, 4, 0, 6, 1, 3), 1680)],
    [(1, 3, (0, 2, 3, 1, 4), 480), (1, 4, (1, 0, 3, 2, 4), 480)],
    [(2, 2, (0, 5, 3, 2, 4, 1), 960), (2, 3, (0, 3, 1, 2, 5, 4), 960)],
    [(1, 2, (0, 2, 1, 3), 48), (1, 2, (0, 2, 1, 3), 48)],
    [(0, 2, (0, 1, 5, 3, 2), 120), (0, 4, (3, 1, 2, 4, 0), 120)],
    [(0, 2, (0, 1, 3, 2), 48), (0, 4, (3, 1, 0, 2), 48)],
    [(0, 2, (4, 5, 0, 3, 1), 120), (0, 3, (5, 1, 2, 3, 0), 120)],
    [(0, 2, (4, 0, 5, 1, 2), 120), (0, 3, (3, 0, 5, 4, 2), 120)],
    [(0, 2, (0, 1, 3), 48), (0, 3, (0, 3, 1), 48)],
    [(0, 4, (1, 3, 2, 0, 4), 80), (0, 4, (1, 3, 2, 0, 4), 80)],
    [(0, 1, (4, 0, 5, 1, 3), 120), (0, 5, (4, 1, 3, 0, 2), 120)],
    [(0, 4, (2, 3, 0, 1), 48), (0, 4, (2, 3, 0, 1), 48)],
    [(0, 3, (0, 3, 2, 5, 4), 960), (0, 3, (0, 3, 2, 5, 4), 960)],
    [(0, 0, (0, 4, 3, 1), 80), (0, 2, (1, 3, 4, 0), 80)],
    [(0, 2, (0, 2, 3, 1), 48), (0, 4, (2, 0, 3, 1), 48)],
    [(0, 2, (4, 0, 5, 6, 2, 1), 1680), (0, 4, (2, 0, 1, 6, 3, 4), 1680)],
    [(0, 3, (0, 3, 1, 4, 2), 80), (0, 3, (0, 2, 1, 4, 3), 80)],
    [(0, 2, (0, 3, 2), 48), (0, 3, (0, 1, 2), 48)],
    [(0, 2, (0, 2, 1), 48), (0, 2, (0, 2, 1), 48)],
    [(0, 3, (2, 3, 0, 1, 4), 80), (0, 3, (2, 3, 0, 1, 4), 80)],
    [(1, 2, (4, 2, 0, 1, 3), 480), (1, 2, (4, 2, 0, 1, 3), 480)],
    [(0, 1, (0, 1, 3), 48), (0, 2, (0, 2, 1), 48)],
    [(0, 2, (0, 5, 1, 4, 3), 960), (0, 2, (0, 4, 1, 5, 3), 960)],
    [(0, 1, (2, 0, 1), 48), (0, 2, (3, 1, 0), 48)],
    [(0, 3, (0, 3, 2, 1), 480), (0, 4, (1, 3, 0, 2), 480)],
    [(0, 3, (1, 2, 3, 0), 480), (0, 3, (1, 2, 3, 0), 480)],
    [(0, 1, (1, 2, 3, 4, 5, 0), 1680), (0, 4, (6, 5, 2, 0, 4, 1), 1680)],
    [(0, 2, (2, 1, 3, 4, 0), 80), (0, 2, (2, 1, 3, 4, 0), 80)],
    [(0, 1, (4, 0, 1, 3, 2), 80), (0, 3, (0, 1, 2, 3, 4), 80)],
    [(1, 3, (0, 1, 4, 2, 3), 480), (1, 3, (0, 1, 4, 2, 3), 480)],
    [(0, 3, (4, 0, 5, 2, 3, 1), 120), (0, 3, (4, 0, 5, 2, 3, 1), 120)],
    [(0, 2, (0, 2, 5, 3, 1, 4), 960), (0, 2, (0, 2, 5, 3, 1, 4), 960)],
    [(1, 1, (5, 0, 1, 3, 2), 120), (1, 1, (5, 0, 1, 3, 2), 120)],
    [(0, 1, (2, 0, 1), 24), (0, 2, (1, 0, 2), 24)],
    [(0, 3, (1, 2, 4, 0, 3, 5), 120), (0, 3, (1, 2, 4, 0, 3, 5), 120)],
    [(0, 2, (4, 3, 0, 1, 5), 120), (0, 3, (1, 4, 0, 5, 3), 120)],
    [(0, 1, (5, 0, 2, 4, 1), 120), (0, 2, (5, 0, 2, 4, 3), 120)],
    [(0, 3, (0, 2, 5, 1, 3, 4), 120), (0, 3, (0, 2, 5, 1, 3, 4), 120)],
    [(0, 3, (0, 1, 3), 48), (0, 3, (0, 1, 3), 48)],
    [(0, 2, (0, 1, 3), 48), (0, 3, (3, 0, 1), 48)],
    [(1, 2, (0, 2, 1), 24), (1, 2, (0, 2, 1), 24)],
    [(0, 3, (3, 1, 2, 0, 4), 480), (0, 3, (0, 1, 2, 3, 4), 480)],
    [(0, 3, (0, 1, 2, 3), 192), (0, 3, (0, 1, 2, 3), 192)],
    [(0, 3, (1, 0, 3, 2), 48), (0, 4, (1, 2, 3, 0), 48)],
    [(0, 2, (3, 0, 4, 1, 2), 480), (0, 2, (3, 0, 4, 1, 2), 480)],
    [(0, 2, (0, 3, 2, 5, 4), 120), (0, 2, (0, 3, 2, 5, 4), 120)],
    [(0, 2, (0, 2, 1, 4, 3), 480), (0, 2, (0, 2, 1, 4, 3), 480)],
    [(0, 3, (3, 4, 0, 1, 2), 80), (0, 4, (2, 4, 0, 1, 3), 80)],
    [(0, 1, (2, 5, 1, 4, 3), 120), (0, 2, (2, 5, 0, 4, 3), 120)],
    [(0, 4, (0, 1, 4, 2, 3), 80), (0, 4, (0, 1, 4, 2, 3), 80)],
    [(0, 3, (2, 0, 1), 24), (0, 3, (2, 0, 1), 24)],
    [(1, 2, (1, 0, 2, 4, 3), 480), (1, 2, (1, 0, 2, 4, 3), 480)],
    [(0, 4, (3, 2, 4, 0, 1, 5), 960), (0, 4, (3, 2, 4, 0, 1, 5), 960)],
    [(0, 2, (4, 1, 0, 2), 80), (0, 2, (4, 1, 0, 2), 80)],
    [(0, 0, (1, 0, 2, 5, 4), 960), (0, 2, (3, 5, 0, 2, 4), 960)],
    [(0, 1, (3, 4, 0, 1), 80), (0, 3, (4, 1, 0, 3), 80)],
    [(0, 2, (1, 3, 4, 2, 0, 5), 120), (0, 3, (1, 5, 0, 3, 2, 4), 120)],
    [(0, 2, (4, 0, 3, 2, 1), 80), (0, 2, (4, 0, 3, 2, 1), 80)],
    [(0, 2, (6, 0, 5, 4, 3, 1), 168), (0, 3, (4, 0, 6, 3, 5, 1), 168)],
    [(0, 3, (1, 5, 0, 4, 2, 3), 120), (0, 3, (1, 5, 0, 4, 2, 3), 120)],
    [(1, 1, (6, 0, 5, 1, 3, 2), 1680), (1, 2, (6, 0, 4, 1, 3, 2), 1680)],
    [(0, 2, (0, 1, 4, 6, 5, 3), 1680), (0, 4, (0, 3, 4, 2, 6, 5), 1680)],
    [(0, 5, (5, 0, 3, 1, 4, 6), 168), (0, 5, (5, 0, 3, 1, 4, 6), 168)],
    [(0, 3, (6, 5, 4, 2, 0, 1), 168), (0, 4, (6, 5, 3, 2, 0, 1), 168)],
    [(1, 2, (2, 0, 1, 3), 48), (1, 2, (2, 0, 1, 3), 48)],
    [(1, 2, (0, 1, 3, 2), 192), (1, 2, (0, 1, 3, 2), 192)],
    [(0, 2, (6, 4, 0, 1, 5, 2), 1680), (0, 2, (6, 4, 0, 1, 5, 2), 1680)],
    [(0, 1, (4, 1, 2, 3, 0), 120), (0, 3, (0, 5, 2, 1, 4), 120)],
    [(0, 2, (3, 2, 0, 4), 480), (0, 2, (3, 2, 0, 4), 480)],
    [(0, 2, (0, 3, 1, 4, 2), 960), (0, 3, (0, 3, 2, 5, 1), 960)],
    [(0, 3, (3, 1, 0, 2, 5, 4), 960), (0, 4, (4, 1, 0, 2, 5, 3), 960)],
    [(0, 2, (0, 1, 3), 48), (0, 3, (0, 2, 3), 48)],
    [(0, 2, (2, 0, 1, 3), 48), (0, 3, (2, 1, 0, 3), 48)],
    [(1, 1, (0, 6, 4, 1, 2, 3), 1680), (1, 3, (1, 6, 5, 2, 0, 4), 1680)],
    [(0, 1, (2, 0, 1), 24), (0, 3, (1, 0, 2), 24)],
]


def test_vc_xp_restricted_rest_agents_keep_optimum_and_witnesses(monkeypatch):
    # The one-worker solves also count their min-cost matchings and those
    # that find no assignment, pinned with the witnesses: the leaf's bounds
    # and filters decide which guesses get one.
    engine = haan.solvers.min_cost_saturating_assignment
    matched = []

    def counting(rows, deadline):
        result = engine(rows, deadline)
        matched.append(result is not None)
        return result

    monkeypatch.setattr("haan.solvers.min_cost_saturating_assignment", counting)
    rng = random.Random(2026)
    seen = dict.fromkeys(("two or more forbidders", "rest agent restricted by several",
                          "every rest agent restricted", "rest agent with no house"), 0)
    for trial, want in enumerate(VC_XP_RESTRICTED):
        inst, cover = restricted_cover_instance(rng)
        for case in _vc_leaf_cases(inst, cover):
            seen[case] += 1
        got = []
        for objective in Objective:
            happy = objective is Objective.MIN_ENVY_THEN_MAX_HAPPY
            ref_envy, ref_happy, _ = brute_optimum(inst, happy=happy)
            runs = [
                solve_vertex_cover_xp(inst, cover, SolverConfig(objective=objective, workers=w))
                for w in (1, 2)
            ]
            for r in runs:
                assert r.min_envy == ref_envy, (trial, objective)
                if happy:
                    assert r.happiness == ref_happy, trial
            rows = {(r.min_envy, r.happiness, r.allocation.assignment, r.guesses_explored)
                    for r in runs}
            assert len(rows) == 1, (trial, objective)
            got.extend(rows)
        assert got == want, trial
    assert (len(matched), matched.count(False)) == (1410, 188)
    assert all(count >= 10 for count in seen.values()), seen


# Deep vc-xp searches (clique-vc-split at t=1): (min_envy, happiness,
# allocation, guesses_explored) per objective (envy, envy-happy).
VC_XP_DEEP = {
    ("clique-vc-split", "k4", 3): [(3, 3, (0, 3, 1, 6, 12, 11, 10, 9, 8, 7), 274560)] * 2,
    ("clique-vc-split", "k4", 2): [(2, 1, (0, 6, 7, 8, 14, 13, 12, 11, 10, 9), 524160)] * 2,
    ("clique-bip-d2", "k3", 2): [(3, 1, (9, 8, 7, 6, 5, 1, 0, 3, 4), 5760),
                                 (3, 3, (0, 9, 1, 8, 2, 7, 3, 4, 5), 5760)],
}


@pytest.mark.parametrize("workers", [1, 2])
@pytest.mark.parametrize("case", list(VC_XP_DEEP), ids=lambda case: ":".join(map(str, case)))
def test_vc_xp_deep_search_witnesses_and_guess_counts(case, workers):
    inst = _reduction(*case)
    rows = [solve_vertex_cover_xp(inst, None, SolverConfig(objective=objective, workers=workers))
            for objective in Objective]
    got = [(r.min_envy, r.happiness, r.allocation.assignment, r.guesses_explored) for r in rows]
    assert got == VC_XP_DEEP[case]


def _loaded_after(code: str, modules: tuple[str, ...]) -> list[str]:
    """Which of ``modules`` a fresh interpreter has loaded after ``code``."""
    code += f"\nimport sys\nprint(*sorted(m for m in {modules!r} if m in sys.modules))\n"
    src = str(Path(haan.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=src)
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                          env=env, timeout=60)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout.split()


def test_bits_is_linear_on_large_sets():
    def one_at_a_time(items):
        mask = 0
        for i in items:
            mask |= 1 << i
        return mask

    start = time.perf_counter()
    assert haan.solvers._bits(range(10**6)) == (1 << 10**6) - 1
    assert time.perf_counter() - start < 1.0
    rng = random.Random(314)
    for trial in range(200):
        items = rng.sample(range(rng.choice((10, 100, 5000))), rng.randint(0, 10))
        items += rng.choices(items or [0], k=rng.randint(0, 200) if trial % 2 else 0)
        want = one_at_a_time(items)
        assert haan.solvers._bits(items) == want, trial
        assert haan.solvers._bits(frozenset(items)) == want, trial


def test_library_and_cli_load_no_undeclared_dependency():
    # numpy, scipy, networkx and pytest-benchmark may be installed where
    # the tests run, but the library and the CLI must not load them. Nor
    # the process-pool machinery, which only a solve with more than one
    # range of work needs.
    modules = ("numpy", "scipy", "networkx", "pytest_benchmark",
               "multiprocessing", "concurrent.futures.process")
    assert _loaded_after("import haan, haan.cli.main", modules) == []


def test_import_loads_neither_numpy_nor_scipy():
    code = (
        "import haan\n"
        "from haan.model import Instance\n"
        "from haan.solvers import solve\n"
        "star = Instance(3, 3, [(0, 1), (0, 2)], [[0], [0], [1]])\n"
        "assert solve(star, 'd1').min_envy == solve(star, 'brute').min_envy\n"
        "path = Instance(3, 3, [(0, 1), (1, 2)], [[0, 1], [0], [0, 2]])\n"
        "assert solve(path, 'vc-xp').min_envy == solve(path, 'brute').min_envy\n"
    )
    assert _loaded_after(code, ("numpy", "scipy")) == []
