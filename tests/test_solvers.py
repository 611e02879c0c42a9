import math
import os
import random
import subprocess
import sys
from itertools import combinations, permutations
from pathlib import Path

import pytest

import haan

from haan.errors import (
    BudgetExceeded,
    InstanceInfeasible,
    NoFeasibleAllocation,
    NotACover,
    UnknownAlgorithm,
    WrongSolver,
)
from haan.model import AnnotatedInstance, Instance, evaluate, evaluate_annotated
from haan.solvers import (
    Objective,
    SolverConfig,
    solve,
    solve_bruteforce,
    solve_d1_matching,
    solve_envy_guess,
    solve_separator,
    solve_vertex_cover_xp,
)

from oracles import all_optima_happiness, annotated_optimum, brute_optimum, random_instance

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
    # Guess space is prod(2^deg + 1) = 5^3 = 125 for a triangle.
    with pytest.raises(BudgetExceeded):
        solve_envy_guess(TRIANGLE, SolverConfig(guess_limit=124))
    solve_envy_guess(TRIANGLE, SolverConfig(guess_limit=125))


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


def test_separator_plain_triangle():
    assert solve_separator(AnnotatedInstance.plain(TRIANGLE)).min_envy == 2


def test_separator_explicit_size_cap_can_fail():
    from haan.errors import SeparatorNotFound
    ann = AnnotatedInstance.plain(Instance(3, 3, [(0, 1), (1, 2)], [[0]] * 3))
    with pytest.raises(SeparatorNotFound):
        solve_separator(ann, SolverConfig(separator_max_size=0))
    r = solve_separator(ann, SolverConfig(separator_max_size=1))
    assert r.min_envy == solve_bruteforce(Instance(3, 3, [(0, 1), (1, 2)], [[0]] * 3)).min_envy


def test_separator_no_feasible_allocation():
    base = Instance(2, 2, [], [[], []])
    ann = AnnotatedInstance(base, [[0], [0]], [])
    with pytest.raises(NoFeasibleAllocation):
        solve_separator(ann)


def test_separator_respects_feasibility_sets():
    rng = random.Random(21)
    for _ in range(40):
        inst = random_instance(rng, n_max=4, extra_houses=1)
        feas = [
            set(rng.sample(range(inst.n_houses), rng.randint(1, inst.n_houses)))
            if inst.n_houses else set()
            for _ in range(inst.n_agents)
        ]
        angry = [a for a in range(inst.n_agents) if rng.random() < 0.3]
        ann = AnnotatedInstance(inst, feas, angry)
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


# -- dispatcher --------------------------------------------------------------

def test_solve_routes_d1():
    inst = Instance(2, 2, [], [[0], [1]])
    assert solve(inst, "auto").solver_id == "d1"


def test_solve_routes_vc_xp():
    inst = Instance(3, 3, [(0, 1)], [[0, 1], [], []])
    assert solve(inst, "auto").solver_id == "vc-xp"


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
