"""Independent brute-force oracles the tests pin expected values against.

These deliberately avoid the library's solver and matching code paths:
everything here is plain enumeration over definitions.
"""

from __future__ import annotations

import random
from itertools import combinations, permutations

from haan.model import Allocation, AnnotatedInstance, Instance, evaluate, evaluate_annotated


def brute_optimum(inst: Instance, happy: bool = False):
    """(min_envy, happiness-of-best, witness) by full enumeration; None if
    m < n.

    With ``happy`` the comparison is lexicographic (envy, -happiness);
    otherwise ties keep the first allocation in lexicographic order, and
    the reported happiness is that allocation's. The envy formula is
    inlined from the definition (test_model pins it against evaluate).
    """
    n, m = inst.n_agents, inst.n_houses
    if m < n:
        return None
    prefs = [set(p) for p in inst.preferences]
    nbrs = inst.neighbors
    agents = range(n)
    best = None
    for perm in permutations(range(m), n):
        env = 0
        hap = 0
        for a in agents:
            if perm[a] in prefs[a]:
                hap += 1
            elif any(perm[b] in prefs[a] for b in nbrs[a]):
                env += 1
        key = (env, -hap) if happy else (env,)
        if best is None or key < best[0]:
            best = (key, env, hap, perm)
    return best[1], best[2], best[3]


def envy_at_most(inst: Instance, target: int) -> bool:
    """Whether some allocation has at most ``target`` envious agents: the
    enumeration and envy formula of ``brute_optimum``, stopping at the
    first allocation within the target (and scoring each one only until
    it exceeds the target). False when m < n."""
    n, m = inst.n_agents, inst.n_houses
    prefs = [set(p) for p in inst.preferences]
    nbrs = inst.neighbors
    agents = range(n)
    for perm in permutations(range(m), n):
        env = 0
        for a in agents:
            if perm[a] not in prefs[a] and any(perm[b] in prefs[a] for b in nbrs[a]):
                env += 1
                if env > target:
                    break
        else:
            return True
    return False


def all_optima_happiness(inst: Instance) -> tuple[int, int]:
    """(min_envy, max happiness among min-envy allocations), enumerated."""
    assert inst.n_houses >= inst.n_agents
    best_envy = None
    best_happy = -1
    for perm in permutations(range(inst.n_houses), inst.n_agents):
        rep = evaluate(inst, Allocation(perm))
        if best_envy is None or rep.n_envious < best_envy:
            best_envy = rep.n_envious
            best_happy = rep.n_happy
        elif rep.n_envious == best_envy and rep.n_happy > best_happy:
            best_happy = rep.n_happy
    return best_envy, best_happy


def annotated_optimum(ann: AnnotatedInstance, happy: bool = False):
    """Annotated brute force over feasibility-respecting allocations.

    Returns (min_envy, happiness) or None when nothing is feasible.
    """
    inst = ann.base
    if inst.n_houses < inst.n_agents:
        return None
    best = None
    for perm in permutations(range(inst.n_houses), inst.n_agents):
        if any(f is not None and h not in f for h, f in zip(perm, ann.feasible)):
            continue
        feasible_ok, rep = evaluate_annotated(ann, Allocation(perm))
        assert feasible_ok
        key = (rep.n_envious, -rep.n_happy) if happy else (rep.n_envious,)
        if best is None or key < best[0]:
            best = (key, rep.n_envious, rep.n_happy)
    if best is None:
        return None
    return best[1], best[2]


def matching_optimum(n_left: int, n_right: int, costs: dict) -> tuple[int, int]:
    """(max cardinality, min cost at that cardinality) by enumerating all
    injective partial maps."""
    for size in range(min(n_left, n_right), -1, -1):
        best_cost = None
        for lefts in combinations(range(n_left), size):
            for rights in permutations(range(n_right), size):
                pairs = list(zip(lefts, rights))
                if all(p in costs for p in pairs):
                    cost = sum(costs[p] for p in pairs)
                    if best_cost is None or cost < best_cost:
                        best_cost = cost
        if best_cost is not None:
            return size, best_cost
    return 0, 0


def clique_exists(n_vertices: int, edges: set, k: int) -> bool:
    if k > n_vertices:
        return False
    norm = {(min(u, v), max(u, v)) for u, v in edges}
    return any(
        all((u, v) in norm for u, v in combinations(vs, 2))
        for vs in combinations(range(n_vertices), k)
    )


def half_separator_exists(n_vertices: int, edges: set, k: int) -> bool:
    """1/2-vertex separator: S with |S| <= k splitting the rest into equal
    non-adjacent halves."""
    norm = {(min(u, v), max(u, v)) for u, v in edges}
    for size in range(min(k, n_vertices) + 1):
        if (n_vertices - size) % 2:
            continue
        half = (n_vertices - size) // 2
        for sep in combinations(range(n_vertices), size):
            rest = [v for v in range(n_vertices) if v not in sep]
            for part1 in combinations(rest, half):
                p1 = set(part1)
                part2 = [v for v in rest if v not in p1]
                if not any(
                    (min(u, v), max(u, v)) in norm for u in part1 for v in part2
                ):
                    return True
    return False


def random_instance(rng: random.Random, n_max: int = 5, extra_houses: int = 2,
                    d_max: int = 2, p_edge: float = 0.5) -> Instance:
    n = rng.randint(0, n_max)
    m = rng.randint(n, n + extra_houses)
    edges = [e for e in combinations(range(n), 2) if rng.random() < p_edge]
    prefs = [
        rng.sample(range(m), rng.randint(0, min(d_max, m))) for _ in range(n)
    ]
    return Instance(n, m, edges, prefs)


def restricted_cover_instance(rng: random.Random) -> tuple[Instance, list[int]]:
    """A small instance and a vertex cover of it whose cover agents forbid
    houses to the rest under vc-xp.

    Two or three cover agents prefer one or (mostly) two houses of a small
    shared pool; they have few edges among themselves, so they are rarely
    envious within the cover, and many to the rest, whose agents prefer
    the same pool's houses and sometimes one more. With m at most n + 1, a
    guess whose chosen agents take a few houses from every rest agent, or
    every remaining house from one, is common.
    """
    n = rng.randint(3, 6)
    k = rng.randint(2, min(3, n - 1))
    m = rng.randint(n, n + 1)
    cover = sorted(rng.sample(range(n), k))
    rest = [a for a in range(n) if a not in cover]
    pool = rng.sample(range(m), rng.randint(2, min(4, m)))
    edges = set()
    for i, c in enumerate(cover):
        edges.update((min(a, c), max(a, c)) for a in rest if rng.random() < 0.6)
        edges.update((c, d) for d in cover[i + 1:] if rng.random() < 0.2)
    prefs = [
        set(rng.sample(pool, 2 if rng.random() < 0.7 else 1))
        | ({rng.randrange(m)} if a in rest and rng.random() < 0.3 else set())
        for a in range(n)
    ]
    return Instance(n, m, sorted(edges), [sorted(p) for p in prefs]), cover
