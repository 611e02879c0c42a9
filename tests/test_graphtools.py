import random
import time
from itertools import combinations

import pytest

from haan.cli.sources import named_source_graph
from haan.errors import SolveTimeout
from haan.graphtools import balanced_separator_of_subgraph, find_min_vertex_cover
from haan.model import Instance
from haan.reductions import SourceGraph
from haan.solvers import SolverConfig, solve


def graph(n, edges):
    return Instance(n, 0, edges, [[] for _ in range(n)])


P3 = graph(3, [(0, 1), (1, 2)])
K3 = graph(3, [(0, 1), (0, 2), (1, 2)])
K4 = graph(4, list(combinations(range(4), 2)))
C5 = graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)])


def random_graph(rng, n_max=8, p=0.4):
    n = rng.randint(0, n_max)
    edges = [e for e in combinations(range(n), 2) if rng.random() < p]
    return graph(n, edges)


def nbr_masks(g):
    """Each agent's neighbours as a bitmask, indexed by agent."""
    return [sum(1 << u for u in nbrs) for nbrs in g.neighbors]


def separator(g, deadline=None):
    """(S, A1, A2) of the whole agent graph, as the separator solver asks."""
    return balanced_separator_of_subgraph(range(g.n_agents), nbr_masks(g), deadline)


def test_path_unique_size1_separator():
    sep, part1, part2 = separator(P3)
    assert sep == (1,)
    assert {part1, part2} == {(0,), (2,)}


def test_triangle_allows_empty_part():
    assert separator(K3) == ((0,), (1, 2), ())


def test_k4_has_no_size1_separator():
    assert separator(K4) == ((0, 1), (2, 3), ())


def test_full_separator_always_exists():
    rng = random.Random(0)
    for _ in range(50):
        g = random_graph(rng)
        assert separator(g) is not None


def test_returned_decomposition_satisfies_invariants():
    rng = random.Random(1)
    for _ in range(100):
        g = random_graph(rng)
        sep, part1, part2 = separator(g)
        n = g.n_agents
        parts = [sep, part1, part2]
        assert sum(len(p) for p in parts) == n
        assert frozenset().union(*parts) == frozenset(range(n))
        assert 3 * len(part1) <= 2 * n
        assert 3 * len(part2) <= 2 * n
        for u in part1:
            for v in part2:
                assert (min(u, v), max(u, v)) not in set(g.edges)


def balanced_grouping_exists(g, removed):
    """Do the components of ``g`` minus ``removed`` group into two parts of
    at most 2n/3 agents each? Brute force over every grouping."""
    n = g.n_agents
    comps = []
    seen = set(removed)
    for start in range(n):
        if start in seen:
            continue
        comp, stack = 0, [start]
        seen.add(start)
        while stack:
            v = stack.pop()
            comp += 1
            for u in g.neighbors[v]:
                if u not in seen:
                    seen.add(u)
                    stack.append(u)
        comps.append(comp)
    total = sum(comps)
    for mask in range(1 << len(comps)):
        part2 = sum(c for i, c in enumerate(comps) if mask >> i & 1)
        if 3 * part2 <= 2 * n and 3 * (total - part2) <= 2 * n:
            return True
    return False


def test_separator_is_minimum_size():
    rng = random.Random(2)
    for _ in range(60):
        g = random_graph(rng, n_max=6)
        sep = separator(g)[0]
        assert balanced_grouping_exists(g, sep)
        for smaller in range(len(sep)):
            for removed in combinations(range(g.n_agents), smaller):
                assert not balanced_grouping_exists(g, removed)


def test_subset_separator_is_that_of_the_induced_subgraph():
    """The solver asks for the separator of an agent subset of a larger
    graph, ignoring neighbours outside it: that is the separator of the
    induced subgraph relabelled to 0..k-1, mapped back."""
    rng = random.Random(5)
    for _ in range(150):
        g = random_graph(rng, n_max=10, p=0.5)
        subset = sorted(rng.sample(range(g.n_agents), rng.randint(0, g.n_agents)))
        index = {v: i for i, v in enumerate(subset)}
        induced = graph(len(subset), [(index[u], index[v]) for u, v in g.edges
                                      if u in index and v in index])
        want = tuple(tuple(subset[i] for i in part) for part in separator(induced))
        rng.shuffle(subset)
        assert balanced_separator_of_subgraph(subset, nbr_masks(g)) == want, (g, subset)


def test_part_one_is_never_empty_on_two_or_more_vertices():
    """The separator solver recurses on part one unguarded. On two or more
    vertices a separator of all but one vertex always qualifies, and among
    groupings with an empty part the lowest part-two mask is the empty
    one, so part one is non-empty and S is not the whole subset."""
    rng = random.Random(6)
    for _ in range(300):
        n = rng.randint(2, 10)
        p = rng.random()
        g = graph(n, [e for e in combinations(range(n), 2) if rng.random() < p])
        subset = rng.sample(range(n), rng.randint(2, n))
        sep, part1, _ = balanced_separator_of_subgraph(subset, nbr_masks(g))
        assert part1 and len(sep) < len(subset), (g, subset)


def test_star_with_21_leaves_splits_at_its_centre():
    n = 22
    star = graph(n, [(0, leaf) for leaf in range(1, n)])
    got = separator(star, deadline=time.monotonic() + 2.0)
    assert got == ((0,), tuple(range(11, n)), tuple(range(1, 11)))


def test_vertex_cover_edgeless():
    assert find_min_vertex_cover(graph(4, []), 4) == frozenset()


def test_vertex_cover_single_edge_lexicographic():
    assert find_min_vertex_cover(graph(2, [(0, 1)]), 2) == frozenset({0})


def test_vertex_cover_c5_needs_three():
    cover = find_min_vertex_cover(C5, 5)
    assert len(cover) == 3
    # No subset of size <= 2 covers C5.
    assert find_min_vertex_cover(C5, 2) is None


def least_minimum_cover(g):
    """Lexicographically least minimum cover, as a sorted list, by brute force."""
    for k in range(g.n_agents + 1):
        covers = [list(c) for c in combinations(range(g.n_agents), k)
                  if all(u in c or v in c for u, v in g.edges)]
        if covers:
            return min(covers)


def check_every_budget(g):
    """Below the minimum cover size no cover; from it on, the least one."""
    least = least_minimum_cover(g)
    for budget in range(g.n_agents + 1):
        cover = find_min_vertex_cover(g, budget)
        if budget < len(least):
            assert cover is None
        else:
            assert sorted(cover) == least


def test_vertex_cover_budget_respected():
    assert find_min_vertex_cover(K4, 2) is None
    assert find_min_vertex_cover(K4, 3) == frozenset({0, 1, 2})
    rng = random.Random(4)
    for _ in range(60):
        check_every_budget(random_graph(rng, n_max=8))


def test_vertex_cover_brute_force_minimality():
    rng = random.Random(3)
    for _ in range(60):
        g = random_graph(rng, n_max=8)
        cover = find_min_vertex_cover(g, g.n_agents)
        edges = set(g.edges)
        assert all(u in cover or v in cover for u, v in edges)
        for size in range(len(cover)):
            assert not any(
                all(u in sub or v in sub for u, v in edges)
                for sub in (set(c) for c in combinations(range(g.n_agents), size))
            )


def test_vertex_cover_lexicographic_among_minima():
    rng = random.Random(9)
    for _ in range(40):
        check_every_budget(random_graph(rng, n_max=7))


def test_is_regular():
    assert SourceGraph(4, K4.edges).regular_degree() == 3
    assert SourceGraph(3, P3.edges).regular_degree() is None
    assert SourceGraph(3, []).regular_degree() == 0
    assert SourceGraph(0, []).regular_degree() == 0


DEADLINE_S = 0.2
OVERRUN_S = 1.0


@pytest.mark.parametrize("algo, spec", [
    # The minimum balanced separator has 6 of the 26 agents: ~2.5 s of search.
    ("separator", "random-regular:26:4:1"),
    # The minimum vertex cover has 40 of the 60 agents: ~2.4 s of search.
    ("vc-xp", "random-regular:60:6:1"),
    # 5^20 ≈ 9.5e13 envy guesses: a full solve takes 5-10 s on a 2-core host.
    ("envy-guess", "random-regular:20:3:1"),
])
def test_graph_searches_honour_the_deadline(algo, spec):
    g = named_source_graph(spec)
    n = g.n_vertices
    inst = Instance(n, n, g.edges, [[0, 1]] * n)
    start = time.monotonic()
    cfg = SolverConfig(guess_limit=None, deadline=start + DEADLINE_S)
    with pytest.raises(SolveTimeout):
        solve(inst, algo, cfg)
    assert time.monotonic() - start < DEADLINE_S + OVERRUN_S
