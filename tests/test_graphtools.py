import random
from itertools import combinations

from haan.graphtools import (
    balanced_separator_of_subgraph,
    find_min_vertex_cover,
    is_bipartite,
)
from haan.model import Instance
from haan.reductions import SourceGraph


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


def separator(g, max_size):
    """(S, A1, A2) of the whole agent graph, as the separator solver asks."""
    adj = {a: g.neighbors[a] for a in range(g.n_agents)}
    return balanced_separator_of_subgraph(range(g.n_agents), adj, max_size)


def test_path_unique_size1_separator():
    sep, part1, part2 = separator(P3, 1)
    assert sep == (1,)
    assert {part1, part2} == {(0,), (2,)}


def test_triangle_allows_empty_part():
    assert separator(K3, 1) == ((0,), (1, 2), ())


def test_k4_has_no_size1_separator():
    assert separator(K4, 1) is None


def test_full_separator_always_exists():
    rng = random.Random(0)
    for _ in range(50):
        g = random_graph(rng)
        assert separator(g, g.n_agents) is not None


def test_returned_decomposition_satisfies_invariants():
    rng = random.Random(1)
    for _ in range(100):
        g = random_graph(rng)
        sep, part1, part2 = separator(g, g.n_agents)
        n = g.n_agents
        parts = [sep, part1, part2]
        assert sum(len(p) for p in parts) == n
        assert frozenset().union(*parts) == frozenset(range(n))
        assert 3 * len(part1) <= 2 * n
        assert 3 * len(part2) <= 2 * n
        for u in part1:
            for v in part2:
                assert (min(u, v), max(u, v)) not in set(g.edges)


def test_separator_is_minimum_size():
    rng = random.Random(2)
    for _ in range(60):
        g = random_graph(rng, n_max=6)
        size = len(separator(g, g.n_agents)[0])
        for smaller in range(size):
            assert separator(g, smaller) is None


def test_vertex_cover_edgeless():
    assert find_min_vertex_cover(graph(4, []), 4) == frozenset()


def test_vertex_cover_single_edge_lexicographic():
    assert find_min_vertex_cover(graph(2, [(0, 1)]), 2) == frozenset({0})


def test_vertex_cover_c5_needs_three():
    cover = find_min_vertex_cover(C5, 5)
    assert len(cover) == 3
    # No subset of size <= 2 covers C5.
    assert find_min_vertex_cover(C5, 2) is None


def test_vertex_cover_budget_respected():
    assert find_min_vertex_cover(K4, 2) is None
    assert find_min_vertex_cover(K4, 3) == frozenset({0, 1, 2})


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
        g = random_graph(rng, n_max=7)
        cover = find_min_vertex_cover(g, g.n_agents)
        edges = set(g.edges)
        k = len(cover)
        candidates = [
            sorted(c) for c in combinations(range(g.n_agents), k)
            if all(u in c or v in c for u, v in edges)
        ]
        assert sorted(cover) == min(candidates)


def test_is_regular():
    assert SourceGraph(4, K4.edges).regular_degree() == 3
    assert SourceGraph(3, P3.edges).regular_degree() is None
    assert SourceGraph(3, []).regular_degree() == 0
    assert SourceGraph(0, []).regular_degree() == 0


def test_is_bipartite_even_cycle():
    c4 = graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
    parts = is_bipartite(c4)
    assert parts == (frozenset({0, 2}), frozenset({1, 3}))
    assert is_bipartite(K3) is None


def test_is_bipartite_consistency():
    rng = random.Random(5)
    for _ in range(60):
        g = random_graph(rng)
        parts = is_bipartite(g)
        if parts is None:
            continue
        p1, p2 = parts
        assert p1 | p2 == frozenset(range(g.n_agents))
        assert not p1 & p2
        for u, v in g.edges:
            assert (u in p1) != (v in p1)
