"""Graph subroutines for the solvers and reduction generators.

Balanced separators use the exact rational balance rule 3*|part| <= 2*n,
checked in integer arithmetic. That bound keeps both parts strictly
smaller than the vertex set for every n >= 1, which is what guarantees
progress in the divide-and-conquer solver.
"""

from __future__ import annotations

import logging
from itertools import combinations
from typing import Iterable, Mapping, Sequence

from .errors import check_deadline
from .model import Instance

__all__ = [
    "balanced_separator_of_subgraph",
    "find_min_vertex_cover",
]

log = logging.getLogger(__name__)

# Whole connected components are assigned to parts; beyond this many
# components the 2^c grouping search is abandoned for that separator.
MAX_GROUPING_COMPONENTS = 20


def _components(vertices: Sequence[int], adj: Mapping[int, Iterable[int]],
                removed: frozenset[int]) -> list[list[int]]:
    """Connected components of the graph minus ``removed``, each sorted,
    ordered by smallest vertex."""
    remaining = [v for v in vertices if v not in removed]
    seen: set[int] = set()
    comps: list[list[int]] = []
    keep = set(remaining)
    for start in remaining:
        if start in seen:
            continue
        stack = [start]
        seen.add(start)
        comp = []
        while stack:
            v = stack.pop()
            comp.append(v)
            for w in adj[v]:
                if w in keep and w not in seen:
                    seen.add(w)
                    stack.append(w)
        comps.append(sorted(comp))
    return comps


def balanced_separator_of_subgraph(
    vertices: Sequence[int],
    adj: Mapping[int, Iterable[int]],
    max_size: int,
    deadline: float | None = None,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]] | None:
    """Smallest balanced separator of the given (sub)graph, or ``None``.

    Search order: separator size ascending; among separators of the same
    size, the one admitting the most balanced valid grouping (smallest
    larger part) wins, ties broken lexicographically by the separator.
    The cross-edge-free bipartition groups whole connected components,
    trying groupings in ascending bitmask order; a grouping is valid when
    both parts satisfy 3*|part| <= 2*n. ``deadline`` is checked every
    64 candidate separators and every 4096 groupings.
    """
    verts = sorted(vertices)
    n = len(verts)
    for size in range(min(max_size, n) + 1):
        best: tuple[int, tuple[int, ...], int, list[list[int]]] | None = None
        for i, sep in enumerate(combinations(verts, size)):
            if not i & 63:
                check_deadline(deadline)
            removed = frozenset(sep)
            comps = _components(verts, adj, removed)
            c = len(comps)
            if c > MAX_GROUPING_COMPONENTS:
                log.warning(
                    "separator candidate with %d components exceeds the "
                    "%d-component grouping cap; skipping it", c,
                    MAX_GROUPING_COMPONENTS,
                )
                continue
            sizes = [len(comp) for comp in comps]
            total = n - size
            for mask in range(1 << c):
                if mask & 4095 == 4095:
                    check_deadline(deadline)
                size2 = sum(sizes[i] for i in range(c) if mask >> i & 1)
                size1 = total - size2
                if 3 * size1 <= 2 * n and 3 * size2 <= 2 * n:
                    widest = max(size1, size2)
                    if best is None or widest < best[0]:
                        best = (widest, sep, mask, comps)
        if best is not None:
            _, sep, mask, comps = best
            part1: list[int] = []
            part2: list[int] = []
            for i, comp in enumerate(comps):
                (part2 if mask >> i & 1 else part1).extend(comp)
            return sep, tuple(sorted(part1)), tuple(sorted(part2))
    return None


def find_min_vertex_cover(inst: Instance, budget: int,
                          deadline: float | None = None) -> frozenset[int] | None:
    """Minimum vertex cover if its size is <= budget, else ``None``.

    Among minimum covers, returns the lexicographically smallest (as a
    sorted index list), built greedily against the decision subroutine.
    The bounded search tree checks ``deadline`` every 1024 branches.
    """
    branches = 0

    def cover_exists(edges: list[tuple[int, int]], k: int,
                     excluded: frozenset[int]) -> bool:
        """Is there a vertex cover of ``edges`` of size <= k avoiding
        ``excluded``?"""
        nonlocal branches
        branches += 1
        if not branches & 1023:
            check_deadline(deadline)
        if not edges:
            return True
        if k == 0:
            return False
        u, v = edges[0]
        for pick in (u, v):
            if pick in excluded:
                continue
            rest = [e for e in edges if pick not in e]
            if cover_exists(rest, k - 1, excluded):
                return True
        return False

    edges = list(inst.edges)
    if not edges:
        return frozenset()
    best_k = None
    for k in range(min(budget, inst.n_agents) + 1):
        if cover_exists(edges, k, frozenset()):
            best_k = k
            break
    if best_k is None:
        return None

    cover: list[int] = []
    remaining = edges
    for v in range(inst.n_agents):
        if not remaining:
            break
        if len(cover) == best_k:
            break
        without_v = [e for e in remaining if v not in e]
        # Future cover vertices must be > v to keep the list lexicographic.
        excluded = frozenset(range(v + 1))
        if cover_exists(without_v, best_k - len(cover) - 1, excluded):
            cover.append(v)
            remaining = without_v
    return frozenset(cover)
