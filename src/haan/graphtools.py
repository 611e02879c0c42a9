"""Graph subroutines for the solvers.

Balanced separators use the exact rational balance rule 3*|part| <= 2*n,
checked in integer arithmetic. That bound keeps both parts strictly
smaller than the vertex set for every n >= 1, which is what guarantees
progress in the divide-and-conquer solver.
"""

from __future__ import annotations

from itertools import combinations
from typing import Iterable, Sequence

from .errors import check_deadline
from .model import Instance

__all__ = [
    "balanced_separator_of_subgraph",
    "find_min_vertex_cover",
    "first_half_separator",
]


def _components(nbr: Sequence[int], rest: int) -> list[int]:
    """Connected components of the vertex bitmask ``rest`` as bitmasks,
    ordered by lowest vertex; ``nbr[i]`` is vertex ``i``'s neighbour mask."""
    comps = []
    while rest:
        comp = 0
        new = rest & -rest
        while new:
            comp |= new
            reach = 0
            while new:
                low = new & -new
                reach |= nbr[low.bit_length() - 1]
                new ^= low
            new = reach & rest & ~comp
        comps.append(comp)
        rest &= ~comp
    return comps


def _lowest_grouping(comps: Sequence[int], targets: int) -> int | None:
    """Union of the lowest set of the vertex masks ``comps`` (a bitmask
    over their indices) whose vertex count is a bit of ``targets``, or
    ``None`` when no set has such a count."""
    reach = [1]  # bit x of reach[k]: the first k components can hold x
    for comp in comps:
        reach.append(reach[-1] | reach[-1] << comp.bit_count())
    if not targets & reach[-1]:
        return None
    part = 0  # from the last component down, take one only when needed
    for k in range(len(comps) - 1, -1, -1):
        if targets & reach[k]:
            targets &= reach[k]
        else:
            targets = targets >> comps[k].bit_count() & reach[k]
            part |= comps[k]
    return part


def balanced_separator_of_subgraph(
    vertices: Iterable[int],
    nbr_masks: Sequence[int],
    deadline: float | None = None,
) -> tuple[tuple[int, ...], tuple[int, ...], tuple[int, ...]]:
    """Smallest balanced separator ``(S, A1, A2)`` of the subgraph induced
    by ``vertices``; ``nbr_masks[v]`` is vertex ``v``'s neighbour bitmask,
    and neighbours outside ``vertices`` are ignored.

    The whole vertex set always qualifies, so the search always returns.
    Search order: separator size ascending; among separators of the same
    size, the first in ``combinations`` order admitting the most balanced
    valid grouping (smallest larger part) wins. The cross-edge-free
    bipartition groups whole connected components; a grouping is valid when
    both parts satisfy 3*|part| <= 2*n. Groupings are weighed exactly, by
    subset sums over the component sizes, and among those reaching the
    least larger part the lowest bitmask over the components (bit set: the
    component goes to A2) wins. ``deadline`` is checked every 64 candidate
    separators.
    """
    verts = sorted(vertices)
    n = len(verts)
    full = sum(1 << v for v in verts)
    limit = 2 * n // 3
    for size in range(n + 1):
        total = n - size
        floor = (total + 1) // 2  # no grouping has a smaller larger part
        best = None
        for i, sep in enumerate(combinations(verts, size)):
            if not i & 63:
                check_deadline(deadline)
            rest = full - sum(1 << v for v in sep)
            comps = _components(nbr_masks, rest)
            sums = 1  # bit x: some components together hold x vertices
            for comp in comps:
                sums |= sums << comp.bit_count()
            for widest in range(floor, limit + 1 if best is None else best[0]):
                if sums >> widest & 1 or sums >> (total - widest) & 1:
                    best = (widest, rest, comps)
                    break
            if best is not None and best[0] == floor:
                break
        if best is not None:
            break
    widest, rest, comps = best
    part2 = _lowest_grouping(comps, 1 << widest | 1 << (total - widest))
    return tuple(tuple(v for v in verts if mask >> v & 1)
                 for mask in (full - rest, rest & ~part2, part2))


def first_half_separator(
    nbr_masks: Sequence[int], size: int, t: int,
) -> list[list[int]] | None:
    """First ``[S, part1, part2]`` of the graph on vertices
    ``0..len(nbr_masks)-1`` with ``|S| = size``, ``|part1| = t`` and no
    edge between the parts, in ``combinations`` order of S, then part1;
    ``None`` when there is none."""
    n = len(nbr_masks)
    for sep in combinations(range(n), size):
        rest = (1 << n) - 1 - sum(1 << v for v in sep)
        # Highest component first, so part2's lowest grouping leaves lower
        # components to part1 whenever it can: part1 comes first.
        part2 = _lowest_grouping(_components(nbr_masks, rest)[::-1],
                                 1 << (n - size - t))
        if part2 is not None:
            return [list(sep)] + [[v for v in range(n) if mask >> v & 1]
                                  for mask in (rest & ~part2, part2)]
    return None


def find_min_vertex_cover(inst: Instance, budget: int,
                          deadline: float | None = None) -> frozenset[int] | None:
    """Minimum vertex cover if its size is <= budget, else ``None``.

    Among minimum covers, returns the lexicographically smallest (as a
    sorted index list). For each size k from 0 up to the budget, one
    include-first depth-first search visits the vertices in index order,
    from an explicit stack of ``(v, chosen, left)``: the vertices below v
    are decided, ``chosen`` holds those put in the cover and those forced
    in, and at most ``left`` more may join. At vertex v it first puts v in
    the cover; otherwise it leaves v out, which forces every higher
    neighbour of v into the cover. A vertex already forced costs nothing
    more, and a vertex whose higher neighbours are all in the cover is left
    out at no cost (a cover holding it and all its neighbours is not
    minimum). The first cover found within size k is the answer.
    ``deadline`` is checked every 1024 branches.
    """
    n = inst.n_agents
    # Bit u of up[v]: u is a neighbour of v above it.
    up = [0] * n
    for u, v in inst.edges:
        up[u] |= 1 << v
    branches = 0
    for k in range(min(budget, n) + 1):
        stack = [(0, 0, k)]
        while stack:
            v, chosen, left = stack.pop()
            branches += 1
            if not branches & 1023:
                check_deadline(deadline)
            while v < n and (chosen >> v & 1 or not up[v] & ~chosen):
                v += 1
            if v == n:
                return frozenset(u for u in range(n) if chosen >> u & 1)
            # Leaving v out is pushed first, so putting it in is tried first.
            forced = up[v] & ~chosen
            cost = forced.bit_count()
            if cost <= left:
                stack.append((v + 1, chosen | forced, left - cost))
            if left:
                stack.append((v + 1, chosen | 1 << v, left - 1))
    return None
