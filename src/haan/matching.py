"""Bipartite matching subroutines of the solvers, in pure Python.

Two entry points, both deterministic:

- ``left_perfect_matching_masks``: Kuhn's augmenting-path search on
  bitmask adjacency; answers "can every left vertex be matched?" with a
  witness. Envy-guess uses it to accept a guess. The same search, run
  past unmatched vertices, gives ``max_matching_size_masks``: the most
  agents that can hold a preferred house at once, which bounds every
  solver's key from below.
- ``min_cost_saturating_assignment``: the shortest-augmenting-path
  Hungarian method (Kuhn; Jonker-Volgenant) on a dense cost table with
  ``None`` for an inadmissible pair. The d1 and vc-xp solvers use it to
  extend a guess at minimum cost. A row whose cheapest column is free
  takes it directly; only a row whose cheapest column is held runs the
  shortest-path search, seeded with that first scan. It takes an optional
  deadline, checked every 64 rows.
"""

from __future__ import annotations

import math
from typing import Sequence

from .errors import check_deadline

__all__ = [
    "left_perfect_matching_masks",
    "max_matching_size_masks",
    "min_cost_saturating_assignment",
]


def _kuhn(fmasks: Sequence[int], n_right: int, perfect: bool) -> list[int] | None:
    """``match_right`` of a maximum matching of the left vertices into their
    admissible-right bitmasks (``-1`` for an unmatched right vertex), or
    ``None`` as soon as ``perfect`` and some left vertex stays unmatched.

    Agents in order, lowest admissible bit first. A failed augmenting
    search changes no pair, so one pass over the agents is maximum. Each
    search is depth-first from an explicit stack of (agent, house) steps,
    with one ``avoid`` mask of the houses it has tried, so a path may be
    as long as the matching.
    """
    match_right = [-1] * n_right
    for start in range(len(fmasks)):
        a, avoid, path = start, 0, []
        while True:
            m = fmasks[a] & ~avoid
            if m:
                bit = m & -m
                r = bit.bit_length() - 1
                avoid |= bit
                holder = match_right[r]
                if holder == -1:
                    match_right[r] = a
                    for a, r in path:  # augment: each step takes its house
                        match_right[r] = a
                    break
                path.append((a, r))
                a = holder
            elif path:
                a = path.pop()[0]  # the holder found no house: back to its taker
            elif perfect:
                return None
            else:
                break
    return match_right


def left_perfect_matching_masks(fmasks: Sequence[int], n_right: int) -> list[int] | None:
    """Match every left vertex into its admissible-right bitmask, or ``None``.

    ``fmasks[a]`` has bit ``h`` set iff right vertex ``h`` is admissible for
    left vertex ``a``. Deterministic: agents in order, lowest admissible bit
    first. This is the feasibility check behind guess acceptance.
    """
    match_right = _kuhn(fmasks, n_right, True)
    if match_right is None:
        return None
    out = [-1] * len(fmasks)
    for r, a in enumerate(match_right):
        if a != -1:
            out[a] = r
    return out


def max_matching_size_masks(fmasks: Sequence[int], n_right: int) -> int:
    """Size of a maximum matching of the left vertices into their
    admissible-right bitmasks (same layout as above)."""
    return n_right - _kuhn(fmasks, n_right, False).count(-1)


def min_cost_saturating_assignment(
    cost_rows: Sequence[Sequence[int | None]],
    deadline: float | None = None,
) -> tuple[int, list[int]] | None:
    """Min-cost matching that must cover every left vertex, else ``None``.

    ``cost_rows[l][r]`` is the integer cost (any sign) of pairing ``l``
    with ``r``; ``None`` marks an inadmissible pair. Returns
    ``(total cost, assignment)`` with ``assignment[l]`` the right vertex of
    ``l``, or ``None`` exactly when no matching covers every left vertex.

    Rows are added one at a time; each is joined by a shortest augmenting
    path (Dijkstra on reduced costs, with dual potentials ``u``/``v`` that
    keep them non-negative), which keeps the partial matching optimal. A
    row with no augmenting path admits no left-saturating matching.

    Each new row is scanned once first: its reduced costs, and the column
    of least reduced cost (among equal columns the last free one, else the
    first). A free column ends the search there, as the path of one edge;
    a held one seeds Dijkstra with the scanned distances. Ties are broken
    the same way at every step, so the assignment returned is determined
    by the table. ``deadline`` (a ``time.monotonic()`` cutoff) is checked
    before the first row and then every 64 rows.
    """
    n_left = len(cost_rows)
    if n_left == 0:
        return 0, []
    n_right = len(cost_rows[0])
    if n_left > n_right:
        return None
    inf = math.inf
    u = [0] * n_left
    v = [0] * n_right
    col_of = [-1] * n_left
    row_of = [-1] * n_right
    shifted = False  # v stays all zero until a search moves it
    for start in range(n_left):
        if not start & 63:
            check_deadline(deadline)
        row = cost_rows[start]
        if shifted:
            dist = [inf if c is None else c - b for c, b in zip(row, v)]
        elif None in row:
            dist = [inf if c is None else c for c in row]
        else:
            dist = list(row)
        reach = min(dist)
        if reach == inf:
            return None
        pick = dist.index(reach)
        if dist.count(reach) > 1:
            for j in range(n_right - 1, pick, -1):
                if dist[j] == reach and row_of[j] == -1:
                    pick = j
                    break
        if row_of[pick] == -1:  # the shortest augmenting path: one edge
            u[start] = reach
            col_of[start] = pick
            row_of[pick] = start
            continue
        shifted = True
        via = [start] * n_right
        todo = list(range(n_right))
        todo.remove(pick)
        rows_seen = [start]
        cols_seen = [pick]
        while row_of[pick] != -1:
            i = row_of[pick]
            rows_seen.append(i)
            row, base = cost_rows[i], reach - u[i]
            best, pick = inf, -1
            for j in todo:
                c = row[j]
                if c is not None and base + c - v[j] < dist[j]:
                    dist[j] = base + c - v[j]
                    via[j] = i
                if dist[j] < best or (dist[j] == best and row_of[j] == -1):
                    best, pick = dist[j], j
            if best == inf:
                return None
            reach = best
            todo.remove(pick)
            cols_seen.append(pick)
        for i in rows_seen:
            u[i] += reach - (0 if i == start else dist[col_of[i]])
        for j in cols_seen:
            v[j] -= reach - dist[j]
        j = pick
        while True:
            i = via[j]
            row_of[j] = i
            col_of[i], j = j, col_of[i]
            if i == start:
                break
    # Matched pairs have zero reduced cost, and a column keeps v = 0 until
    # it is matched, so the duals add up to the total.
    return sum(u) + sum(v), col_of
