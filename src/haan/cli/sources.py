"""Built-in named source graphs for reproducible generator runs.

Specs: ``k3``/``k4``/``k5`` (complete), ``prism`` (triangular prism),
``petersen``, ``cycle:n``, ``random-regular:n:d`` (seeded via --seed) or
``random-regular:n:d:seed`` (embedded seed wins).
"""

from __future__ import annotations

import random
from collections import Counter
from itertools import combinations

from ..reductions import SourceGraph

__all__ = ["named_source_graph"]


def _complete(n: int) -> SourceGraph:
    return SourceGraph(n, list(combinations(range(n), 2)))


def _cycle(n: int) -> SourceGraph:
    if n < 3:
        raise ValueError("cycle needs at least 3 vertices")
    return SourceGraph(n, [(i, (i + 1) % n) for i in range(n)])


def _prism() -> SourceGraph:
    return SourceGraph(6, [
        (0, 1), (1, 2), (0, 2),
        (3, 4), (4, 5), (3, 5),
        (0, 3), (1, 4), (2, 5),
    ])


def _petersen() -> SourceGraph:
    outer = [(i, (i + 1) % 5) for i in range(5)]
    inner = [(5 + i, 5 + (i + 2) % 5) for i in range(5)]
    spokes = [(i, 5 + i) for i in range(5)]
    return SourceGraph(10, outer + inner + spokes)


def _edge(u: int, v: int) -> tuple[int, int]:
    return (u, v) if u < v else (v, u)


def _random_regular(n: int, d: int, seed: int) -> SourceGraph:
    """Pairing-model sampler with switch repair; deterministic given the seed.

    The n*d stubs are shuffled and paired. While some pair is a loop or
    repeats an edge, the first such pair swaps partners with a random pair;
    a swap is kept only when both new pairs are new edges, so it removes a
    bad pair and keeps every degree. A pairing that resists repair is drawn
    again. Dense graphs are the complements of sparse ones.
    """
    if d < 0 or d >= n or (n * d) % 2:
        raise ValueError(f"no {d}-regular graph on {n} vertices")
    if 2 * d > n - 1:
        sparse = set(_random_regular(n, n - 1 - d, seed).edges)
        return SourceGraph(n, [e for e in _complete(n).edges if e not in sparse])
    rng = random.Random(seed)
    stubs = [v for v in range(n) for _ in range(d)]
    for _ in range(100):
        rng.shuffle(stubs)
        pairs = [_edge(stubs[i], stubs[i + 1]) for i in range(0, len(stubs), 2)]
        count = Counter(pairs)
        for _ in range(100 * len(pairs) + 1):
            bad = [i for i, (u, v) in enumerate(pairs) if u == v or count[u, v] > 1]
            if not bad:
                return SourceGraph(n, sorted(pairs))
            i, j = bad[0], rng.randrange(len(pairs))
            (a, b), (c, e) = pairs[i], pairs[j]
            if rng.random() < 0.5:
                c, e = e, c
            new = _edge(a, c), _edge(b, e)
            if a != c and b != e and new[0] != new[1] and not (count[new[0]] or count[new[1]]):
                count.subtract((pairs[i], pairs[j]))
                count.update(new)
                pairs[i], pairs[j] = new
    raise ValueError(f"failed to sample a {d}-regular graph on {n} vertices")


def named_source_graph(spec: str, seed: int = 0) -> SourceGraph:
    name, *fields = spec.split(":")
    unknown = ValueError(f"unknown source graph spec {spec!r}")
    try:
        nums = [int(f) for f in fields]
    except ValueError:
        raise unknown from None
    if name in ("k3", "k4", "k5") and not nums:
        return _complete(int(name[1]))
    if name == "prism" and not nums:
        return _prism()
    if name == "petersen" and not nums:
        return _petersen()
    if name == "cycle" and len(nums) == 1:
        return _cycle(nums[0])
    if name == "random-regular" and len(nums) in (2, 3):
        n, d, seed = (*nums, seed)[:3]
        return _random_regular(n, d, seed)
    raise unknown
