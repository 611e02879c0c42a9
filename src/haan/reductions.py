"""Hardness-reduction instance generators with witness constructors.

Each generator turns a source-graph decision instance into a house
allocation instance plus a target envy count, and records provenance
maps (vertex/edge to agent indices, house roles) so tests can navigate
the construction without re-deriving it. Witness constructors realize
the forward directions: given the combinatorial object on the source
side, they build an allocation meeting the target.

Provenance dictionaries are JSON-ready: keys are strings, edge keys are
"u-v" with u < v.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations
from typing import Iterable, Sequence

from .errors import (
    BadK,
    BadPartition,
    BadT,
    GeneratorError,
    InvalidInstance,
    Not3Regular,
    NotAClique,
    NotRegular,
)
from .model import Allocation, Instance

__all__ = [
    "SourceGraph",
    "ReducedInstance",
    "gen_clique_bipartite_d2",
    "witness_from_clique",
    "gen_halfsep_3regular",
    "witness_from_separator",
    "pad_separator_to_exact",
    "gen_clique_vc_bipartite",
    "gen_clique_vc_split",
    "witness_from_clique_vc",
]


@dataclass(frozen=True)
class SourceGraph:
    """Simple undirected graph fed to the generators."""

    n_vertices: int
    edges: tuple[tuple[int, int], ...]

    def __init__(self, n_vertices: int, edges: Iterable[Sequence[int]] = ()):
        if n_vertices < 0:
            raise InvalidInstance("vertex count must be non-negative")
        norm = []
        seen = set()
        for edge in edges:
            u, v = edge
            if u > v:
                u, v = v, u
            if u == v:
                raise InvalidInstance(f"self-loop at vertex {u}")
            if not (0 <= u < n_vertices and 0 <= v < n_vertices):
                raise InvalidInstance(f"edge ({u}, {v}) out of range")
            if (u, v) in seen:
                raise InvalidInstance(f"duplicate edge ({u}, {v})")
            seen.add((u, v))
            norm.append((u, v))
        norm.sort()
        object.__setattr__(self, "n_vertices", n_vertices)
        object.__setattr__(self, "edges", tuple(norm))

    def degrees(self) -> list[int]:
        degs = [0] * self.n_vertices
        for u, v in self.edges:
            degs[u] += 1
            degs[v] += 1
        return degs

    def regular_degree(self) -> int | None:
        degs = set(self.degrees())
        if self.n_vertices == 0:
            return 0
        return degs.pop() if len(degs) == 1 else None

    def is_clique(self, vertices: Iterable[int]) -> bool:
        vs = sorted(set(vertices))
        edge_set = set(self.edges)
        return all(
            (u, v) in edge_set for u, v in combinations(vs, 2)
        ) and all(0 <= v < self.n_vertices for v in vs)


@dataclass(frozen=True)
class ReducedInstance:
    """Generated instance, its decision target, and provenance maps."""

    instance: Instance
    target_envy: int
    provenance: dict

    def __post_init__(self):
        if self.target_envy < 0:
            raise InvalidInstance("target envy must be non-negative")


def _ekey(u: int, v: int) -> str:
    return f"{u}-{v}" if u < v else f"{v}-{u}"


# ---------------------------------------------------------------------------
# Regular-graph clique reduction: complete bipartite agent graph, d = 2
# ---------------------------------------------------------------------------

def gen_clique_bipartite_d2(g: SourceGraph, k: int) -> ReducedInstance:
    """Clique on a regular graph -> complete-bipartite instance with d <= 2.

    Per source vertex v there are delta agents all preferring only h_v;
    per source edge {u, v} one agent preferring {h_u, h_v}; the agent
    graph is complete bipartite between the two groups, padded with
    exactly enough dummy houses that all non-witness agents can hold one.
    Target: k*delta - C(k, 2).
    """
    delta = g.regular_degree()
    if delta is None:
        raise NotRegular("source graph is not regular")
    big_n, big_m = g.n_vertices, len(g.edges)
    if not 1 <= k <= big_n:
        raise BadK(f"k={k} outside [1, {big_n}]")
    target = k * delta - k * (k - 1) // 2
    if target < 0:
        raise BadK(f"k={k} makes the target negative on a {delta}-regular graph")
    n_dummy = delta * big_n + big_m - k
    if n_dummy < 0:
        raise BadK(f"k={k} exceeds the agent count {delta * big_n + big_m}")

    n_agents = delta * big_n + big_m
    n_houses = big_n + n_dummy
    prefs: list[list[int]] = []
    vertex_agents: dict[str, list[int]] = {}
    for v in range(big_n):
        ids = [v * delta + j for j in range(delta)]
        vertex_agents[str(v)] = ids
        for _ in ids:
            prefs.append([v])
    edge_agents: dict[str, int] = {}
    for ei, (u, v) in enumerate(g.edges):
        aid = delta * big_n + ei
        edge_agents[_ekey(u, v)] = aid
        prefs.append([u, v])
    agent_edges = [
        (va, ea)
        for va in range(delta * big_n)
        for ea in range(delta * big_n, n_agents)
    ]
    inst = Instance(n_agents, n_houses, agent_edges, prefs)
    provenance = {
        "generator": "clique-bip-d2",
        "params": {
            "k": k,
            "delta": delta,
            "n_vertices": big_n,
            "source_edges": [list(e) for e in g.edges],
        },
        "vertex_agents": vertex_agents,
        "edge_agents": edge_agents,
        "vertex_houses": {str(v): v for v in range(big_n)},
        "dummy_houses": list(range(big_n, n_houses)),
        "trivial": k > delta,
    }
    return ReducedInstance(inst, target, provenance)


def witness_from_clique(red: ReducedInstance, clique: Iterable[int]) -> Allocation:
    """Forward-direction witness: h_v to the first vertex agent of each
    clique vertex, dummies everywhere else. Evaluates to exactly the
    target number of envious agents."""
    prov = red.provenance
    if prov.get("generator") != "clique-bip-d2":
        raise NotAClique("witness_from_clique expects a clique-bip-d2 instance")
    params = prov["params"]
    g = SourceGraph(params["n_vertices"], params["source_edges"])
    vs = sorted(set(clique))
    if len(vs) != params["k"] or not g.is_clique(vs):
        raise NotAClique(f"{vs} is not a clique of size {params['k']}")
    n = red.instance.n_agents
    assignment = [-1] * n
    for v in vs:
        ids = prov["vertex_agents"][str(v)]
        if ids:
            assignment[ids[0]] = v
    dummies = iter(prov["dummy_houses"])
    for a in range(n):
        if assignment[a] == -1:
            assignment[a] = next(dummies)
    return Allocation(assignment)


# ---------------------------------------------------------------------------
# 1/2-vertex-separator reduction: 3-regular, identical preferences, n = m
# ---------------------------------------------------------------------------

def gen_halfsep_3regular(g: SourceGraph, k: int) -> ReducedInstance:
    """1/2-vertex separator on a 3-regular graph -> identical-preference
    instance with as many houses as agents.

    Agents and the agent graph are the source graph itself; every agent
    prefers the same first t = n/2 - floor(k/2) houses. Target:
    2*floor(k/2).
    """
    if g.regular_degree() != 3:
        raise Not3Regular("source graph is not 3-regular")
    n = g.n_vertices
    if not 0 <= k <= n:
        raise BadK(f"k={k} outside [0, {n}]")
    t = n // 2 - k // 2
    target = 2 * (k // 2)
    prefs = [list(range(t)) for _ in range(n)]
    inst = Instance(n, n, g.edges, prefs)
    provenance = {
        "generator": "halfsep-3reg",
        "params": {
            "k": k,
            "t": t,
            "n_vertices": n,
            "source_edges": [list(e) for e in g.edges],
        },
        "vertex_agents": {str(v): [v] for v in range(n)},
        "preferred_houses": list(range(t)),
        "dummy_houses": list(range(t, n)),
    }
    return ReducedInstance(inst, target, provenance)


def pad_separator_to_exact(
    g: SourceGraph, k: int,
    separator: Iterable[int], part1: Iterable[int], part2: Iterable[int],
) -> tuple[list[int], list[int], list[int]]:
    """Grow a small 1/2-vertex separator to size exactly 2*floor(k/2).

    Moves the first few vertices of each (equal-sized) part into the
    separator so that both the separator size and the part sizes are
    exactly what the witness constructor requires.
    """
    sep = sorted(set(separator))
    x = sorted(set(part1))
    y = sorted(set(part2))
    n = g.n_vertices
    if sorted(sep + x + y) != list(range(n)):
        raise BadPartition("separator and parts must partition the vertex set")
    if len(x) != len(y):
        raise BadPartition("parts must have equal sizes")
    if len(sep) > 2 * (k // 2):
        raise BadPartition(
            f"separator of size {len(sep)} exceeds 2*floor(k/2) = {2 * (k // 2)}"
        )
    edge_set = set(g.edges)
    for u in x:
        for v in y:
            if (min(u, v), max(u, v)) in edge_set:
                raise BadPartition(f"edge ({u}, {v}) crosses the parts")
    gamma = len(x) - n // 2 + k // 2
    return (
        sorted(sep + x[:gamma] + y[:gamma]),
        x[gamma:],
        y[gamma:],
    )


def witness_from_separator(
    red: ReducedInstance,
    separator: Iterable[int],
    part1: Iterable[int],
    part2: Iterable[int],
) -> Allocation:
    """Forward-direction witness: all preferred houses go to one part.

    Requires the exact-size triple (|S| = target, equal parts of size t,
    no cross edge); only separator agents can end up envious.
    """
    prov = red.provenance
    if prov.get("generator") != "halfsep-3reg":
        raise BadPartition("witness_from_separator expects a halfsep-3reg instance")
    params = prov["params"]
    n = params["n_vertices"]
    t = params["t"]
    sep = sorted(set(separator))
    x = sorted(set(part1))
    y = sorted(set(part2))
    if sorted(sep + x + y) != list(range(n)):
        raise BadPartition("separator and parts must partition the vertex set")
    if len(sep) != red.target_envy or len(x) != t or len(y) != t:
        raise BadPartition(
            f"need sizes |S|={red.target_envy}, |X|=|Y|={t}; "
            f"got {len(sep)}, {len(x)}, {len(y)}"
        )
    edge_set = set(tuple(e) for e in red.instance.edges)
    for u in x:
        for v in y:
            if (min(u, v), max(u, v)) in edge_set:
                raise BadPartition(f"edge ({u}, {v}) crosses the parts")
    assignment = [-1] * n
    for h, v in enumerate(x):
        assignment[v] = h
    rest = iter(range(t, n))
    for a in range(n):
        if assignment[a] == -1:
            assignment[a] = next(rest)
    return Allocation(assignment)


# ---------------------------------------------------------------------------
# Clique reductions with small vertex covers (bipartite / split)
# ---------------------------------------------------------------------------

def gen_clique_vc_bipartite(
    g: SourceGraph, k: int, t_pad: int | None = None
) -> ReducedInstance:
    """Clique -> complete-bipartite instance where each house is preferred
    by at most four agents.

    One agent per source vertex, two per source edge; the vertex side of
    the complete bipartite agent graph plays the large partition.
    ``t_pad`` isolated vertices are added to the source first, standing in
    for the asymptotic padding that drives the vertex-cover bound.
    Target: k.
    """
    pad = 0 if t_pad is None else t_pad
    if pad < 0:
        raise BadT("t_pad must be non-negative")
    big_n = g.n_vertices + pad
    big_m = len(g.edges)
    if not 1 <= k <= big_n:
        raise BadK(f"k={k} outside [1, {big_n}]")
    choose2 = k * (k - 1) // 2
    n_dummy = big_n + 2 * big_m - choose2
    if n_dummy < 0:
        raise BadK(f"k={k} needs more edge agents than the source graph has")

    n_agents = big_n + 2 * big_m
    n_houses = big_m + n_dummy
    prefs: list[list[int]] = [[] for _ in range(big_n)]
    edge_agents: dict[str, list[int]] = {}
    edge_houses: dict[str, int] = {}
    for ei, (u, v) in enumerate(g.edges):
        a1 = big_n + 2 * ei
        a2 = big_n + 2 * ei + 1
        edge_agents[_ekey(u, v)] = [a1, a2]
        edge_houses[_ekey(u, v)] = ei
        prefs[u].append(ei)
        prefs[v].append(ei)
        prefs.append([ei])
        prefs.append([ei])
    agent_edges = [
        (va, ea) for va in range(big_n) for ea in range(big_n, n_agents)
    ]
    inst = Instance(n_agents, n_houses, agent_edges, prefs)
    provenance = {
        "generator": "clique-vc-bip",
        "params": {
            "k": k,
            "t_pad": pad,
            "n_vertices": big_n,
            "source_edges": [list(e) for e in g.edges],
        },
        "vertex_agents": {str(v): [v] for v in range(big_n)},
        "edge_agents": edge_agents,
        "edge_houses": edge_houses,
        "dummy_houses": list(range(big_m, n_houses)),
    }
    return ReducedInstance(inst, k, provenance)


def gen_clique_vc_split(g: SourceGraph, k: int, t: int) -> ReducedInstance:
    """Clique -> split-graph instance where each house is preferred by at
    most three agents.

    One agent per source vertex (forming the clique side) and t agents
    per source edge (the independent side), each edge agent with its own
    private house also liked by the edge's endpoints. ``t`` replaces the
    asymptotic padding. Target: k.
    """
    if t < 1:
        raise BadT(f"t={t} must be at least 1")
    big_n, big_m = g.n_vertices, len(g.edges)
    if big_m < 1:
        raise GeneratorError("source graph needs at least one edge")
    if not 1 <= k <= big_n:
        raise BadK(f"k={k} outside [1, {big_n}]")
    choose2 = k * (k - 1) // 2
    n_dummy = (big_m - choose2) * t + big_n
    if n_dummy < 0:
        raise BadK(f"k={k} needs more edges than the source graph has")

    n_agents = big_n + big_m * t
    n_houses = big_m * t + n_dummy
    prefs: list[list[int]] = [[] for _ in range(big_n)]
    edge_agents: dict[str, list[int]] = {}
    edge_houses: dict[str, list[int]] = {}
    for ei, (u, v) in enumerate(g.edges):
        ids = [big_n + ei * t + j for j in range(t)]
        houses = [ei * t + j for j in range(t)]
        edge_agents[_ekey(u, v)] = ids
        edge_houses[_ekey(u, v)] = houses
        prefs[u].extend(houses)
        prefs[v].extend(houses)
        for h in houses:
            prefs.append([h])
    agent_edges = [(u, v) for u, v in combinations(range(big_n), 2)]
    agent_edges += [
        (va, ea) for va in range(big_n) for ea in range(big_n, n_agents)
    ]
    inst = Instance(n_agents, n_houses, agent_edges, prefs)
    provenance = {
        "generator": "clique-vc-split",
        "params": {
            "k": k,
            "t": t,
            "n_vertices": big_n,
            "source_edges": [list(e) for e in g.edges],
        },
        "vertex_agents": {str(v): [v] for v in range(big_n)},
        "edge_agents": edge_agents,
        "edge_houses": edge_houses,
        "dummy_houses": list(range(big_m * t, n_houses)),
    }
    return ReducedInstance(inst, k, provenance)


def witness_from_clique_vc(red: ReducedInstance, clique: Iterable[int]) -> Allocation:
    """Forward-direction witness for the vertex-cover reductions.

    Clique-edge houses go to their first edge agents, every other agent
    takes a dummy; at most k agents (the clique's vertex agents) envy.
    """
    prov = red.provenance
    gen = prov.get("generator")
    if gen not in ("clique-vc-bip", "clique-vc-split"):
        raise NotAClique(
            "witness_from_clique_vc expects a clique-vc-bip or clique-vc-split instance"
        )
    params = prov["params"]
    g = SourceGraph(params["n_vertices"], params["source_edges"])
    vs = sorted(set(clique))
    if len(vs) != params["k"] or not g.is_clique(vs):
        raise NotAClique(f"{vs} is not a clique of size {params['k']}")
    n = red.instance.n_agents
    assignment = [-1] * n
    vset = set(vs)
    for u, v in g.edges:
        if u in vset and v in vset:
            agents = prov["edge_agents"][_ekey(u, v)]
            houses = prov["edge_houses"][_ekey(u, v)]
            if gen == "clique-vc-bip":
                assignment[agents[0]] = houses
            else:
                for aid, h in zip(agents, houses):
                    assignment[aid] = h
    dummies = iter(prov["dummy_houses"])
    for a in range(n):
        if assignment[a] == -1:
            assignment[a] = next(dummies)
    return Allocation(assignment)
