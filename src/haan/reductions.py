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
from .model import Allocation, Instance, normalize_edges

__all__ = [
    "SourceGraph",
    "ReducedInstance",
    "gen_clique_bipartite_d2",
    "witness_from_clique",
    "gen_halfsep_3regular",
    "witness_from_separator",
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
        object.__setattr__(self, "n_vertices", n_vertices)
        object.__setattr__(self, "edges", normalize_edges(edges, n_vertices, "vertex"))

    def regular_degree(self) -> int | None:
        if self.n_vertices == 0:
            return 0
        degs = [0] * self.n_vertices
        for u, v in self.edges:
            degs[u] += 1
            degs[v] += 1
        common = set(degs)
        return common.pop() if len(common) == 1 else None

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


def _check_k(k: int, lo: int, hi: int) -> None:
    if not lo <= k <= hi:
        raise BadK(f"k={k} outside [{lo}, {hi}]")


def _across(left: int, n: int) -> list[tuple[int, int]]:
    """Every agent pair with one agent below ``left`` and one at or above
    it, among ``n`` agents: the complete bipartite join of the two sides."""
    return [(a, b) for a in range(left) for b in range(left, n)]


def _reduced(name: str, g: SourceGraph, params: dict, target: int,
             prefs: list[list[int]], n_houses: int, first_dummy: int,
             agent_edges: Iterable[Sequence[int]], **maps) -> ReducedInstance:
    """The ``ReducedInstance`` of generator ``name``: one agent per entry of
    ``prefs``, and a provenance holding ``params`` with the source edges,
    the family's ``maps``, and houses ``first_dummy`` up as dummies."""
    provenance = {
        "generator": name,
        "params": {**params, "source_edges": [list(e) for e in g.edges]},
        **maps,
        "dummy_houses": list(range(first_dummy, n_houses)),
    }
    inst = Instance(len(prefs), n_houses, agent_edges, prefs)
    return ReducedInstance(inst, target, provenance)


def _checked_clique(red: ReducedInstance, clique: Iterable[int],
                    name: str, generators: tuple[str, ...]) -> list[int]:
    """The sorted ``clique``, after checking that ``red`` comes from one of
    ``generators`` and that ``clique`` is a clique of the target size in
    its source graph."""
    prov = red.provenance
    if prov.get("generator") not in generators:
        raise NotAClique(f"{name} expects a {' or '.join(generators)} instance")
    params = prov["params"]
    g = SourceGraph(params["n_vertices"], params["source_edges"])
    vs = sorted(set(clique))
    if len(vs) != params["k"] or not g.is_clique(vs):
        raise NotAClique(f"{vs} is not a clique of size {params['k']}")
    return vs


def _filled(red: ReducedInstance, placed: dict[int, int]) -> Allocation:
    """Allocation giving each agent in ``placed`` its house and every
    other agent, in agent order, the next of ``red``'s dummy houses."""
    dummies = iter(red.provenance["dummy_houses"])
    return Allocation([placed[a] if a in placed else next(dummies)
                       for a in range(red.instance.n_agents)])


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
    _check_k(k, 1, big_n)
    target = k * delta - k * (k - 1) // 2
    if target < 0:
        raise BadK(f"k={k} makes the target negative on a {delta}-regular graph")
    n_vertex_agents = delta * big_n
    n_dummy = n_vertex_agents + big_m - k
    if n_dummy < 0:
        raise BadK(f"k={k} exceeds the agent count {n_vertex_agents + big_m}")

    prefs = [[v] for v in range(big_n) for _ in range(delta)]
    prefs += [[u, v] for u, v in g.edges]
    return _reduced(
        "clique-bip-d2", g, {"k": k, "delta": delta, "n_vertices": big_n}, target,
        prefs, big_n + n_dummy, big_n, _across(n_vertex_agents, len(prefs)),
        vertex_agents={str(v): list(range(v * delta, (v + 1) * delta))
                       for v in range(big_n)},
        edge_agents={_ekey(u, v): n_vertex_agents + ei
                     for ei, (u, v) in enumerate(g.edges)},
        vertex_houses={str(v): v for v in range(big_n)},
        trivial=k > delta,
    )


def witness_from_clique(red: ReducedInstance, clique: Iterable[int]) -> Allocation:
    """Forward-direction witness: h_v to the first vertex agent of each
    clique vertex, dummies everywhere else. Evaluates to exactly the
    target number of envious agents."""
    vs = _checked_clique(red, clique, "witness_from_clique", ("clique-bip-d2",))
    agents = red.provenance["vertex_agents"]
    return _filled(red, {agents[str(v)][0]: v for v in vs if agents[str(v)]})


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
    _check_k(k, 0, n)
    t = n // 2 - k // 2
    return _reduced(
        "halfsep-3reg", g, {"k": k, "t": t, "n_vertices": n}, 2 * (k // 2),
        [list(range(t)) for _ in range(n)], n, t, g.edges,
        vertex_agents={str(v): [v] for v in range(n)},
        preferred_houses=list(range(t)),
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
    return _filled(red, {v: h for h, v in enumerate(x)})


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
    _check_k(k, 1, big_n)
    n_dummy = big_n + 2 * big_m - k * (k - 1) // 2
    if n_dummy < 0:
        raise BadK(f"k={k} needs more edge agents than the source graph has")

    prefs: list[list[int]] = [[] for _ in range(big_n)]
    edge_agents: dict[str, list[int]] = {}
    edge_houses: dict[str, int] = {}
    for ei, (u, v) in enumerate(g.edges):
        edge_agents[_ekey(u, v)] = [big_n + 2 * ei, big_n + 2 * ei + 1]
        edge_houses[_ekey(u, v)] = ei
        prefs[u].append(ei)
        prefs[v].append(ei)
        prefs += [[ei], [ei]]
    return _reduced(
        "clique-vc-bip", g, {"k": k, "t_pad": pad, "n_vertices": big_n}, k,
        prefs, big_m + n_dummy, big_m, _across(big_n, len(prefs)),
        vertex_agents={str(v): [v] for v in range(big_n)},
        edge_agents=edge_agents,
        edge_houses=edge_houses,
    )


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
    _check_k(k, 1, big_n)
    n_dummy = (big_m - k * (k - 1) // 2) * t + big_n
    if n_dummy < 0:
        raise BadK(f"k={k} needs more edges than the source graph has")

    prefs: list[list[int]] = [[] for _ in range(big_n)]
    edge_agents: dict[str, list[int]] = {}
    edge_houses: dict[str, list[int]] = {}
    for ei, (u, v) in enumerate(g.edges):
        houses = list(range(ei * t, (ei + 1) * t))
        edge_agents[_ekey(u, v)] = [big_n + h for h in houses]
        edge_houses[_ekey(u, v)] = houses
        prefs[u] += houses
        prefs[v] += houses
        prefs += [[h] for h in houses]
    return _reduced(
        "clique-vc-split", g, {"k": k, "t": t, "n_vertices": big_n}, k,
        prefs, big_m * t + n_dummy, big_m * t,
        list(combinations(range(big_n), 2)) + _across(big_n, len(prefs)),
        vertex_agents={str(v): [v] for v in range(big_n)},
        edge_agents=edge_agents,
        edge_houses=edge_houses,
    )


def witness_from_clique_vc(red: ReducedInstance, clique: Iterable[int]) -> Allocation:
    """Forward-direction witness for the vertex-cover reductions.

    Clique-edge houses go to their first edge agents, every other agent
    takes a dummy; at most k agents (the clique's vertex agents) envy.
    """
    vs = _checked_clique(red, clique, "witness_from_clique_vc",
                         ("clique-vc-bip", "clique-vc-split"))
    prov = red.provenance
    placed = {}
    for u, v in combinations(vs, 2):
        agents = prov["edge_agents"][_ekey(u, v)]
        houses = prov["edge_houses"][_ekey(u, v)]
        if prov["generator"] == "clique-vc-bip":
            placed[agents[0]] = houses
        else:
            placed.update(zip(agents, houses))
    return _filled(red, placed)
