"""Domain types and exact envy/happiness evaluation.

Agents and houses are dense 0-based indices throughout; names, if any,
belong to the file-format layer. All types are immutable after
construction and evaluation is pure, so values can be shared freely
across threads and worker processes.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from functools import cached_property
from typing import Iterable, Sequence

from .errors import InvalidAllocation, InvalidInstance

__all__ = [
    "Instance",
    "Allocation",
    "EnvyReport",
    "AnnotatedInstance",
    "SolveResult",
    "check_allocation",
    "evaluate",
    "evaluate_annotated",
]


def normalize_edges(edges: Iterable[Sequence[int]], n: int,
                    noun: str) -> tuple[tuple[int, int], ...]:
    """Sorted ``(u, v)`` pairs with ``u < v`` over ``range(n)``.

    Raises :class:`InvalidInstance` on a non-pair, a self-loop, an endpoint
    out of range or a duplicate edge; ``noun`` names the endpoints
    ("agent", "vertex") in the messages.
    """
    pairs = set()
    for edge in edges:
        pair = tuple(edge)
        if len(pair) != 2:
            raise InvalidInstance(f"edge {pair!r} is not a pair")
        u, v = sorted(pair)
        if u == v:
            raise InvalidInstance(f"self-loop at {noun} {u}")
        if not (0 <= u and v < n):
            raise InvalidInstance(f"edge ({u}, {v}) out of {noun} range")
        if (u, v) in pairs:
            raise InvalidInstance(f"duplicate edge ({u}, {v})")
        pairs.add((u, v))
    return tuple(sorted(pairs))


@dataclass(frozen=True)
class Instance:
    """Agents on a graph, houses, and per-agent sets of preferred houses.

    ``edges`` are unordered agent pairs; envy can only flow along them.
    Construction validates every invariant (index ranges, no self-loops,
    no duplicate edges, no duplicate preference entries) and raises
    :class:`InvalidInstance` otherwise.
    """

    n_agents: int
    n_houses: int
    edges: tuple[tuple[int, int], ...]
    preferences: tuple[frozenset[int], ...]

    def __init__(
        self,
        n_agents: int,
        n_houses: int,
        edges: Iterable[Sequence[int]] = (),
        preferences: Iterable[Iterable[int]] = (),
    ):
        if n_agents < 0 or n_houses < 0:
            raise InvalidInstance("agent and house counts must be non-negative")
        norm_edges = normalize_edges(edges, n_agents, "agent")

        prefs = []
        for a, houses in enumerate(preferences):
            entries = list(houses)
            pref_set = frozenset(entries)
            if len(pref_set) != len(entries):
                raise InvalidInstance(f"duplicate preference entry for agent {a}")
            for h in entries:
                if not (0 <= h < n_houses):
                    raise InvalidInstance(
                        f"agent {a} prefers house {h}, out of range [0, {n_houses})"
                    )
            prefs.append(pref_set)
        if len(prefs) != n_agents:
            raise InvalidInstance(
                f"expected {n_agents} preference sets, got {len(prefs)}"
            )

        object.__setattr__(self, "n_agents", n_agents)
        object.__setattr__(self, "n_houses", n_houses)
        object.__setattr__(self, "edges", norm_edges)
        object.__setattr__(self, "preferences", tuple(prefs))

    @property
    def d(self) -> int:
        """Maximum preference-set size over all agents (0 when empty)."""
        return max((len(p) for p in self.preferences), default=0)

    @cached_property
    def neighbors(self) -> tuple[tuple[int, ...], ...]:
        """Sorted neighbor tuple per agent."""
        adj: list[list[int]] = [[] for _ in range(self.n_agents)]
        for u, v in self.edges:
            adj[u].append(v)
            adj[v].append(u)
        return tuple(tuple(sorted(nb)) for nb in adj)

    def degree(self, agent: int) -> int:
        return len(self.neighbors[agent])


@dataclass(frozen=True)
class Allocation:
    """Injective agent-to-house map; ``assignment[a]`` is agent ``a``'s house."""

    assignment: tuple[int, ...]

    def __init__(self, assignment: Iterable[int]):
        object.__setattr__(self, "assignment", tuple(assignment))

    def __len__(self) -> int:
        return len(self.assignment)


@dataclass(frozen=True)
class EnvyReport:
    """Per-agent envy and happiness flags plus aggregate counts."""

    envious: tuple[bool, ...]
    happy: tuple[bool, ...]
    n_envious: int
    n_happy: int


@dataclass(frozen=True)
class AnnotatedInstance:
    """Instance plus per-agent feasibility sets and an angry-agent set.

    An angry agent is envious exactly when not assigned a preferred house,
    regardless of its neighbors. Feasibility sets restrict which houses an
    allocation may give each agent.
    """

    base: Instance
    feasible: tuple[frozenset[int], ...]
    angry: frozenset[int]

    def __init__(
        self,
        base: Instance,
        feasible: Iterable[Iterable[int]],
        angry: Iterable[int] = (),
    ):
        feas = []
        for a, houses in enumerate(feasible):
            fset = frozenset(houses)
            for h in fset:
                if not (0 <= h < base.n_houses):
                    raise InvalidInstance(
                        f"feasible house {h} for agent {a} out of range"
                    )
            feas.append(fset)
        if len(feas) != base.n_agents:
            raise InvalidInstance(
                f"expected {base.n_agents} feasibility sets, got {len(feas)}"
            )
        angry_set = frozenset(angry)
        for a in angry_set:
            if not (0 <= a < base.n_agents):
                raise InvalidInstance(f"angry agent {a} out of range")
        object.__setattr__(self, "base", base)
        object.__setattr__(self, "feasible", tuple(feas))
        object.__setattr__(self, "angry", angry_set)

    @classmethod
    def plain(cls, base: Instance) -> "AnnotatedInstance":
        """Wrap a plain instance: all houses feasible, nobody angry."""
        all_houses = frozenset(range(base.n_houses))
        return cls(base, [all_houses] * base.n_agents, ())


@dataclass(frozen=True)
class SolveResult:
    """Outcome of one solver run: optimum, witness, and bookkeeping.

    Evaluating ``allocation`` on the solved instance reproduces exactly
    ``min_envy`` envious and ``happiness`` happy agents.
    """

    min_envy: int
    happiness: int
    allocation: Allocation
    solver_id: str
    guesses_explored: int


def check_allocation(inst: Instance, alloc: Allocation) -> None:
    """Raise :class:`InvalidAllocation` unless ``alloc`` is total, injective
    and in range for ``inst``."""
    assignment = alloc.assignment
    if len(assignment) != inst.n_agents:
        raise InvalidAllocation(
            f"allocation covers {len(assignment)} agents, instance has {inst.n_agents}"
        )
    seen = set()
    for a, h in enumerate(assignment):
        if not (0 <= h < inst.n_houses):
            raise InvalidAllocation(f"agent {a} assigned house {h}, out of range")
        if h in seen:
            raise InvalidAllocation(f"house {h} assigned twice")
        seen.add(h)


def evaluate(inst: Instance, alloc: Allocation) -> EnvyReport:
    """Exact envy/happiness report for an allocation.

    Agent ``a`` envies neighbor ``b`` iff ``a`` did not receive a preferred
    house while ``b`` received a house that ``a`` prefers.
    """
    check_allocation(inst, alloc)
    assignment = alloc.assignment
    prefs = inst.preferences
    happy = tuple(assignment[a] in prefs[a] for a in range(inst.n_agents))
    envious = tuple(
        not happy[a] and any(assignment[b] in prefs[a] for b in inst.neighbors[a])
        for a in range(inst.n_agents)
    )
    return EnvyReport(
        envious=envious,
        happy=happy,
        n_envious=sum(envious),
        n_happy=sum(happy),
    )


def evaluate_annotated(
    ann: AnnotatedInstance, alloc: Allocation
) -> tuple[bool, EnvyReport]:
    """Annotated report: feasibility flag plus envy under angry semantics.

    The report is :func:`evaluate`'s on the base instance, except that
    angry agents are envious iff unassigned a preferred house, whatever
    their neighbors hold. With no angry agents and all-permissive
    feasibility sets this coincides with :func:`evaluate`.
    """
    report = evaluate(ann.base, alloc)
    feasible_ok = all(h in f for h, f in zip(alloc.assignment, ann.feasible))
    envious = tuple(
        e or (a in ann.angry and not report.happy[a])
        for a, e in enumerate(report.envious)
    )
    return feasible_ok, replace(report, envious=envious, n_envious=sum(envious))
