"""Seeded benchmark corpora, one function per workload.

Every workload function takes a ``random.Random`` seeded from ``--seed``
and returns the cases of one corpus pass. A case is one instance plus the
solver calls made on it; the solvers only ever see the generated instance.
Reduction instances are built through ``haan.reductions`` (looked up on the
module at call time, so a traced run can wrap the generators).

The random instances of each workload are one fixed family, drawn from
FAMILY_SEED. On sweep-small the seed renumbers their agents and houses.
Renumbering changes enumeration orders, tie-breaks and which separators
and covers are found, but not the mix of instance sizes: with a fresh draw
per seed, one pass of sweep-small took 1.4 s for one seed and 2.7 s for
another.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from itertools import combinations, permutations

from haan import reductions
from haan.cli.sources import named_source_graph
from haan.model import Allocation, AnnotatedInstance, Instance
from haan.solvers import Objective

ENVY = Objective.MIN_ENVY
HAPPY = Objective.MIN_ENVY_THEN_MAX_HAPPY
BOTH = (ENVY, HAPPY)

FAMILY_SEED = 0

# The random sweep keeps every solver's guess space within this bound, as
# the library's own oracle-agreement sweep does.
SWEEP_SPACE_CAP = 1 << 22


@dataclass(frozen=True)
class Case:
    """One corpus instance and the (algorithm, objective) calls made on it.

    ``annotated`` is set for annotated instances, which only the separator
    solves. ``witness`` is an allocation built by the generator; its envy
    bounds the optimum from above. ``committed`` marks seed-independent
    instances whose expected optima are committed in ``expected.json``
    instead of being enumerated at run time.
    ``roundtrip`` sends the instance through ``haan/1`` text before solving.
    """

    label: str
    instance: Instance
    calls: tuple[tuple[str, Objective], ...]
    annotated: AnnotatedInstance | None = None
    witness: Allocation | None = None
    committed: bool = False
    roundtrip: bool = False


def _guess_space(n: int, edges) -> int:
    degs = [0] * n
    for u, v in edges:
        degs[u] += 1
        degs[v] += 1
    space = 1
    for d in degs:
        space *= (1 << d) + 1
    return space


def _random_graph(rng: random.Random, n: int):
    while True:
        p_edge = rng.choice((0.2, 0.4, 0.6))
        edges = [e for e in combinations(range(n), 2) if rng.random() < p_edge]
        if _guess_space(n, edges) <= SWEEP_SPACE_CAP:
            return edges


def _identity(n: int) -> Allocation:
    return Allocation(range(n))


def _relabel(rng: random.Random, n: int, m: int, edges, prefs, feasible=None, angry=()):
    """An instance under a random renumbering of agents and houses, with its
    annotation when ``feasible`` is given."""
    agent = rng.sample(range(n), n)
    house = rng.sample(range(m), m)

    def by_agent(sets):
        out = [None] * n
        for a, houses in enumerate(sets):
            out[agent[a]] = [house[h] for h in houses]
        return out

    inst = Instance(n, m, [(agent[u], agent[v]) for u, v in edges], by_agent(prefs))
    if feasible is None:
        return inst, None
    return inst, AnnotatedInstance(inst, by_agent(feasible), [agent[a] for a in angry])


# ---------------------------------------------------------------------------
# sweep-small
# ---------------------------------------------------------------------------

SWEEP_PLAIN = 160
SWEEP_D1 = 24
SWEEP_ANNOTATED = 40
PLAIN_ALGOS = ("brute", "envy-guess", "separator", "vc-xp")


def _has_feasible_allocation(feas: list[list[int]], m: int) -> bool:
    sets = [set(f) for f in feas]
    return any(all(h in sets[a] for a, h in enumerate(p))
               for p in permutations(range(m), len(feas)))


def sweep_small(rng: random.Random) -> list[Case]:
    """Tiny random instances: n <= 6, m <= 7, 0-3 preferred houses.

    Annotated draws whose feasibility sets admit no allocation are
    replaced, so no call is expected to raise.
    """
    family = random.Random(FAMILY_SEED)
    cases = []
    for i in range(SWEEP_PLAIN):
        n = family.randint(0, 6)
        m = family.randint(n, 7)
        edges = _random_graph(family, n)
        prefs = [family.sample(range(m), family.randint(0, min(3, m))) for _ in range(n)]
        inst, _ = _relabel(rng, n, m, edges, prefs)
        calls = tuple((a, o) for a in PLAIN_ALGOS for o in BOTH)
        cases.append(Case(f"plain-{i}", inst, calls, witness=_identity(n), roundtrip=True))
    for i in range(SWEEP_D1):
        n = family.randint(1, 6)
        m = family.randint(n, 7)
        edges = _random_graph(family, n)
        prefs = [[family.randrange(m)] for _ in range(n)]
        inst, _ = _relabel(rng, n, m, edges, prefs)
        calls = tuple((a, o) for a in PLAIN_ALGOS + ("d1",) for o in BOTH)
        cases.append(Case(f"d1-{i}", inst, calls, witness=_identity(n), roundtrip=True))
    made = 0
    while made < SWEEP_ANNOTATED:
        n = family.randint(1, 6)
        m = family.randint(n, 7)
        edges = _random_graph(family, n)
        prefs = [family.sample(range(m), family.randint(0, min(3, m))) for _ in range(n)]
        feas = [family.sample(range(m), family.randint(1, m)) for _ in range(n)]
        angry = [a for a in range(n) if family.random() < 0.3]
        if not _has_feasible_allocation(feas, m):
            continue
        inst, ann = _relabel(rng, n, m, edges, prefs, feas, angry)
        calls = tuple(("separator", o) for o in BOTH)
        cases.append(Case(f"annotated-{made}", inst, calls, annotated=ann,
                          roundtrip=True))
        made += 1
    return cases


# ---------------------------------------------------------------------------
# vcxp-cover
# ---------------------------------------------------------------------------

VC_PLANTED = 97


def _clique(g, k: int):
    for vs in combinations(range(g.n_vertices), k):
        if g.is_clique(vs):
            return list(vs)
    return None


def _clique_case(label: str, red) -> Case:
    g = reductions.SourceGraph(red.provenance["params"]["n_vertices"],
                               red.provenance["params"]["source_edges"])
    clique = _clique(g, red.provenance["params"]["k"])
    witness = None
    if clique is not None:
        if red.provenance["generator"] == "clique-bip-d2":
            witness = reductions.witness_from_clique(red, clique)
        else:
            witness = reductions.witness_from_clique_vc(red, clique)
    return Case(label, red.instance, (("vc-xp", ENVY),), witness=witness,
                committed=True)


def vcxp_fixed() -> list[Case]:
    """Clique-family reductions small enough for sub-second vc-xp solves."""
    k3 = named_source_graph("k3")
    c4 = named_source_graph("cycle:4")
    return [
        _clique_case("clique-bip-d2:k3:2", reductions.gen_clique_bipartite_d2(k3, 2)),
        _clique_case("clique-vc-bip:k3:2", reductions.gen_clique_vc_bipartite(k3, 2)),
        _clique_case("clique-vc-split:cycle4:2:t1",
                     reductions.gen_clique_vc_split(c4, 2, 1)),
        _clique_case("clique-vc-split:cycle4:3:t1",
                     reductions.gen_clique_vc_split(c4, 3, 1)),
    ]


def _planted_cover(rng: random.Random, n: int, k: int):
    """(n, m, edges, preferences) of a random instance whose agent graph has
    a vertex cover of size k.

    Three houses are liked, the rest are dummies nobody prefers, and
    m = n + 3 leaves the non-cover agents enough houses that vc-xp's
    extension matching mostly takes its general (non-enumerative) path.
    """
    cover = rng.sample(range(n), k)
    edges = set()
    for c in cover:
        for a in range(n):
            if a != c and (a not in cover or a > c) and rng.random() < 0.6:
                edges.add((min(a, c), max(a, c)))
    prefs = [rng.sample(range(3), rng.randint(1, 2)) for _ in range(n)]
    return n, n + 3, sorted(edges), prefs


def vcxp_cover(rng: random.Random) -> list[Case]:
    """Clique-family reductions plus a fixed family of planted-cover instances.

    The seed does not renumber this corpus. Under ``envy`` the first
    zero-envy guess in enumeration order prunes the rest, so vc-xp's work
    depends on the numbering: renumbering the planted family moved the
    matching calls of one pass between 1.3k and 3.6k from seed to seed.
    """
    family = random.Random(FAMILY_SEED)
    planted = []
    for i in range(VC_PLANTED):
        n, k = 7 + i // 2 % 2, 2 + i % 2
        n, m, edges, prefs = _planted_cover(family, n, k)
        planted.append(Case(f"planted-{i}", Instance(n, m, edges, prefs),
                            (("vc-xp", ENVY),), witness=_identity(n)))
    return planted[:1] + vcxp_fixed() + planted[1:]



# ---------------------------------------------------------------------------
# halfsep-guess
# ---------------------------------------------------------------------------

HALFSEP_RENUMBERINGS = 3


def _halfsep_graphs():
    """The cubic graphs on four and six vertices. Those on eight vertices
    take 0.1-5 s a call, too long to repeat within a run."""
    k33 = reductions.SourceGraph(6, [(a, b) for a in range(3) for b in range(3, 6)])
    return [("k4", named_source_graph("k4")), ("prism", named_source_graph("prism")),
            ("k33", k33)]


def halfsep_guess(rng: random.Random) -> list[Case]:
    """Half-separator reductions (halfsep-3reg) at every k, each solved by
    the separator and envy-guess under ``envy-happy``.

    Every instance appears in HALFSEP_RENUMBERINGS fixed numberings of its
    agents and houses. All agents prefer the same houses, so renumbering
    changes only tie-breaks and enumeration orders, yet those moved the
    fastest of four passes between 2.6 s and 3.5 s over five seeds when
    the seed drew the numberings; so, as on vcxp-cover, it does not.
    """
    family = random.Random(FAMILY_SEED)
    cases = []
    for name, g in _halfsep_graphs():
        for k in range(g.n_vertices + 1):
            red = reductions.gen_halfsep_3regular(g, k)
            inst = red.instance
            for r in range(HALFSEP_RENUMBERINGS):
                inst_r, _ = _relabel(family, inst.n_agents, inst.n_houses, inst.edges,
                                     inst.preferences)
                cases.append(Case(f"halfsep:{name}:{k}:{r}", inst_r,
                                  (("separator", HAPPY), ("envy-guess", HAPPY))))
    return cases
