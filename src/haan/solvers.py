"""The five exact solvers and the dispatching front end.

All solvers share the result contract: the reported optimum is exactly
what evaluating the returned witness reproduces. Guess enumerations run
in a fixed, documented order and keep the first optimum encountered, so
results are bit-identical for any worker count: envy-guess and vc-xp
partition their guess space into ranked chunks and the reduction keeps
the lowest-ranked optimum; the other solvers run sequentially.

Objectives are encoded as single integer keys
``scale*envy - w*happiness``: ``(scale, w) = (n+1, 1)`` under
``envy-happy`` and ``(1, 0)`` under ``envy``. Total happiness never
exceeds n, so the scaling preserves the lexicographic envy-then-happiness
order in exact integer arithmetic.

No key is below the *floor* ``-w*H``, where H is the most agents that
can hold a preferred (and feasible) house at once: a maximum matching,
the optimum of classical House Allocation. Brute force, envy-guess and
the separator's top level stop once their incumbent reaches it; nothing
after the first floor-key guess could replace it, so witnesses do not
change. Brute force and envy-guess report their whole guess space as
``guesses_explored``, by formula.
"""

from __future__ import annotations

import math
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from itertools import permutations
from typing import Iterable, Iterator, Sequence

from .errors import (
    BudgetExceeded,
    InstanceInfeasible,
    InvalidInstance,
    NoFeasibleAllocation,
    NotACover,
    UnknownAlgorithm,
    WrongSolver,
    check_deadline,
)
from .graphtools import balanced_separator_of_subgraph, find_min_vertex_cover
from .matching import (
    left_perfect_matching_masks,
    max_matching_size_masks,
    min_cost_saturating_assignment,
)
from .model import (
    Allocation,
    AnnotatedInstance,
    Instance,
    SolveResult,
    evaluate,
    evaluate_annotated,
)

__all__ = [
    "Objective",
    "SolverConfig",
    "ALGORITHMS",
    "solve_bruteforce",
    "solve_d1_matching",
    "solve_envy_guess",
    "solve_separator",
    "solve_vertex_cover_xp",
    "solve",
]

DEFAULT_GUESS_LIMIT = 1 << 24

ALGORITHMS = ("brute", "d1", "envy-guess", "separator", "vc-xp", "auto")


class Objective(Enum):
    """Minimize envy, optionally maximizing happiness among the minima."""

    MIN_ENVY = "envy"
    MIN_ENVY_THEN_MAX_HAPPY = "envy-happy"


@dataclass(frozen=True)
class SolverConfig:
    """Shared solver knobs.

    ``workers`` processes share envy-guess and vc-xp; the other solvers
    ignore it. ``guess_limit=None`` lifts the exploration cap.
    ``deadline`` is a ``time.monotonic()`` cutoff checked cooperatively
    inside guess loops and graph searches.
    """

    objective: Objective = Objective.MIN_ENVY
    workers: int = 1
    guess_limit: int | None = DEFAULT_GUESS_LIMIT
    deadline: float | None = None

    def __post_init__(self):
        if self.guess_limit is not None and self.guess_limit < 1:
            raise InvalidInstance("guess_limit must be at least 1")
        if self.workers < 1:
            raise InvalidInstance("workers must be at least 1")


def _key_weights(cfg: SolverConfig, n: int) -> tuple[int, int]:
    """``(scale, w)`` of the guess key ``scale*envy - w*happiness``."""
    if cfg.objective is Objective.MIN_ENVY_THEN_MAX_HAPPY:
        return n + 1, 1
    return 1, 0


def _bits(items: Iterable[int]) -> int:
    """Bitmask with bit ``i`` set for every ``i`` in ``items``."""
    mask = 0
    for i in items:
        mask |= 1 << i
    return mask


def _members(mask: int) -> list[int]:
    """Set bit positions of ``mask``, ascending."""
    return [i for i in range(mask.bit_length()) if mask >> i & 1]


def _pref_masks(inst: Instance) -> list[int]:
    return [_bits(p) for p in inst.preferences]


def _house_classes(m: int, masks: Iterable[int]) -> list[int]:
    """Partition of ``range(m)`` into house classes, as bitmasks: two
    houses share a class exactly when each of ``masks`` holds both or
    neither. With the agents' preferred and feasible houses as ``masks``,
    the houses of a class are interchangeable."""
    classes = [(1 << m) - 1] if m else []
    for mask in masks:
        if len(classes) == m:
            break
        classes = [part for c in classes for part in (c & mask, c & ~mask) if part]
    return classes


def _key_floor(masks: Sequence[int], m: int, w: int) -> int:
    """The floor ``-w*H`` of the key, with H a maximum matching of the
    agents into ``masks``; 0 under ``envy``, where no matching runs."""
    return -w * max_matching_size_masks(masks, m) if w else 0


def _result(inst: Instance, assignment: Sequence[int], solver_id: str,
            guesses: int) -> SolveResult:
    alloc = Allocation(assignment)
    report = evaluate(inst, alloc)
    return SolveResult(
        min_envy=report.n_envious,
        happiness=report.n_happy,
        allocation=alloc,
        solver_id=solver_id,
        guesses_explored=guesses,
    )


def _search(inst: Instance, cfg: SolverConfig, label: str, total: int,
            worker, chunk_args: list) -> SolveResult:
    """Driver of the guess solvers.

    Checks the guess space ``total`` against the budget, runs the chunk
    jobs in rank order (in-process, or on a pool when several workers and
    chunks), keeps the best key of the lowest-ranked chunk that reaches it,
    sums the guess counts, and evaluates the witness. Each job returns
    ``(best key or None, witness, guesses)``.
    """
    if cfg.guess_limit is not None and total > cfg.guess_limit:
        raise BudgetExceeded(
            f"{label}: guess space {total} exceeds limit {cfg.guess_limit}"
        )
    workers = min(cfg.workers, len(chunk_args))
    if workers <= 1:
        results = map(worker, chunk_args)
    else:
        with ProcessPoolExecutor(max_workers=workers) as pool:
            results = list(pool.map(worker, chunk_args))
    best_key = None
    best = None
    guesses = 0
    for key, witness, count in results:
        guesses += count
        if key is not None and (best_key is None or key < best_key):
            best_key = key
            best = witness
    assert best is not None  # m >= n: some allocation always exists
    return _result(inst, best, label, guesses)


# ---------------------------------------------------------------------------
# Brute force
# ---------------------------------------------------------------------------

def _bf_chunk(args) -> tuple[int | None, tuple | None, int]:
    (n, m, pref, nbrs, scale, w, floor, deadline) = args
    best_key = None
    best = None
    agents = range(n)
    for i, asg in enumerate(permutations(range(m), n)):
        if deadline is not None and not i & 4095:
            check_deadline(deadline)
        env = 0
        hap = 0
        for a in agents:
            pb = pref[a]
            if pb >> asg[a] & 1:
                hap += 1
            else:
                for b in nbrs[a]:
                    if pb >> asg[b] & 1:
                        env += 1
                        break
        key = env * scale - w * hap
        if best_key is None or key < best_key:
            best_key = key
            best = asg
            if key == floor:
                break  # nothing later can beat it
    return best_key, best, math.perm(m, n)


def solve_bruteforce(inst: Instance, cfg: SolverConfig | None = None) -> SolveResult:
    """Exhaustive enumeration of all injective assignments.

    The witness is the first optimum in lexicographic assignment order;
    every other solver is checked against this one, so the enumeration is
    one sequential loop whatever ``cfg.workers`` says. It stops at the
    first assignment whose key is the floor; ``guesses_explored`` is the
    guess space perm(m, n).
    """
    cfg = cfg or SolverConfig()
    n, m = inst.n_agents, inst.n_houses
    if m < n:
        raise InstanceInfeasible(f"{m} houses for {n} agents")
    pref = _pref_masks(inst)
    scale, w = _key_weights(cfg, n)
    floor = _key_floor(pref, m, w)
    chunk_args = [(n, m, pref, inst.neighbors, scale, w, floor, cfg.deadline)]
    return _search(inst, cfg, "brute", math.perm(m, n), _bf_chunk, chunk_args)


# ---------------------------------------------------------------------------
# d = 1 matching solver
# ---------------------------------------------------------------------------

def solve_d1_matching(inst: Instance, cfg: SolverConfig | None = None) -> SolveResult:
    """Polynomial solver for instances where every agent prefers exactly
    one house.

    The cost of assigning house h to agent a is the number of neighbors
    whose single preferred house is h (the agents that assignment makes
    envious); a minimum-cost agent-saturating matching on the complete
    bipartite graph is then an optimal allocation.
    """
    cfg = cfg or SolverConfig()
    n, m = inst.n_agents, inst.n_houses
    if any(len(p) != 1 for p in inst.preferences):
        raise WrongSolver("d1 solver requires exactly one preferred house per agent")
    if m < n:
        raise InstanceInfeasible(f"{m} houses for {n} agents")
    single = [next(iter(p)) for p in inst.preferences]
    scale = n + 1
    # The happiness adjustment is harmless under the plain objective: it
    # only breaks ties among minimum-cost matchings toward happier ones.
    rows: list[list[int | None]] = []
    for a in range(n):
        counts = [0] * m
        for b in inst.neighbors[a]:
            counts[single[b]] += 1
        rows.append(
            [scale * counts[h] - (1 if single[a] == h else 0) for h in range(m)]
        )
    matched = min_cost_saturating_assignment(rows)
    assert matched is not None  # complete bipartite graph with m >= n
    _, assignment = matched
    return _result(inst, assignment, "d1", 0)


# ---------------------------------------------------------------------------
# Envy-guessing solver
# ---------------------------------------------------------------------------

def _eg_chunk(args) -> tuple[int | None, tuple | None, int]:
    (n, m, pref, nbrs, scale, w, floor, smask_lo, smask_hi, deadline) = args
    best_key = None
    best = None
    share = 0  # of the guess space, from this chunk's supports
    nodes = 0
    # Each decision's choices as (happiness lost, [(agent, mask to AND)]).
    # An envious agent whose first envied neighbour is nbrs[a][i] is
    # unhappy, that neighbour holds a house it prefers and those before it
    # hold none; a non-envious agent is unhappy (it and its neighbours avoid
    # its preferred houses) or happy.
    envious = [[(0, [(b, ~pref[a]) for b in (a, *nb[:i])] + [(nb[i], pref[a])])
                for i in range(len(nb))] for a, nb in enumerate(nbrs)]
    calm = [[(1, [(b, ~pref[a]) for b in (a, *nb)]), (0, [(a, pref[a])])]
            for a, nb in enumerate(nbrs)]
    isolated = _bits(a for a in range(n) if not nbrs[a])

    def visit(level, masks, lost):
        # A node with no empty mask and a key bound that can win. Masks
        # only shrink and the bound only rises below, so a child that
        # fails either is skipped with its subtree.
        nonlocal best_key, best, nodes
        nodes += 1
        if deadline is not None and not nodes & 4095:
            check_deadline(deadline)
        if level == n:
            assignment = left_perfect_matching_masks(masks, m)
            if assignment is not None:
                best_key = top + w * lost
                best = tuple(assignment)
            return
        for loss, updates in levels[level]:
            if best_key is not None and max(top + w * (lost + loss), cap) >= best_key:
                continue
            child = masks[:]
            for b, keep in updates:
                child[b] &= keep
                if not child[b]:
                    break
            else:
                visit(level + 1, child, lost + loss)

    for smask in range(smask_lo, smask_hi):
        if deadline is not None and not smask & 63:
            check_deadline(deadline)
        if smask & isolated:
            continue  # an agent without neighbours envies nobody: no guesses
        env = smask.bit_count()
        # Key bounds: every undecided agent happy, and at most H happy.
        top = env * scale - w * (n - env)
        cap = env * scale + floor
        share += math.prod(len(nbrs[a]) for a in _members(smask)) << (n - env)
        if best_key is not None and max(top, cap) >= best_key:
            continue
        # Depth first: the envious agents' first envied neighbours (support
        # order, positions ascending), then the other agents from last to
        # first, unhappy before happy, so leaves come in cmask order.
        levels = [envious[a] for a in range(n) if smask >> a & 1]
        levels += [calm[a] for a in range(n - 1, -1, -1) if not smask >> a & 1]
        visit(0, [(1 << m) - 1] * n, 0)
    return best_key, best, share


def solve_envy_guess(inst: Instance, cfg: SolverConfig | None = None) -> SolveResult:
    """Exact solver guessing, per envious agent, its first envied neighbour.

    A guess names the envious agents (the support), the position of each
    one's first envied neighbour in its sorted neighbour list, and which
    other agents are happy. That neighbour holds a house the agent prefers
    and the neighbours before it hold none; an unhappy non-envious agent
    and its neighbours avoid its preferred houses. The guess is accepted
    iff a perfect agent-side matching into the trimmed feasibility sets
    exists; every allocation satisfies exactly one guess. Supports run
    ascending; per support, one depth-first search decides the witness
    positions (support order, positions ascending), then the other agents
    from last to first, unhappy before happy, so happy subsets come
    ascending. The first optimum is kept. One rule prunes: a node whose
    trimmed sets hold an empty one, or whose key bound cannot beat the
    incumbent, is skipped with its subtree. The bound is the larger of
    two: all undecided agents happy, and the floor plus ``scale`` per
    envious agent of the support (no more than H agents are happy). Once
    the incumbent is at the floor, every later node is skipped.
    ``guesses_explored`` is the guess space by formula, the product over
    agents of ``degree + 2``; when ``cfg.workers`` processes split the
    supports into chunks, each chunk reports its share.
    """
    cfg = cfg or SolverConfig()
    n, m = inst.n_agents, inst.n_houses
    if m < n:
        raise InstanceInfeasible(f"{m} houses for {n} agents")
    pref = _pref_masks(inst)
    scale, w = _key_weights(cfg, n)
    # Contiguous ranges of envious-support bitmasks form the chunks.
    n_chunks = 1 if cfg.workers <= 1 else min(1 << n, 4 * cfg.workers)
    bounds = [(1 << n) * i // n_chunks for i in range(n_chunks + 1)]
    floor = _key_floor(pref, m, w)
    chunk_args = [
        (n, m, pref, inst.neighbors, scale, w, floor, bounds[i], bounds[i + 1],
         cfg.deadline)
        for i in range(n_chunks)
    ]
    total = math.prod(inst.degree(a) + 2 for a in range(n))
    return _search(inst, cfg, "envy-guess", total, _eg_chunk, chunk_args)


# ---------------------------------------------------------------------------
# Separator recursion (annotated problem)
# ---------------------------------------------------------------------------

def _lowest_tuples(cands: list[list[int]], below: list[int], avail: int,
                   j: int = 0, prefix: tuple = ()) -> Iterator[tuple[int, ...]]:
    """Injective tuples with entry ``j`` from ``cands[j]`` (ascending), in
    lexicographic order, where each entry is the lowest house of its class
    not yet used: ``below[h]`` is the mask of the houses of ``h``'s class
    below ``h``, and ``avail`` the houses still free."""
    if j == len(cands):
        yield prefix
        return
    for h in cands[j]:
        bit = 1 << h
        if avail & bit and not below[h] & avail:
            yield from _lowest_tuples(cands, below, avail ^ bit, j + 1, prefix + (h,))


def _lowest_subsets(houses: list[int], below: list[int], rest: int, r: int,
                    start: int = 0, chosen: int = 0) -> Iterator[int]:
    """Masks of the r-subsets of ``houses`` (the members of ``rest``,
    ascending) that hold the lowest houses of each class in ``rest``, in
    ``combinations`` order."""
    if r == 0:
        yield chosen
        return
    for i in range(start, len(houses) - r + 1):
        h = houses[i]
        if not below[h] & rest & ~chosen:
            yield from _lowest_subsets(houses, below, rest, r - 1, i + 1, chosen | 1 << h)


def solve_separator(
    ann: AnnotatedInstance, cfg: SolverConfig | None = None
) -> SolveResult:
    """Divide-and-conquer exact solver for the annotated problem.

    Each level fixes the houses of a minimum balanced separator, marks
    outside neighbors of happily-assigned houses angry, guesses which
    undecided separator agents stay non-envious, splits the remaining
    houses between the two parts, and recurses independently: A1 gets
    exactly one house per agent and A2 all the rest, spare houses
    included, so no set of used houses is guessed.

    A subproblem is the tuple ``(agents, houses, F, P, angry)``: a sorted
    agent tuple, the bitmask of the houses it shares out, each agent's
    feasible (F) and preferred (P) houses among them as bitmasks aligned
    with ``agents``, and its angry agents as a bitmask over positions in
    ``agents``. That tuple is also the memo key; the root shares out all
    houses.

    Houses that the same agents prefer and may receive form a class
    (computed once, at the root), and swapping houses within a class
    maps a guess onto one of equal value. So only canonical guesses are
    tried, each the lexicographic least of the guesses such swaps reach:
    separator houses in lexicographic order, each separator agent over
    its feasible houses ascending but only the lowest unused house of
    each class; A1's houses as the lowest houses of each class in every
    class multiplicity, in ``combinations`` order; and the non-envious
    subsets of the undecided separator agents as ascending bitmasks. The
    first optimum is kept, so the witness is the one the full
    enumeration keeps. The top level stops at its first allocation whose
    key is the floor (H is a maximum matching into the preferred feasible
    houses); subproblems always finish. ``guesses_explored`` counts the
    canonical (separator houses, A1 houses, non-envious subset) triples
    reached in distinct subproblems before that stop.

    Raises :class:`NoFeasibleAllocation` when the feasibility sets admit
    no allocation.
    """
    cfg = cfg or SolverConfig()
    inst = ann.base
    n, m = inst.n_agents, inst.n_houses
    if m < n:
        raise InstanceInfeasible(f"{m} houses for {n} agents")
    nbrs = inst.neighbors
    limit = cfg.guess_limit
    deadline = cfg.deadline
    scale, w = _key_weights(cfg, n)
    count = 0
    memo: dict = {}
    # The decomposition depends only on the agent subset, never on the
    # feasibility data, so it is cached apart from the subproblems.
    splits: dict = {}

    def split(agents):
        """Separator ``(S, A1, A2)`` of ``agents``, the positions of S, A1
        and A2 in ``agents``, the ``(position, indices in S of its separator
        neighbours)`` of every agent that has some, and per separator agent
        the positions of its neighbours in A1 and in A2."""
        S, A1, A2 = balanced_separator_of_subgraph(agents, nbrs, deadline)
        pos = {a: p for p, a in enumerate(agents)}
        in_s = {a: j for j, a in enumerate(S)}
        in_1 = {a: i for i, a in enumerate(A1)}
        in_2 = {a: i for i, a in enumerate(A2)}
        watchers = []
        for p, a in enumerate(agents):
            seen = tuple(in_s[b] for b in nbrs[a] if b in in_s)
            if seen:
                watchers.append((p, seen))
        return (
            S, A1, A2,
            [pos[a] for a in S], [pos[a] for a in A1], [pos[a] for a in A2],
            watchers,
            [tuple(in_1[b] for b in nbrs[a] if b in in_1) for a in S],
            [tuple(in_2[b] for b in nbrs[a] if b in in_2) for a in S],
        )

    def best_of(sub, stop=None):
        """``(scaled value, witness pairs)`` of a subproblem, or ``None``
        when no assignment respects its feasibility sets; returns at once
        when the value reaches ``stop``, a lower bound."""
        nonlocal count
        if not sub[0]:
            return 0, ()
        if sub in memo:
            return memo[sub]
        agents, hmask, F, P, angry = sub
        got = splits.get(agents)
        if got is None:
            got = splits[agents] = split(agents)
        S, A1, A2, iS, i1, i2, watchers, near1, near2 = got
        w_parts = w * (len(A1) + len(A2))
        ps = [P[p] for p in iS]
        best = None
        for phi in _lowest_tuples([_members(F[p]) for p in iS], below, hmask):
            check_deadline(deadline)
            # Agents that prefer a house a separator neighbour now holds:
            # envious in S unless happy, angry in the parts.
            marked = angry
            for p, seen in watchers:
                pp = P[p]
                for j in seen:
                    if pp >> phi[j] & 1:
                        marked |= 1 << p
                        break
            n_c = 0
            forced_env = 0
            undecided = []
            for j, p in enumerate(iS):
                if ps[j] >> phi[j] & 1:
                    n_c += 1
                elif marked >> p & 1:
                    forced_env += 1
                else:
                    undecided.append(j)
            if best is not None and scale * forced_env - w * n_c - w_parts >= best[0]:
                continue
            b1 = _bits(i for i, p in enumerate(i1) if marked >> p & 1)
            b2 = _bits(i for i, p in enumerate(i2) if marked >> p & 1)
            rest = hmask & ~_bits(phi)
            for h1mask in _lowest_subsets(_members(rest), below, rest, len(A1)):
                h2mask = rest & ~h1mask
                f1 = tuple(F[p] & h1mask for p in i1)
                f2 = tuple(F[p] & h2mask for p in i2)
                p1 = tuple(P[p] & h1mask for p in i1)
                p2 = tuple(P[p] & h2mask for p in i2)
                for kmask in range(1 << len(undecided)):
                    count += 1
                    if limit is not None and count > limit:
                        raise BudgetExceeded(
                            f"separator: guess count exceeded limit {limit}"
                        )
                    env_s = forced_env + len(undecided) - kmask.bit_count()
                    contrib = scale * env_s - w * n_c
                    if best is not None and contrib - w_parts >= best[0]:
                        continue
                    g1, g2 = f1, f2
                    if kmask:
                        # A non-envious separator agent's neighbours must
                        # avoid the houses it prefers.
                        l1, l2 = list(f1), list(f2)
                        for i, j in enumerate(undecided):
                            if kmask >> i & 1:
                                off = ~ps[j]
                                for q in near1[j]:
                                    l1[q] &= off
                                for q in near2[j]:
                                    l2[q] &= off
                        g1, g2 = tuple(l1), tuple(l2)
                    if not all(g1) or not all(g2):
                        continue
                    sub1 = best_of((A1, h1mask, g1, p1, b1))
                    if sub1 is None:
                        continue
                    sub2 = best_of((A2, h2mask, g2, p2, b2))
                    if sub2 is None:
                        continue
                    value = contrib + sub1[0] + sub2[0]
                    if best is None or value < best[0]:
                        best = (value, tuple(zip(S, phi)) + sub1[1] + sub2[1])
                        if value == stop:
                            return best
        memo[sub] = best
        return best

    root = (tuple(range(n)), (1 << m) - 1, tuple(_bits(f) for f in ann.feasible),
            tuple(_pref_masks(inst)), _bits(ann.angry))
    # Root classes stay classes of every subproblem: each mask the
    # recursion ANDs in is a union of classes or the subproblem's houses.
    below = [0] * m
    for c in _house_classes(m, root[2] + root[3]):
        for h in _members(c):
            below[h] = c & ((1 << h) - 1)
    try:
        best = best_of(root, _key_floor([p & f for p, f in zip(root[3], root[2])], m, w))
    finally:
        # ``best_of`` refers to itself through its closure; dropping the
        # name breaks that cycle, so the memo is freed now rather than at
        # the next cyclic garbage collection.
        del best_of
    if best is None:
        raise NoFeasibleAllocation(
            "no allocation respects the feasibility sets"
        )
    assignment = [-1] * n
    for a, h in best[1]:
        assignment[a] = h
    alloc = Allocation(assignment)
    feasible_ok, report = evaluate_annotated(ann, alloc)
    assert feasible_ok
    return SolveResult(
        min_envy=report.n_envious,
        happiness=report.n_happy,
        allocation=alloc,
        solver_id="separator",
        guesses_explored=count,
    )


# ---------------------------------------------------------------------------
# Vertex-cover XP solver
# ---------------------------------------------------------------------------

def _vc_chunk(args) -> tuple[int | None, tuple | None, int]:
    (n, m, pref, nbrs, cover, rest, scale, w, first, deadline) = args
    k = len(cover)
    best_key = None
    best = None
    count = 0
    # Per cover agent: preferred houses, and positions of its neighbours in
    # the cover and in the rest. Per rest agent: preferred houses, and
    # positions of its neighbours, all in the cover.
    pos = {a: i for part in (cover, rest) for i, a in enumerate(part)}
    cover_rows = [(pref[a], [pos[b] for b in nbrs[a] if b in cover],
                   [pos[b] for b in nbrs[a] if b not in cover]) for a in cover]
    rest_rows = [(pref[a], [pos[b] for b in nbrs[a]]) for a in rest]
    if first < 0:
        phis = permutations(range(m), k)
    else:  # the chunk of the tuples whose first house is ``first``
        others = [h for h in range(m) if h != first]
        phis = ((first,) + t for t in permutations(others, k - 1))
    for phi in phis:
        if deadline is not None:
            check_deadline(deadline)
        rem_mask = (1 << m) - 1 & ~_bits(phi)
        # Eligible: cover agents not already envious within the cover. One
        # chosen non-envious forbids its liked remaining houses to its rest
        # neighbours; a *free* one (happy, or forbidding nothing) leaves every
        # row as it is and lowers the key by ``scale``, so only guesses that
        # choose all free agents can be optimal; the rest are counted but
        # never evaluated.
        happy_s = 0
        n_el = 0
        forbids = []
        for (pa, near, far), h in zip(cover_rows, phi):
            if pa >> h & 1:
                happy_s += w
            elif any(pa >> phi[i] & 1 for i in near):
                continue
            elif pa & rem_mask and far:
                forbids.append((pa & rem_mask, far))
            n_el += 1
        count += 1 << n_el
        if (best_key is not None
                and scale * (k - n_el) - happy_s - w * len(rest) >= best_key):
            continue
        remaining = _members(rem_mask)
        n_free = n_el - len(forbids)
        # Cmask-independent cost per rest agent of a house it does not like:
        # ``scale`` when it sees a cover neighbour holding one it likes.
        # Admissible houses are remaining ones, so ``pa & ok`` are liked.
        miss = [scale if any(pa >> phi[i] & 1 for i in near) else 0
                for pa, near in rest_rows]
        for sub in range(1 << len(forbids)):
            base = scale * (k - n_free - sub.bit_count()) - happy_s
            admissible = [rem_mask] * len(rest)
            for i, (hit, far) in enumerate(forbids):
                if sub >> i & 1:
                    for p in far:
                        admissible[p] &= ~hit
            # Row-minimum bound: every rest agent pays at least its
            # cheapest admissible house.
            bound = base
            for (pa, _), cost, ok in zip(rest_rows, miss, admissible):
                if pa & ok:
                    bound -= w
                elif ok:
                    bound += cost
                else:
                    bound = None
                    break
            if bound is None or (best_key is not None and bound >= best_key):
                continue
            # Most guesses that pass the bound admit no extension at all;
            # the bitmask Hall check rejects them cheaper than the min-cost
            # engine would.
            if left_perfect_matching_masks(admissible, m) is None:
                continue
            rows: list[list[int | None]] = [
                [(-w if pa >> h & 1 else cost) if ok >> h & 1 else None
                 for h in remaining]
                for (pa, _), cost, ok in zip(rest_rows, miss, admissible)
            ]
            zeta, assign_local = min_cost_saturating_assignment(rows)
            key = base + zeta
            if best_key is None or key < best_key:
                houses = phi + tuple(remaining[j] for j in assign_local)
                best_key = key
                best = tuple(h for _, h in sorted(zip(cover + rest, houses)))
    return best_key, best, count


def _vc_space(m: int, k: int) -> int:
    """vc-xp's guess space for a k-agent cover: house tuples times
    non-envious subsets."""
    return math.perm(m, k) << k


def solve_vertex_cover_xp(
    inst: Instance,
    cover: Iterable[int] | None = None,
    cfg: SolverConfig | None = None,
) -> SolveResult:
    """Exact solver parameterized by a vertex cover of the agent graph.

    Enumerates injective house assignments for the cover and, per guess
    of which cover agents stay non-envious, extends over the independent
    remainder with one min-cost matching; inconsistent pairs are omitted
    edges, so a guess whose matching cannot cover all remaining agents is
    discarded.

    Two rules skip guesses without changing the optimum, the witness or
    ``guesses_explored`` (skipped guesses are still counted):

    - *Free-agent dominance.* A cover agent that is happy, whose preferred
      houses are all taken by the cover, or that has no neighbour outside
      the cover constrains no remaining agent when guessed non-envious.
      Guessing it envious instead leaves the matching unchanged and costs
      one more envious agent, so only guesses that keep every free agent
      non-envious are evaluated; each skipped guess is strictly worse than
      a later one.
    - *Row-minimum bound.* The extension costs at least the sum of each
      remaining agent's cheapest admissible house; a guess whose bound
      cannot beat the incumbent is not matched.
    """
    cfg = cfg or SolverConfig()
    n, m = inst.n_agents, inst.n_houses
    if m < n:
        raise InstanceInfeasible(f"{m} houses for {n} agents")
    if cover is None:
        cover_set = find_min_vertex_cover(inst, n, cfg.deadline)
        assert cover_set is not None  # a budget of n always suffices
    else:
        cover_set = frozenset(cover)
        for a in cover_set:
            if not (0 <= a < n):
                raise NotACover(f"cover agent {a} out of range")
        for u, v in inst.edges:
            if u not in cover_set and v not in cover_set:
                raise NotACover(f"edge ({u}, {v}) not covered")
    cover_t = tuple(sorted(cover_set))
    k = len(cover_t)
    rest = tuple(a for a in range(n) if a not in cover_set)
    pref = _pref_masks(inst)
    scale, w = _key_weights(cfg, n)
    # One chunk, or one per first house when several workers share it.
    chunk_args = [
        (n, m, pref, inst.neighbors, cover_t, rest, scale, w, first, cfg.deadline)
        for first in (range(m) if k and cfg.workers > 1 else [-1])
    ]
    return _search(inst, cfg, "vc-xp", _vc_space(m, k), _vc_chunk, chunk_args)


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

def solve(inst: Instance | AnnotatedInstance, algo: str = "auto",
          cfg: SolverConfig | None = None) -> SolveResult:
    """Dispatch to a solver by label.

    Annotated instances are solved by the separator recursion, under
    ``auto`` or ``separator``; any other label raises :class:`WrongSolver`.
    For plain instances, ``auto`` picks the d=1 matching solver when every
    agent prefers exactly one house; else the vertex-cover solver when a
    minimum cover is small enough that its guess space perm(m, k)·2^k
    fits the guess limit (the default limit when the cap is lifted); else
    the separator recursion. Plain instances are wrapped with
    all-permissive feasibility sets for the separator solver.
    """
    cfg = cfg or SolverConfig()
    if algo not in ALGORITHMS:
        raise UnknownAlgorithm(f"unknown algorithm {algo!r}")
    if isinstance(inst, AnnotatedInstance):
        if algo not in ("separator", "auto"):
            raise WrongSolver(
                "annotated instances are solved by the separator algorithm only"
            )
        return solve_separator(inst, cfg)
    cover = None
    if algo == "auto":
        n, m = inst.n_agents, inst.n_houses
        if n > 0 and all(len(p) == 1 for p in inst.preferences):
            algo = "d1"
        else:
            limit = DEFAULT_GUESS_LIMIT if cfg.guess_limit is None else cfg.guess_limit
            budget = 0
            while budget < n and _vc_space(m, budget + 1) <= limit:
                budget += 1
            cover = find_min_vertex_cover(inst, budget, cfg.deadline)
            algo = "separator" if cover is None else "vc-xp"
    if algo == "brute":
        return solve_bruteforce(inst, cfg)
    if algo == "d1":
        return solve_d1_matching(inst, cfg)
    if algo == "envy-guess":
        return solve_envy_guess(inst, cfg)
    if algo == "vc-xp":
        return solve_vertex_cover_xp(inst, cover, cfg)
    return solve_separator(AnnotatedInstance.plain(inst), cfg)
