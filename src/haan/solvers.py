"""The five exact solvers and the dispatching front end.

All solvers share the result contract: the reported optimum is exactly
what evaluating the returned witness reproduces. Guess enumerations run
in a fixed, documented order and keep the first optimum encountered.
Brute force, envy-guess and vc-xp all search through ``_search``, which
cuts their top-level choices into ranked ranges and keeps the
lowest-ranked optimum, so results are bit-identical for any worker count.

Objectives are encoded as single integer keys
``scale*envy - w*happiness``: ``(scale, w) = (n+1, 1)`` under
``envy-happy`` and ``(1, 0)`` under ``envy``. Total happiness never
exceeds n, so the scaling preserves the lexicographic envy-then-happiness
order in exact integer arithmetic.

No key is below the *floor* ``-w*H``, where H is the most agents that
can hold a preferred (and feasible) house at once: a maximum matching,
the optimum of classical House Allocation. Brute force, envy-guess,
vc-xp and the separator's top level stop once their incumbent reaches
it; nothing after the first floor-key guess could replace it, so
witnesses do not change. Every separator subproblem also stops at its
own, cheaper floor (no more happy agents than agents, or than houses
they prefer and may receive), and bounds its parts by theirs. Brute
force, envy-guess and vc-xp report their whole guess space as
``guesses_explored``, by formula; the separator counts the guesses it
reached.
"""

from __future__ import annotations

import math
import os
from dataclasses import dataclass
from enum import Enum
from typing import Collection, Iterable, Iterator, Sequence

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

    At most ``workers`` processes, and no more than the cores, share vc-xp;
    the other solvers run in one process whatever it says.
    ``guess_limit=None`` lifts the exploration cap.
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


def _bits(items: Collection[int]) -> int:
    """Bitmask with bit ``i`` set for every ``i`` in ``items``.

    Setting one bit at a time rebuilds the growing integer per item, which
    is quadratic on large sets, so more than 64 items go through a byte
    array instead; small sets keep the loop, which is faster on them.
    """
    if len(items) <= 64:
        mask = 0
        for i in items:
            mask |= 1 << i
        return mask
    buf = bytearray((max(items) >> 3) + 1)
    for i in items:
        buf[i >> 3] |= 1 << (i & 7)
    return int.from_bytes(buf, "little")


def _members(mask: int) -> list[int]:
    """Set bit positions of ``mask``, ascending."""
    return [i for i, bit in enumerate(bin(mask)[:1:-1]) if bit == "1"]


def _pref_masks(inst: Instance) -> list[int]:
    return [_bits(p) for p in inst.preferences]


def _agent_masks(inst: Instance) -> tuple[list[int], list[int]]:
    """Each agent's neighbour mask and each house's liker mask: bit b of
    the first list's entry a when b neighbours a, bit a of the second's
    entry h when agent a prefers house h."""
    likers = [0] * inst.n_houses
    for a, prefers in enumerate(inst.preferences):
        for h in prefers:
            likers[h] |= 1 << a
    return [_bits(nb) for nb in inst.neighbors], likers


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
            guesses: int, ann: AnnotatedInstance | None = None) -> SolveResult:
    """Every solver's result: the witness evaluated (under ``ann`` if given)."""
    alloc = Allocation(assignment)
    if ann is None:
        report = evaluate(inst, alloc)
    else:
        feasible_ok, report = evaluate_annotated(ann, alloc)
        assert feasible_ok
    return SolveResult(
        min_envy=report.n_envious,
        happiness=report.n_happy,
        allocation=alloc,
        solver_id=solver_id,
        guesses_explored=guesses,
    )


def _map_jobs(fn, jobs: Sequence, workers: int) -> list:
    """``fn`` over ``jobs``, in order: on a pool of min(workers, jobs, cores)
    processes when that is more than one, else in this process."""
    size = 1 if workers == 1 else min(workers, len(jobs), os.cpu_count() or 1)
    if size <= 1:
        return [fn(job) for job in jobs]
    # Imported here: the pool machinery adds about 35 ms to every fresh
    # process importing haan (2-core host), and most runs start no pool.
    from concurrent.futures import ProcessPoolExecutor
    with ProcessPoolExecutor(max_workers=size) as pool:
        return list(pool.map(fn, jobs))


def _search(inst: Instance, cfg: SolverConfig, label: str, total: int,
            worker, extra=tuple, branches: int = 1) -> SolveResult:
    """Driver of the guess solvers.

    Checks feasibility, then the guess space ``total`` (the reported guess
    count) against the budget. The solver's ``branches`` top-level choices
    are cut into contiguous ranked ranges: one with one worker, else
    ``min(branches, 4*workers)`` with ``workers`` capped at the cores. Only
    vc-xp passes more than one branch, so ``workers`` reaches vc-xp only.
    The job of range ``lo..hi`` is ``(n, m, preference masks, neighbours,
    scale, w, floor, deadline, *extra(), lo, hi)`` and returns ``(best key
    or None, witness)``; ``_map_jobs`` runs the jobs, and the lowest-ranked
    best key wins. ``extra`` runs after the checks, so a refused solve
    builds none of its per-house tables: brute and vc-xp pass the neighbour
    and liker masks of ``_agent_masks`` there. The deadline is checked once
    before the jobs, which check it as they walk; with no agents, the empty
    allocation is the result and no job runs.
    """
    n, m = inst.n_agents, inst.n_houses
    if m < n:
        raise InstanceInfeasible(f"{m} houses for {n} agents")
    if cfg.guess_limit is not None and total > cfg.guess_limit:
        raise BudgetExceeded(
            f"{label}: guess space {total} exceeds limit {cfg.guess_limit}"
        )
    pref = _pref_masks(inst)
    scale, w = _key_weights(cfg, n)
    shared = (n, m, pref, inst.neighbors, scale, w, _key_floor(pref, m, w),
              cfg.deadline, *extra())
    check_deadline(cfg.deadline)
    if not n:
        return _result(inst, (), label, total)
    parts = 1 if cfg.workers == 1 else min(branches, 4 * min(cfg.workers, os.cpu_count() or 1))
    jobs = [shared + (branches * i // parts, branches * (i + 1) // parts)
            for i in range(parts)]
    best_key = None
    best = None
    for key, witness in _map_jobs(worker, jobs, cfg.workers):
        if key is not None and (best_key is None or key < best_key):
            best_key = key
            best = witness
    assert best is not None  # m >= n: some allocation always exists
    return _result(inst, best, label, total)


# ---------------------------------------------------------------------------
# Brute force
# ---------------------------------------------------------------------------

def _bf_chunk(args) -> tuple[int | None, tuple | None]:
    (n, m, pref, _, scale, w, floor, deadline, nmask, likers, _, _) = args
    if n == 1:
        # One agent envies nobody: its first optimum, found with no house
        # list, is its lowest liked house when happiness counts, else house 0.
        p = pref[0]
        h = (p & -p).bit_length() - 1 if w and p else 0
        return -w * (p >> h & 1), (h,)
    last = n - 1
    lbit = 1 << last
    near = nmask[last]
    # Every leaf group has m - n + 1 leaves; the deadline is checked every
    # ``period`` groups, so about every 4096 leaves.
    period = max(1, 4096 // (m - n + 1))
    groups = 0
    best_key = scale * n + 1  # above every key
    best = None
    phi = [0] * n
    # ``levels[j]``, for j < last: agent j's free houses ascending, the walk
    # over them, and the node's ``seen`` and ``lost``.
    houses = tuple(range(m))
    levels = [(houses, enumerate(houses), 0, 0)] + [None] * (last - 1)
    j = 0
    while j >= 0:
        houses, walk, seen0, lost0 = levels[j]
        mine = nmask[j]
        jbit = 1 << j
        for c, taken in walk:
            fans = likers[taken]
            phi[j] = taken
            # Neighbourhood is symmetric: j's neighbours that like the house
            # are marked now, and j is marked by its neighbours' placements.
            seen = seen0 | fans & mine
            lost = lost0 | jbit & ~fans
            if j + 1 < last:
                j += 1
                free = houses[:c] + houses[c + 1:]
                levels[j] = (free, enumerate(free), seen, lost)
                break
            groups += 1
            if deadline is not None and not groups % period:
                check_deadline(deadline)
            # The last agent's houses (``houses`` less ``taken``), inlined.
            # Its own bit joins ``lost`` on a house it does not like, and
            # ``seen`` is final for it.
            env_like = seen & lost
            env_miss = env_like | seen & lbit
            watch = near & lost
            key_like = w * lost.bit_count() - w * n
            key_miss = key_like + w
            for h in houses:
                if h == taken:
                    continue
                fans = likers[h]
                if fans & lbit:
                    key = scale * (env_like | fans & watch).bit_count() + key_like
                else:
                    key = scale * (env_miss | fans & watch).bit_count() + key_miss
                if key < best_key:
                    best_key = key
                    phi[last] = h
                    best = tuple(phi)
                    if key == floor:
                        return best_key, best  # nothing later can beat it
        else:
            j -= 1
    return best_key, best


def solve_bruteforce(inst: Instance, cfg: SolverConfig | None = None) -> SolveResult:
    """Exhaustive enumeration of all injective assignments.

    One depth-first walk places agents 0..n-1 in turn, each over its free
    houses ascending, so assignments come in lexicographic order and the
    first optimum is the witness. Every other solver is checked against
    this one, so the walk prunes nothing and is one sequential search
    whatever ``cfg.workers`` says. Each node carries its free houses as an
    ascending tuple (a house bitmask would make every step on many houses
    cost time in m) and two agent masks: ``seen``, the agents with a placed
    neighbour on a house they like (placing an agent on h adds its
    neighbours among h's likers), and ``lost``, the placed agents on a
    house they do not like. A full assignment has ``|seen & lost|``
    envious and ``n - |lost|`` happy agents, so the last agent's houses
    are scored with a few mask operations each and no call. The walk
    stops at the first assignment whose key is the floor;
    ``guesses_explored`` is the guess space perm(m, n). The walk's open
    levels sit in a list, so no recursion limit bounds n. The deadline is
    checked before the first node, then about every 4,096 assignments
    (every m - n + 1, the last agent's free houses, when that is more).
    """
    cfg = cfg or SolverConfig()
    total = math.perm(inst.n_houses, inst.n_agents)
    return _search(inst, cfg, "brute", total, _bf_chunk, lambda: _agent_masks(inst))


# ---------------------------------------------------------------------------
# d = 1 matching solver
# ---------------------------------------------------------------------------

def solve_d1_matching(inst: Instance, cfg: SolverConfig | None = None) -> SolveResult:
    """Polynomial solver for instances where every agent prefers exactly
    one house.

    The cost of assigning house h to agent a is the number of neighbors
    whose single preferred house is h (the agents that assignment makes
    envious); a minimum-cost agent-saturating matching on the complete
    bipartite graph is then an optimal allocation. The deadline is checked
    every 64 agents, while their cost rows are built and while they are
    matched.
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
    rows: list[list[int]] = []
    for a in range(n):
        if not a & 63:
            check_deadline(cfg.deadline)
        row = [0] * m
        for b in inst.neighbors[a]:
            row[single[b]] += scale
        row[single[a]] -= 1
        rows.append(row)
    matched = min_cost_saturating_assignment(rows, cfg.deadline)
    assert matched is not None  # complete bipartite graph with m >= n
    _, assignment = matched
    return _result(inst, assignment, "d1", 0)


# ---------------------------------------------------------------------------
# Envy-guessing solver
# ---------------------------------------------------------------------------

def _eg_chunk(args) -> tuple[int | None, tuple | None]:
    (n, m, pref, nbrs, scale, w, floor, deadline, _, _) = args
    best_key = None
    best = None
    # A node's n feasibility masks are packed into one integer: agent a's
    # houses sit at bits a*f and up, below a clear guard bit, so
    # ``(x | guard) - low`` borrows a field's guard bit exactly when that
    # field of x is empty, and never crosses into the next field.
    f = m + 1
    field = (1 << m) - 1
    low = ((1 << n * f) - 1) // ((1 << f) - 1)  # bit a*f for every agent a
    guard = low << m
    full = guard - low

    def hall(k):
        # The Hall test of a kept house set K, as a tuple of zero or one
        # ``(outside, need)``: ``child & outside`` keeps each agent's houses
        # outside K, and fewer than ``need`` agents holding one means more
        # agents than K has houses are confined to K.
        need = n - k.bit_count()
        return (((field & ~k) * low, need),) if need > 0 else ()

    # Each decision's choices as (key lost, one mask to AND, Hall tests).
    # An envious agent whose first envied neighbour is nbrs[a][i] is
    # unhappy, that neighbour holds a house it prefers and those before it
    # hold none; a non-envious agent is unhappy (it and its neighbours avoid
    # its preferred houses) or happy. Each agent adds a few masks of n*f
    # bits, so the deadline is checked every 64 agents.
    envious = []
    calm = []
    for a, nb in enumerate(nbrs):
        if deadline is not None and not a & 63:
            check_deadline(deadline)
        pa = pref[a]
        other = field & ~pa
        shun, hold = hall(other), hall(pa)
        cut = pa << a * f
        row = []
        for b in nb:
            row.append((0, full & ~(cut | other << b * f), shun + hold))
            cut |= pa << b * f
        envious.append(row)
        calm.append([(w, full & ~cut, shun), (0, full & ~(other << a * f), hold)])
    isolated = _bits([a for a in range(n) if not nbrs[a]])
    # ``levels[j]``: the open node of decision j, as its packed masks, its
    # key bound with every undecided agent happy, and the walk over its
    # choices. Masks only shrink and the bound only rises below a node, so
    # a child that fails a test is skipped with its subtree. A support
    # counts as the root node of its search.
    levels = [None] * n
    nodes = 0
    for smask in range(1 << n):
        nodes += 1
        if deadline is not None and not nodes & 4095:
            check_deadline(deadline)
        if smask & isolated:
            continue  # an agent without neighbours envies nobody: no guesses
        env = smask.bit_count()
        # Key bounds: every undecided agent happy, and at most H happy.
        top = env * scale - w * (n - env)
        cap = env * scale + floor
        if best_key is not None and max(top, cap) >= best_key:
            continue
        # Depth first: the envious agents' first envied neighbours (support
        # order, positions ascending), then the other agents from last to
        # first, unhappy before happy, so leaves come in cmask order.
        order = [envious[a] for a in range(n) if smask >> a & 1]
        order += [calm[a] for a in range(n - 1, -1, -1) if not smask >> a & 1]
        j = 0
        levels[0] = (full, top, iter(order[0]))
        while j >= 0:
            state, bound, walk = levels[j]
            for loss, keep, tests in walk:
                if best_key is not None and (bound + loss >= best_key or cap >= best_key):
                    continue
                child = state & keep
                if (child | guard) - low & guard != guard:
                    continue  # some agent has no house left
                for outside, need in tests:
                    if ((child & outside | guard) - low & guard).bit_count() < need:
                        break
                else:
                    nodes += 1
                    if deadline is not None and not nodes & 4095:
                        check_deadline(deadline)
                    if j + 1 < n:
                        j += 1
                        levels[j] = (child, bound + loss, iter(order[j]))
                        break
                    masks = [child >> a * f & field for a in range(n)]
                    assignment = left_perfect_matching_masks(masks, m)
                    if assignment is not None:
                        best_key = bound + loss
                        best = tuple(assignment)
                        if best_key == floor:
                            return best_key, best  # nothing later can beat it
            else:
                j -= 1
    return best_key, best


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
    ascending. The first optimum is kept. Two rules prune, each skipping a
    node with its subtree. *Key bound:* the node cannot beat the
    incumbent; the bound is the larger of two: all undecided agents happy,
    and the floor plus ``scale`` per envious agent of the support (no more
    than H agents are happy). *Hall test:* the trimmed sets admit no
    perfect matching because one is empty, or because more agents are
    confined to a house set K that the node's last choice kept (an agent's
    preferred houses, or the others) than K has houses. A node holds all
    n sets in one integer, so each choice costs one AND and each test a
    few integer operations, and leaves reach the matching only when these
    tests pass. Once
    the incumbent is at the floor, the search stops. The incumbent and
    that stop carry across supports, so the search is one sequential loop
    whatever ``cfg.workers`` says. ``guesses_explored`` is the guess
    space by formula, the product over agents of ``degree + 2``. The
    search's open levels sit in a list, so no recursion limit bounds n.
    The deadline is checked before the first node and every 64 agents
    while the choice tables are built, then every 4,096 nodes (each
    support counts as one).
    """
    cfg = cfg or SolverConfig()
    total = math.prod(inst.degree(a) + 2 for a in range(inst.n_agents))
    return _search(inst, cfg, "envy-guess", total, _eg_chunk)


# ---------------------------------------------------------------------------
# Separator recursion (annotated problem)
# ---------------------------------------------------------------------------

def _lowest_tuples(cands: Sequence[int], cls: Sequence[int], avail: int,
                   j: int = 0, prefix: tuple = ()) -> Iterator[tuple[tuple[int, ...], int]]:
    """Injective tuples with entry ``j`` from the house mask ``cands[j]``,
    in lexicographic order, where each entry is the lowest house of its
    class among ``avail``, the houses still free: ``cls[h]`` is the mask
    of house ``h``'s class. Each tuple comes with the houses it leaves
    free.

    Every mask of ``cands`` must hold all or none of each class's houses in
    ``avail``, as the separator's feasible sets do. Taking a class's lowest
    free house keeps that so, and then the first house of a class that the
    loop meets is its lowest free one."""
    if j == len(cands):
        yield prefix, avail
        return
    last = j + 1 == len(cands)
    free = cands[j] & avail
    while free:
        bit = free & -free
        h = bit.bit_length() - 1
        c = cls[h]
        free &= ~c  # no higher house of the class is its lowest free one
        if last:
            yield prefix + (h,), avail ^ bit
        else:
            yield from _lowest_tuples(cands, cls, avail ^ bit, j + 1, prefix + (h,))


def _lowest_subsets(cls: Sequence[int], rest: int, r: int) -> Iterator[int]:
    """Masks of the r-subsets of the house mask ``rest`` that hold the
    lowest houses of each class in ``rest``, in ``combinations`` order;
    ``r`` is at least 1. ``cls`` is as in ``_lowest_tuples``.

    Depth-first from an explicit stack of frames ``(todo, free, r,
    chosen)``: ``chosen`` is taken, ``r`` houses are still to come from
    ``free``, the houses of ``rest`` above it, and ``todo`` holds those
    not yet tried as the next one."""
    stack = [(rest, rest, r, 0)]
    while stack:
        todo, free, r, chosen = stack.pop()
        while todo:
            bit = todo & -todo
            if (free & -bit).bit_count() < r:
                break  # too few houses from this one up
            c = cls[bit.bit_length() - 1]
            todo &= ~c  # no higher house of the class is its lowest open one
            if c & rest & ~chosen & bit - 1:
                continue  # a lower house of the class is open
            if r == 1:
                yield chosen | bit
            else:
                stack.append((todo, free, r, chosen))
                free &= -(bit << 1)
                todo, r, chosen = free, r - 1, chosen | bit


def solve_separator(
    ann: AnnotatedInstance, cfg: SolverConfig | None = None
) -> SolveResult:
    """Divide-and-conquer exact solver for the annotated problem.

    Each level fixes the houses of a minimum balanced separator, marks
    outside neighbors of happily-assigned houses angry, guesses which
    undecided separator agents stay non-envious, splits the remaining
    houses between the two parts, and recurses independently: A1 gets
    exactly one house per agent and A2 all the rest, spare houses
    included, so no set of used houses is guessed. An undecided agent
    with no neighbour in either part is non-envious whatever the parts
    get, so only those with one are guessed.

    A subproblem is the tuple ``(agents, houses, F, angry)``: a sorted
    agent tuple, the bitmask of the houses it shares out, each agent's
    feasible houses among them (F) as bitmasks aligned with ``agents``,
    and its angry agents as a bitmask over agents. That tuple is also the
    memo key; the root shares out all houses.

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
    enumeration keeps.

    Subproblems of one or two agents are solved outright, with no
    separator search and no guess. One agent takes its lowest liked house
    when being happy lowers the key (under ``envy-happy``, or when the
    agent is angry), else its lowest feasible house. Two agents a < b walk
    the canonical house pairs the recursion would try, in its order, and
    keep the first of least value: when they are adjacent (separator
    ``(a,)``, first part ``(b,)``) a's feasible houses ascending and, for
    each, b's among the rest; when not (parts ``(b,)`` and ``(a,)``), b's
    first. Each agent is worth -w when happy, else ``scale`` when angry
    or adjacent to the other while it holds a house it prefers, else 0.

    Every subproblem stops at its first allocation whose key is its own
    floor ``-w*min(agents, houses that one of them prefers and may
    receive)``, 0 under ``envy``; the top level uses the tighter ``-w*H``
    (H a maximum matching into the preferred feasible houses). A guess is
    skipped when the separator agents' part of its key plus the floors of
    both parts' shares cannot beat the incumbent, and its second part is
    not solved when the first part's value plus that part's floor cannot.
    Each rule skips only
    guesses that cannot beat the incumbent strictly, so witnesses do not
    change. ``guesses_explored`` counts the canonical (separator houses,
    A1 houses, non-envious subset) triples reached in distinct subproblems
    of three or more agents before their stops. The deadline is checked
    at every share of houses between the parts, so at every house tuple.

    Raises :class:`NoFeasibleAllocation` when the feasibility sets admit
    no allocation.
    """
    cfg = cfg or SolverConfig()
    inst = ann.base
    n, m = inst.n_agents, inst.n_houses
    if m < n:
        raise InstanceInfeasible(f"{m} houses for {n} agents")
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
        and A2 in ``agents``, the agent masks of A1 and A2, and per
        separator agent the positions of its neighbours in A1 and in A2."""
        S, A1, A2 = balanced_separator_of_subgraph(agents, nmask, deadline)
        pos = {a: p for p, a in enumerate(agents)}
        return (
            S, A1, A2,
            [pos[a] for a in S], [pos[a] for a in A1], [pos[a] for a in A2],
            _bits(A1), _bits(A2),
            [tuple([i for i, b in enumerate(A1) if nmask[a] >> b & 1]) for a in S],
            [tuple([i for i, b in enumerate(A2) if nmask[a] >> b & 1]) for a in S],
        )

    def outright(agents, hmask, F, angry, stop):
        """``best_of`` for one or two agents, with no separator search and
        no guess."""
        a = agents[0]
        pa = pref[a]
        if len(agents) == 1:
            # The first house of least value: happy is worth -w, and only
            # an angry agent is envious when not happy.
            liked = pa & F[0]
            pick = liked if liked and (w or angry) else F[0]
            h = (pick & -pick).bit_length() - 1
            return (-w if liked >> h & 1 else scale if angry else 0), ((a, h),)
        # Two agents walk the house pairs the recursion would try, in its
        # order: a's houses first when they are adjacent (separator (a,),
        # first part (b,)), else b's (parts (b,) and (a,)).
        b = agents[1]
        pb = pref[b]
        mad_a, mad_b = angry >> a & 1, angry >> b & 1
        adjacent = nmask[a] >> b & 1
        if stop is None:
            stop = -w * min(2, (pa & F[0] | pb & F[1]).bit_count())
        best = None
        for hs, _ in _lowest_tuples(F if adjacent else F[::-1], cls, hmask):
            ha, hb = hs if adjacent else hs[::-1]
            value = ((-w if pa >> ha & 1 else scale if mad_a or adjacent and pa >> hb & 1 else 0)
                     + (-w if pb >> hb & 1 else scale if mad_b or adjacent and pb >> ha & 1 else 0))
            if best is None or value < best[0]:
                best = (value, ((a, ha), (b, hb)))
                if value == stop:
                    break
        return best

    def best_of(sub, stop=None):
        """``(scaled value, witness pairs)`` of a subproblem, or ``None``
        when no assignment respects its feasibility sets; returns at once
        when the value reaches ``stop``, a lower bound that defaults to
        the subproblem's own floor. One and two agents are solved
        outright."""
        nonlocal count
        if not sub[0]:
            return 0, ()
        if sub in memo:
            return memo[sub]
        agents, hmask, F, angry = sub
        if len(agents) <= 2:
            best = memo[sub] = outright(agents, hmask, F, angry, stop)
            return best
        got = splits.get(agents)
        if got is None:
            got = splits[agents] = split(agents)
        S, A1, A2, i_s, i1, i2, mask1, mask2, near1, near2 = got
        n1, n2 = len(A1), len(A2)
        # Houses that one agent of S, A1 or A2 prefers and may receive: no
        # more of them are happy, which bounds their key from below.
        liked1 = liked2 = 0
        for p in i1:
            liked1 |= pref[agents[p]] & F[p]
        for p in i2:
            liked2 |= pref[agents[p]] & F[p]
        if stop is None:
            liked = liked1 | liked2
            for p in i_s:
                liked |= pref[agents[p]] & F[p]
            stop = -w * min(len(agents), liked.bit_count())
        best = None
        for phi, rest in _lowest_tuples([F[p] for p in i_s], cls, hmask):
            # Agents that prefer a house a separator neighbour now holds:
            # envious in S unless happy, angry in the parts. Marks outside
            # this subproblem are never read.
            marked = angry
            for a, h in zip(S, phi):
                marked |= nmask[a] & likers[h]
            n_c = 0
            forced_env = 0
            undecided = []
            for j, a in enumerate(S):
                if pref[a] >> phi[j] & 1:
                    n_c += 1
                elif marked >> a & 1:
                    forced_env += 1
                elif near1[j] or near2[j]:
                    undecided.append(j)
                # else no neighbour can hold a house it prefers: non-envious
            # The separator agents add at least ``top`` (every undecided
            # one non-envious) and each part at least its floor, which only
            # rises as its houses and feasible sets shrink.
            top = scale * forced_env - w * n_c
            b1 = marked & mask1
            b2 = marked & mask2
            for h1mask in _lowest_subsets(cls, rest, n1):
                check_deadline(deadline)
                h2mask = rest & ~h1mask
                floor2 = -w * min(n2, (liked2 & h2mask).bit_count())
                parts_floor = floor2 - w * min(n1, (liked1 & h1mask).bit_count())
                if best is not None and top + parts_floor >= best[0]:
                    continue
                f1 = tuple([F[p] & h1mask for p in i1])
                f2 = tuple([F[p] & h2mask for p in i2])
                for kmask in range(1 << len(undecided)):
                    count += 1
                    if limit is not None and count > limit:
                        raise BudgetExceeded(
                            f"separator: guess count exceeded limit {limit}"
                        )
                    env_s = forced_env + len(undecided) - kmask.bit_count()
                    contrib = scale * env_s - w * n_c
                    if best is not None and contrib + parts_floor >= best[0]:
                        continue
                    g1, g2 = f1, f2
                    if kmask:
                        # A non-envious separator agent's neighbours must
                        # avoid the houses it prefers.
                        l1, l2 = list(f1), list(f2)
                        for i, j in enumerate(undecided):
                            if kmask >> i & 1:
                                off = ~pref[S[j]]
                                for q in near1[j]:
                                    l1[q] &= off
                                for q in near2[j]:
                                    l2[q] &= off
                        g1, g2 = tuple(l1), tuple(l2)
                    if not all(g1) or not all(g2):
                        continue
                    sub1 = best_of((A1, h1mask, g1, b1))
                    if sub1 is None or best is not None and contrib + sub1[0] + floor2 >= best[0]:
                        continue
                    sub2 = best_of((A2, h2mask, g2, b2)) if A2 else (0, ())
                    if sub2 is None:
                        continue
                    value = contrib + sub1[0] + sub2[0]
                    if best is None or value < best[0]:
                        best = (value, tuple(zip(S, phi)) + sub1[1] + sub2[1])
                        if value == stop:
                            memo[sub] = best
                            return best
        memo[sub] = best
        return best

    pref = _pref_masks(inst)
    nmask, likers = _agent_masks(inst)
    feasible = [(1 << m) - 1 if f is None else _bits(f) for f in ann.feasible]
    # Root classes stay classes of every subproblem: each mask the
    # recursion ANDs in is a union of classes or the subproblem's houses.
    cls = [0] * m  # cls[h]: the mask of house h's class
    for c in _house_classes(m, feasible + pref):
        for h in _members(c):
            cls[h] = c
    root = (tuple(range(n)), (1 << m) - 1, tuple(feasible), _bits(ann.angry))
    try:
        # Every subproblem below keeps a feasible house for each agent.
        best = (best_of(root, _key_floor([p & f for p, f in zip(pref, feasible)], m, w))
                if all(feasible) else None)
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
    return _result(inst, assignment, "separator", count, ann)


# ---------------------------------------------------------------------------
# Vertex-cover XP solver
# ---------------------------------------------------------------------------

def _vc_chunk(args) -> tuple[int | None, tuple | None]:
    (n, m, pref, _, scale, w, floor, deadline, cover, rest, nmask, likers, lo, hi) = args
    k = len(cover)
    full = (1 << m) - 1
    in_rest = _bits(rest)
    best_key = None
    best = None
    # Per house: ``(bit, preferred houses)`` of each rest agent that likes it.
    fans = [[(1 << a, pref[a]) for a in rest if likers[h] >> a & 1] for h in range(m)]
    # Cover agents that can forbid houses: ``(position bit, agent, preferred
    # houses, rest-neighbour mask)`` of each one with a rest neighbour.
    far = [(1 << j, a, pref[a], nmask[a] & in_rest)
           for j, a in enumerate(cover) if nmask[a] & in_rest]
    # Forbidder set -> ``forbid_tables`` of it; ``held`` counts their rows.
    tables = {0: ([0], [0], [0] * len(rest), [])}
    held = 1
    phi = [0] * k

    def forbid_tables(fmask):
        # Tables of one forbidder set (a mask over cover positions), indexed
        # by a subset ``sub`` of it (bit i: its i-th agent chosen
        # non-envious). ``takes[sub]``: the houses the chosen agents prefer;
        # a rest agent loses the remaining ones of those among them that
        # neighbour it. ``by``: each rest agent's forbidders as a subset
        # mask, aligned with ``rest``, so it loses ``takes[by & sub]``.
        # ``shut[sub]``: the houses every rest agent loses, none unless the
        # chosen agents neighbour every rest agent. ``restricted`` pairs the
        # rest agents that have a forbidder with their masks. None of it
        # depends on the houses placed, so leaves share it. A leaf with f
        # forbidders walks 2^f subsets anyway; the cache is emptied past
        # 2^16 rows in all.
        nonlocal held
        takes, by = [0], [0] * len(rest)
        slot = 1  # the subset bit of the next forbidder
        for bit, _, p, out in far:
            if fmask & bit:
                takes += [t | p for t in takes]
                by = [c | slot if out >> a & 1 else c for a, c in zip(rest, by)]
                slot <<= 1
        kinds = set(by)
        shut = []
        for sub, common in enumerate(takes):
            for c in kinds:
                common &= takes[c & sub]
            shut.append(common)
        held += len(takes)
        if held > 1 << 16:
            tables.clear()
            held = len(takes)
        restricted = [(a, c) for a, c in zip(rest, by) if c]
        entry = tables[fmask] = (takes, shut, by, restricted)
        return entry

    # The node reached: cover position j, the houses used, and ``seen`` and
    # ``lost`` (see ``solve_vertex_cover_xp``). ``levels[j]``, for j < k,
    # holds the open node of position j and the walk over its agent's houses.
    levels = [None] * k
    nodes = 0
    j, used, seen, lost = 0, 0, 0, _bits([a for a in rest if not pref[a]])
    while True:
        nodes += 1
        if deadline is not None and not nodes & 4095:
            check_deadline(deadline)
        if j < k:
            levels[j] = (used, seen, lost, iter(range(m) if j else range(lo, hi)))
        else:
            # A leaf. Only its forbidders are guessed; every free cover agent
            # is chosen non-envious (free-agent dominance).
            rem_mask = full & ~used
            calm = lost & ~seen
            fmask = 0
            for bit, a, p, _ in far:
                if calm >> a & 1 and p & rem_mask:
                    fmask |= bit
            forbidders = fmask.bit_count()
            takes, shut, by, restricted = tables.get(fmask) or forbid_tables(fmask)
            # Row-minimum bound: ``least`` less ``scale`` per chosen
            # forbidder, plus the corrections of the rest agents they
            # restrict. A rest agent that none restricts pays exactly its
            # part of ``least`` for its cheapest admissible house.
            least = scale * ((seen & lost).bit_count() + forbidders) - w * (n - lost.bit_count())
            starved = remaining = None
            for sub in range(len(takes)):
                chosen = scale * sub.bit_count()
                bound = least - chosen
                if best_key is not None and bound >= best_key:
                    continue
                # Most guesses that pass the bound admit no extension. The
                # union test rejects most before the min-cost engine, which
                # returns None for the others: more than ``m - n`` of the
                # ``m - k`` remaining houses are lost by all ``n - k`` rest
                # agents.
                if (shut[sub] & rem_mask).bit_count() > m - n:
                    continue
                if starved is None:
                    # The corrections: a restricted agent that may be happy
                    # pays ``w`` plus its cost of an unliked house more once
                    # its chosen forbidders take all its liked ones.
                    starved = []
                    for a, c in restricted:
                        likes = pref[a] & rem_mask
                        if likes and not likes & ~takes[c]:
                            starved.append((c, likes, w + scale * (seen >> a & 1)))
                for c, likes, more in starved:
                    if not likes & ~takes[c & sub]:
                        bound += more
                if best_key is not None and bound >= best_key:
                    continue
                if remaining is None:
                    remaining = _members(rem_mask)
                rows: list[list[int | None]] = []
                for a, c in zip(rest, by):
                    # A house it does not like costs ``scale`` when it sees
                    # a cover neighbour holding one it likes.
                    ok = rem_mask & ~takes[c & sub]
                    pa, miss = pref[a], scale * (seen >> a & 1)
                    rows.append([(-w if pa >> h & 1 else miss) if ok >> h & 1 else None
                                 for h in remaining])
                matched = min_cost_saturating_assignment(rows, deadline)
                if matched is None:
                    continue
                # The cover's part of the key, then the rest's.
                cover_lost = lost & ~in_rest
                key = (scale * ((seen & cover_lost).bit_count() + forbidders - sub.bit_count())
                       - w * (k - cover_lost.bit_count()) + matched[0])
                if best_key is None or key < best_key:
                    houses = tuple(phi) + tuple(remaining[i] for i in matched[1])
                    best_key = key
                    best = tuple(h for _, h in sorted(zip(cover + rest, houses)))
                    if key == floor:
                        return best_key, best  # nothing later can beat it
            j -= 1
        # The next house of the deepest open level whose child passes the
        # prefix bound.
        while j >= 0:
            used, seen, lost, walk = levels[j]
            a = cover[j]
            pa, near = pref[a], nmask[a]
            for h in walk:
                bit = 1 << h
                if used & bit:
                    continue
                c_used = used | bit
                c_lost = lost if pa & bit else lost | 1 << a
                for b, pb in fans[h]:
                    if not pb & ~c_used:
                        c_lost |= b
                c_seen = seen | likers[h] & near
                if best_key is None or (
                        scale * (c_seen & c_lost).bit_count() - w * (n - c_lost.bit_count())
                        < best_key):
                    break
            else:
                j -= 1
                continue
            break
        else:
            return best_key, best
        phi[j] = h
        j += 1
        used, seen, lost = c_used, c_seen, c_lost


def _vc_space(m: int, k: int) -> int:
    """vc-xp's guess space for a k-agent cover: house tuples times
    non-envious subsets."""
    return math.perm(m, k) << k


def _fitting_cover_size(n: int, m: int, limit: int | None) -> int:
    """Largest cover size k <= min(n, m) whose vc-xp guess space fits
    ``limit``; min(n, m) when ``limit`` is ``None``. A cover of more than
    m agents has no house tuple (its guess space, 0, is no space that fits)."""
    top = min(n, m)
    if limit is None:
        return top
    k = 0
    while k < top and _vc_space(m, k + 1) <= limit:
        k += 1
    return k


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
    discarded. The cover tuples come from one depth-first search over the
    cover positions (ascending agents), each over its houses ascending, so
    tuples come in lexicographic order and the first optimum is kept. It
    stops at its first guess whose key is the floor.
    ``guesses_explored`` is the guess space by formula, perm(m, k)·2^k.
    The search's open levels sit in a list, so no recursion limit bounds
    k. The deadline is checked before the first node, then every 4,096
    nodes, and by the min-cost engine at each extension.

    With no ``cover`` given, the cover is the lexicographically least
    minimum one, searched only up to the largest size whose guess space
    fits ``cfg.guess_limit``; when no cover of that size exists,
    :class:`BudgetExceeded` is raised at once.

    These rules skip guesses without changing the optimum or the witness:

    - *Prefix bound.* Each node carries its used houses and two agent
      masks: ``seen``, the agents with a cover neighbour holding a house
      they like, and ``lost``, the agents that can no longer be happy
      (placed cover agents on a house they do not like, and rest agents
      whose liked houses the cover holds). An agent in both is envious,
      and at most ``n - |lost|`` agents are happy, so a node is skipped
      with its subtree when ``scale*|seen & lost| - w*(n - |lost|)``
      cannot beat the incumbent.

    - *Free-agent dominance.* A cover agent that is happy, whose preferred
      houses are all taken by the cover, or that has no neighbour outside
      the cover constrains no remaining agent when guessed non-envious.
      Guessing it envious instead leaves the matching unchanged and costs
      one more envious agent, so only guesses that keep every free agent
      non-envious are evaluated; each skipped guess is strictly worse than
      a later one.
    - *Row-minimum bound.* The extension costs at least the sum of each
      remaining agent's cheapest admissible house; a guess whose bound
      cannot beat the incumbent is not matched. In closed form the bound
      is ``least - scale*|chosen|``, where ``least`` is ``scale`` per
      envious agent and per forbidder (an unhappy cover agent, not envious
      within the cover, with a rest neighbour and a liked remaining house)
      less ``w`` per agent that may be happy, plus corrections for the rest
      agents that the chosen forbidders restrict: ``w``, and ``scale`` if
      it sees a liked house held by a cover neighbour, for one that may be
      happy but loses every liked remaining house. Nor is a guess matched
      whose rest agents share fewer admissible houses than their number. That
      union test can fail only when the chosen forbidders neighbour every
      rest agent (else one keeps all ``m - k >= n - k`` remaining houses):
      it fails when more than ``m - n`` remaining houses are lost by every
      rest agent. What these tests read of a forbidder set does not depend
      on the houses placed, so each job builds it once per set.
    """
    cfg = cfg or SolverConfig()
    n, m = inst.n_agents, inst.n_houses
    # Checked again by ``_search``, but here first: an infeasible instance
    # should not pay for an exponential cover search.
    if m < n:
        raise InstanceInfeasible(f"{m} houses for {n} agents")
    if cover is None:
        budget = _fitting_cover_size(n, m, cfg.guess_limit)
        cover_set = find_min_vertex_cover(inst, budget, cfg.deadline)
        if cover_set is None:  # so budget < n and the limit is set
            # Every larger cover's guess space is at least this one's.
            raise BudgetExceeded(f"vc-xp: guess space {_vc_space(m, budget + 1)} "
                                 f"exceeds limit {cfg.guess_limit}")
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
    # The top-level choices are the houses of the first cover agent.
    return _search(inst, cfg, "vc-xp", _vc_space(m, k), _vc_chunk,
                   lambda: (cover_t, rest, *_agent_masks(inst)), m if k else 1)


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
            cover = find_min_vertex_cover(inst, _fitting_cover_size(n, m, limit),
                                          cfg.deadline)
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
