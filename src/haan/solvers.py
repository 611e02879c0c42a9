"""The five exact solvers and the dispatching front end.

All solvers share the result contract: the reported optimum is exactly
what evaluating the returned witness reproduces. Guess enumerations run
in a fixed, documented order and keep the first optimum encountered, so
results are bit-identical for any worker count: parallel runs partition
the guess space into ranked chunks and the reduction keeps the
lowest-ranked optimum.

Objectives are encoded as single integer keys
``scale*envy - w*happiness``: ``(scale, w) = (n+1, 1)`` under
``envy-happy`` and ``(1, 0)`` under ``envy``. Total happiness never
exceeds n, so the scaling preserves the lexicographic envy-then-happiness
order in exact integer arithmetic.
"""

from __future__ import annotations

import math
import time
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from enum import Enum
from itertools import combinations, permutations, product
from typing import Iterable, Iterator, Sequence

from .errors import (
    BudgetExceeded,
    InstanceInfeasible,
    InvalidInstance,
    NoFeasibleAllocation,
    NotACover,
    SeparatorNotFound,
    SolveTimeout,
    UnknownAlgorithm,
    WrongSolver,
)
from .graphtools import balanced_separator_of_subgraph, find_min_vertex_cover
from .matching import left_perfect_matching_masks, min_cost_saturating_assignment
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
AUTO_VC_THRESHOLD = 8
AUTO_ENVY_GUESS_BOUND = 30

ALGORITHMS = ("brute", "d1", "envy-guess", "separator", "vc-xp", "auto")


class Objective(Enum):
    """Minimize envy, optionally maximizing happiness among the minima."""

    MIN_ENVY = "envy"
    MIN_ENVY_THEN_MAX_HAPPY = "envy-happy"


@dataclass(frozen=True)
class SolverConfig:
    """Shared solver knobs.

    ``separator_max_size=None`` means the separator solver asks for the
    minimum-size balanced separator at every recursion level.
    ``workers=None`` resolves to sequential execution. ``guess_limit=None``
    lifts the exploration cap. ``deadline`` is a ``time.monotonic()``
    cutoff checked cooperatively inside guess loops.
    """

    objective: Objective = Objective.MIN_ENVY
    separator_max_size: int | None = None
    workers: int | None = None
    guess_limit: int | None = DEFAULT_GUESS_LIMIT
    deadline: float | None = None

    def __post_init__(self):
        if self.guess_limit is not None and self.guess_limit < 1:
            raise InvalidInstance("guess_limit must be at least 1")
        if self.workers is not None and self.workers < 1:
            raise InvalidInstance("workers must be at least 1")
        if self.separator_max_size is not None and self.separator_max_size < 0:
            raise InvalidInstance("separator_max_size must be non-negative")


def _key_weights(cfg: SolverConfig, n: int) -> tuple[int, int]:
    """``(scale, w)`` of the guess key ``scale*envy - w*happiness``."""
    if cfg.objective is Objective.MIN_ENVY_THEN_MAX_HAPPY:
        return n + 1, 1
    return 1, 0


def _resolve_workers(cfg: SolverConfig) -> int:
    return 1 if cfg.workers is None else cfg.workers


def _check_deadline(deadline: float | None) -> None:
    if deadline is not None and time.monotonic() > deadline:
        raise SolveTimeout("wall-clock deadline exceeded")


def _pref_masks(inst: Instance) -> list[int]:
    return [
        sum(1 << h for h in inst.preferences[a]) for a in range(inst.n_agents)
    ]


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
    workers = min(_resolve_workers(cfg), len(chunk_args))
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


def _injective(m: int, k: int, first: int) -> Iterator[tuple[int, ...]]:
    """Injective k-tuples over ``range(m)`` in lexicographic order; with
    ``first >= 0``, only those whose first house is ``first``."""
    if first < 0:
        return permutations(range(m), k)
    others = [h for h in range(m) if h != first]
    return ((first,) + t for t in permutations(others, k - 1))


def _first_houses(m: int, k: int, cfg: SolverConfig) -> list[int]:
    """Chunks of an injective k-tuple enumeration: one unpinned chunk, or
    one chunk per first house when several workers share it."""
    if k == 0 or _resolve_workers(cfg) <= 1:
        return [-1]
    return list(range(m))


# ---------------------------------------------------------------------------
# Brute force
# ---------------------------------------------------------------------------

def _bf_chunk(args) -> tuple[int | None, tuple | None, int]:
    (n, m, pref, nbrs, scale, w, first, deadline) = args
    best_key = None
    best = None
    count = 0
    agents = range(n)
    for asg in _injective(m, n, first):
        count += 1
        if deadline is not None and not count & 4095:
            _check_deadline(deadline)
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
    return best_key, best, count


def solve_bruteforce(inst: Instance, cfg: SolverConfig | None = None) -> SolveResult:
    """Exhaustive enumeration of all injective assignments.

    The witness is the first optimum in lexicographic assignment order;
    every other solver is checked against this one.
    """
    cfg = cfg or SolverConfig()
    n, m = inst.n_agents, inst.n_houses
    if m < n:
        raise InstanceInfeasible(f"{m} houses for {n} agents")
    pref = _pref_masks(inst)
    scale, w = _key_weights(cfg, n)
    chunk_args = [
        (n, m, pref, inst.neighbors, scale, w, first, cfg.deadline)
        for first in _first_houses(m, n, cfg)
    ]
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
    (n, m, pref, nbrs, scale, w, smask_lo, smask_hi, deadline) = args
    full_mask = (1 << m) - 1
    # Per-agent tables: for each subset mask over the neighbor list, the
    # guessed envied agents as an agent bitmask.
    envied_bits: list[list[int]] = []
    for a in range(n):
        nb = nbrs[a]
        table = []
        for mask in range(1 << len(nb)):
            bits = 0
            mm = mask
            while mm:
                low = mm & -mm
                bits |= 1 << nb[low.bit_length() - 1]
                mm ^= low
            table.append(bits)
        envied_bits.append(table)

    best_key = None
    best = None
    count = 0
    # Joint guesses are grouped by the support (which agents are envious
    # at all); a support whose floor key cannot beat the incumbent is
    # skipped wholesale with its guesses counted in bulk.
    for smask in range(smask_lo, smask_hi):
        if deadline is not None and not smask & 63:
            _check_deadline(deadline)
        support = [a for a in range(n) if smask >> a & 1]
        env_count = len(support)
        n_emp = n - env_count
        block = 1 << n_emp
        sub_total = block
        for a in support:
            sub_total *= (1 << len(nbrs[a])) - 1
        if sub_total == 0:
            continue
        if best_key is not None and env_count * scale - w * n_emp >= best_key:
            count += sub_total
            continue
        empties = [a for a in range(n) if not smask >> a & 1]
        emp_pos = {a: i for i, a in enumerate(empties)}
        for combo in product(*[range(1, 1 << len(nbrs[a])) for a in support]):
            env_rel = [0] * n
            for a, mask in zip(support, combo):
                env_rel[a] = envied_bits[a][mask]
            # Guess-independent feasibility trims: for edge {a, b}, if b
            # envies a then a's house must be preferred by b; otherwise,
            # if b cannot be happy (it envies someone), a must avoid b's
            # preferred houses.
            fixed_parts = []
            cdep: list[list[int]] = []
            for a in range(n):
                f = full_mask
                dep = []
                for b in nbrs[a]:
                    if env_rel[b] >> a & 1:
                        f &= pref[b]
                    elif smask >> b & 1:
                        f &= ~pref[b]
                    else:
                        dep.append(b)
                fixed_parts.append(f)
                cdep.append(dep)
            for cmask in range(block):
                count += 1
                hap = cmask.bit_count()
                key = env_count * scale - w * hap
                if best_key is not None and key >= best_key:
                    continue
                fmasks = []
                ok = True
                for a in range(n):
                    f = fixed_parts[a]
                    if smask >> a & 1:
                        f &= ~pref[a]
                    elif cmask >> emp_pos[a] & 1:
                        f &= pref[a]
                    else:
                        f &= ~pref[a]
                    for b in cdep[a]:
                        if not cmask >> emp_pos[b] & 1:
                            f &= ~pref[b]
                    if not f:
                        ok = False
                        break
                    fmasks.append(f)
                if not ok:
                    continue
                assignment = left_perfect_matching_masks(fmasks, m)
                if assignment is None:
                    continue
                best_key = key
                best = tuple(assignment)
    return best_key, best, count


def solve_envy_guess(inst: Instance, cfg: SolverConfig | None = None) -> SolveResult:
    """Exact solver guessing, per agent, the envied-neighbor set.

    For every joint guess and every choice of which guessed-non-envious
    agents receive a preferred house, per-agent feasibility sets are
    trimmed by the guess constraints and the guess is accepted iff a
    perfect agent-side matching into the feasibility sets exists.
    """
    cfg = cfg or SolverConfig()
    n, m = inst.n_agents, inst.n_houses
    if m < n:
        raise InstanceInfeasible(f"{m} houses for {n} agents")
    pref = _pref_masks(inst)
    scale, w = _key_weights(cfg, n)
    workers = _resolve_workers(cfg)
    # Contiguous ranges of envious-support bitmasks form the chunks.
    n_chunks = 1 if workers <= 1 else min(1 << n, 4 * workers)
    bounds = [(1 << n) * i // n_chunks for i in range(n_chunks + 1)]
    chunk_args = [
        (n, m, pref, inst.neighbors, scale, w, bounds[i], bounds[i + 1],
         cfg.deadline)
        for i in range(n_chunks)
    ]
    total = math.prod((1 << inst.degree(a)) + 1 for a in range(n))
    return _search(inst, cfg, "envy-guess", total, _eg_chunk, chunk_args)


# ---------------------------------------------------------------------------
# Separator recursion (annotated problem)
# ---------------------------------------------------------------------------

class _SepState:
    __slots__ = ("pref", "nbrs", "scale", "w", "max_size", "limit",
                 "deadline", "count", "memo", "sep_cache")

    def __init__(self, pref, nbrs, scale, w, max_size, limit, deadline):
        self.pref = pref
        self.nbrs = nbrs
        self.scale = scale
        self.w = w
        self.max_size = max_size
        self.limit = limit
        self.deadline = deadline
        self.count = 0
        self.memo: dict = {}
        # The decomposition depends only on the agent subset, never on the
        # feasibility data, so it is cached separately from subproblems.
        self.sep_cache: dict = {}


def _phi_assignments(slots: list[int], used: int, i: int):
    """Injective house tuples, houses ascending per slot (lexicographic)."""
    if i == len(slots):
        yield ()
        return
    avail = slots[i] & ~used
    while avail:
        bit = avail & -avail
        avail ^= bit
        h = bit.bit_length() - 1
        for rest in _phi_assignments(slots, used | bit, i + 1):
            yield (h,) + rest


def _ohaanr(st: _SepState, agents: tuple[int, ...], hmask: int,
            F: dict[int, int], P: dict[int, int], B: frozenset[int]):
    """Recursive optimum of the annotated subproblem, or ``None`` when no
    assignment respects the feasibility sets.

    Returns (scaled value, witness pairs). Memoized on the full subproblem
    key; guesses are counted per (separator assignment, house split,
    non-envious subset) triple evaluated.
    """
    if not agents:
        return 0, ()
    key = (
        agents,
        hmask,
        tuple(F[a] for a in agents),
        tuple(P[a] for a in agents),
        sum(1 << i for i, a in enumerate(agents) if a in B),
    )
    if key in st.memo:
        return st.memo[key]

    n_sub = len(agents)
    agset = set(agents)
    adj = {a: tuple(b for b in st.nbrs[a] if b in agset) for a in agents}
    cached = st.sep_cache.get(agents)
    if cached is None:
        cap = n_sub if st.max_size is None else min(st.max_size, n_sub)
        cached = balanced_separator_of_subgraph(agents, adj, cap)
        if cached is None:
            raise SeparatorNotFound(
                f"no balanced separator of size <= {cap} on {n_sub} agents; "
                "use the automatic size policy"
            )
        st.sep_cache[agents] = cached
    S, A1, A2 = cached
    scale = st.scale
    w = st.w
    w_parts = w * (len(A1) + len(A2))

    best = None
    slots = [F[a] & hmask for a in S]
    for phi in _phi_assignments(slots, 0, 0):
        _check_deadline(st.deadline)
        phi_of = dict(zip(S, phi))
        used_mask = 0
        for h in phi:
            used_mask |= 1 << h
        happy_in_s = {a for a, h in phi_of.items() if P[a] >> h & 1}
        d_set = []
        q_set = []
        r_set = []
        for a in S:
            if a in happy_in_s:
                continue
            if a in B:
                q_set.append(a)
            elif any(P[a] >> phi_of[b] & 1 for b in adj[a] if b in phi_of):
                d_set.append(a)
            else:
                r_set.append(a)
        forced_env = len(d_set) + len(q_set)
        n_c = len(happy_in_s)
        if best is not None and scale * forced_env - w * n_c - w_parts >= best[0]:
            continue
        extra_angry = set()
        for a in A1 + A2:
            pa = P[a]
            if any(pa >> phi_of[b] & 1 for b in adj[a] if b in phi_of):
                extra_angry.add(a)
        rem_houses = [h for h in range(hmask.bit_length())
                      if hmask >> h & 1 and not used_mask >> h & 1]
        r_tuple = tuple(r_set)
        for h1 in combinations(rem_houses, len(A1)):
            h1mask = 0
            for h in h1:
                h1mask |= 1 << h
            h2mask = hmask & ~used_mask & ~h1mask
            for kmask in range(1 << len(r_tuple)):
                st.count += 1
                if st.limit is not None and st.count > st.limit:
                    raise BudgetExceeded(
                        f"separator: guess count exceeded limit {st.limit}"
                    )
                k_agents = [r_tuple[i] for i in range(len(r_tuple))
                            if kmask >> i & 1]
                env_s = forced_env + len(r_tuple) - len(k_agents)
                contrib = scale * env_s - w * n_c
                if best is not None and contrib - w_parts >= best[0]:
                    continue
                f1 = {a: F[a] & h1mask for a in A1}
                f2 = {a: F[a] & h2mask for a in A2}
                for ka in k_agents:
                    pk = P[ka]
                    for b in st.nbrs[ka]:
                        if b in f1:
                            f1[b] &= ~pk
                        elif b in f2:
                            f2[b] &= ~pk
                if any(not v for v in f1.values()) or any(not v for v in f2.values()):
                    continue
                p1 = {a: P[a] & h1mask for a in A1}
                p2 = {a: P[a] & h2mask for a in A2}
                b1 = frozenset(a for a in A1 if a in B or a in extra_angry)
                b2 = frozenset(a for a in A2 if a in B or a in extra_angry)
                sub1 = _ohaanr(st, A1, h1mask, f1, p1, b1)
                if sub1 is None:
                    continue
                sub2 = _ohaanr(st, A2, h2mask, f2, p2, b2)
                if sub2 is None:
                    continue
                value = contrib + sub1[0] + sub2[0]
                if best is None or value < best[0]:
                    witness = tuple(phi_of.items()) + sub1[1] + sub2[1]
                    best = (value, witness)
    st.memo[key] = best
    return best


def solve_separator(
    ann: AnnotatedInstance, cfg: SolverConfig | None = None
) -> SolveResult:
    """Divide-and-conquer exact solver for the annotated problem.

    Each level fixes the houses of a minimum balanced separator, marks
    outside neighbors of happily-assigned houses angry, guesses which
    undecided separator agents stay non-envious, splits the remaining
    houses between the two parts, and recurses independently. When there
    are more houses than agents, the set of houses actually used is
    guessed up front.

    Raises :class:`NoFeasibleAllocation` when the feasibility sets admit
    no allocation.
    """
    cfg = cfg or SolverConfig()
    inst = ann.base
    n, m = inst.n_agents, inst.n_houses
    if m < n:
        raise InstanceInfeasible(f"{m} houses for {n} agents")
    pref = _pref_masks(inst)
    feas = [sum(1 << h for h in ann.feasible[a]) for a in range(n)]
    scale, w = _key_weights(cfg, n)
    st = _SepState(
        pref=pref,
        nbrs=inst.neighbors,
        scale=scale,
        w=w,
        max_size=cfg.separator_max_size,
        limit=cfg.guess_limit,
        deadline=cfg.deadline,
    )
    agents = tuple(range(n))
    best = None
    for used_houses in combinations(range(m), n):
        umask = 0
        for h in used_houses:
            umask |= 1 << h
        f0 = {a: feas[a] & umask for a in agents}
        if any(not v for v in f0.values()):
            continue
        p0 = {a: pref[a] & umask for a in agents}
        res = _ohaanr(st, agents, umask, f0, p0, ann.angry)
        if res is not None and (best is None or res[0] < best[0]):
            best = res
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
        guesses_explored=st.count,
    )


# ---------------------------------------------------------------------------
# Vertex-cover XP solver
# ---------------------------------------------------------------------------

def _vc_chunk(args) -> tuple[int | None, tuple | None, int]:
    (n, m, pref, nbrs, cover, rest, scale, w, first, deadline) = args
    k = len(cover)
    liked_cost = -w
    best_key = None
    best = None
    count = 0
    rest_pos = {a: i for i, a in enumerate(rest)}
    cover_nbrs = {a: [b for b in nbrs[a] if b not in rest_pos] for a in cover}
    # Per cover agent: its rest neighbours as a bitmask over rest positions.
    rest_nbrs = {a: sum(1 << rest_pos[b] for b in nbrs[a] if b in rest_pos)
                 for a in cover}
    for phi in _injective(m, k, first):
        if deadline is not None:
            _check_deadline(deadline)
        phi_of = dict(zip(cover, phi))
        used_mask = 0
        for h in phi:
            used_mask |= 1 << h
        happy_flags = {a: bool(pref[a] >> h & 1) for a, h in phi_of.items()}
        happy_s = w * sum(happy_flags.values())
        eligible = []
        for a in cover:
            if happy_flags[a]:
                eligible.append(a)
                continue
            if any(pref[a] >> phi_of[b] & 1 for b in cover_nbrs[a]):
                continue  # already envious within the cover
            eligible.append(a)
        n_el = len(eligible)
        count += 1 << n_el
        if (best_key is not None
                and scale * (k - n_el) - happy_s - w * len(rest) >= best_key):
            continue
        remaining = [h for h in range(m) if not used_mask >> h & 1]
        rem_mask = ((1 << m) - 1) & ~used_mask
        # Choosing a *free* eligible agent (happy, or forbidding no remaining
        # house to any rest agent) leaves every row as it is and lowers the
        # key by ``scale``, so only guesses that choose all free agents can
        # be optimal; the rest are counted above but never evaluated.
        n_free = 0
        forbids = []
        for a in eligible:
            hit = pref[a] & rem_mask
            if happy_flags[a] or not hit or not rest_nbrs[a]:
                n_free += 1
            else:
                forbids.append((hit, rest_nbrs[a]))
        # Cmask-independent data per rest agent: its liked remaining houses
        # and the cost of an unliked house (``scale`` when it sees a cover
        # neighbour holding a house it likes, else 0).
        liked = []
        miss = []
        for a in rest:
            pa = pref[a]
            liked.append(pa & rem_mask)
            miss.append(scale if any(pa >> phi_of[b] & 1 for b in nbrs[a]) else 0)
        for sub in range(1 << len(forbids)):
            base = scale * (k - n_free - sub.bit_count()) - happy_s
            forbid = [0] * len(rest)
            for i, (hit, nb) in enumerate(forbids):
                if sub >> i & 1:
                    while nb:
                        low = nb & -nb
                        forbid[low.bit_length() - 1] |= hit
                        nb ^= low
            # Row-minimum bound: every rest agent pays at least its
            # cheapest admissible house.
            bound = base
            for p, f in enumerate(forbid):
                if liked[p] & ~f:
                    bound += liked_cost
                elif rem_mask & ~f:
                    bound += miss[p]
                else:
                    bound = None
                    break
            if bound is None or (best_key is not None and bound >= best_key):
                continue
            # Most guesses that pass the bound admit no extension at all;
            # the bitmask Hall check rejects them cheaper than the min-cost
            # engine would.
            if left_perfect_matching_masks([rem_mask & ~f for f in forbid], m) is None:
                continue
            rows: list[list[int | None]] = [
                [None if f >> h & 1 else liked_cost if lk >> h & 1 else w
                 for h in remaining]
                for lk, w, f in zip(liked, miss, forbid)
            ]
            zeta, assign_local = min_cost_saturating_assignment(rows)
            key = base + zeta
            if best_key is None or key < best_key:
                assignment = [-1] * n
                for a, h in phi_of.items():
                    assignment[a] = h
                for i, a in enumerate(rest):
                    assignment[a] = remaining[assign_local[i]]
                best_key = key
                best = tuple(assignment)
    return best_key, best, count


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
        found = find_min_vertex_cover(inst, n)
        assert found is not None
        cover_set = found
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
    chunk_args = [
        (n, m, pref, inst.neighbors, cover_t, rest, scale, w, first, cfg.deadline)
        for first in _first_houses(m, k, cfg)
    ]
    total = math.perm(m, k) * (1 << k)
    return _search(inst, cfg, "vc-xp", total, _vc_chunk, chunk_args)


# ---------------------------------------------------------------------------
# Dispatcher
# ---------------------------------------------------------------------------

def solve(inst: Instance, algo: str = "auto",
          cfg: SolverConfig | None = None) -> SolveResult:
    """Dispatch to a solver by label.

    ``auto`` picks the d=1 matching solver when every agent prefers
    exactly one house, else the vertex-cover solver when a minimum cover
    of size <= 8 exists, else the envy-guessing solver when n + 2|E| <= 30,
    else the separator recursion. Plain instances are wrapped with
    all-permissive feasibility sets for the separator solver.
    """
    cfg = cfg or SolverConfig()
    if algo not in ALGORITHMS:
        raise UnknownAlgorithm(f"unknown algorithm {algo!r}")
    cover = None
    if algo == "auto":
        if inst.n_agents > 0 and all(len(p) == 1 for p in inst.preferences):
            algo = "d1"
        else:
            cover = find_min_vertex_cover(inst, AUTO_VC_THRESHOLD)
            if cover is not None:
                algo = "vc-xp"
            elif inst.n_agents + 2 * len(inst.edges) <= AUTO_ENVY_GUESS_BOUND:
                algo = "envy-guess"
            else:
                algo = "separator"
    if algo == "brute":
        return solve_bruteforce(inst, cfg)
    if algo == "d1":
        return solve_d1_matching(inst, cfg)
    if algo == "envy-guess":
        return solve_envy_guess(inst, cfg)
    if algo == "vc-xp":
        return solve_vertex_cover_xp(inst, cover, cfg)
    return solve_separator(AnnotatedInstance.plain(inst), cfg)
