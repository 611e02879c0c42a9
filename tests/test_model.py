import random

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from haan.errors import InvalidAllocation, InvalidInstance
from haan.model import (
    Allocation,
    AnnotatedInstance,
    Instance,
    evaluate,
    evaluate_annotated,
)

from oracles import brute_optimum


@st.composite
def instances(draw, n_max=5, extra_houses=2, d_max=3):
    n = draw(st.integers(0, n_max))
    m = draw(st.integers(n, n + extra_houses))
    all_pairs = [(u, v) for u in range(n) for v in range(u + 1, n)]
    edges = [e for e in all_pairs if draw(st.booleans())]
    prefs = [
        draw(st.sets(st.integers(0, m - 1), max_size=min(d_max, m))) if m else set()
        for _ in range(n)
    ]
    return Instance(n, m, edges, prefs)


@st.composite
def instances_with_allocations(draw):
    inst = draw(instances())
    perm = draw(st.permutations(range(inst.n_houses)))
    return inst, Allocation(perm[: inst.n_agents])


def test_validate_empty_instance():
    inst = Instance(0, 0, [], [])
    assert inst.n_agents == 0 and inst.n_houses == 0 and inst.d == 0


def test_validate_rejects_self_loop():
    with pytest.raises(InvalidInstance, match="self-loop"):
        Instance(2, 1, [(0, 0)], [[], []])


def test_validate_rejects_out_of_range_preference():
    with pytest.raises(InvalidInstance, match="out of range"):
        Instance(1, 3, [], [[5]])


def test_validate_rejects_duplicate_edge():
    with pytest.raises(InvalidInstance, match="duplicate edge"):
        Instance(2, 1, [(0, 1), (1, 0)], [[], []])


def test_validate_rejects_duplicate_preference():
    with pytest.raises(InvalidInstance, match="duplicate preference"):
        Instance(1, 2, [], [[1, 1]])


def test_d_statistic():
    inst = Instance(3, 4, [], [[0], [1, 2, 3], []])
    assert inst.d == 3


def test_evaluate_edgeless_never_envious():
    inst = Instance(3, 3, [], [[0], [0], [0]])
    rep = evaluate(inst, Allocation((0, 1, 2)))
    assert rep.n_envious == 0
    assert rep.n_happy == 1


def test_evaluate_path_example():
    # a0 - a1, both want h0; a0 holds it.
    inst = Instance(2, 2, [(0, 1)], [[0], [0]])
    rep = evaluate(inst, Allocation((0, 1)))
    assert rep.envious == (False, True)
    assert rep.happy == (True, False)
    assert rep.n_envious == 1 and rep.n_happy == 1


def test_evaluate_triangle_example():
    inst = Instance(3, 3, [(0, 1), (0, 2), (1, 2)], [[0], [0], [0]])
    rep = evaluate(inst, Allocation((0, 1, 2)))
    assert rep.envious == (False, True, True)
    assert rep.n_envious == 2
    # 2 is also the minimum over all 6 allocations.
    assert brute_optimum(inst)[0] == 2


def test_evaluate_rejects_non_injective():
    inst = Instance(2, 2, [], [[], []])
    with pytest.raises(InvalidAllocation, match="twice"):
        evaluate(inst, Allocation((0, 0)))


def test_evaluate_rejects_out_of_range():
    inst = Instance(1, 1, [], [[]])
    with pytest.raises(InvalidAllocation, match="out of range"):
        evaluate(inst, Allocation((3,)))


def test_evaluate_rejects_wrong_length():
    inst = Instance(2, 3, [], [[], []])
    with pytest.raises(InvalidAllocation, match="covers"):
        evaluate(inst, Allocation((0,)))


def test_annotated_angry_without_preferred_house():
    base = Instance(1, 2, [], [[0]])
    ann = AnnotatedInstance(base, [[1]], [0])
    feasible_ok, rep = evaluate_annotated(ann, Allocation((1,)))
    assert feasible_ok
    assert rep.envious == (True,)


def test_annotated_angry_with_preferred_house():
    base = Instance(1, 1, [], [[0]])
    ann = AnnotatedInstance(base, [[0]], [0])
    feasible_ok, rep = evaluate_annotated(ann, Allocation((0,)))
    assert feasible_ok
    assert rep.envious == (False,)


def test_annotated_feasibility_flag():
    base = Instance(2, 2, [], [[], []])
    ann = AnnotatedInstance(base, [[0], [0, 1]], [])
    assert evaluate_annotated(ann, Allocation((0, 1)))[0] is True
    assert evaluate_annotated(ann, Allocation((1, 0)))[0] is False


@given(instances_with_allocations())
@settings(max_examples=150)
def test_annotated_plain_wrapper_matches_plain_evaluate(case):
    inst, alloc = case
    ann = AnnotatedInstance.plain(inst)
    feasible_ok, rep = evaluate_annotated(ann, alloc)
    assert feasible_ok
    assert rep == evaluate(inst, alloc)


@given(instances_with_allocations())
@settings(max_examples=150)
def test_envy_flags_follow_the_definition(case):
    # a envies b iff they share an edge, a holds no house it prefers and b
    # holds one that a prefers.
    inst, alloc = case
    rep = evaluate(inst, alloc)
    held = alloc.assignment
    likes = inst.preferences
    for a in range(inst.n_agents):
        assert rep.happy[a] == (held[a] in likes[a])
        nbrs = [v if u == a else u for u, v in inst.edges if a in (u, v)]
        assert rep.envious[a] == (
            held[a] not in likes[a] and any(held[b] in likes[a] for b in nbrs))
    assert rep.n_envious == sum(rep.envious)
    assert rep.n_happy == sum(rep.happy)


@given(instances_with_allocations())
@settings(max_examples=100)
def test_edge_deletion_never_increases_envy(case):
    inst, alloc = case
    rep = evaluate(inst, alloc)
    for drop in inst.edges:
        smaller = Instance(
            inst.n_agents, inst.n_houses,
            [e for e in inst.edges if e != drop], inst.preferences,
        )
        assert evaluate(smaller, alloc).n_envious <= rep.n_envious


def test_annotated_rejects_bad_feasible_house():
    base = Instance(1, 1, [], [[]])
    with pytest.raises(InvalidInstance):
        AnnotatedInstance(base, [[4]], [])


def test_annotated_rejects_bad_angry_agent():
    base = Instance(1, 1, [], [[]])
    with pytest.raises(InvalidInstance):
        AnnotatedInstance(base, [[0]], [7])


def test_random_agreement_against_oracle_counts():
    rng = random.Random(4)
    for _ in range(50):
        n = rng.randint(1, 5)
        m = rng.randint(n, n + 2)
        edges = [(u, v) for u in range(n) for v in range(u + 1, n)
                 if rng.random() < 0.5]
        prefs = [rng.sample(range(m), rng.randint(0, min(2, m))) for _ in range(n)]
        inst = Instance(n, m, edges, prefs)
        perm = tuple(rng.sample(range(m), n))
        rep = evaluate(inst, Allocation(perm))
        naive = sum(
            1 for a in range(n)
            if perm[a] not in inst.preferences[a]
            and any(perm[b] in inst.preferences[a] for b in inst.neighbors[a])
        )
        assert rep.n_envious == naive
