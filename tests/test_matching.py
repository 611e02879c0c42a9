import hashlib
import random
import time

import pytest

from haan.errors import SolveTimeout
from haan.matching import (
    left_perfect_matching_masks,
    max_matching_size_masks,
    min_cost_saturating_assignment,
)

from oracles import matching_optimum


def test_augmenting_paths_as_long_as_the_matching():
    # Left vertex a admits {a, a+1} and the last one only {0}: the last
    # search shifts every earlier vertex one place along a 3,000-step path.
    n = 3000
    fmasks = [0b11 << a for a in range(n - 1)] + [1]
    assert max_matching_size_masks(fmasks, n) == n
    assert left_perfect_matching_masks(fmasks, n) == list(range(1, n)) + [0]


def random_graph(rng, max_side=6, p_edge=0.6, cost_lo=0, cost_hi=9):
    """(n_left, n_right, {(l, r): cost}) with some pairs left out."""
    n_left = rng.randint(0, max_side)
    n_right = rng.randint(0, max_side)
    costs = {
        (l, r): rng.randint(cost_lo, cost_hi)
        for l in range(n_left)
        for r in range(n_right)
        if rng.random() < p_edge
    }
    return n_left, n_right, costs


def cost_rows(n_left, n_right, costs):
    return [[costs.get((l, r)) for r in range(n_right)] for l in range(n_left)]


def masks(n_left, n_right, costs):
    return [sum(1 << r for r in range(n_right) if (l, r) in costs)
            for l in range(n_left)]


def assert_valid(rows, got):
    """An assignment that is injective, admissible and priced as reported."""
    total, assignment = got
    assert len(assignment) == len(rows)
    assert len(set(assignment)) == len(assignment)
    assert all(rows[l][r] is not None for l, r in enumerate(assignment))
    assert total == sum(rows[l][r] for l, r in enumerate(assignment))


def test_max_cardinality_empty():
    assert left_perfect_matching_masks([0, 0, 0], 3) is None
    assert min_cost_saturating_assignment([[None] * 3] * 3) is None


def test_max_cardinality_shared_right_vertex():
    assert left_perfect_matching_masks([0b01, 0b01], 2) is None
    assert min_cost_saturating_assignment([[0, None], [0, None]]) is None


def test_max_cardinality_complete():
    assignment = left_perfect_matching_masks([0b111] * 3, 3)
    assert sorted(assignment) == [0, 1, 2]


def test_max_matching_size_equals_enumerated_maximum():
    rng = random.Random(3)
    for _ in range(300):
        n_left, n_right = rng.randint(0, 6), rng.randint(0, 7)
        pairs = {(l, r): 0 for l in range(n_left) for r in range(n_right)
                 if rng.random() < rng.choice((0.2, 0.5))}
        size, _ = matching_optimum(n_left, n_right, pairs)
        assert max_matching_size_masks(masks(n_left, n_right, pairs), n_right) == size


def test_min_cost_2x2_example():
    assert min_cost_saturating_assignment([[1, 2], [3, 0]]) == (1, [0, 1])


def test_min_cost_single_left_vertex():
    assert min_cost_saturating_assignment([[5, 3]]) == (3, [1])


def test_min_cost_all_zero_costs():
    rng = random.Random(0)
    for _ in range(20):
        n_left, n_right, costs = random_graph(rng, cost_hi=0)
        rows = cost_rows(n_left, n_right, costs)
        got = min_cost_saturating_assignment(rows)
        size, _ = matching_optimum(n_left, n_right, costs)
        if size < n_left:
            assert got is None
        else:
            assert got[0] == 0
            assert_valid(rows, got)


def test_min_cost_handles_negative_costs():
    # Saturating both rows is mandatory even though (0, 1) alone is cheapest.
    total, assignment = min_cost_saturating_assignment([[-1, -5], [None, -4]])
    assert (total, assignment) == (-5, [0, 1])


def test_oracle_equivalence_random_graphs():
    rng = random.Random(42)
    for _ in range(300):
        n_left, n_right, costs = random_graph(rng)
        size, cost = matching_optimum(n_left, n_right, costs)
        got = min_cost_saturating_assignment(cost_rows(n_left, n_right, costs))
        saturating = left_perfect_matching_masks(masks(n_left, n_right, costs), n_right)
        if size < n_left:
            assert got is None
            assert saturating is None
        else:
            assert got[0] == cost
            assert saturating is not None


def test_matching_pairs_are_valid_edges():
    rng = random.Random(7)
    for _ in range(100):
        n_left, n_right, costs = random_graph(rng)
        rows = cost_rows(n_left, n_right, costs)
        got = min_cost_saturating_assignment(rows)
        if got is not None:
            assert_valid(rows, got)
        saturating = left_perfect_matching_masks(masks(n_left, n_right, costs), n_right)
        if saturating is not None:
            assert len(set(saturating)) == n_left
            assert all((l, r) in costs for l, r in enumerate(saturating))


def test_adding_edge_is_monotone():
    rng = random.Random(11)
    for _ in range(100):
        n_left, n_right, costs = random_graph(rng, max_side=5)
        missing = [
            (l, r) for l in range(n_left) for r in range(n_right) if (l, r) not in costs
        ]
        if not missing:
            continue
        bigger = dict(costs)
        bigger[missing[rng.randrange(len(missing))]] = rng.randint(0, 9)
        before = min_cost_saturating_assignment(cost_rows(n_left, n_right, costs))
        after = min_cost_saturating_assignment(cost_rows(n_left, n_right, bigger))
        if before is not None:
            assert after is not None
            assert after[0] <= before[0]


def test_saturating_assignment_agrees_with_general_matching():
    rng = random.Random(5)
    checked = 0
    for _ in range(300):
        n_left, n_right, costs = random_graph(rng, max_side=5)
        if n_left > n_right:
            continue
        rows = cost_rows(n_left, n_right, costs)
        got = min_cost_saturating_assignment(rows)
        size, cost = matching_optimum(n_left, n_right, costs)
        if size == n_left:
            assert got is not None
            assert got[0] == cost
            assert_valid(rows, got)
            checked += 1
        else:
            assert got is None
    assert checked > 20


def test_saturating_assignment_empty_left():
    assert min_cost_saturating_assignment([]) == (0, [])


def test_saturating_assignment_negative_costs():
    rows = [[-1, 0], [None, -4]]
    total, assignment = min_cost_saturating_assignment(rows)
    assert total == -5
    assert assignment == [0, 1]


def test_saturating_assignment_edge_cases():
    """All-None rows, negative costs and square infeasible systems, each
    against the enumeration oracle."""
    rng = random.Random(99)
    shapes = {"none-row": 0, "square-infeasible": 0, "negative": 0}
    for _ in range(400):
        n_left, n_right, costs = random_graph(rng, cost_lo=-9, p_edge=0.5)
        if n_left and rng.random() < 0.3:
            dead = rng.randrange(n_left)
            costs = {p: c for p, c in costs.items() if p[0] != dead}
            shapes["none-row"] += 1
        rows = cost_rows(n_left, n_right, costs)
        size, cost = matching_optimum(n_left, n_right, costs)
        got = min_cost_saturating_assignment(rows)
        if size < n_left:
            assert got is None
            shapes["square-infeasible"] += n_left == n_right
        else:
            assert got[0] == cost
            assert_valid(rows, got)
            shapes["negative"] += cost < 0
    assert all(count >= 10 for count in shapes.values()), shapes


def test_min_cost_with_an_expired_deadline_times_out():
    with pytest.raises(SolveTimeout):
        min_cost_saturating_assignment([[0, 1]], time.monotonic() - 1)
    assert min_cost_saturating_assignment([], time.monotonic() - 1) == (0, [])


def tie_tables():
    """Seeded cost tables shaped like the solvers' own: vc-xp's leaf tables
    (up to 6 x 9, entries from {-1, 0, 1, None}) and d1's dense ones."""
    rng = random.Random(2024)
    for _ in range(1500):
        n_left = rng.randint(1, 6)
        n_right = rng.randint(n_left, 9)
        p_none = rng.choice((0.0, 0.3, 0.6))
        yield [[None if rng.random() < p_none else rng.choice((-1, 0, 1))
                for _ in range(n_right)] for _ in range(n_left)]
    for _ in range(500):
        n = rng.randint(1, 8)
        m = rng.randint(n, 10)
        single = [rng.randrange(m) for _ in range(n)]
        nbrs = [[b for b in range(n) if b != a and rng.random() < 0.4] for a in range(n)]
        yield [[(n + 1) * sum(single[b] == h for b in nbrs[a]) - (single[a] == h)
                for h in range(m)] for a in range(n)]


def test_min_cost_tie_breaking_is_pinned():
    """vc-xp's and d1's witnesses depend on which optimal assignment the
    engine returns, not only on its cost. Least reduced cost, and among
    equal columns the last free one, else the first."""
    assert min_cost_saturating_assignment([[0, 0]]) == (0, [1])
    assert min_cost_saturating_assignment([[0, 0, 0], [0, 0, 0]]) == (0, [2, 1])
    # Row 1's cheapest column is held.
    assert min_cost_saturating_assignment([[0, 1, 1], [0, 1, 1]]) == (1, [0, 2])
    # Row 1's only free column is inadmissible for it.
    assert min_cost_saturating_assignment([[0, 1], [0, None]]) == (1, [1, 0])
    # The tables hold both kinds of row many times over, and infeasible ones.
    got = [min_cost_saturating_assignment(rows) for rows in tie_tables()]
    assert len(got) == 2000
    assert hashlib.sha256(repr(got).encode()).hexdigest() == (
        "22d081a36967d82f97e4c5155cc0d9a00fa0024f488bfbc48dd5cadf89c30cfb")
