"""Reference optima that no solver produced.

``reference_optimum`` enumerates injective assignments and scores each one
with ``haan.model.evaluate`` (or ``evaluate_annotated``). Houses that the
same agents prefer and, for annotated instances, the same agents may
receive are interchangeable: swapping two of them changes neither envy,
happiness nor feasibility. So the enumeration picks a house class per
agent and hands out the houses of a class in ascending order, which visits
every distinct outcome while skipping the permutations among identical
houses (a reduction's dummy houses collapse into one class).
"""

from __future__ import annotations

from haan.model import Allocation, AnnotatedInstance, Instance, evaluate, evaluate_annotated


def _house_classes(inst: Instance, ann: AnnotatedInstance | None) -> list[list[int]]:
    by_key: dict[tuple, list[int]] = {}
    for h in range(inst.n_houses):
        likers = tuple(a for a in range(inst.n_agents) if h in inst.preferences[a])
        allowed = (None if ann is None else
                   tuple(a for a in range(inst.n_agents) if h in ann.feasible[a]))
        by_key.setdefault((likers, allowed), []).append(h)
    return sorted(by_key.values())


def reference_optimum(
    inst: Instance, ann: AnnotatedInstance | None = None
) -> tuple[int, int] | None:
    """(min envy, max happiness among min-envy allocations), or ``None``
    when no allocation exists (too few houses, or none respects the
    feasibility sets)."""
    n = inst.n_agents
    if inst.n_houses < n:
        return None
    classes = _house_classes(inst, ann)
    free = [len(houses) for houses in classes]
    allowed = [
        [c for c, houses in enumerate(classes)
         if ann is None or houses[0] in ann.feasible[a]]
        for a in range(n)
    ]
    choice = [0] * n
    best: list[tuple[int, int]] = []

    def score() -> None:
        taken = [0] * len(classes)
        assignment = []
        for c in choice:
            assignment.append(classes[c][taken[c]])
            taken[c] += 1
        alloc = Allocation(assignment)
        if ann is None:
            report = evaluate(inst, alloc)
        else:
            feasible_ok, report = evaluate_annotated(ann, alloc)
            assert feasible_ok
        key = (report.n_envious, -report.n_happy)
        if not best or key < best[0]:
            best[:] = [key]

    def assign(a: int) -> None:
        if a == n:
            score()
            return
        for c in allowed[a]:
            if free[c]:
                free[c] -= 1
                choice[a] = c
                assign(a + 1)
                free[c] += 1

    assign(0)
    if not best:
        return None
    envy, neg_happy = best[0]
    return envy, -neg_happy
