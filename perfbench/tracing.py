"""In-memory spans around haan's public layer entry points.

The tracer replaces names on the modules the calls go through and restores
them afterwards; nothing under ``src/`` is edited. ``haan.solvers`` imports
its subroutines by name, so they are wrapped there, where the solvers look
them up. Spans are recorded in this process only.

A span is ``(id, parent id, name, start, end, case index, value)``; the
value is a per-layer count (guesses explored, 1 for an infeasible matching).
"""

from __future__ import annotations

import time
from collections import defaultdict
from contextlib import contextmanager
from pathlib import Path

import haan.solvers
from haan import reductions
from haan.cli import files

NO_PARENT = 0
SETUP_CASE = -1

SOLVER_SPANS = {
    "solve_bruteforce": "solvers.brute",
    "solve_d1_matching": "solvers.d1",
    "solve_envy_guess": "solvers.envy-guess",
    "solve_separator": "solvers.separator",
    "solve_vertex_cover_xp": "solvers.vc-xp",
}


def _guesses(result) -> int:
    return result.guesses_explored


def _is_none(result) -> int:
    return int(result is None)


def _zero(result) -> int:
    return 0


def _layer_table():
    """(module, attribute, span name, value of the result) per wrapped name."""
    table = [(haan.solvers, attr, span, _guesses) for attr, span in SOLVER_SPANS.items()]
    table += [
        (haan.solvers, "min_cost_saturating_assignment", "matching.min_cost", _is_none),
        (haan.solvers, "left_perfect_matching_masks", "matching.masks", _is_none),
        (haan.solvers, "balanced_separator_of_subgraph", "graphtools.separator", _zero),
        (haan.solvers, "find_min_vertex_cover", "graphtools.cover", _zero),
        (haan.solvers, "evaluate", "model.evaluate", _zero),
        (haan.solvers, "evaluate_annotated", "model.evaluate_annotated", _zero),
        (files, "parse_instance_text", "cli.files.parse", _zero),
        (files, "render_instance_text", "cli.files.render", _zero),
    ]
    table += [
        (reductions, attr, "reductions.generate", _zero)
        for attr in ("gen_clique_bipartite_d2", "gen_clique_vc_bipartite",
                     "gen_clique_vc_split", "gen_halfsep_3regular")
    ]
    return table


class Tracer:
    def __init__(self):
        self.spans: list[tuple] = []
        self.case = SETUP_CASE
        self._stack = [NO_PARENT]
        self._next_id = 1

    def _wrap(self, name: str, fn, outcome):
        spans = self.spans
        stack = self._stack
        clock = time.perf_counter

        def traced(*args, **kwargs):
            sid = self._next_id
            self._next_id = sid + 1
            parent = stack[-1]
            stack.append(sid)
            value = 0
            start = clock()
            try:
                result = fn(*args, **kwargs)
                value = outcome(result)
                return result
            finally:
                end = clock()
                stack.pop()
                spans.append((sid, parent, name, start, end, self.case, value))

        return traced

    @contextmanager
    def active(self):
        """Wrap every layer entry point for the duration of the block."""
        saved = []
        try:
            for module, attr, name, outcome in _layer_table():
                original = getattr(module, attr)
                saved.append((module, attr, original))
                setattr(module, attr, self._wrap(name, original, outcome))
            yield self
        finally:
            for module, attr, original in reversed(saved):
                setattr(module, attr, original)

    def layer_totals(self, reps_per_case: list[int]) -> dict[str, dict[str, float]]:
        """Per span name: calls, seconds, self seconds and value, each summed
        per case and divided by that case's traced repetitions (so a figure
        is per corpus pass). Setup spans are summed as they are."""
        child_time: dict[int, float] = defaultdict(float)
        for sid, parent, name, start, end, case, value in self.spans:
            child_time[parent] += end - start
        # Summed per (name, case) first, so that counts divide exactly.
        per_case: dict[tuple[str, int], list] = defaultdict(lambda: [0, 0.0, 0.0, 0])
        for sid, parent, name, start, end, case, value in self.spans:
            row = per_case[name, case]
            row[0] += 1
            row[1] += end - start
            row[2] += end - start - child_time.get(sid, 0.0)
            row[3] += value
        totals: dict[str, dict[str, float]] = defaultdict(
            lambda: {"calls": 0.0, "s": 0.0, "self_s": 0.0, "value": 0.0})
        for (name, case), (calls, seconds, self_seconds, value) in per_case.items():
            reps = 1 if case == SETUP_CASE else reps_per_case[case]
            row = totals[name if case != SETUP_CASE else "setup:" + name]
            row["calls"] += calls / reps
            row["s"] += seconds / reps
            row["self_s"] += self_seconds / reps
            row["value"] += value / reps
        return totals

    def dump(self, path: Path, origin: float) -> None:
        """Write every span as a tab-separated line, times relative to ``origin``."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with path.open("w") as out:
            out.write("id\tparent\tname\tstart_s\tend_s\tcase\tvalue\n")
            for sid, parent, name, start, end, case, value in self.spans:
                out.write(f"{sid}\t{parent}\t{name}\t{start - origin:.6f}\t"
                          f"{end - origin:.6f}\t{case}\t{value}\n")
