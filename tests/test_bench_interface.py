"""The benchmark's tracer wraps names on the library; keep them all in place.

``perfbench/tracing.py`` replaces solver and subroutine names on
``haan.solvers`` (and a few other modules) with timing wrappers. A change
that removes or renames one of them breaks the benchmark, so this test
loads the tracer as the benchmark does and solves through the wrapped
names.
"""

import types
from collections import Counter
from pathlib import Path

import haan.solvers as solvers
from haan.model import AnnotatedInstance, Instance

TRACING = Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"


def load_tracing():
    """Execute the tracer's source without writing bytecode next to it."""
    module = types.ModuleType("perfbench_tracing")
    module.__file__ = str(TRACING)
    exec(compile(TRACING.read_text(), str(TRACING), "exec"), module.__dict__)
    return module


def test_tracer_records_one_span_per_solver():
    tracing = load_tracing()
    inst = Instance(3, 4, [(0, 1), (1, 2)], [[0], [0], [1]])
    cfg = solvers.SolverConfig(objective=solvers.Objective.MIN_ENVY_THEN_MAX_HAPPY)
    tracer = tracing.Tracer()
    with tracer.active():
        solvers.solve_bruteforce(inst, cfg)
        solvers.solve_d1_matching(inst, cfg)
        solvers.solve_envy_guess(inst, cfg)
        solvers.solve_separator(AnnotatedInstance.plain(inst), cfg)
        solvers.solve_vertex_cover_xp(inst, None, cfg)
    names = Counter(span[2] for span in tracer.spans if span[2].startswith("solvers."))
    assert names == Counter(tracing.SOLVER_SPANS.values())
