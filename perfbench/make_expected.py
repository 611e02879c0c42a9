"""Write expected.json: committed optima of the seed-independent cases.

Each value is accepted only when two independent computations agree: the
class-quotient enumeration through ``haan.model.evaluate`` and the vc-xp
solver, plus the separator solver where it finishes within its deadline.
Run from the root of a checkout:

    python3 perfbench/make_expected.py
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
sys.path.insert(0, str(BENCH_DIR.parent / "src"))

from haan.errors import SolveTimeout  # noqa: E402
from haan.model import AnnotatedInstance  # noqa: E402
from haan.solvers import (  # noqa: E402
    Objective,
    SolverConfig,
    solve_separator,
    solve_vertex_cover_xp,
)

import corpus  # noqa: E402
from reference import reference_optimum  # noqa: E402

SEPARATOR_DEADLINE_S = 60.0


def main() -> int:
    happy = SolverConfig(objective=Objective.MIN_ENVY_THEN_MAX_HAPPY, guess_limit=None)
    expected = {}
    for case in corpus.vcxp_fixed():
        want = reference_optimum(case.instance)
        agreed = ["class enumeration"]
        got = solve_vertex_cover_xp(case.instance, None, happy)
        if (got.min_envy, got.happiness) != want:
            print(f"{case.label}: vc-xp {got.min_envy, got.happiness} != {want}",
                  file=sys.stderr)
            return 1
        agreed.append("vc-xp")
        cfg = SolverConfig(objective=happy.objective, guess_limit=None,
                           deadline=time.monotonic() + SEPARATOR_DEADLINE_S)
        try:
            sep = solve_separator(AnnotatedInstance.plain(case.instance), cfg)
        except SolveTimeout:
            sep = None
        if sep is not None:
            if (sep.min_envy, sep.happiness) != want:
                print(f"{case.label}: separator {sep.min_envy, sep.happiness} != {want}",
                      file=sys.stderr)
                return 1
            agreed.append("separator")
        expected[case.label] = {"optimum": list(want), "agreed_by": agreed}
        print(case.label, want, agreed)
    path = BENCH_DIR / "expected.json"
    path.write_text(json.dumps(expected, indent=2, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
