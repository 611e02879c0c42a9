"""Measurement loop, result checks and metrics of the benchmark.

A run is closed-loop with one client: cases are solved in corpus order, one
after another, and the corpus is cycled until the measuring time is up and
every case has been solved at least once.

A case's time, and each call's, is the median of its repetitions. Taking one
figure per case keeps the corpus mix fixed wherever the run stops. The work
is deterministic, so repetitions differ only by interference from whatever
else runs on the host; on a shared two-core host that moves a fixed loop's
time by tens of percent from minute to minute. So end-to-end times are
scaled to a nominal host speed by a yardstick loop timed between the cases
(see yardstick.py).
"""

from __future__ import annotations

import json
import random
import statistics
import time
from dataclasses import dataclass
from pathlib import Path

import haan.solvers as solvers
from haan.cli import files
from haan.cli.files import InstanceDocument
from haan.errors import HaanError
from haan.model import AnnotatedInstance, Instance, evaluate, evaluate_annotated
from haan.solvers import Objective, SolverConfig

import corpus
from reference import reference_optimum
from tracing import SOLVER_SPANS, Tracer
from yardstick import Yardstick

EXPECTED_PATH = Path(__file__).resolve().parent / "expected.json"

# Generous next to the slowest call of any corpus at seed (under 1.5 s), so
# that a regression fails calls instead of stalling the run.
CALL_DEADLINE_S = 20.0

# Each timing percentile needs at least ten samples beyond it.
MIN_DISTINCT_CALLS = 100

WORKLOADS = {
    "sweep-small": corpus.sweep_small,
    "vcxp-cover": corpus.vcxp_cover,
    "halfsep-guess": corpus.halfsep_guess,
}


class BenchError(Exception):
    """The corpus or its references are unusable; no result is printed."""


def _solve(algo: str, inst, ann, cfg: SolverConfig):
    # Solvers are looked up on the module at call time, so a traced run
    # sees its wrappers.
    if algo == "brute":
        return solvers.solve_bruteforce(inst, cfg)
    if algo == "d1":
        return solvers.solve_d1_matching(inst, cfg)
    if algo == "envy-guess":
        return solvers.solve_envy_guess(inst, cfg)
    if algo == "separator":
        return solvers.solve_separator(ann or AnnotatedInstance.plain(inst), cfg)
    return solvers.solve_vertex_cover_xp(inst, None, cfg)


def _fresh_copy(inst: Instance, ann: AnnotatedInstance | None):
    """An equal instance with nothing cached on it, so that per-instance
    cached work is paid inside every timed solve."""
    inst = Instance(inst.n_agents, inst.n_houses, inst.edges, inst.preferences)
    if ann is not None:
        ann = AnnotatedInstance(inst, ann.feasible, ann.angry)
    return inst, ann


@dataclass
class Rep:
    """One solve of one case: its wall time, per-call times and failures."""

    seconds: float
    call_seconds: list[float]
    failures: list[str]
    wrong: int = 0  # failures that are wrong results, not errors or timeouts


class Bench:
    def __init__(self, workload: str, seed: int):
        self.build = WORKLOADS[workload]
        self.seed = seed
        self.cases: list[corpus.Case] = []
        self.refs: list[tuple[int, int]] = []
        self.yard = Yardstick()

    # -- set-up -----------------------------------------------------------

    def setup(self) -> None:
        """Build the corpus and make one warm-up solve."""
        self.cases = self.build(random.Random(self.seed))
        self._solve_case(self.cases[0])

    def prepare_references(self) -> None:
        """Reference optima. Not part of set-up: this is the benchmark's own
        checking work."""
        n_calls = sum(len(case.calls) for case in self.cases)
        if n_calls < MIN_DISTINCT_CALLS:
            raise BenchError(f"corpus has {n_calls} calls, fewer than {MIN_DISTINCT_CALLS}")
        expected = json.loads(EXPECTED_PATH.read_text())
        for case in self.cases:
            if case.committed:
                ref = tuple(expected[case.label]["optimum"])
            else:
                ref = reference_optimum(case.instance, case.annotated)
            if ref is None:
                raise BenchError(f"{case.label}: no allocation exists")
            if case.witness is not None:
                bound = evaluate(case.instance, case.witness).n_envious
                if ref[0] > bound:
                    raise BenchError(f"{case.label}: reference envy {ref[0]} exceeds "
                                     f"the generator witness's {bound}")
            self.refs.append(ref)

    # -- solving and checking ---------------------------------------------

    def _solve_case(self, case: corpus.Case):
        inst, ann = _fresh_copy(case.instance, case.annotated)
        start = time.perf_counter()
        if case.roundtrip:
            doc = files.parse_instance_text(
                files.render_instance_text(InstanceDocument(inst, ann)))
            inst, ann = doc.instance, doc.annotated
        outcomes = []
        for algo, objective in case.calls:
            cfg = SolverConfig(objective=objective, workers=1, guess_limit=None,
                               deadline=time.monotonic() + CALL_DEADLINE_S)
            t0 = time.perf_counter()
            crashed = False
            try:
                result, error = _solve(algo, inst, ann, cfg), None
            except HaanError as exc:  # timeout, budget, no separator: a failed call
                result, error = None, f"{type(exc).__name__}: {exc}"
            except Exception as exc:  # a bug in the solver: a wrong result
                result, error, crashed = None, f"crashed: {type(exc).__name__}: {exc}", True
            outcomes.append((result, error, crashed, time.perf_counter() - t0))
        return time.perf_counter() - start, inst, ann, outcomes

    def _wrong_result(self, i: int, k: int, result) -> str | None:
        case = self.cases[i]
        try:
            if case.annotated is None:
                feasible_ok, report = True, evaluate(case.instance, result.allocation)
            else:
                feasible_ok, report = evaluate_annotated(case.annotated, result.allocation)
        except HaanError as exc:
            return f"invalid witness: {exc}"
        if not feasible_ok:
            return "witness breaks the feasibility sets"
        if (report.n_envious, report.n_happy) != (result.min_envy, result.happiness):
            return "reported optimum differs from the witness's evaluation"
        want_envy, want_happy = self.refs[i]
        if result.min_envy != want_envy:
            return f"min_envy {result.min_envy}, reference {want_envy}"
        if case.calls[k][1] is Objective.MIN_ENVY_THEN_MAX_HAPPY and result.happiness != want_happy:
            return f"happiness {result.happiness}, reference {want_happy}"
        return None

    def run_case(self, i: int) -> Rep:
        case = self.cases[i]
        seconds, inst, ann, outcomes = self._solve_case(case)
        same_input = inst == case.instance and ann == case.annotated
        failures = []
        wrong = 0
        for k, ((algo, objective), (result, error, crashed, dt)) in enumerate(
                zip(case.calls, outcomes)):
            wrong += crashed
            if error is None and dt > CALL_DEADLINE_S:
                error = f"overran the {CALL_DEADLINE_S:.0f} s deadline"
            if error is None:
                problem = ("haan/1 round trip changed the instance" if not same_input
                           else self._wrong_result(i, k, result))
                if problem is not None:
                    error = f"wrong result: {problem}"
                    wrong += 1
            if error is not None:
                failures.append(f"{case.label} {algo} {objective.value}: {error}")
        return Rep(seconds, [dt for *_, dt in outcomes], failures, wrong)

    def measure(self, seconds: float, stop_at: float, tracer: Tracer | None = None):
        """Cycle the corpus for ``seconds``, at least once through.

        Returns the repetitions per case. With a tracer, every visit solves
        the case twice, untraced and traced in alternating order, and the
        traced repetitions are returned as a second list. Without a tracer,
        the yardstick gets its share of time between the cases.

        After ``stop_at`` (a ``time.monotonic()`` value) no further case is
        started; cases never solved count every call as failed.
        """
        reps: list[list[Rep]] = [[] for _ in self.cases]
        traced: list[list[Rep]] = [[] for _ in self.cases]
        start = time.perf_counter()
        i = 0
        visits = 0
        cycled = False
        while True:
            if i == len(self.cases):
                i = 0
                cycled = True
            if cycled and time.perf_counter() - start >= seconds:
                break
            if time.monotonic() >= stop_at:
                for runs in (reps, traced) if tracer else (reps,):
                    for j, case in enumerate(self.cases):
                        if not runs[j]:
                            runs[j].append(Rep(0.0, [], [f"{case.label}: not run, out of "
                                                         "time"] * len(case.calls)))
                break
            if tracer is None:
                reps[i].append(self.run_case(i))
                self.yard.sample_within(time.perf_counter() - start)
            else:
                for with_trace in ((False, True) if visits % 2 == 0 else (True, False)):
                    if with_trace:
                        tracer.case = i
                        with tracer.active():
                            traced[i].append(self.run_case(i))
                    else:
                        reps[i].append(self.run_case(i))
            visits += 1
            i += 1
        return reps if tracer is None else (reps, traced)


# -- metrics ---------------------------------------------------------------


def counts(cases, reps: list[list[Rep]]) -> tuple[int, list[str], int]:
    """Calls attempted, failure messages, and how many failures are wrong results."""
    attempted = sum(len(case.calls) * len(rs) for case, rs in zip(cases, reps))
    failures = [f for rs in reps for r in rs for f in r.failures]
    return attempted, failures, sum(r.wrong for rs in reps for r in rs)


def pass_seconds(reps: list[list[Rep]]) -> float:
    """Solve wall time of one corpus pass: the sum of per-case median times."""
    return sum(statistics.median(r.seconds for r in rs) for rs in reps)


def end_to_end(cases, reps: list[list[Rep]], scale: float) -> tuple[dict, int]:
    """End-to-end metrics, with times multiplied by ``scale``."""
    verified = sum(sum(not r.failures for r in rs) / len(rs) for rs in reps)
    call_ms = []
    for case, rs in zip(cases, reps):
        ran = [r for r in rs if r.call_seconds]
        for k in range(len(case.calls) if ran else 0):
            call_ms.append(1000.0 * scale * statistics.median(r.call_seconds[k] for r in ran))
    attempted, failures, _ = counts(cases, reps)
    metrics = {
        "instances_per_s": (verified / (scale * pass_seconds(reps)), "1/s"),
        "solve_ms_p50": (statistics.median(call_ms), "ms"),
        "solve_ms_p90": (statistics.quantiles(call_ms, n=10)[8], "ms"),
        "verified_frac": (1.0 - len(failures) / attempted, "ratio"),
    }
    return metrics, len(call_ms)


LAYER_SPANS = (
    ("matching.min_cost", "infeasible"),
    ("matching.masks", "infeasible"),
) + tuple((span, "guesses") for span in SOLVER_SPANS.values())


def per_layer(tracer: Tracer, traced: list[list[Rep]], untraced: list[list[Rep]]) -> dict:
    totals = tracer.layer_totals([len(rs) for rs in traced])
    empty = {"calls": 0.0, "s": 0.0, "self_s": 0.0, "value": 0.0}

    def row(name: str) -> dict:
        return totals.get(name, empty)

    metrics: dict[str, tuple[float, str]] = {}
    for span, value_name in LAYER_SPANS:
        r = row(span)
        metrics[f"{span}.calls"] = (r["calls"], "count/pass")
        metrics[f"{span}.s"] = (r["s"], "s/pass")
        if span.startswith("solvers."):
            metrics[f"{span}.self_s"] = (r["self_s"], "s/pass")
        metrics[f"{span}.{value_name}"] = (r["value"], "count/pass")
        if span.startswith("matching."):
            ratio = (r["calls"] - r["value"]) / r["calls"] if r["calls"] else 0.0
            metrics[f"{span}.feasible_ratio"] = (ratio, "ratio")
    for span in ("graphtools.separator", "graphtools.cover", "model.evaluate",
                 "model.evaluate_annotated", "cli.files.parse", "cli.files.render"):
        metrics[f"{span}.calls"] = (row(span)["calls"], "count/pass")
        metrics[f"{span}.s"] = (row(span)["s"], "s/pass")
    metrics["reductions.generate.s"] = (row("setup:reductions.generate")["s"], "s")
    metrics["trace.overhead_frac"] = (pass_seconds(traced) / pass_seconds(untraced) - 1.0, "ratio")
    return metrics
