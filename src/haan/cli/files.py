"""Line-oriented, human-diffable instance and result files.

Every file starts with a ``haan/1 <kind>`` tag line. Set-valued lines use
a `` : `` delimiter so empty sets stay visible. Writers emit a canonical
form (sorted edges, one ``prefs`` line per agent, deterministic metadata
JSON), and parsing a canonical file then writing it back is
byte-identical. Parsers accept lines in any order after the tag; a
repeated line that can appear only once is a format error.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from pathlib import Path
from typing import Iterable

from ..errors import FormatError, InvalidInstance
from ..model import Allocation, AnnotatedInstance, Instance

__all__ = [
    "InstanceDocument",
    "ResultDocument",
    "parse_instance_text",
    "render_instance_text",
    "read_instance_file",
    "write_instance_file",
    "parse_result_text",
    "render_result_text",
    "render_allocation_text",
    "parse_allocation_text",
]

_TAG = "haan/1"

# Instance lines that may appear at most once; "meta" lines by their key.
_ONCE = {"agents", "houses", "angry", "meta target_envy", "meta provenance"}


@dataclass(frozen=True)
class InstanceDocument:
    """An instance file's content: the instance, the optional annotated
    extension, and optional generator metadata."""

    instance: Instance
    annotated: AnnotatedInstance | None = None
    target_envy: int | None = None
    provenance: dict | None = None


@dataclass(frozen=True)
class ResultDocument:
    """A result file's content."""

    solver_id: str
    objective: str
    min_envy: int
    happiness: int
    guesses_explored: int
    wall_time_ms: int
    allocation: tuple[int, ...]


def _split_set_line(rest: list[str], what: str) -> tuple[list[str], list[str]]:
    if ":" not in rest:
        raise FormatError(f"missing ':' in {what} line")
    i = rest.index(":")
    return rest[:i], rest[i + 1:]


def _ints(tokens: Iterable[str], what: str) -> list[int]:
    try:
        return [int(t) for t in tokens]
    except ValueError as exc:
        raise FormatError(f"non-integer token in {what} line") from exc


def _exact_ints(tokens: list[str], count: int, what: str) -> list[int]:
    values = _ints(tokens, what)
    if len(values) != count:
        raise FormatError(f"{what} line needs {count} integer(s), got {len(values)}")
    return values


def parse_instance_text(text: str) -> InstanceDocument:
    lines = [ln.rstrip("\n") for ln in text.splitlines()]
    lines = [ln for ln in lines if ln.strip()]
    if not lines or lines[0].split() != [_TAG, "instance"]:
        raise FormatError(f"expected '{_TAG} instance' tag line")
    n_agents = n_houses = None
    edges: list[tuple[int, int]] = []
    prefs: dict[int, list[int]] = {}
    feasible: dict[int, list[int]] = {}
    angry: list[int] | None = None
    target_envy = None
    provenance = None
    seen: set[str] = set()
    for ln in lines[1:]:
        tokens = ln.split()
        kind, rest = tokens[0], tokens[1:]
        once = " ".join(tokens[:2]) if kind == "meta" else kind
        if once in _ONCE:
            if once in seen:
                raise FormatError(f"duplicate {once} line")
            seen.add(once)
        if kind == "agents":
            (n_agents,) = _exact_ints(rest, 1, "agents")
        elif kind == "houses":
            (n_houses,) = _exact_ints(rest, 1, "houses")
        elif kind == "edge":
            u, v = _exact_ints(rest, 2, "edge")
            edges.append((u, v))
        elif kind == "prefs":
            head, tail = _split_set_line(rest, "prefs")
            (agent,) = _exact_ints(head, 1, "prefs")
            if agent in prefs:
                raise FormatError(f"duplicate prefs line for agent {agent}")
            prefs[agent] = _ints(tail, "prefs")
        elif kind == "feasible":
            head, tail = _split_set_line(rest, "feasible")
            (agent,) = _exact_ints(head, 1, "feasible")
            if agent in feasible:
                raise FormatError(f"duplicate feasible line for agent {agent}")
            feasible[agent] = _ints(tail, "feasible")
        elif kind == "angry":
            _, tail = _split_set_line(["x"] + rest, "angry")
            angry = _ints(tail, "angry")
        elif kind == "meta":
            if not rest:
                raise FormatError("empty meta line")
            key = rest[0]
            if key == "target_envy":
                (target_envy,) = _exact_ints(rest[1:], 1, "meta target_envy")
            elif key == "provenance":
                try:
                    # The rest of the line as written: strings may hold runs of spaces.
                    provenance = json.loads("".join(ln.split(None, 2)[2:]))
                except (ValueError, RecursionError) as exc:
                    raise FormatError("malformed provenance JSON") from exc
            else:
                raise FormatError(f"unknown meta key {key!r}")
        else:
            raise FormatError(f"unknown line kind {kind!r}")
    if n_agents is None or n_houses is None:
        raise FormatError("missing agents/houses counts")
    pref_lists = []
    for a in range(n_agents):
        if a not in prefs:
            raise FormatError(f"missing prefs line for agent {a}")
        pref_lists.append(prefs[a])
    if set(prefs) - set(range(n_agents)):
        raise FormatError("prefs line for out-of-range agent")
    try:
        inst = Instance(n_agents, n_houses, edges, pref_lists)
    except InvalidInstance as exc:
        raise FormatError(f"invalid instance: {exc}") from exc
    annotated = None
    if feasible or angry is not None:
        feas_lists = []
        for a in range(n_agents):
            if a in feasible:
                feas_lists.append(feasible[a])
            else:
                feas_lists.append(list(range(n_houses)))
        try:
            annotated = AnnotatedInstance(inst, feas_lists, angry or [])
        except InvalidInstance as exc:
            raise FormatError(f"invalid annotated block: {exc}") from exc
    return InstanceDocument(
        instance=inst,
        annotated=annotated,
        target_envy=target_envy,
        provenance=provenance,
    )


def render_instance_text(doc: InstanceDocument) -> str:
    inst = doc.instance
    out = [f"{_TAG} instance"]
    out.append(f"agents {inst.n_agents}")
    out.append(f"houses {inst.n_houses}")
    for u, v in inst.edges:
        out.append(f"edge {u} {v}")
    for a in range(inst.n_agents):
        houses = " ".join(str(h) for h in sorted(inst.preferences[a]))
        out.append(f"prefs {a} :{' ' + houses if houses else ''}")
    if doc.annotated is not None:
        ann = doc.annotated
        for a in range(inst.n_agents):
            houses = " ".join(str(h) for h in sorted(ann.feasible[a]))
            out.append(f"feasible {a} :{' ' + houses if houses else ''}")
        agents = " ".join(str(a) for a in sorted(ann.angry))
        out.append(f"angry :{' ' + agents if agents else ''}")
    if doc.provenance is not None:
        blob = json.dumps(doc.provenance, sort_keys=True, separators=(",", ":"))
        out.append(f"meta provenance {blob}")
    if doc.target_envy is not None:
        out.append(f"meta target_envy {doc.target_envy}")
    return "\n".join(out) + "\n"


def parse_result_text(text: str) -> ResultDocument:
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines or lines[0].split() != [_TAG, "result"]:
        raise FormatError(f"expected '{_TAG} result' tag line")
    fields: dict[str, str] = {}
    allocation: tuple[int, ...] | None = None
    for ln in lines[1:]:
        tokens = ln.split()
        kind, rest = tokens[0], tokens[1:]
        if kind == "allocation":
            _, tail = _split_set_line(["x"] + rest, "allocation")
            allocation = tuple(_ints(tail, "allocation"))
        elif kind in ("solver", "objective", "min_envy", "happiness",
                      "guesses", "wall_time_ms"):
            fields[kind] = " ".join(rest)
        else:
            raise FormatError(f"unknown line kind {kind!r}")
    missing = {"solver", "objective", "min_envy", "happiness", "guesses",
               "wall_time_ms"} - set(fields)
    if missing or allocation is None:
        raise FormatError(f"missing result fields: {sorted(missing)}")
    try:
        return ResultDocument(
            solver_id=fields["solver"],
            objective=fields["objective"],
            min_envy=int(fields["min_envy"]),
            happiness=int(fields["happiness"]),
            guesses_explored=int(fields["guesses"]),
            wall_time_ms=int(fields["wall_time_ms"]),
            allocation=allocation,
        )
    except ValueError as exc:
        raise FormatError(f"non-integer result field: {exc}") from exc


def render_result_text(doc: ResultDocument) -> str:
    houses = " ".join(str(h) for h in doc.allocation)
    return "\n".join([
        f"{_TAG} result",
        f"solver {doc.solver_id}",
        f"objective {doc.objective}",
        f"min_envy {doc.min_envy}",
        f"happiness {doc.happiness}",
        f"guesses {doc.guesses_explored}",
        f"wall_time_ms {doc.wall_time_ms}",
        f"allocation :{' ' + houses if houses else ''}",
    ]) + "\n"


def render_allocation_text(alloc: Allocation) -> str:
    houses = " ".join(str(h) for h in alloc.assignment)
    return f"{_TAG} allocation\nallocation :{' ' + houses if houses else ''}\n"


def parse_allocation_text(text: str) -> Allocation:
    """Accept either a bare allocation file or a full result file."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    if not lines:
        raise FormatError("empty allocation file")
    tag = lines[0].split()
    if tag == [_TAG, "result"]:
        return Allocation(parse_result_text(text).allocation)
    if tag != [_TAG, "allocation"]:
        raise FormatError(f"expected '{_TAG} allocation' or '{_TAG} result'")
    for ln in lines[1:]:
        tokens = ln.split()
        if tokens[0] == "allocation":
            _, tail = _split_set_line(["x"] + tokens[1:], "allocation")
            return Allocation(_ints(tail, "allocation"))
    raise FormatError("missing allocation line")


def read_instance_file(path: str | Path) -> InstanceDocument:
    try:
        text = Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc
    return parse_instance_text(text)


def write_instance_file(path: str | Path, doc: InstanceDocument) -> None:
    Path(path).write_text(render_instance_text(doc))
