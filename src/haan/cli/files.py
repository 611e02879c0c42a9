"""Line-oriented, human-diffable instance and result files.

Every file starts with a ``haan/1 <kind>`` tag line. Set-valued lines use
a `` : `` delimiter so empty sets stay visible. Writers emit a canonical
form (sorted edges, one ``prefs`` line per agent, deterministic metadata
JSON), and parsing a canonical file then writing it back is
byte-identical. Parsers accept lines in any order after the tag; an
unknown line, or a repeated line that can appear only once, is a format
error.
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
    "read_allocation_file",
]

_TAG = "haan/1"

_INSTANCE_KINDS = {"agents", "houses", "edge", "prefs", "feasible", "angry", "meta"}
# Instance lines that may appear at most once; "meta" lines by their key.
_ONCE = {"agents", "houses", "angry", "meta target_envy", "meta provenance"}
# Result lines, each exactly once.
_RESULT_KINDS = {"solver", "objective", "min_envy", "happiness", "guesses",
                 "wall_time_ms", "allocation"}


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


def _body(text: str, kinds: dict[str, set[str]],
          once: set[str]) -> tuple[str, list[tuple[str, list[str], str]]]:
    """A ``haan/1`` file's tag, one of ``kinds``' keys, and its lines as
    ``(kind, tokens after it, line)``. A kind the tag does not allow, or a
    second line in ``once`` (``meta`` lines by key), is a format error."""
    lines = [ln for ln in text.splitlines() if ln.strip()]
    tag = lines[0].split() if lines else []
    if len(tag) != 2 or tag[0] != _TAG or tag[1] not in kinds:
        wanted = " or ".join(f"'{_TAG} {t}'" for t in kinds)
        raise FormatError(f"expected {wanted} tag line")
    seen: set[str] = set()
    body = []
    for ln in lines[1:]:
        tokens = ln.split()
        kind = tokens[0]
        if kind not in kinds[tag[1]]:
            raise FormatError(f"unknown line kind {kind!r}")
        key = " ".join(tokens[:2]) if kind == "meta" else kind
        if key in once:
            if key in seen:
                raise FormatError(f"duplicate {key} line")
            seen.add(key)
        body.append((kind, tokens[1:], ln))
    return tag[1], body


def _set_ints(rest: list[str], what: str) -> list[int]:
    """The integers of a ``<kind> : ...`` line."""
    return _ints(_split_set_line(["x"] + rest, what)[1], what)


def parse_instance_text(text: str) -> InstanceDocument:
    _, body = _body(text, {"instance": _INSTANCE_KINDS}, _ONCE)
    n_agents = n_houses = None
    edges: list[tuple[int, int]] = []
    prefs: dict[int, list[int]] = {}
    feasible: dict[int, list[int]] = {}
    angry: list[int] | None = None
    target_envy = None
    provenance = None
    for kind, rest, ln in body:
        if kind == "agents":
            (n_agents,) = _exact_ints(rest, 1, "agents")
        elif kind == "houses":
            (n_houses,) = _exact_ints(rest, 1, "houses")
        elif kind == "edge":
            u, v = _exact_ints(rest, 2, "edge")
            edges.append((u, v))
        elif kind in ("prefs", "feasible"):
            sets = prefs if kind == "prefs" else feasible
            head, tail = _split_set_line(rest, kind)
            (agent,) = _exact_ints(head, 1, kind)
            if agent in sets:
                raise FormatError(f"duplicate {kind} line for agent {agent}")
            sets[agent] = _ints(tail, kind)
        elif kind == "angry":
            angry = _set_ints(rest, "angry")
        else:  # meta
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
    if n_agents is None or n_houses is None:
        raise FormatError("missing agents/houses counts")
    pref_lists = []
    for a in range(n_agents):
        if a not in prefs:
            raise FormatError(f"missing prefs line for agent {a}")
        pref_lists.append(prefs[a])
    for kind, sets in (("prefs", prefs), ("feasible", feasible)):
        if any(not 0 <= a < n_agents for a in sets):
            raise FormatError(f"{kind} line for out-of-range agent")
    try:
        inst = Instance(n_agents, n_houses, edges, pref_lists)
    except InvalidInstance as exc:
        raise FormatError(f"invalid instance: {exc}") from exc
    annotated = None
    if feasible or angry is not None:
        feas_lists = [feasible.get(a) for a in range(n_agents)]  # None: every house
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
        for a, feasible in enumerate(ann.feasible):
            if feasible is not None:  # no line: every house
                houses = " ".join(str(h) for h in sorted(feasible))
                out.append(f"feasible {a} :{' ' + houses if houses else ''}")
        agents = " ".join(str(a) for a in sorted(ann.angry))
        out.append(f"angry :{' ' + agents if agents else ''}")
    if doc.provenance is not None:
        blob = json.dumps(doc.provenance, sort_keys=True, separators=(",", ":"))
        out.append(f"meta provenance {blob}")
    if doc.target_envy is not None:
        out.append(f"meta target_envy {doc.target_envy}")
    return "\n".join(out) + "\n"


def _result_document(body: list[tuple[str, list[str], str]]) -> ResultDocument:
    fields = {kind: " ".join(rest) for kind, rest, _ in body}
    missing = _RESULT_KINDS - set(fields)
    if missing:
        raise FormatError(f"missing result fields: {sorted(missing)}")
    allocation = tuple(_set_ints(fields["allocation"].split(), "allocation"))
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


def parse_result_text(text: str) -> ResultDocument:
    return _result_document(_body(text, {"result": _RESULT_KINDS}, _RESULT_KINDS)[1])


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
    tag, body = _body(text, {"allocation": {"allocation"}, "result": _RESULT_KINDS},
                      _RESULT_KINDS)
    if tag == "result":
        return Allocation(_result_document(body).allocation)
    if not body:
        raise FormatError("missing allocation line")
    return Allocation(_set_ints(body[0][1], "allocation"))


def _read_text(path: str | Path) -> str:
    try:
        return Path(path).read_text()
    except (OSError, UnicodeDecodeError) as exc:
        raise FormatError(f"cannot read {path}: {exc}") from exc


def read_instance_file(path: str | Path) -> InstanceDocument:
    return parse_instance_text(_read_text(path))


def read_allocation_file(path: str | Path) -> Allocation:
    return parse_allocation_text(_read_text(path))


def write_instance_file(path: str | Path, doc: InstanceDocument) -> None:
    Path(path).write_text(render_instance_text(doc))
