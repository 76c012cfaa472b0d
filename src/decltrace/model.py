"""Process models: activities, constraints, traces, and the text format.

Constraint satisfaction is evaluated directly on sequences here, with no
help from the order-theoretic machinery elsewhere in the package, so this
module doubles as an independent reference when cross-checking the
pipeline.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from enum import Enum
from typing import Iterable

# A trace is a duplicate-free tuple of activity indices; () is the empty trace.
Trace = tuple[int, ...]

_NAME = re.compile(r"[A-Za-z0-9_]+\Z")


class ConstraintKind(Enum):
    PRECEDENCE = "prec"
    RESPONSE = "resp"
    SUCCESSOR = "succ"


class ProcessClass(Enum):
    PRECEDENCE_ONLY = "precedence-only"
    RESPONSE_ONLY = "response-only"
    SUCCESSOR_ONLY = "successor-only"
    GENERAL = "general"


class ParseError(ValueError):
    """Malformed process text; ``line`` holds the 1-based offending line."""

    def __init__(self, line: int, message: str) -> None:
        super().__init__(f"line {line}: {message}")
        self.line = line


@dataclass(frozen=True)
class Activity:
    """A named activity; ``index`` is its position in declaration order."""

    index: int
    name: str


@dataclass(frozen=True)
class Constraint:
    kind: ConstraintKind
    source: Activity
    target: Activity


@dataclass(frozen=True)
class DeclarativeProcess:
    """An activity alphabet plus a duplicate-free sequence of constraints.

    Construction validates the alphabet, rejects self-constraints and
    undeclared endpoints, and collapses duplicate constraints while keeping
    first-occurrence order.
    """

    activities: tuple[Activity, ...]
    constraints: tuple[Constraint, ...] = ()

    def __post_init__(self) -> None:
        object.__setattr__(self, "activities", tuple(self.activities))
        if not self.activities:
            raise ValueError("a process needs at least one activity")
        seen_names: set[str] = set()
        for position, activity in enumerate(self.activities):
            if activity.index != position:
                raise ValueError(
                    f"activity {activity.name!r} has index {activity.index}, expected {position}"
                )
            if not _NAME.match(activity.name):
                raise ValueError(f"invalid activity name {activity.name!r}")
            if activity.name in seen_names:
                raise ValueError(f"duplicate activity name {activity.name!r}")
            seen_names.add(activity.name)
        declared = set(self.activities)
        deduped: list[Constraint] = []
        seen: set[Constraint] = set()
        for constraint in self.constraints:
            if constraint.source not in declared or constraint.target not in declared:
                raise ValueError("constraint endpoints must be declared activities")
            if constraint.source == constraint.target:
                raise ValueError(f"self-constraint on {constraint.source.name!r}")
            if constraint not in seen:
                seen.add(constraint)
                deduped.append(constraint)
        object.__setattr__(self, "constraints", tuple(deduped))

    @property
    def n(self) -> int:
        return len(self.activities)

    def names(self) -> tuple[str, ...]:
        return tuple(a.name for a in self.activities)

    def index_of(self, name: str) -> int:
        for a in self.activities:
            if a.name == name:
                return a.index
        raise ValueError(f"unknown activity {name!r}")


def make_process(
    names: Iterable[str],
    constraints: Iterable[tuple[ConstraintKind | str, str, str]] = (),
) -> DeclarativeProcess:
    """Build a process from activity names and (kind, source, target) triples."""
    activities = tuple(Activity(i, name) for i, name in enumerate(names))
    by_name = {a.name: a for a in activities}
    built = []
    for kind, source, target in constraints:
        if not isinstance(kind, ConstraintKind):
            kind = ConstraintKind(kind)
        try:
            built.append(Constraint(kind, by_name[source], by_name[target]))
        except KeyError as exc:
            raise ValueError(f"unknown activity {exc.args[0]!r}") from None
    return DeclarativeProcess(activities, tuple(built))


def parse_process(text: str) -> DeclarativeProcess:
    """Parse the line-oriented process format.

    ``#`` starts a comment and blank lines are skipped.  One or more
    ``activities <name> ...`` lines come first; every later line states a
    single constraint: ``prec <a> <b>``, ``resp <a> <b>``, or
    ``succ <a> <b>``.
    """
    names: list[tuple[str, int]] = []
    raw_constraints: list[tuple[str, str, str, int]] = []
    constraints_started = False
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        tokens = line.split()
        head = tokens[0]
        if head == "activities":
            if constraints_started:
                raise ParseError(lineno, "activities line after a constraint line")
            if len(tokens) < 2:
                raise ParseError(lineno, "activities line needs at least one name")
            for token in tokens[1:]:
                if not _NAME.match(token):
                    raise ParseError(lineno, f"invalid activity name {token!r}")
                names.append((token, lineno))
        elif head in ("prec", "resp", "succ"):
            constraints_started = True
            if len(tokens) != 3:
                raise ParseError(lineno, f"{head!r} takes exactly two activity names")
            raw_constraints.append((head, tokens[1], tokens[2], lineno))
        else:
            raise ParseError(lineno, f"unrecognized directive {head!r}")
    if not names:
        raise ParseError(1, "no activities declared")
    seen: dict[str, int] = {}
    for name, lineno in names:
        if name in seen:
            raise ParseError(lineno, f"duplicate activity name {name!r}")
        seen[name] = lineno
    activities = tuple(Activity(i, name) for i, (name, _) in enumerate(names))
    by_name = {a.name: a for a in activities}
    constraints = []
    for kind, source, target, lineno in raw_constraints:
        if source not in by_name:
            raise ParseError(lineno, f"unknown activity {source!r}")
        if target not in by_name:
            raise ParseError(lineno, f"unknown activity {target!r}")
        if source == target:
            raise ParseError(lineno, f"self-constraint on {source!r}")
        constraints.append(Constraint(ConstraintKind(kind), by_name[source], by_name[target]))
    return DeclarativeProcess(activities, tuple(constraints))


def render_process(process: DeclarativeProcess) -> str:
    """Emit the canonical text form; ``parse_process`` inverts it exactly."""
    lines = ["activities " + " ".join(process.names())]
    for c in process.constraints:
        lines.append(f"{c.kind.value} {c.source.name} {c.target.name}")
    return "\n".join(lines) + "\n"


def expand_successors(process: DeclarativeProcess) -> DeclarativeProcess:
    """Rewrite every successor constraint as its precedence/response pair."""
    out = []
    for c in process.constraints:
        if c.kind is ConstraintKind.SUCCESSOR:
            out.append(Constraint(ConstraintKind.PRECEDENCE, c.source, c.target))
            out.append(Constraint(ConstraintKind.RESPONSE, c.source, c.target))
        else:
            out.append(c)
    return DeclarativeProcess(process.activities, tuple(out))


def satisfies(trace: Trace, constraint: Constraint) -> bool:
    """Check one constraint against one duplicate-free sequence.

    ``prec a b`` holds when b is absent or a occurs before b; ``resp a b``
    holds when a is absent or b occurs after a; ``succ a b`` requires both.
    """
    if constraint.kind is ConstraintKind.SUCCESSOR:
        return satisfies(
            trace, Constraint(ConstraintKind.PRECEDENCE, constraint.source, constraint.target)
        ) and satisfies(
            trace, Constraint(ConstraintKind.RESPONSE, constraint.source, constraint.target)
        )
    position = {index: at for at, index in enumerate(trace)}
    source = position.get(constraint.source.index)
    target = position.get(constraint.target.index)
    if constraint.kind is ConstraintKind.PRECEDENCE:
        return target is None or (source is not None and source < target)
    return source is None or (target is not None and target > source)


def classify(process: DeclarativeProcess) -> ProcessClass:
    """Classify the constraint set before any successor expansion."""
    kinds = {c.kind for c in process.constraints}
    # An empty constraint set holds no constraint of another kind, so it
    # classifies as precedence-only.
    if kinds <= {ConstraintKind.PRECEDENCE}:
        return ProcessClass.PRECEDENCE_ONLY
    if kinds == {ConstraintKind.RESPONSE}:
        return ProcessClass.RESPONSE_ONLY
    if kinds == {ConstraintKind.SUCCESSOR}:
        return ProcessClass.SUCCESSOR_ONLY
    return ProcessClass.GENERAL
