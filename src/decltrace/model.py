"""Process models: activities, constraints, traces, and the text format.

Constraint satisfaction is evaluated directly on sequences here, with no
help from the order-theoretic machinery elsewhere in the package, so this
module doubles as an independent reference when cross-checking the
pipeline.
"""

from __future__ import annotations

import re
from collections.abc import Iterable
from enum import Enum
from operator import attrgetter

# A trace is a duplicate-free tuple of activity indices; () is the empty trace.
Trace = tuple[int, ...]

_NAME = re.compile(r"[A-Za-z0-9_]+\Z")
# Lines end at newlines only; str.splitlines would also break at form feeds,
# vertical tabs and Unicode separators, which here are whitespace.
_LINE_BREAK = re.compile(r"\r\n?|\n")


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


class _Record:
    """Value semantics over ``__slots__``, the base of the library's records.

    A subclass names its fields in ``__slots__``, in order.  Its own
    ``__init__`` checks and normalizes the arguments, then hands the final
    values, in that order, to ``_Record.__init__``, the only place that
    stores a field.  Records are equal when they are of the same class with
    equal fields; the hash and the repr, in dataclass form, read the same
    fields.  Assigning or deleting an attribute raises ``AttributeError``.
    This is what frozen dataclasses gave, without importing ``dataclasses``,
    which loads ``inspect``, ``ast`` and ``dis`` into every run of the CLI.
    """

    __slots__ = ()

    def __init__(self, *fields: object) -> None:
        for name, value in zip(self.__slots__, fields, strict=True):
            object.__setattr__(self, name, value)

    def __init_subclass__(cls) -> None:
        super().__init_subclass__()
        # ``_fields(record)`` reads the fields as a tuple (every record has
        # two or more) in C; the hash and equality of processes run on it,
        # for every constraint parsed.
        cls._fields = attrgetter(*cls.__slots__)

    def __eq__(self, other: object) -> bool:
        if other.__class__ is self.__class__:
            return self._fields(self) == other._fields(other)
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields(self))

    def __repr__(self) -> str:
        shown = ", ".join([f"{name}={getattr(self, name)!r}" for name in self.__slots__])
        return f"{self.__class__.__qualname__}({shown})"

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def __reduce__(self) -> tuple:
        # Pickle and copy rebuild through __init__, as assignment is refused.
        return self.__class__, self._fields(self)


class Activity(_Record):
    """A named activity; ``index`` is its position in declaration order."""

    __slots__ = ("index", "name")

    def __init__(self, index: int, name: str) -> None:
        _Record.__init__(self, index, name)


class Constraint(_Record):
    """One constraint; ``kind`` is a ``ConstraintKind`` or its value.

    The kind is stored as the member, so ``"resp"`` reads back as
    ``ConstraintKind.RESPONSE``; any other kind raises ``ValueError``.
    """

    __slots__ = ("kind", "source", "target")

    def __init__(self, kind: ConstraintKind | str, source: Activity, target: Activity) -> None:
        _Record.__init__(self, ConstraintKind(kind), source, target)


class DeclarativeProcess(_Record):
    """An activity alphabet plus a duplicate-free sequence of constraints.

    Construction checks the types of what it is given, validates the
    alphabet, rejects self-constraints and undeclared endpoints, and
    collapses duplicate constraints while keeping first-occurrence order.
    """

    __slots__ = ("activities", "constraints")

    def __init__(
        self, activities: Iterable[Activity], constraints: Iterable[Constraint] = ()
    ) -> None:
        activities = tuple(activities)
        if not activities:
            raise ValueError("a process needs at least one activity")
        seen_names: set[str] = set()
        for position, activity in enumerate(activities):
            if not (isinstance(activity, Activity) and isinstance(activity.name, str)):
                raise TypeError(
                    f"activity {position}: expected an Activity with a str name, got {activity!r}"
                )
            if activity.index != position:
                raise ValueError(
                    f"activity {activity.name!r} has index {activity.index}, expected {position}"
                )
            if not _NAME.match(activity.name):
                raise ValueError(f"invalid activity name {activity.name!r}")
            if activity.name in seen_names:
                raise ValueError(f"duplicate activity name {activity.name!r}")
            seen_names.add(activity.name)
        declared = set(activities)
        deduped: list[Constraint] = []
        seen: set[Constraint] = set()
        for position, constraint in enumerate(constraints):
            if not isinstance(constraint, Constraint):
                raise TypeError(f"constraint {position}: expected a Constraint, got {constraint!r}")
            if constraint.source not in declared or constraint.target not in declared:
                raise ValueError("constraint endpoints must be declared activities")
            if constraint.source == constraint.target:
                raise ValueError(f"self-constraint on {constraint.source.name!r}")
            if constraint not in seen:
                seen.add(constraint)
                deduped.append(constraint)
        _Record.__init__(self, activities, tuple(deduped))

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
        try:
            built.append(Constraint(kind, by_name[source], by_name[target]))
        except KeyError as exc:
            raise ValueError(f"unknown activity {exc.args[0]!r}") from None
    return DeclarativeProcess(activities, tuple(built))


def parse_process(text: str) -> DeclarativeProcess:
    """Parse the line-oriented process format.

    A line ends at LF, CRLF or a lone CR; other separators are whitespace.
    ``#`` starts a comment and blank lines are skipped.  One or more
    ``activities <name> ...`` lines come first; every later line states a
    single constraint: ``prec <a> <b>``, ``resp <a> <b>``, or
    ``succ <a> <b>``.

    Each line is checked as it is read, against the names declared on the
    lines above it.  The first faulty line is the one reported, and within
    it the first faulty token.
    """
    names: dict[str, None] = {}  # the keys keep declaration order
    triples: list[tuple[str, str, str]] = []
    for lineno, raw in enumerate(_LINE_BREAK.split(text), start=1):
        tokens = raw.split("#", 1)[0].split()
        if not tokens:
            continue
        head, *args = tokens
        if head == "activities":
            if triples:
                raise ParseError(lineno, "activities line after a constraint line")
            if not args:
                raise ParseError(lineno, "activities line needs at least one name")
            for name in args:
                if not _NAME.match(name):
                    raise ParseError(lineno, f"invalid activity name {name!r}")
                if name in names:
                    raise ParseError(lineno, f"duplicate activity name {name!r}")
                names[name] = None
        elif head in ("prec", "resp", "succ"):
            if len(args) != 2:
                raise ParseError(lineno, f"{head!r} takes exactly two activity names")
            for name in args:
                if name not in names:
                    raise ParseError(lineno, f"unknown activity {name!r}")
            if args[0] == args[1]:
                raise ParseError(lineno, f"self-constraint on {args[0]!r}")
            triples.append((head, *args))
        else:
            raise ParseError(lineno, f"unrecognized directive {head!r}")
    if not names:
        raise ParseError(1, "no activities declared")
    return make_process(names, triples)


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
    position = {index: at for at, index in enumerate(trace)}
    source = position.get(constraint.source.index)
    target = position.get(constraint.target.index)
    precedes = target is None or (source is not None and source < target)
    responds = source is None or (target is not None and target > source)
    if constraint.kind is ConstraintKind.PRECEDENCE:
        return precedes
    if constraint.kind is ConstraintKind.RESPONSE:
        return responds
    return precedes and responds


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
