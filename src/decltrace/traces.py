"""Trace-set assembly.

The general pipeline unions the linear extensions of every realizable image
poset.  Single-kind constraint sets get cheaper routes: precedence-only and
response-only reduce to the down-sets of one cycle-free core poset, and
successor-only reduces to unions of independent occurrence classes.

Counting splits the activities into the connected components of the
constraint graph.  Components share no constraint, so every trace is a
shuffle of one trace per component, and the per-length counts of the
components combine by binomial convolution.
"""

from __future__ import annotations

from math import comb
from typing import Iterable, Iterator

from .linext import Poset, count_linear_extensions, linear_extensions
from .model import (
    ConstraintKind,
    DeclarativeProcess,
    ProcessClass,
    Trace,
    classify,
    expand_successors,
    make_process,
)
from .possim import downward_closure, enumerate_possim
from .quotient import condense
from .relations import (
    BinaryRelation,
    _bits,
    closure,
    implied_occurrence,
    is_antisymmetric,
    order_preserving,
    restrict,
    transpose,
)


def _sorted_traces(items: Iterable[Trace]) -> list[Trace]:
    return sorted(items, key=lambda trace: (len(trace), trace))


def _require_only(process: DeclarativeProcess, kind: ConstraintKind, path: str) -> None:
    if any(c.kind is not kind for c in process.constraints):
        raise ValueError(f"{path} path needs a constraint set of {kind.value} constraints only")


def traces_general(process: DeclarativeProcess, parallel: bool = False) -> list[Trace]:
    """Every trace, via the realizable-image decomposition.

    Each trace arises from exactly one image, so the per-image extension
    lists concatenate without duplicates.  ``parallel`` is accepted and
    ignored.
    """
    return _sorted_traces(
        t
        for d in enumerate_possim(process)
        for t in linear_extensions(Poset(d.members, d.order))
    )


def _maximum_image(occurrence: BinaryRelation) -> frozenset[int]:
    indices = occurrence.member_indices()
    cyclic = {
        x
        for x in indices
        if any(y != x and occurrence.has(x, y) and occurrence.has(y, x) for y in indices)
    }
    above = {z for z in indices if any(occurrence.has(x, z) for x in cyclic)}
    return frozenset(indices) - above


def maximum_image(process: DeclarativeProcess) -> frozenset[int]:
    """The largest realizable image of a single-kind (non-successor) process.

    Drops every activity inside a mutual-requirement cycle, and everything
    whose occurrence would force such a cycle to occur.
    """
    if classify(process) not in (ProcessClass.PRECEDENCE_ONLY, ProcessClass.RESPONSE_ONLY):
        raise ValueError("maximum_image needs a precedence-only or response-only process")
    return _maximum_image(implied_occurrence(process))


def _antichains(order: BinaryRelation, elements: Iterable[int]) -> Iterator[frozenset[int]]:
    items = sorted(elements)

    def walk(prefix: list[int], start: int) -> Iterator[frozenset[int]]:
        yield frozenset(prefix)
        for at in range(start, len(items)):
            x = items[at]
            if any(order.has(x, y) or order.has(y, x) for y in prefix):
                continue
            prefix.append(x)
            yield from walk(prefix, at + 1)
            prefix.pop()

    yield from walk([], 0)


def traces_precedence_only(process: DeclarativeProcess) -> list[Trace]:
    """Fast path for precedence-only constraint sets.

    The occurrence preorder restricted to the cycle-free core is a poset
    whose down-sets are exactly the realizable images, and inside each image
    the ordering law coincides with the occurrence order itself.
    """
    _require_only(process, ConstraintKind.PRECEDENCE, "precedence-only")
    occurrence = implied_occurrence(process)
    core = restrict(occurrence, _maximum_image(occurrence))
    out: list[Trace] = []
    for antichain in _antichains(core, core.member_indices()):
        image = downward_closure(antichain, core)
        out.extend(linear_extensions(Poset(image, restrict(core, image))))
    return _sorted_traces(out)


def traces_response_only(process: DeclarativeProcess) -> list[Trace]:
    """Fast path for response-only constraint sets.

    Identical to the precedence-only route except that inside each image the
    ordering law is the transpose of the occurrence order.
    """
    _require_only(process, ConstraintKind.RESPONSE, "response-only")
    occurrence = implied_occurrence(process)
    core = restrict(occurrence, _maximum_image(occurrence))
    out: list[Trace] = []
    for antichain in _antichains(core, core.member_indices()):
        image = downward_closure(antichain, core)
        out.extend(linear_extensions(Poset(image, transpose(restrict(core, image)))))
    return _sorted_traces(out)


def _disjoint_union(n: int, parts: Iterable[BinaryRelation]) -> BinaryRelation:
    rows = [0] * n
    members = 0
    for part in parts:
        members |= part.members
        for i in range(n):
            rows[i] |= part.rows[i]
    return BinaryRelation(n, tuple(rows), members)


def traces_successor_only(process: DeclarativeProcess) -> list[Trace]:
    """Fast path for successor-only constraint sets.

    The occurrence relation is an equivalence here, so realizable images are
    exactly the unions of classes whose internal ordering is antisymmetric,
    and class orders just concatenate disjointly.
    """
    _require_only(process, ConstraintKind.SUCCESSOR, "successor-only")
    expanded = expand_successors(process)
    occurrence = implied_occurrence(expanded)
    ordering = order_preserving(expanded)
    quotient = condense(occurrence)
    usable: list[tuple[frozenset[int], BinaryRelation]] = []
    for group in quotient.classes:
        order = closure(restrict(ordering, group))
        if is_antisymmetric(order):
            usable.append((group, order))
    n = process.n
    out: list[Trace] = []
    for pick in range(1 << len(usable)):
        chosen = [usable[i] for i in range(len(usable)) if pick >> i & 1]
        members = frozenset().union(*(group for group, _ in chosen)) if chosen else frozenset()
        order = _disjoint_union(n, (order for _, order in chosen))
        out.extend(linear_extensions(Poset(members, order)))
    return _sorted_traces(out)


def traces(process: DeclarativeProcess, parallel: bool = False) -> list[Trace]:
    """All traces, dispatched to the cheapest applicable route."""
    shape = classify(process)
    if shape is ProcessClass.PRECEDENCE_ONLY:
        return traces_precedence_only(process)
    if shape is ProcessClass.RESPONSE_ONLY:
        return traces_response_only(process)
    if shape is ProcessClass.SUCCESSOR_ONLY:
        return traces_successor_only(process)
    return traces_general(process, parallel=parallel)


def _components(process: DeclarativeProcess) -> list[int]:
    """Activity masks of the connected components of the constraint graph."""
    adjacent = [1 << i for i in range(process.n)]
    for c in process.constraints:
        adjacent[c.source.index] |= 1 << c.target.index
        adjacent[c.target.index] |= 1 << c.source.index
    out = []
    left = (1 << process.n) - 1
    while left:
        reached = frontier = left & -left
        while frontier:
            grown = 0
            for v in _bits(frontier):
                grown |= adjacent[v]
            frontier = grown & ~reached
            reached |= frontier
        out.append(reached)
        left &= ~reached
    return out


def _image_counts(process: DeclarativeProcess) -> list[int]:
    """Traces by length, summed over the images of one process."""
    counts: list[int] = []
    for d in enumerate_possim(process):
        size = len(d.members)
        counts.extend([0] * (size + 1 - len(counts)))
        counts[size] += count_linear_extensions(Poset(d.members, d.order))
    return counts


def _shuffle_counts(a: list[int], b: list[int]) -> list[int]:
    """Per-length counts of the shuffles of two disjoint trace sets.

    A trace of length L1 from one set and one of length L2 from the other
    interleave in binom(L1 + L2, L1) ways, and no two interleavings agree.
    """
    out = [0] * (len(a) + len(b) - 1)
    for i, x in enumerate(a):
        if x:
            for j, y in enumerate(b):
                out[i + j] += comb(i + j, i) * x * y
    return out


def count_by_length(process: DeclarativeProcess) -> list[int]:
    """Number of traces of each length, from 0 to the longest trace.

    Each connected component of the constraint graph is counted on its own,
    as a process over just its activities, and the counts are joined by
    binomial convolution.
    """
    components = _components(process)
    names = process.names()
    component_of = [0] * process.n
    for at, mask in enumerate(components):
        for v in _bits(mask):
            component_of[v] = at
    constraints: list[list[tuple[ConstraintKind, str, str]]] = [[] for _ in components]
    for c in process.constraints:
        constraints[component_of[c.source.index]].append((c.kind, c.source.name, c.target.name))
    total = [1]
    for mask, own in zip(components, constraints):
        part = make_process((names[v] for v in _bits(mask)), own)
        total = _shuffle_counts(total, _image_counts(part))
    return total


def count_traces(process: DeclarativeProcess) -> int:
    """Number of traces, counted per component without enumerating any."""
    return sum(count_by_length(process))
