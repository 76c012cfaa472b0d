"""Trace-set assembly.

Every trace is a linear extension of exactly one realizable image, and an
image of size L yields traces of length L only.  Images come sorted by
size, and each image's extensions come in lexicographic order, so a heap
merge of the extension generators of one size gives that size's traces in
order, with no global sort and no trace held longer than it takes to emit.

Counting splits the activities into the connected components of the
constraint graph.  Components share no constraint, so every trace is a
shuffle of one trace per component, and the per-length counts of the
components combine by binomial convolution.
"""

from __future__ import annotations

from heapq import merge
from itertools import groupby
from math import comb
from typing import Iterator

from .linext import Poset, _extensions, count_linear_extensions
from .linext import linear_extensions  # noqa: F401  (bench/tracing.py wraps it here)
from .model import (
    ConstraintKind,
    DeclarativeProcess,
    ProcessClass,
    Trace,
    classify,
    make_process,
)
from .possim import enumerate_possim
from .quotient import condense  # noqa: F401  (bench/tracing.py wraps it here)
from .relations import _bits, implied_occurrence


def _require_only(process: DeclarativeProcess, kind: ConstraintKind, path: str) -> None:
    if any(c.kind is not kind for c in process.constraints):
        raise ValueError(f"{path} path needs a constraint set of {kind.value} constraints only")


def iter_traces(process: DeclarativeProcess) -> Iterator[Trace]:
    """Every trace, sorted by length then activity index, one at a time.

    Memory is bounded by the images of the process, not by its traces: the
    extensions of the images of one size are generated together and merged.
    """
    # Each image's order comes from a topological sort in the possim walk, so
    # it is antisymmetric: iter_linear_extensions' check would only repeat it.
    for _, same_size in groupby(enumerate_possim(process), key=lambda d: len(d.members)):
        yield from merge(*(_extensions(Poset(d.members, d.order)) for d in same_size))


def traces(process: DeclarativeProcess, parallel: bool = False) -> list[Trace]:
    """Every trace, sorted by length then activity index.

    ``parallel`` is accepted and ignored.
    """
    return list(iter_traces(process))


def traces_general(process: DeclarativeProcess, parallel: bool = False) -> list[Trace]:
    """Every trace, via the realizable-image decomposition; same as ``traces``."""
    return list(iter_traces(process))


def maximum_image(process: DeclarativeProcess) -> frozenset[int]:
    """The largest realizable image of a single-kind (non-successor) process.

    Drops every activity inside a mutual-requirement cycle, and everything
    whose occurrence would force such a cycle to occur.
    """
    if classify(process) not in (ProcessClass.PRECEDENCE_ONLY, ProcessClass.RESPONSE_ONLY):
        raise ValueError("maximum_image needs a precedence-only or response-only process")
    occurrence = implied_occurrence(process)
    indices = occurrence.member_indices()
    cyclic = {
        x
        for x in indices
        if any(y != x and occurrence.has(x, y) and occurrence.has(y, x) for y in indices)
    }
    above = {z for z in indices if any(occurrence.has(x, z) for x in cyclic)}
    return frozenset(indices) - above


def traces_precedence_only(process: DeclarativeProcess) -> list[Trace]:
    """The traces of a precedence-only constraint set; rejects other kinds."""
    _require_only(process, ConstraintKind.PRECEDENCE, "precedence-only")
    return traces_general(process)


def traces_response_only(process: DeclarativeProcess) -> list[Trace]:
    """The traces of a response-only constraint set; rejects other kinds."""
    _require_only(process, ConstraintKind.RESPONSE, "response-only")
    return traces_general(process)


def traces_successor_only(process: DeclarativeProcess) -> list[Trace]:
    """The traces of a successor-only constraint set; rejects other kinds."""
    _require_only(process, ConstraintKind.SUCCESSOR, "successor-only")
    return traces_general(process)


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
