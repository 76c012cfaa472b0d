"""Trace-set assembly.

Every trace is a linear extension of exactly one realizable image, and an
image of size L yields traces of length L only.  The possim walk gives each
image as a mask; its extensions are the topological orders of the ordering
graph on it, in lexicographic order.  So a heap merge of the extension
generators of one size gives that size's traces in order, with no global
sort and no trace held longer than it takes to emit.

Counting splits the activities into the connected components of the
constraint graph.  Components share no constraint, so every trace is a
shuffle of one trace per component, and the per-length counts of the
components, each walked over its own classes, join by binomial convolution.
"""

from __future__ import annotations

from heapq import merge
from itertools import groupby
from math import comb
from typing import Iterator

from .linext import _count, _extensions
from .model import ConstraintKind, DeclarativeProcess, ProcessClass, Trace, classify
from .possim import PossimContext, _walk
from .relations import _bits, _mask, implied_occurrence

# bench/tracing.py looks these names up on this module to wrap them in timing
# spans, so they stay importable here although nothing here calls them.
from .linext import count_linear_extensions, linear_extensions  # noqa: F401
from .possim import enumerate_possim  # noqa: F401
from .quotient import condense  # noqa: F401


def _require_only(process: DeclarativeProcess, kind: ConstraintKind, path: str) -> None:
    if any(c.kind is not kind for c in process.constraints):
        raise ValueError(f"{path} path needs a constraint set of {kind.value} constraints only")


def iter_traces(process: DeclarativeProcess) -> Iterator[Trace]:
    """Every trace, sorted by length then activity index, one at a time.

    Memory is bounded by the images of the process, not by its traces: the
    extensions of the images of one size are generated together and merged.
    """
    ctx = PossimContext.of(process)
    every = (1 << len(ctx.quotient.classes)) - 1
    images = sorted((members for members, _, _ in _walk(ctx, every)), key=int.bit_count)
    # The empty image is the only one the walk does not yield.  Within one
    # size the images may come in any order: no trace has two images.
    yield ()
    for _, same_size in groupby(images, key=int.bit_count):
        yield from merge(*(_extensions(members, ctx.ordering.rows) for members in same_size))


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
    over the images the walk finds among the component's classes, and the
    counts are joined by binomial convolution.
    """
    ctx = PossimContext.of(process)
    class_of = ctx.quotient.class_of
    total = [1]
    for component in _components(process):
        classes = _mask(class_of[v] for v in _bits(component))
        counts = [1]  # the empty image
        for members, _, _ in _walk(ctx, classes):
            size = members.bit_count()
            counts.extend([0] * (size + 1 - len(counts)))
            counts[size] += _count(members, ctx.ordering.rows)
        total = _shuffle_counts(total, counts)
    return total


def count_traces(process: DeclarativeProcess) -> int:
    """Number of traces, counted per component without enumerating any."""
    return sum(count_by_length(process))
