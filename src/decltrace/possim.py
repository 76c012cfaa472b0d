"""Enumeration of the possible trace images of a process.

A subset of the alphabet is realizable as the image of some trace exactly
when it is a down-set of the occurrence preorder whose induced ordering law
is antisymmetric.  Each such image is certified here as a ``DownSet``.

Enumeration walks a lexicographic tree of antichains of mutual-forcing
classes, each class walked as its smallest activity (the generator sets form
an independence system, so a failed node prunes its whole subtree).
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum
from typing import Iterable, Iterator

from .model import DeclarativeProcess, expand_successors
# bench/tracing.py looks this name up on this module to wrap it in a timing
# span, so it stays importable here although nothing here calls it.
from .quotient import condense  # noqa: F401
from .relations import (
    BinaryRelation,
    _bits,
    closure,
    implied_occurrence,
    is_antisymmetric,
    order_preserving,
    restrict,
)


class Independence(Enum):
    INDEPENDENT = "independent"
    FAILS_ANTICHAIN = "fails_antichain"
    FAILS_ANTISYMMETRY = "fails_antisymmetry"


@dataclass(frozen=True)
class DownSet:
    """A realizable trace image with its induced ordering law.

    ``members`` is closed downward under the occurrence preorder, ``order``
    is the antisymmetric closure of the order-preserving relation restricted
    to ``members``, and ``generator`` is the maximal-element antichain whose
    downward closure gives ``members`` back.
    """

    members: frozenset[int]
    order: BinaryRelation
    generator: frozenset[int]


@dataclass(frozen=True)
class PossimContext:
    """A successor-expanded process with its occurrence preorder and ordering graph."""

    process: DeclarativeProcess
    occurrence: BinaryRelation
    ordering: BinaryRelation

    @classmethod
    def of(cls, process: DeclarativeProcess) -> "PossimContext":
        expanded = expand_successors(process)
        return cls(expanded, implied_occurrence(expanded), order_preserving(expanded))


def max_elements(subset: Iterable[int], preorder: BinaryRelation) -> frozenset[int]:
    """Elements of ``subset`` with nothing strictly above them in ``subset``.

    On a preorder "strictly above" means related upward but not back, so a
    whole mutual-reachability class at the top counts as maximal.
    """
    items = sorted(set(subset))
    return frozenset(
        x
        for x in items
        if all(not preorder.has(x, y) or preorder.has(y, x) for y in items)
    )


def downward_closure(subset: Iterable[int], preorder: BinaryRelation) -> frozenset[int]:
    """Everything lying below some element of ``subset``; always a down-set."""
    targets = set(subset)
    return frozenset(
        x for x in preorder.member_indices() if any(preorder.has(x, y) for y in targets)
    )


def _strictly_comparable(x: int, y: int, preorder: BinaryRelation) -> bool:
    forward = preorder.has(x, y)
    backward = preorder.has(y, x)
    return forward != backward


def is_independent(
    candidate: Iterable[int], ctx: PossimContext
) -> tuple[Independence, DownSet | None]:
    """Decide whether ``candidate`` generates a realizable image.

    The four steps: check the antichain property, close downward, restrict
    the order-preserving relation and close it, then test antisymmetry.
    Mutually reachable elements do not violate the antichain property; only
    strict comparability does.
    """
    items = sorted(set(candidate))
    for at, x in enumerate(items):
        for y in items[at + 1 :]:
            if _strictly_comparable(x, y, ctx.occurrence):
                return Independence.FAILS_ANTICHAIN, None
    members = downward_closure(items, ctx.occurrence)
    order = closure(restrict(ctx.ordering, members))
    if not is_antisymmetric(order):
        return Independence.FAILS_ANTISYMMETRY, None
    return Independence.INDEPENDENT, DownSet(members, order, max_elements(members, ctx.occurrence))


def _topological_order(members: int, succ: list[int], pred: list[int]) -> list[int] | None:
    """Kahn's sort of the graph ``succ`` restricted to ``members``.

    ``succ`` and ``pred`` are the graph's strict rows and columns.  Returns
    None when the restricted graph has a cycle, which is exactly when the
    closure of the ordering law on ``members`` is not antisymmetric.
    """
    waiting: dict[int, int] = {}
    ready = []
    for v in _bits(members):
        count = (pred[v] & members).bit_count()
        if count:
            waiting[v] = count
        else:
            ready.append(v)
    order = []
    while ready:
        v = ready.pop()
        order.append(v)
        for w in _bits(succ[v] & members):
            waiting[w] -= 1
            if not waiting[w]:
                ready.append(w)
    return order if len(order) == members.bit_count() else None


def _closed_order(n: int, members: int, topological: list[int], succ: list[int]) -> BinaryRelation:
    """Reflexive transitive closure of ``succ`` on ``members``, sinks first."""
    rows = [0] * n
    for v in reversed(topological):
        row = 1 << v
        for w in _bits(succ[v] & members):
            row |= rows[w]
        rows[v] = row
    return BinaryRelation(n, tuple(rows), members)


def _covers(n: int, members: int, topological: list[int], succ: list[int]) -> list[tuple[int, int]]:
    """Cover pairs of the order ``succ`` induces on ``members``, by index.

    They are the transitive reduction of the acyclic graph on ``members``
    (Aho, Garey & Ullman 1972): the direct successors of each element that
    no other direct successor reaches.  The same sinks-first pass as
    ``_closed_order``, with strict reach; ``hasse_pairs`` of that order
    gives the same list.
    """
    reach = [0] * n
    upper = [0] * n  # the elements that cover v
    for v in reversed(topological):
        direct = succ[v] & members
        beyond = 0
        for w in _bits(direct):
            beyond |= reach[w]
        reach[v] = direct | beyond
        upper[v] = direct & ~beyond
    return [(v, w) for v in sorted(topological) if upper[v] for w in _bits(upper[v])]


def _walk(ctx: PossimContext, activities: int) -> Iterator[tuple[int, int, list[int]]]:
    """Every image inside ``activities``, the empty image first.

    ``activities`` is a mask closed under the constraints, such as all
    activities or one connected component.  Yields (members, generator,
    topological order): two activity masks, and a topological sort of the
    ordering graph on the members.  The model rejects self-constraints, so
    ``ctx.ordering.rows`` is already strict.
    """
    above = ctx.occurrence.rows  # above[a]: what forces a, a included
    succ = ctx.ordering.rows
    down = [0] * ctx.ordering.n  # down[a]: what a forces, a included
    pred = [0] * ctx.ordering.n
    for a in _bits(activities):
        for b in _bits(above[a]):
            down[b] |= 1 << a
        for w in _bits(succ[a]):
            pred[w] |= 1 << a
    # The class of a is above[a] & down[a]; reps holds each class's smallest member.
    reps = sum(1 << a for a in _bits(activities) if not above[a] & down[a] & ((1 << a) - 1))
    related = {a: (above[a] | down[a]) & reps for a in _bits(reps)}
    yield 0, 0, []
    # Each entry is an antichain of classes, as reps: the first rep that may
    # extend it, the reps it rules out, and its image and generator as masks.
    stack = [(0, 0, 0, 0)]
    while stack:
        start, blocked, members, generator = stack.pop()
        for c in _bits(reps >> start << start & ~blocked):
            grown = members | down[c]
            topological = _topological_order(grown, succ, pred)
            if topological is None:
                # A cycle inside this image is a cycle inside every larger
                # one; the whole subtree is dead.
                continue
            grown_generator = generator | above[c] & down[c]
            yield grown, grown_generator, topological
            stack.append((c + 1, blocked | related[c], grown, grown_generator))


def enumerate_possim(process: DeclarativeProcess) -> list[DownSet]:
    """All realizable trace images, each exactly once.

    Output is sorted by (size, member indices); the empty image is always
    present and comes first.
    """
    ctx = PossimContext.of(process)
    n = ctx.ordering.n
    found = [
        DownSet(
            frozenset(_bits(members)),
            _closed_order(n, members, topological, ctx.ordering.rows),
            frozenset(_bits(generator)),
        )
        for members, generator, topological in _walk(ctx, (1 << n) - 1)
    ]
    found.sort(key=lambda downset: (len(downset.members), sorted(downset.members)))
    return found
