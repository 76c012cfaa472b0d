"""Trace images of a process, and the class quotient they are down-sets of.

A subset of the alphabet is realizable as the image of some trace exactly
when it is a down-set of the occurrence preorder whose induced ordering law
is antisymmetric.  Each such image is certified here as a ``DownSet``.

Activities that force each other form one class, and the preorder induces a
partial order on its classes: ``condense`` builds that ``QuotientPoset``, and
``expand_downset`` maps a down-set of classes to the down-set of activities
it covers, a bijection between the down-sets of the two levels.

Enumeration walks a lexicographic tree of antichains of mutual-forcing
classes, each class walked as its smallest activity (the generator sets form
an independence system, so a failed node prunes its whole subtree).
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator
from enum import Enum

from .model import DeclarativeProcess, _Record
from .relations import (
    BinaryRelation,
    _bits,
    _graphs,
    _mask,
    _within,
    closure,
    implied_occurrence,
    is_antisymmetric,
    is_preorder,
    order_preserving,
    restrict,
    transpose,
)


class Independence(Enum):
    INDEPENDENT = "independent"
    FAILS_ANTICHAIN = "fails_antichain"
    FAILS_ANTISYMMETRY = "fails_antisymmetry"


class DownSet(_Record):
    """A realizable trace image with its induced ordering law.

    ``members`` is closed downward under the occurrence preorder, ``order``
    is the antisymmetric closure of the order-preserving relation restricted
    to ``members``, and ``generator`` is the maximal-element antichain whose
    downward closure gives ``members`` back.
    """

    __slots__ = ("members", "order", "generator")

    def __init__(
        self, members: Iterable[int], order: BinaryRelation, generator: Iterable[int]
    ) -> None:
        _Record.__init__(self, frozenset(members), order, frozenset(generator))


class QuotientPoset(_Record):
    """Mutual-reachability classes of a preorder with the induced order.

    Classes are numbered by their smallest member, which fixes a
    deterministic ordering for everything downstream.  ``class_of`` maps an
    activity index to its class index (-1 outside the ground subset).
    """

    __slots__ = ("classes", "order", "class_of")

    def __init__(
        self, classes: Iterable[Iterable[int]], order: BinaryRelation, class_of: Iterable[int]
    ) -> None:
        _Record.__init__(self, tuple(frozenset(c) for c in classes), order, tuple(class_of))


class PossimContext(_Record):
    """A process with its occurrence preorder and ordering graph, for ``is_independent``."""

    __slots__ = ("process", "occurrence", "ordering")

    def __init__(
        self, process: DeclarativeProcess, occurrence: BinaryRelation, ordering: BinaryRelation
    ) -> None:
        _Record.__init__(self, process, occurrence, ordering)

    @classmethod
    def of(cls, process: DeclarativeProcess) -> "PossimContext":
        return cls(process, implied_occurrence(process), order_preserving(process))


def max_elements(subset: Iterable[int], preorder: BinaryRelation) -> frozenset[int]:
    """Elements of ``subset`` with nothing strictly above them in ``subset``.

    On a preorder "strictly above" means related upward but not back, so a
    whole mutual-reachability class at the top counts as maximal.
    """
    items = _within(subset, preorder.n)
    return frozenset(
        x
        for x in items
        if all(not preorder.has(x, y) or preorder.has(y, x) for y in items)
    )


def downward_closure(subset: Iterable[int], preorder: BinaryRelation) -> frozenset[int]:
    """Everything lying below some element of ``subset``; always a down-set."""
    targets = _mask(_within(subset, preorder.n))
    return frozenset(x for x in preorder.member_indices() if preorder.rows[x] & targets)


def condense(pre: BinaryRelation) -> QuotientPoset:
    """Collapse mutually reachable elements; the result order is a partial order.

    In a preorder i and j are mutually reachable exactly when their rows are
    equal, so the classes are the groups of equal rows, numbered in the
    order their smallest members come.  A class's order row is the classes
    of the smallest members in its row.
    """
    if not is_preorder(pre):
        raise ValueError("relation is not a preorder")
    groups: dict[int, list[int]] = {}  # a class's row -> its members, ascending
    for i in pre.member_indices():
        groups.setdefault(pre.rows[i], []).append(i)
    class_of = [-1] * pre.n
    for c, group in enumerate(groups.values()):
        for i in group:
            class_of[i] = c
    reps = _mask(group[0] for group in groups.values())  # smallest member of each class
    rows = [_mask(class_of[j] for j in _bits(row & reps)) for row in groups]
    k = len(groups)
    return QuotientPoset(groups.values(), BinaryRelation(k, rows, (1 << k) - 1), class_of)


def expand_downset(quotient: QuotientPoset, class_downset: Iterable[int]) -> frozenset[int]:
    """Union the member activities of a down-set of classes.

    Rejects an index that names no class first, then a set with an unchosen
    class below a chosen one.  This map is a bijection between down-sets of
    the quotient and down-sets of the original preorder.
    """
    chosen = set(class_downset)
    for c in chosen:
        if not 0 <= c < len(quotient.classes):
            raise ValueError(f"no class with index {c}")
    mask = _mask(chosen)
    if any(row & mask for d, row in enumerate(quotient.order.rows) if d not in chosen):
        raise ValueError("not a down-set of the quotient")
    return frozenset().union(*[quotient.classes[c] for c in chosen])


def is_independent(
    candidate: Iterable[int], ctx: PossimContext
) -> tuple[Independence, DownSet | None]:
    """Decide whether ``candidate`` generates a realizable image.

    The four steps: check the antichain property, close downward, restrict
    the order-preserving relation and close it, then test antisymmetry.
    Mutually reachable elements do not violate the antichain property; only
    strict comparability does.
    """
    items = _within(candidate, ctx.process.n)
    for at, x in enumerate(items):
        for y in items[at + 1 :]:
            if ctx.occurrence.has(x, y) != ctx.occurrence.has(y, x):
                return Independence.FAILS_ANTICHAIN, None
    members = downward_closure(items, ctx.occurrence)
    order = closure(restrict(ctx.ordering, members))
    if not is_antisymmetric(order):
        return Independence.FAILS_ANTISYMMETRY, None
    return Independence.INDEPENDENT, DownSet(members, order, max_elements(members, ctx.occurrence))


def _topological_order(members: int, succ: list[int], pred: list[int]) -> list[int] | None:
    """Kahn's sort of the graph ``succ`` restricted to ``members``.

    ``succ`` and ``pred`` are the graph's strict rows and columns.  A member
    is ready once no predecessor of it is left unsorted.  Returns None when
    members are left over, which happens exactly when the restricted graph
    has a cycle, that is when the closure of the ordering law on ``members``
    is not antisymmetric.
    """
    ready = [v for v in _bits(members) if not pred[v] & members]
    left = members  # not yet sorted
    order = []
    while ready:
        v = ready.pop()
        order.append(v)
        left ^= 1 << v
        for w in _bits(succ[v] & left):
            if not pred[w] & left:
                ready.append(w)
    return None if left else order


def _covers(members: int, topological: list[int], succ: list[int]) -> tuple[list[int], list[int]]:
    """Strict reach and cover rows of the order ``succ`` induces on ``members``.

    One sinks-first pass along ``topological``: ``reach[v]`` is all strictly
    above v, and ``upper[v]`` what covers v, the direct successors of v that
    no other reaches: the transitive reduction of the acyclic graph (Aho,
    Garey & Ullman 1972), as ``hasse_pairs`` of the closed order would give.
    Rows outside ``members`` are 0.
    """
    reach = [0] * len(succ)
    upper = [0] * len(succ)
    for v in reversed(topological):
        direct = succ[v] & members
        beyond = 0
        for w in _bits(direct):
            beyond |= reach[w]
        reach[v] = direct | beyond
        upper[v] = direct & ~beyond
    return reach, upper


def _walk(graphs: tuple[list[int], ...]) -> Iterator[tuple[int, int, list[int]]]:
    """Every image, the empty image first.

    ``graphs`` are the rows of ``relations._graphs``.  Yields (members,
    generator, topological order): two activity masks, and a topological
    sort of the ordering graph on the members.  The model rejects
    self-constraints, so the ``succ`` rows are already strict.
    """
    _, _, forces, succ, pred = graphs
    n = len(succ)
    forcing = BinaryRelation(n, tuple(forces), (1 << n) - 1)
    down = closure(forcing).rows  # down[a]: what a forces, a included
    above = closure(transpose(forcing)).rows  # above[a]: what forces a, a included
    # The class of a is above[a] & down[a]; reps holds each class's smallest member.
    reps = sum(1 << a for a in range(n) if not above[a] & down[a] & ((1 << a) - 1))
    yield 0, 0, []
    # Each entry is an antichain of classes, as reps: the first rep that may
    # extend it, what it rules out (all above or below a class in it; the
    # loop reads only the reps), and its image and generator as masks.
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
            stack.append((c + 1, blocked | above[c] | down[c], grown, grown_generator))


def _images(process: DeclarativeProcess) -> Iterator[tuple]:
    """Every image of ``process`` with its ``_covers`` rows, in (size, members) order.

    Yields (members, elements, generator, reach, upper): the image as a mask
    and as its activities ascending, the generator mask, and the image's
    strict reach and cover rows.  The empty image comes first.
    """
    graphs = _graphs(process)
    # The keys (size, elements) are distinct, so the rest is never compared.
    found = sorted((len(t), sorted(t), m, g, t) for m, g, t in _walk(graphs))
    for _, elements, members, generator, topological in found:
        yield (members, elements, generator, *_covers(members, topological, graphs[3]))


def enumerate_possim(process: DeclarativeProcess) -> list[DownSet]:
    """All realizable trace images, each exactly once.

    Output is sorted by (size, member indices); the empty image is always
    present and comes first.  An image's order is its ``_covers`` reach, made reflexive.
    """
    found = []
    for members, elements, generator, reach, _ in _images(process):
        for v in elements:
            reach[v] |= 1 << v
        order = BinaryRelation(process.n, tuple(reach), members)
        found.append(DownSet(elements, order, _bits(generator)))
    return found
