"""Linear extensions of finite posets: generation, counting, restriction."""

from __future__ import annotations

from collections import defaultdict
from collections.abc import Iterable, Iterator, Sequence

from .model import Trace, _Record
from .relations import BinaryRelation, _bits, _mask, _within, is_antisymmetric, restrict


class Poset(_Record):
    """A finite poset over global activity indices.

    ``order`` must be reflexive, transitive, and antisymmetric on
    ``elements``, which must lie in its ground set and among its members; the
    empty poset is allowed.
    """

    __slots__ = ("elements", "order")

    def __init__(self, elements: Iterable[int], order: BinaryRelation) -> None:
        elements = frozenset(elements)
        if _mask(_within(elements, order.n)) & ~order.members:
            raise ValueError("elements outside the order's members")
        _Record.__init__(self, elements, order)


def _check_antisymmetric(poset: Poset) -> None:
    if not is_antisymmetric(poset.order):
        raise ValueError("order is not antisymmetric")


def iter_linear_extensions(poset: Poset) -> Iterator[Trace]:
    """Every arrangement of the elements compatible with the order, lazily.

    Generated by repeatedly emitting a minimal element of what remains,
    trying candidates in ascending index order, so the output is sorted
    lexicographically.  The depth-first search keeps its own stack, so the
    poset's size is not limited by the interpreter's recursion limit.  The
    order is validated at the call, before the first extension is asked for.
    """
    _check_antisymmetric(poset)
    return _extensions(_mask(poset.elements), poset.order.rows)


def _extensions(elements: int, rows: Sequence[int]) -> Iterator[Trace]:
    """The linear extensions of the order that the graph ``rows`` generates on ``elements``.

    ``elements`` is a mask.  Bit y of ``rows[x]`` is an edge x -> y; edges
    leaving ``elements`` and each element's own bit are ignored.  The graph
    must be acyclic on ``elements`` and need not be closed: an order's
    linear extensions are the topological orders of any graph generating it.
    """
    size = elements.bit_count()
    if size < 2:
        yield tuple(_bits(elements))
        return
    # Placing x can make only its successors placeable: y is placeable once
    # ``before[y]``, the mask of its predecessors, holds nothing still left.
    after = [[] for _ in rows]
    before = [0] * len(rows)
    for x in _bits(elements):
        after[x] = list(_bits(rows[x] & elements & ~(1 << x)))
        for y in after[x]:
            before[y] |= 1 << x
    minimal = sum(1 << x for x in _bits(elements) if not before[x])
    sequence: list[int] = []
    left = elements  # not yet placed
    # One entry per depth: the placeable elements there, and those not tried yet.
    placeable = [minimal]
    untried = [minimal]
    forced = size - 2  # the depth at which the last two elements remain
    while untried:
        options = untried[-1]
        if not options:
            untried.pop()
            placeable.pop()
            if sequence:
                left |= 1 << sequence.pop()
            continue
        low = options & -options
        untried[-1] = options ^ low
        x = low.bit_length() - 1
        if len(sequence) == forced:
            # Whatever remains after x is placeable once x is placed.
            yield (*sequence, x, (left ^ low).bit_length() - 1)
            continue
        sequence.append(x)
        left ^= low
        free = placeable[-1] ^ low
        for y in after[x]:
            if not before[y] & left:
                free |= 1 << y
        placeable.append(free)
        untried.append(free)


def linear_extensions(poset: Poset) -> list[Trace]:
    """Every linear extension, in lexicographic order, as a list."""
    return list(iter_linear_extensions(poset))


def count_linear_extensions(poset: Poset) -> int:
    """Count linear extensions without generating them."""
    _check_antisymmetric(poset)
    return _count(_mask(poset.elements), poset.order.rows)


def _count(elements: int, rows: Sequence[int]) -> int:
    """The number of ``_extensions(elements, rows)``, same graph contract.

    Dynamic programming over the down-set lattice, one layer per size:
    peeling a maximal element from a down-set keeps it a down-set, and each
    extension corresponds to one full peeling path from the whole poset.
    An element of a down-set is maximal in it exactly when none of its
    graph successors is still in it, closed graph or not.
    """
    layer = {elements: 1}
    for _ in range(elements.bit_count()):
        peeled: defaultdict[int, int] = defaultdict(int)
        for mask, ways in layer.items():
            left = mask
            while left:  # the set bits of mask, inlined: this is the hot loop
                low = left & -left
                left ^= low
                if not rows[low.bit_length() - 1] & (mask ^ low):
                    peeled[mask ^ low] += ways
        layer = peeled
    return layer.get(0, 0)


def restrict_extension(trace: Trace, subset: Iterable[int]) -> Trace:
    """Drop every item outside ``subset``, keeping the remaining order."""
    keep = set(subset)
    return tuple(x for x in trace if x in keep)


def induced_subposet(poset: Poset, subset: Iterable[int]) -> Poset:
    """The poset on ``subset`` with comparabilities inherited unchanged.

    Indices of the ground set outside ``poset.elements`` are dropped; any
    outside the ground set are rejected.
    """
    keep = frozenset(_within(subset, poset.order.n)) & poset.elements
    return Poset(keep, restrict(poset.order, keep))
