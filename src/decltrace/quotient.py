"""Condensing a preorder to the partial order of its mutual-reachability
classes, and moving down-sets between the two levels."""

from __future__ import annotations

from collections.abc import Iterable

from .model import _Record
from .relations import BinaryRelation, _bits, is_preorder


class QuotientPoset(_Record):
    """Mutual-reachability classes of a preorder with the induced order.

    Classes are numbered by their smallest member, which fixes a
    deterministic ordering for everything downstream.  ``class_of`` maps an
    activity index to its class index (-1 outside the ground subset).
    """

    __slots__ = ("classes", "order", "class_of")

    def __init__(
        self, classes: tuple[frozenset[int], ...], order: BinaryRelation, class_of: tuple[int, ...]
    ) -> None:
        _Record.__init__(self, classes, order, class_of)


def condense(pre: BinaryRelation) -> QuotientPoset:
    """Collapse mutually reachable elements; the result order is a partial order.

    In a preorder i and j are mutually reachable exactly when their rows are
    equal, so the classes are the groups of equal rows.
    """
    if not is_preorder(pre):
        raise ValueError("relation is not a preorder")
    class_of = [-1] * pre.n
    class_by_row: dict[int, int] = {}
    groups: list[list[int]] = []
    reps = 0  # smallest member of each class, as a mask
    for i in pre.member_indices():
        c = class_by_row.setdefault(pre.rows[i], len(groups))
        if c == len(groups):
            groups.append([])
            reps |= 1 << i
        groups[c].append(i)
        class_of[i] = c
    rows = []
    for group in groups:
        row = 0
        for j in _bits(pre.rows[group[0]] & reps):
            row |= 1 << class_of[j]
        rows.append(row)
    k = len(groups)
    order = BinaryRelation(k, tuple(rows), (1 << k) - 1)
    return QuotientPoset(tuple(frozenset(g) for g in groups), order, tuple(class_of))


def expand_downset(quotient: QuotientPoset, class_downset: Iterable[int]) -> frozenset[int]:
    """Union the member activities of a down-set of classes.

    This map is a bijection between down-sets of the quotient and down-sets
    of the original preorder.
    """
    chosen = set(class_downset)
    k = len(quotient.classes)
    for c in chosen:
        if not 0 <= c < k:
            raise ValueError(f"no class with index {c}")
        for d in range(k):
            if quotient.order.has(d, c) and d not in chosen:
                raise ValueError("not a down-set of the quotient")
    out: set[int] = set()
    for c in chosen:
        out |= quotient.classes[c]
    return frozenset(out)
