"""Dense binary relations over activity indices, plus the relations a
constraint set induces.

Relations are stored as one integer bitmask per row: bit j of ``rows[i]``
means (i, j) is related.  A relation also carries a ``members`` mask naming
the ground subset it currently lives on, so restrictions keep global
indexing instead of renumbering.

``_graphs`` alone turns constraint kinds into edges: the occurrence and
ordering relations, the possim walk and the placed-set pass read its rows.
"""

from __future__ import annotations

from collections.abc import Iterable, Iterator

from .model import ConstraintKind, DeclarativeProcess, _Record


def _mask(indices: Iterable[int]) -> int:
    out = 0
    for i in indices:
        out |= 1 << i
    return out


def _within(indices: Iterable[int], n: int) -> list[int]:
    """``indices`` sorted without repeats; rejects any outside ``range(n)``."""
    items = sorted(set(indices))
    if items and (items[0] < 0 or items[-1] >= n):
        raise ValueError("subset outside the ground set")
    return items


def _bits(mask: int) -> Iterator[int]:
    """Indices of the set bits of a non-negative mask, in ascending order."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class BinaryRelation(_Record):
    __slots__ = ("n", "rows", "members")

    def __init__(self, n: int, rows: tuple[int, ...], members: int) -> None:
        if n < 0:
            raise ValueError(f"ground-set size {n} is negative")
        if members & ~((1 << n) - 1):
            raise ValueError("members mask outside the ground set")
        if len(rows) != n:
            raise ValueError("need exactly one row per ground-set index")
        # A non-empty row must belong to a member and lie inside the members.
        # The members as bits, lowest first, spare a big-integer shift per row.
        for row, member in zip(rows, reversed(f"{members:0{n}b}")):
            if row and (member == "0" or row & members != row):
                raise ValueError("all pairs must lie inside the members mask")
        _Record.__init__(self, n, rows, members)

    @classmethod
    def from_pairs(
        cls, n: int, pairs: Iterable[tuple[int, int]] = (), members: Iterable[int] | None = None
    ) -> "BinaryRelation":
        rows = [0] * n
        for i, j in pairs:
            if not (0 <= i < n and 0 <= j < n):
                raise ValueError(f"pair ({i}, {j}) outside the ground set")
            rows[i] |= 1 << j
        members = range(n) if members is None else members
        return cls(n, tuple(rows), _mask(_within(members, n)))

    def has(self, i: int, j: int) -> bool:
        return bool(self.rows[i] >> j & 1)

    def pairs(self) -> Iterator[tuple[int, int]]:
        for i, row in enumerate(self.rows):
            for j in _bits(row):
                yield i, j

    def member_indices(self) -> list[int]:
        return list(_bits(self.members))


def closure(rel: BinaryRelation) -> BinaryRelation:
    """Reflexive transitive closure on the relation's members."""
    rows = list(rel.rows)
    indices = rel.member_indices()
    for i in indices:
        rows[i] |= 1 << i
    for k in indices:
        bit = 1 << k
        reach = rows[k]
        if reach == bit:
            continue  # k reaches only itself, which adds nothing to any row
        for i in indices:
            if rows[i] & bit:
                rows[i] |= reach
    return BinaryRelation(rel.n, tuple(rows), rel.members)


def transpose(rel: BinaryRelation) -> BinaryRelation:
    rows = [0] * rel.n
    for i, j in rel.pairs():
        rows[j] |= 1 << i
    return BinaryRelation(rel.n, tuple(rows), rel.members)


def restrict(rel: BinaryRelation, subset: Iterable[int]) -> BinaryRelation:
    """Keep only pairs with both endpoints in ``subset``; indices are global."""
    wanted = _mask(_within(subset, rel.n))
    members = rel.members & wanted
    rows = tuple(rel.rows[i] & wanted if members >> i & 1 else 0 for i in range(rel.n))
    return BinaryRelation(rel.n, rows, members)


def is_antisymmetric(rel: BinaryRelation) -> bool:
    rows = rel.rows
    for i, row in enumerate(rows):
        # Each unordered pair is tested once, from its larger index.
        for j in _bits(row & ((1 << i) - 1)):
            if rows[j] >> i & 1:
                return False
    return True


def is_preorder(rel: BinaryRelation) -> bool:
    return closure(rel) == rel


def is_partial_order(rel: BinaryRelation) -> bool:
    return is_preorder(rel) and is_antisymmetric(rel)


def hasse_pairs(rel: BinaryRelation) -> list[tuple[int, int]]:
    """Cover pairs of a partial order: (i, j) with nothing strictly between."""
    if not is_partial_order(rel):
        raise ValueError("relation is not a partial order")
    strict = [rel.rows[i] & ~(1 << i) for i in range(rel.n)]
    covers = []
    for i in rel.member_indices():
        # j covers i unless it lies strictly above some k strictly above i.
        beyond = 0
        for k in _bits(strict[i]):
            beyond |= strict[k]
        covers.extend((i, j) for j in _bits(strict[i] & ~beyond))
    return covers


def _graphs(process: DeclarativeProcess) -> tuple[list[int], ...]:
    """The edges of a constraint set, as rows, built once per process.

    Returns (need, needed_by, forces, succ, pred).  ``need[x]``: the
    ``prec``/``succ`` sources of x, which must be placed before x.
    ``needed_by[x]``: the activities x is such a source of.  ``forces[x]``:
    what x occurring forces directly, its ``need`` and its ``resp``/``succ``
    targets; closed, these rows are the occurrence preorder read downwards.
    ``succ`` and ``pred``: the rows and columns of the ordering graph, one
    edge per constraint.
    """
    need, needed_by, forces, succ, pred = rows = tuple([0] * process.n for _ in range(5))
    for c in process.constraints:
        a, b = c.source.index, c.target.index
        succ[a] |= 1 << b
        pred[b] |= 1 << a
        if c.kind is not ConstraintKind.RESPONSE:
            need[b] |= 1 << a
            needed_by[a] |= 1 << b
            forces[b] |= 1 << a
        if c.kind is not ConstraintKind.PRECEDENCE:
            forces[a] |= 1 << b
    return rows


def implied_occurrence(process: DeclarativeProcess) -> BinaryRelation:
    """The occurrence preorder: (a, b) present when b occurring forces a.

    ``prec a b`` and ``resp b a`` both contribute the pair (a, b), and
    ``succ a b``, which is ``prec a b`` plus ``resp a b``, contributes (a, b)
    and (b, a): the ``forces`` rows of ``_graphs``, transposed and closed.
    """
    forces = _graphs(process)[2]
    return closure(transpose(BinaryRelation(process.n, tuple(forces), (1 << process.n) - 1)))


def order_preserving(process: DeclarativeProcess) -> BinaryRelation:
    """Pairwise ordering obligations: (a, b) when a must precede b if both occur.

    Every kind, ``succ`` included, contributes (source, target): the ``succ``
    rows of ``_graphs``.  Deliberately not closed: transiting through an
    activity that does not occur would manufacture nonexistent obligations.
    """
    succ = _graphs(process)[3]
    return BinaryRelation(process.n, tuple(succ), (1 << process.n) - 1)


def order_on_downset(process: DeclarativeProcess, downset: Iterable[int]) -> BinaryRelation:
    """The ordering law inside one occurrence-closed image.

    Restriction strictly before closure; the reverse order is wrong in
    general (see ``order_preserving``).
    """
    return closure(restrict(order_preserving(process), downset))
