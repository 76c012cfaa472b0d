"""Shared fixtures: recurring example processes, independent reference
oracles, and random instance generators."""

from __future__ import annotations

import random
from collections.abc import Iterator
from heapq import merge
from itertools import permutations

from decltrace import (
    BinaryRelation,
    DeclarativeProcess,
    Poset,
    Trace,
    closure,
    make_process,
    parse_process,
)
from decltrace.linext import _extensions
from decltrace.traces import _graphs, _layers

LETTERS = "abcdefgh"

KINDS = ("prec", "resp", "succ")


def example_mixed_three() -> DeclarativeProcess:
    return parse_process("activities a b c\nresp c a\nprec b a")


def example_mixed_five() -> DeclarativeProcess:
    return parse_process(
        "activities a b c d e\n"
        "resp b a\nresp c a\nresp d e\nresp e c\n"
        "prec a d\nprec b d\nprec d e"
    )


def example_prec_six() -> DeclarativeProcess:
    return parse_process(
        "activities a b c d e f\n"
        "prec a c\nprec b c\nprec c d\nprec d e\nprec e d\nprec d f"
    )


def example_three_chainish() -> DeclarativeProcess:
    return parse_process("activities a b c\nprec a b\nresp b c")


def example_split_class(dead_pair: bool = False) -> DeclarativeProcess:
    """a and c force each other, with b between them by index; images {}, {b},
    {a,c}, {a,b,c}.  ``dead_pair`` adds x and y, which force each other in
    both orders and so never occur."""
    if dead_pair:
        return parse_process("activities a b c x y\nprec c a\nresp c a\nsucc x y\nsucc y x")
    return parse_process("activities a b c\nprec c a\nresp c a")


def word(process: DeclarativeProcess, text: str) -> Trace:
    """Single-letter activity names joined into a trace, '' for the empty one."""
    return tuple(process.index_of(ch) for ch in text)


def words(process: DeclarativeProcess, traces: list[Trace]) -> list[str]:
    names = process.names()
    return ["".join(names[i] for i in t) for t in traces]


def random_process(
    rng: random.Random,
    kinds: tuple[str, ...] = KINDS,
    max_n: int = 6,
    max_constraints: int = 10,
) -> DeclarativeProcess:
    n = rng.randint(1, max_n)
    constraints = []
    if n >= 2:
        for _ in range(rng.randint(0, max_constraints)):
            i, j = rng.sample(range(n), 2)
            constraints.append((rng.choice(kinds), LETTERS[i], LETTERS[j]))
    return make_process(LETTERS[:n], constraints)


def random_wide_process(seed: int) -> DeclarativeProcess:
    """A seeded process of 9 to 16 activities, past the oracle's reach;
    even seeds mix all kinds, odd seeds take one kind in turn."""
    rng = random.Random(seed)
    n = rng.randint(9, 16)
    kinds = KINDS if seed % 2 == 0 else (KINDS[seed // 2 % 3],)
    constraints = []
    for _ in range(rng.randint(n // 3, n)):
        i, j = rng.sample(range(n), 2)
        constraints.append((rng.choice(kinds), f"a{i}", f"a{j}"))
    return make_process([f"a{i}" for i in range(n)], constraints)


def random_relation(rng: random.Random, max_n: int = 8, density: float = 0.3) -> BinaryRelation:
    n = rng.randint(1, max_n)
    pairs = [(i, j) for i in range(n) for j in range(n) if rng.random() < density]
    return BinaryRelation.from_pairs(n, pairs)


def random_poset(rng: random.Random, max_n: int = 6, density: float = 0.4) -> Poset:
    """A random partial order: forward edges along a shuffled axis, closed."""
    n = rng.randint(0, max_n)
    axis = list(range(n))
    rng.shuffle(axis)
    pairs = [
        (axis[i], axis[j])
        for i in range(n)
        for j in range(i + 1, n)
        if rng.random() < density
    ]
    return Poset(frozenset(range(n)), closure(BinaryRelation.from_pairs(n, pairs)))


def closure_by_iteration(rel: BinaryRelation) -> set[tuple[int, int]]:
    """Fixed-point reference for the reflexive transitive closure."""
    members = rel.member_indices()
    pairs = set(rel.pairs()) | {(i, i) for i in members}
    while True:
        composed = {(a, d) for (a, b) in pairs for (c, d) in pairs if b == c}
        extra = composed - pairs
        if not extra:
            return pairs
        pairs |= extra


def preorder_downsets(rel: BinaryRelation) -> set[frozenset[int]]:
    """Every downward-closed subset, by direct filtering of all subsets."""
    members = rel.member_indices()
    out = set()
    for pick in range(1 << len(members)):
        subset = {members[i] for i in range(len(members)) if pick >> i & 1}
        if all(x in subset for y in subset for x in members if rel.has(x, y)):
            out.add(frozenset(subset))
    return out


def compliant_permutations(poset: Poset) -> set[Trace]:
    """Reference for linear extensions: filter all permutations directly."""
    out = set()
    for candidate in permutations(sorted(poset.elements)):
        ok = all(
            not poset.order.has(candidate[j], candidate[i])
            for i in range(len(candidate))
            for j in range(i + 1, len(candidate))
        )
        if ok:
            out.add(candidate)
    return out


class SubsetDP:
    """Independent reference for the trace set, by a DP over every subset.

    Reads the constraint triples only, and builds no forcing closure and no
    liveness test.  A trace is built one activity at a time: placing x needs
    x's ``prec``/``succ`` sources placed and none of x's ``resp``/``succ``
    targets placed.  ``ways[S]`` counts the valid orderings of S.  S is
    finished when it holds the ``resp``/``succ`` targets of its members; the
    valid orderings of a finished S are traces, and the finished S with any
    are ``images``.  Bit L of ``lengths[S]`` is set when an image of size L
    extends S by valid placements, so the sets with ``ways`` and
    ``lengths`` both non-zero are the trace prefix sets.
    """

    def __init__(self, process: DeclarativeProcess) -> None:
        n = self.n = process.n
        if n > 16:
            raise ValueError("the subset DP is limited to 16 activities")
        self.need = [0] * n
        self.forbid = [0] * n
        for c in process.constraints:
            a, b = c.source.index, c.target.index
            if c.kind.value in ("prec", "succ"):
                self.need[b] |= 1 << a
            if c.kind.value in ("resp", "succ"):
                self.forbid[a] |= 1 << b
        self.ways = [0] * (1 << n)
        self.ways[0] = 1
        self.images: set[int] = set()
        reached = []
        for placed in range(1 << n):
            if self.ways[placed]:
                reached.append(placed)
                if all(not self.forbid[x] & ~placed for x in range(n) if placed >> x & 1):
                    self.images.add(placed)
                for x in self.moves(placed):
                    self.ways[placed | 1 << x] += self.ways[placed]
        self.lengths = [0] * (1 << n)
        for placed in reversed(reached):
            lengths = 1 << placed.bit_count() if placed in self.images else 0
            for x in self.moves(placed):
                lengths |= self.lengths[placed | 1 << x]
            self.lengths[placed] = lengths

    def moves(self, placed: int) -> list[int]:
        """The activities that may be placed after the set ``placed``, ascending."""
        return [
            x
            for x in range(self.n)
            if not placed >> x & 1 and not self.need[x] & ~placed and not self.forbid[x] & placed
        ]

    def count_by_length(self) -> list[int]:
        counts = [0] * self.lengths[0].bit_length()
        for image in self.images:
            counts[image.bit_count()] += self.ways[image]
        return counts

    def traces(self) -> Iterator[Trace]:
        """Every trace, by length then activity index, by a DFS per length."""
        for length in range(self.lengths[0].bit_length()):
            stack: list[tuple[int, Trace]] = [(0, ())]
            while stack:
                placed, prefix = stack.pop()
                if len(prefix) == length:
                    yield prefix
                    continue
                for x in reversed(self.moves(placed)):
                    if self.lengths[placed | 1 << x] >> length & 1:
                        stack.append((placed | 1 << x, prefix + (x,)))


def merged_traces(process: DeclarativeProcess) -> Iterator[Trace]:
    """Every trace, by length then activity index, by the heap-merge route.

    Each size's images are the finished sets of the placed-set pass, and
    the lexicographic extension generators of one size's images, one per
    image, are merged by a heap.  It shares the pass with ``iter_traces``
    but neither its moves nor its search, so it referees the search.
    """
    graphs = _graphs(process)
    for layer in _layers((1 << process.n) - 1, graphs):
        images = [placed for placed, (_, forced, *_) in layer.items() if forced == placed]
        yield from merge(*(_extensions(image, graphs[3]) for image in images))
