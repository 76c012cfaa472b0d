"""Shared fixtures: recurring example processes, independent reference
oracles, and random instance generators."""

from __future__ import annotations

import random
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


def members_word(process: DeclarativeProcess, members) -> str:
    names = process.names()
    return "".join(names[i] for i in sorted(members))


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
