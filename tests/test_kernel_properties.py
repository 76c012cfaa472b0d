"""Differential properties of the bitmask relation kernel.

Each kernel result is compared with a direct reference: the brute-force
oracle, fixed-point closure, permutation filtering, or the textbook
definition, on small random processes, relations and posets.
"""

from hypothesis import given
from hypothesis import strategies as st

from decltrace import (
    BinaryRelation,
    Poset,
    brute_force_traces,
    closure,
    condense,
    count_linear_extensions,
    enumerate_possim,
    expand_successors,
    hasse_pairs,
    is_antisymmetric,
    linear_extensions,
    make_process,
    order_preserving,
    restrict,
)
from support import KINDS, LETTERS, closure_by_iteration, compliant_permutations

MAX_N = 7


@st.composite
def processes(draw):
    n = draw(st.integers(1, MAX_N))
    constraints = []
    if n >= 2:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
        for i, j in draw(st.lists(pairs, max_size=8)):
            constraints.append((draw(st.sampled_from(KINDS)), LETTERS[i], LETTERS[j]))
    return make_process(LETTERS[:n], constraints)


@st.composite
def relations(draw):
    n = draw(st.integers(1, MAX_N))
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n * n))
    return BinaryRelation.from_pairs(n, pairs)


@st.composite
def posets(draw):
    """A partial order on a subset of the ground set: edges forward along a shuffled axis."""
    n = draw(st.integers(1, MAX_N))
    axis = draw(st.permutations(range(n)))
    pairs = [
        (axis[i], axis[j])
        for i in range(n)
        for j in range(i + 1, n)
        if draw(st.booleans())
    ]
    elements = draw(st.sets(st.integers(0, n - 1)))
    order = restrict(closure(BinaryRelation.from_pairs(n, pairs)), elements)
    return Poset(frozenset(elements), order)


def image_posets(process) -> list[Poset]:
    return [Poset(d.members, d.order) for d in enumerate_possim(process)]


@given(processes())
def test_images_are_the_trace_images_of_the_oracle(process):
    images = [d.members for d in enumerate_possim(process)]
    assert len(images) == len(set(images))
    assert set(images) == {frozenset(t) for t in brute_force_traces(process)}


@given(processes())
def test_image_order_is_the_closed_restricted_ordering(process):
    ordering = order_preserving(expand_successors(process))
    for downset in enumerate_possim(process):
        order = downset.order
        assert order.member_indices() == sorted(downset.members)
        assert set(order.pairs()) == closure_by_iteration(restrict(ordering, downset.members))


@given(posets())
def test_extensions_are_the_sorted_compliant_permutations(poset):
    assert linear_extensions(poset) == sorted(compliant_permutations(poset))


@given(processes())
def test_image_extensions_are_the_sorted_compliant_permutations(process):
    for poset in image_posets(process):
        assert linear_extensions(poset) == sorted(compliant_permutations(poset))


@given(posets())
def test_count_matches_generation(poset):
    assert count_linear_extensions(poset) == len(linear_extensions(poset))


@given(relations())
def test_condense_classes_are_mutual_reachability(rel):
    pre = closure(rel)
    quotient = condense(pre)
    members = pre.member_indices()
    for i in members:
        for j in members:
            mutual = pre.has(i, j) and pre.has(j, i)
            assert (quotient.class_of[i] == quotient.class_of[j]) == mutual
    assert [min(group) for group in quotient.classes] == sorted(min(g) for g in quotient.classes)
    for a, group_a in enumerate(quotient.classes):
        for b, group_b in enumerate(quotient.classes):
            assert quotient.order.has(a, b) == pre.has(min(group_a), min(group_b))


def naive_covers(order: BinaryRelation) -> list[tuple[int, int]]:
    members = order.member_indices()
    return [
        (i, j)
        for i in members
        for j in members
        if i != j
        and order.has(i, j)
        and not any(k not in (i, j) and order.has(i, k) and order.has(k, j) for k in members)
    ]


@given(posets())
def test_hasse_pairs_are_the_covers(poset):
    assert hasse_pairs(poset.order) == naive_covers(poset.order)


@given(processes())
def test_image_hasse_pairs_are_the_covers(process):
    for poset in image_posets(process):
        assert hasse_pairs(poset.order) == naive_covers(poset.order)


@given(relations())
def test_antisymmetry_matches_its_definition(rel):
    members = rel.member_indices()
    expected = not any(
        i != j and rel.has(i, j) and rel.has(j, i) for i in members for j in members
    )
    assert is_antisymmetric(rel) == expected
