import random

import pytest

from decltrace import (
    BinaryRelation,
    Poset,
    closure,
    count_linear_extensions,
    induced_subposet,
    linear_extensions,
    restrict_extension,
)
from support import compliant_permutations, random_poset


def poset_from_pairs(n, pairs, elements=None):
    elements = frozenset(range(n) if elements is None else elements)
    return Poset(elements, closure(BinaryRelation.from_pairs(n, pairs, members=elements)))


# a < c, b < c, b < d on four elements; five arrangements
FENCE = poset_from_pairs(4, [(0, 2), (1, 2), (1, 3)])


class TestLinearExtensions:
    def test_fence_poset(self):
        assert linear_extensions(FENCE) == [
            (0, 1, 2, 3),
            (0, 1, 3, 2),
            (1, 0, 2, 3),
            (1, 0, 3, 2),
            (1, 3, 0, 2),
        ]

    def test_empty_poset(self):
        assert linear_extensions(poset_from_pairs(0, [])) == [()]

    def test_antichain_gives_all_permutations(self):
        assert len(linear_extensions(poset_from_pairs(3, []))) == 6

    def test_two_element_cycle_rejected(self):
        bad = Poset(frozenset({0, 1}), closure(BinaryRelation.from_pairs(2, [(0, 1), (1, 0)])))
        with pytest.raises(ValueError, match="antisymmetric"):
            linear_extensions(bad)
        with pytest.raises(ValueError, match="antisymmetric"):
            count_linear_extensions(bad)

    def test_elements_outside_the_order_rejected(self):
        order = closure(BinaryRelation.from_pairs(3, [(0, 1)]))
        for elements in ({0, 1, 5, 6}, {-1, 0}):
            with pytest.raises(ValueError, match="outside the ground set"):
                Poset(frozenset(elements), order)
        # In the ground set but not among the members, 2 would count as free.
        narrow = closure(BinaryRelation.from_pairs(3, [(0, 1)], members={0, 1}))
        with pytest.raises(ValueError, match="outside the order's members"):
            Poset(frozenset({0, 1, 2}), narrow)

    def test_matches_permutation_filter(self):
        rng = random.Random(97)
        for _ in range(150):
            poset = random_poset(rng)
            generated = linear_extensions(poset)
            assert set(generated) == compliant_permutations(poset)
            assert generated == sorted(generated)

    def test_every_extension_respects_the_order(self):
        rng = random.Random(101)
        for _ in range(60):
            poset = random_poset(rng)
            for extension in linear_extensions(poset):
                position = {x: at for at, x in enumerate(extension)}
                for x in poset.elements:
                    for y in poset.elements:
                        if x != y and poset.order.has(x, y):
                            assert position[x] < position[y]


class TestCounting:
    def test_fence_poset(self):
        assert count_linear_extensions(FENCE) == 5

    def test_chain_has_one(self):
        chain = poset_from_pairs(5, [(i, i + 1) for i in range(4)])
        assert count_linear_extensions(chain) == 1

    def test_two_below_one(self):
        # b < a and c < a leaves exactly two arrangements
        vee = poset_from_pairs(3, [(1, 0), (2, 0)])
        assert count_linear_extensions(vee) == 2
        assert linear_extensions(vee) == [(1, 2, 0), (2, 1, 0)]

    def test_matches_enumeration(self):
        rng = random.Random(103)
        for _ in range(150):
            poset = random_poset(rng)
            assert count_linear_extensions(poset) == len(linear_extensions(poset))


class TestLongChains:
    # Both walks once recursed one level per element and failed near 1000.
    SIZE = 1200

    def chain(self):
        full = (1 << self.SIZE) - 1
        rows = tuple(full >> i << i for i in range(self.SIZE))  # i below every j > i
        return Poset(frozenset(range(self.SIZE)), BinaryRelation(self.SIZE, rows, full))

    def test_generation(self):
        assert linear_extensions(self.chain()) == [tuple(range(self.SIZE))]

    def test_counting(self):
        assert count_linear_extensions(self.chain()) == 1


class TestRestriction:
    def test_drop_one_element(self):
        assert restrict_extension((0, 1, 2), {0, 1}) == (0, 1)

    def test_drop_everything(self):
        assert restrict_extension((1, 0, 2), set()) == ()

    def test_keep_everything(self):
        assert restrict_extension((1, 0, 2), {0, 1, 2}) == (1, 0, 2)

    def test_induced_subposet_inherits_comparabilities(self):
        sub = induced_subposet(FENCE, {1, 2, 3})
        assert sub.elements == frozenset({1, 2, 3})
        assert sub.order.has(1, 2) and sub.order.has(1, 3)
        assert not sub.order.has(2, 3)

    def test_induced_subposet_of_a_poset_built_from_a_list(self):
        sub = induced_subposet(Poset([0, 1, 2, 3], FENCE.order), [1, 2, 3])
        assert sub == induced_subposet(FENCE, {1, 2, 3})
        assert sub.elements == frozenset({1, 2, 3})

    def test_induced_subposet_rejects_indices_outside_the_ground_set(self):
        pair = poset_from_pairs(2, [(0, 1)])
        for subset in ([1, 5], [-1]):
            with pytest.raises(ValueError, match="outside the ground set"):
                induced_subposet(pair, subset)

    def test_restricted_extensions_cover_the_subposet(self):
        rng = random.Random(107)
        for _ in range(80):
            poset = random_poset(rng)
            elements = sorted(poset.elements)
            subset = {x for x in elements if rng.random() < 0.5}
            restricted = {
                restrict_extension(ext, subset) for ext in linear_extensions(poset)
            }
            assert restricted == set(linear_extensions(induced_subposet(poset, subset)))
