import random
from itertools import combinations

import pytest

from decltrace import (
    DownSet,
    Independence,
    PossimContext,
    brute_force_traces,
    downward_closure,
    enumerate_possim,
    implied_occurrence,
    is_antisymmetric,
    is_independent,
    make_process,
    max_elements,
    order_on_downset,
)
from support import (
    example_mixed_five,
    example_mixed_three,
    example_prec_six,
    example_split_class,
    preorder_downsets,
    random_process,
)


def member_sets(downsets: list[DownSet]) -> list[frozenset]:
    return [d.members for d in downsets]


class TestMaxAndClosure:
    def test_max_of_five_example_image(self):
        occ = implied_occurrence(example_mixed_five())
        assert max_elements({0, 1, 2}, occ) == frozenset({1, 2})

    def test_max_of_empty(self):
        occ = implied_occurrence(example_mixed_five())
        assert max_elements(set(), occ) == frozenset()

    def test_max_of_six_example_core(self):
        occ = implied_occurrence(example_prec_six())
        assert max_elements({0, 1, 2}, occ) == frozenset({2})

    def test_downward_closure_of_single_generator(self):
        occ = implied_occurrence(example_mixed_five())
        assert downward_closure({1}, occ) == frozenset({0, 1})

    def test_downward_closure_of_empty(self):
        occ = implied_occurrence(example_mixed_five())
        assert downward_closure(set(), occ) == frozenset()

    def test_downward_closure_reaches_through_cycles(self):
        occ = implied_occurrence(example_mixed_five())
        assert downward_closure({3}, occ) == frozenset(range(5))

    def test_max_rejects_indices_outside_the_preorder(self):
        occ = implied_occurrence(make_process(["a"]))
        for bad in ([7], [-1], [0, 1]):
            with pytest.raises(ValueError, match="subset outside the ground set"):
                max_elements(bad, occ)

    def test_downward_closure_rejects_indices_outside_the_preorder(self):
        occ = implied_occurrence(make_process(["a"]))
        for bad in ([7], [-1], [0, 1]):
            with pytest.raises(ValueError, match="subset outside the ground set"):
                downward_closure(bad, occ)

    def test_mutually_inverse_on_downsets(self):
        rng = random.Random(61)
        for _ in range(80):
            p = random_process(rng, kinds=("prec", "resp"))
            occ = implied_occurrence(p)
            for downset in preorder_downsets(occ):
                assert downward_closure(max_elements(downset, occ), occ) == downset


class TestIsIndependent:
    def test_independent_antichain(self):
        ctx = PossimContext.of(example_mixed_five())
        verdict, downset = is_independent({1, 2}, ctx)
        assert verdict is Independence.INDEPENDENT
        assert downset.members == frozenset({0, 1, 2})
        assert downset.generator == frozenset({1, 2})
        assert is_antisymmetric(downset.order)

    def test_comparable_pair_fails_antichain(self):
        ctx = PossimContext.of(example_mixed_five())
        verdict, downset = is_independent({1, 3}, ctx)
        assert verdict is Independence.FAILS_ANTICHAIN
        assert downset is None

    def test_cyclic_image_fails_antisymmetry(self):
        ctx = PossimContext.of(example_mixed_five())
        verdict, downset = is_independent({3}, ctx)
        assert verdict is Independence.FAILS_ANTISYMMETRY
        assert downset is None

    def test_empty_set_is_independent(self):
        ctx = PossimContext.of(example_mixed_five())
        verdict, downset = is_independent(set(), ctx)
        assert verdict is Independence.INDEPENDENT
        assert downset.members == frozenset()

    def test_mutually_reachable_pair_can_still_generate(self):
        # within one occurrence class the antichain check must not trip
        ctx = PossimContext.of(make_process("ab", [("succ", "a", "b")]))
        verdict, downset = is_independent({0, 1}, ctx)
        assert verdict is Independence.INDEPENDENT
        assert downset.members == frozenset({0, 1})

    def test_rejects_indices_outside_the_process(self):
        ctx = PossimContext.of(make_process(["a"]))
        for bad in ([7], [-1], [0, 1]):
            with pytest.raises(ValueError, match="subset outside the ground set"):
                is_independent(bad, ctx)


class TestEnumerate:
    def test_five_example(self):
        downsets = enumerate_possim(example_mixed_five())
        a, b, c = 0, 1, 2
        assert member_sets(downsets) == [
            frozenset(),
            frozenset({a}),
            frozenset({a, b}),
            frozenset({a, c}),
            frozenset({a, b, c}),
        ]

    def test_single_activity(self):
        assert member_sets(enumerate_possim(make_process("a"))) == [
            frozenset(),
            frozenset({0}),
        ]

    def test_three_example_matches_oracle_images(self):
        p = example_mixed_three()
        expected = {frozenset(t) for t in brute_force_traces(p)}
        assert set(member_sets(enumerate_possim(p))) == expected
        assert member_sets(enumerate_possim(p)) == [
            frozenset(),
            frozenset({1}),
            frozenset({0, 1}),
            frozenset({0, 1, 2}),
        ]

    def test_empty_image_always_first(self):
        rng = random.Random(67)
        for _ in range(30):
            downsets = enumerate_possim(random_process(rng))
            assert downsets[0].members == frozenset()

    def test_sorted_and_duplicate_free(self):
        rng = random.Random(71)
        for _ in range(60):
            downsets = enumerate_possim(random_process(rng))
            keys = [(len(d.members), sorted(d.members)) for d in downsets]
            assert keys == sorted(keys)
            assert len(set(member_sets(downsets))) == len(downsets)

    def test_matches_oracle_images(self):
        rng = random.Random(73)
        for _ in range(150):
            p = random_process(rng)
            expected = {frozenset(t) for t in brute_force_traces(p)}
            assert set(member_sets(enumerate_possim(p))) == expected

    def test_matches_unpruned_downset_filter(self):
        # pruning must drop nothing: compare against filtering every
        # occurrence down-set by antisymmetry of its inner order
        rng = random.Random(79)
        for _ in range(80):
            p = random_process(rng)
            ctx = PossimContext.of(p)
            expected = {
                downset
                for downset in preorder_downsets(ctx.occurrence)
                if is_antisymmetric(order_on_downset(ctx.process, downset))
            }
            assert set(member_sets(enumerate_possim(p))) == expected

    def test_certified_fields(self):
        rng = random.Random(83)
        fixed = [example_split_class(), example_split_class(dead_pair=True)]
        for p in [*fixed, *(random_process(rng) for _ in range(60))]:
            ctx = PossimContext.of(p)
            for downset in enumerate_possim(p):
                assert downset.order == order_on_downset(ctx.process, downset.members)
                assert downset.generator == max_elements(downset.members, ctx.occurrence)
                assert downward_closure(downset.generator, ctx.occurrence) == downset.members

    def test_generator_subsets_stay_independent(self):
        rng = random.Random(89)
        for _ in range(60):
            p = random_process(rng)
            ctx = PossimContext.of(p)
            for downset in enumerate_possim(p):
                generator = sorted(downset.generator)
                for size in range(len(generator) + 1):
                    for subset in combinations(generator, size):
                        verdict, _ = is_independent(subset, ctx)
                        assert verdict is Independence.INDEPENDENT

    def test_long_precedence_chain(self):
        # The walk once recursed one level per image and failed near 1000.
        names = [f"a{i}" for i in range(1100)]
        process = make_process(names, [("prec", x, y) for x, y in zip(names, names[1:])])
        images = enumerate_possim(process)
        assert len(images) == 1101
        assert [d.members for d in images] == [frozenset(range(size)) for size in range(1101)]
