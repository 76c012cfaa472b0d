import random

import pytest

from decltrace import (
    BinaryRelation,
    closure,
    expand_successors,
    hasse_pairs,
    implied_occurrence,
    is_antisymmetric,
    is_partial_order,
    is_preorder,
    make_process,
    order_on_downset,
    order_preserving,
    restrict,
    transpose,
)
from support import (
    closure_by_iteration,
    example_mixed_five,
    example_mixed_three,
    example_three_chainish,
    preorder_downsets,
    random_process,
    random_relation,
)


class TestClosure:
    def test_two_step_chain(self):
        rel = closure(BinaryRelation.from_pairs(3, [(0, 1), (1, 2)]))
        assert set(rel.pairs()) == {(0, 0), (1, 1), (2, 2), (0, 1), (1, 2), (0, 2)}

    def test_empty_relation_gains_reflexivity(self):
        rel = closure(BinaryRelation.from_pairs(1))
        assert set(rel.pairs()) == {(0, 0)}

    def test_cycle_links_everything_reachable(self):
        # the unclosed ordering relation of the five-activity example has a
        # four-element cycle through a, d, e, c once closed
        closed = closure(order_preserving(example_mixed_five()))
        assert closed.has(0, 4) and closed.has(4, 0)
        assert set(closed.pairs()) == closure_by_iteration(order_preserving(example_mixed_five()))

    def test_matches_fixed_point_oracle(self):
        rng = random.Random(23)
        for _ in range(200):
            rel = random_relation(rng)
            assert set(closure(rel).pairs()) == closure_by_iteration(rel)

    def test_idempotent_monotone_reflexive_transitive(self):
        rng = random.Random(29)
        for _ in range(200):
            rel = random_relation(rng)
            closed = closure(rel)
            assert closure(closed) == closed
            assert set(rel.pairs()) <= set(closed.pairs())
            assert all(closed.has(i, i) for i in closed.member_indices())
            pairs = set(closed.pairs())
            assert all((a, d) in pairs for (a, b) in pairs for (c, d) in pairs if b == c)

    def test_respects_membership_mask(self):
        rel = restrict(BinaryRelation.from_pairs(4, [(0, 1)]), [0, 1])
        closed = closure(rel)
        assert not closed.has(2, 2) and not closed.has(3, 3)
        assert closed.has(0, 0) and closed.has(0, 1)


class TestBasicOperations:
    def test_transpose_flips_pairs(self):
        rel = BinaryRelation.from_pairs(2, [(0, 1)])
        assert set(transpose(rel).pairs()) == {(1, 0)}

    def test_transpose_is_involutive(self):
        rng = random.Random(31)
        for _ in range(50):
            rel = random_relation(rng)
            assert transpose(transpose(rel)) == rel

    def test_restrict_keeps_global_indices(self):
        rel = BinaryRelation.from_pairs(4, [(0, 1), (1, 3), (2, 3)])
        cut = restrict(rel, [1, 3])
        assert set(cut.pairs()) == {(1, 3)}
        assert cut.member_indices() == [1, 3]
        assert cut.n == 4

    def test_restrict_rejects_out_of_range(self):
        with pytest.raises(ValueError):
            restrict(BinaryRelation.from_pairs(2), [5])

    def test_antisymmetry_detects_two_cycles(self):
        assert not is_antisymmetric(BinaryRelation.from_pairs(2, [(0, 1), (1, 0)]))
        assert is_antisymmetric(BinaryRelation.from_pairs(2, [(0, 1), (0, 0)]))

    def test_relation_validates_members(self):
        with pytest.raises(ValueError):
            BinaryRelation(2, (0b10, 0), 0b01)

    @pytest.mark.parametrize(
        "rows, members, message",
        [
            ((0, 0), 0b100, "members mask outside the ground set"),
            ((0, 0), -1, "members mask outside the ground set"),
            ((0,), 0b11, "need exactly one row per ground-set index"),
            ((0, 0, 0), 0b11, "need exactly one row per ground-set index"),
            ((0b100, 0), 0b11, "all pairs must lie inside the members mask"),
            ((0, 0b01), 0b01, "all pairs must lie inside the members mask"),
            ((0, 0b10), 0b01, "all pairs must lie inside the members mask"),
        ],
    )
    def test_relation_rejects_each_malformed_part(self, rows, members, message):
        with pytest.raises(ValueError, match=message):
            BinaryRelation(2, rows, members)

    def test_from_pairs_rejects_negative_members(self):
        with pytest.raises(ValueError, match="^subset outside the ground set$"):
            BinaryRelation.from_pairs(3, [], members=[-1])

    def test_from_pairs_rejects_a_pair_outside_the_ground_set(self):
        with pytest.raises(ValueError, match=r"^pair \(0, 2\) outside the ground set$"):
            BinaryRelation.from_pairs(2, [(0, 2)])

    def test_from_pairs_rejects_a_negative_size(self):
        with pytest.raises(ValueError, match="^ground-set size -1 is negative$"):
            BinaryRelation.from_pairs(-1)

    def test_relation_rejects_a_negative_size(self):
        with pytest.raises(ValueError, match="^ground-set size -1 is negative$"):
            BinaryRelation(-1, (), 0)

    def test_hasse_pairs_drop_transitive_edges(self):
        rel = closure(BinaryRelation.from_pairs(3, [(0, 1), (1, 2)]))
        assert hasse_pairs(rel) == [(0, 1), (1, 2)]

    def test_hasse_pairs_reject_a_cycle(self):
        rel = closure(BinaryRelation.from_pairs(2, [(0, 1), (1, 0)]))
        with pytest.raises(ValueError, match="^relation is not a partial order$"):
            hasse_pairs(rel)

    def test_hasse_pairs_reject_an_unclosed_relation(self):
        # Closed, (0, 3) would not be a cover: 1 and 2 lie between.
        rel = BinaryRelation.from_pairs(4, [(0, 1), (1, 2), (2, 3), (0, 3)])
        with pytest.raises(ValueError, match="^relation is not a partial order$"):
            hasse_pairs(rel)


class TestImpliedOccurrence:
    def test_mixed_three_is_a_chain(self):
        p = example_mixed_three()
        expected = closure(BinaryRelation.from_pairs(3, [(1, 0), (0, 2)]))
        assert implied_occurrence(p) == expected

    def test_five_example_downsets(self):
        p = example_mixed_five()
        occ = implied_occurrence(p)
        a, b, c, d, e = range(5)
        assert preorder_downsets(occ) == {
            frozenset(),
            frozenset({a}),
            frozenset({a, b}),
            frozenset({a, c}),
            frozenset({a, b, c}),
            frozenset({a, b, c, d, e}),
        }

    def test_no_constraints_yields_identity(self):
        occ = implied_occurrence(make_process("abc"))
        assert set(occ.pairs()) == {(i, i) for i in range(3)}

    def test_always_a_preorder(self):
        rng = random.Random(37)
        for _ in range(100):
            p = random_process(rng, kinds=("prec", "resp"))
            assert is_preorder(implied_occurrence(p))

    def test_successors_read_as_their_expansion(self):
        # ``succ a b`` is ``prec a b`` plus ``resp a b`` in both relations.
        rng = random.Random(41)
        with_successors = 0
        for _ in range(400):
            p = random_process(rng, max_n=8)
            expanded = expand_successors(p)
            with_successors += expanded != p
            assert implied_occurrence(p) == implied_occurrence(expanded)
            assert order_preserving(p) == order_preserving(expanded)
        assert with_successors >= 200


class TestOrderPreserving:
    def test_five_example_pairs(self):
        p = example_mixed_five()
        a, b, c, d, e = range(5)
        assert set(order_preserving(p).pairs()) == {
            (b, a), (c, a), (d, e), (e, c), (a, d), (b, d),
        }

    def test_three_chainish_pairs(self):
        p = example_three_chainish()
        assert set(order_preserving(p).pairs()) == {(0, 1), (1, 2)}

    def test_empty(self):
        assert set(order_preserving(make_process("ab")).pairs()) == set()


class TestOrderOnDownset:
    def test_five_example_inner_order(self):
        p = example_mixed_five()
        a, b, c = 0, 1, 2
        expected = closure(restrict(BinaryRelation.from_pairs(5, [(b, a), (c, a)]), [a, b, c]))
        assert order_on_downset(p, [a, b, c]) == expected
        assert hasse_pairs(order_on_downset(p, [a, b, c])) == [(1, 0), (2, 0)]

    def test_empty_downset(self):
        rel = order_on_downset(example_mixed_five(), [])
        assert set(rel.pairs()) == set()

    def test_unrelated_pair_stays_free(self):
        # with the middle activity absent there is no ordering obligation
        # between the endpoints, so restriction must happen before closure
        p = example_three_chainish()
        inner = order_on_downset(p, [0, 2])
        assert not inner.has(0, 2)
        wrong = restrict(closure(order_preserving(p)), [0, 2])
        assert wrong.has(0, 2)

    def test_full_alphabet_of_five_example_is_cyclic(self):
        assert not is_antisymmetric(order_on_downset(example_mixed_five(), range(5)))

    def test_partial_order_on_images(self):
        assert is_partial_order(order_on_downset(example_mixed_five(), [0, 1, 2]))


class TestSingleKindIdentities:
    def test_precedence_only_closure_identity(self):
        rng = random.Random(41)
        for _ in range(100):
            p = random_process(rng, kinds=("prec",))
            assert implied_occurrence(p) == closure(order_preserving(p))

    def test_response_only_transpose_identity(self):
        rng = random.Random(43)
        for _ in range(100):
            p = random_process(rng, kinds=("resp",))
            assert implied_occurrence(p) == transpose(closure(order_preserving(p)))

    def test_precedence_only_restriction_commutes_on_downsets(self):
        rng = random.Random(47)
        for _ in range(50):
            p = random_process(rng, kinds=("prec",))
            occ = implied_occurrence(p)
            for downset in preorder_downsets(occ):
                assert order_on_downset(p, downset) == restrict(occ, downset)
