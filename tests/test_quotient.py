import random

import pytest

from decltrace import (
    BinaryRelation,
    closure,
    condense,
    downward_closure,
    expand_downset,
    implied_occurrence,
    is_antisymmetric,
    is_partial_order,
    restrict,
)
from support import (
    example_mixed_five,
    example_prec_six,
    preorder_downsets,
    random_process,
    random_relation,
)


def mutual_reachability_classes(pre):
    """Pairwise reference for the class partition."""
    members = pre.member_indices()
    out = set()
    for i in members:
        out.add(frozenset(j for j in members if pre.has(i, j) and pre.has(j, i)))
    return out


def pairwise_class_order(pre, classes):
    """Pairwise reference for the quotient order: c <= d when a member of c reaches one of d."""
    return {
        (c, d)
        for c, low in enumerate(classes)
        for d, high in enumerate(classes)
        if any(pre.has(x, y) for x in low for y in high)
    }


class TestAgainstPairwiseDefinitions:
    """``condense``, ``expand_downset`` and ``downward_closure`` read whole rows;
    these references test one pair at a time."""

    def test_random_preorders_on_partial_members(self):
        rng = random.Random(27)
        for _ in range(150):
            rel = random_relation(rng, max_n=8, density=rng.choice([0.1, 0.2, 0.4]))
            members = [i for i in range(rel.n) if rng.random() < 0.75]
            pre = closure(restrict(rel, members))
            q = condense(pre)
            classes = sorted(mutual_reachability_classes(pre), key=min)
            assert q.classes == tuple(classes)
            assert set(q.order.pairs()) == pairwise_class_order(pre, classes)
            for i in range(pre.n):
                found = [c for c, group in enumerate(classes) if i in group]
                assert q.class_of[i] == (found[0] if found else -1)
            subset = [x for x in members if rng.random() < 0.3]
            assert downward_closure(subset, pre) == frozenset(
                x for x in members if any(pre.has(x, y) for y in subset)
            )
            downsets = preorder_downsets(q.order)
            for pick in range(1 << len(classes)):
                chosen = [c for c in range(len(classes)) if pick >> c & 1]
                if frozenset(chosen) in downsets:
                    union = frozenset(x for c in chosen for x in classes[c])
                    assert expand_downset(q, chosen) == union
                else:
                    with pytest.raises(ValueError, match="not a down-set"):
                        expand_downset(q, chosen)
            assert {expand_downset(q, image) for image in downsets} == preorder_downsets(pre)


class TestCondense:
    def test_six_activity_example(self):
        p = example_prec_six()
        q = condense(implied_occurrence(p))
        a, b, c, d, e, f = range(6)
        assert q.classes == (
            frozenset({a}),
            frozenset({b}),
            frozenset({c}),
            frozenset({d, e}),
            frozenset({f}),
        )
        cls = {min(group): at for at, group in enumerate(q.classes)}
        assert q.order.has(cls[a], cls[c]) and q.order.has(cls[b], cls[c])
        assert q.order.has(cls[c], cls[d]) and q.order.has(cls[d], cls[f])
        assert not q.order.has(cls[c], cls[a])
        assert is_partial_order(q.order)

    def test_identity_preorder(self):
        q = condense(closure(BinaryRelation.from_pairs(2)))
        assert q.classes == (frozenset({0}), frozenset({1}))
        assert set(q.order.pairs()) == {(0, 0), (1, 1)}

    def test_five_activity_example(self):
        q = condense(implied_occurrence(example_mixed_five()))
        assert q.classes == (
            frozenset({0}),
            frozenset({1}),
            frozenset({2}),
            frozenset({3, 4}),
        )
        assert mutual_reachability_classes(implied_occurrence(example_mixed_five())) == set(
            q.classes
        )

    def test_class_of_lookup(self):
        q = condense(implied_occurrence(example_prec_six()))
        assert q.class_of[3] == q.class_of[4]
        assert q.class_of[0] != q.class_of[3]

    def test_rejects_non_preorder(self):
        with pytest.raises(ValueError, match="preorder"):
            condense(BinaryRelation.from_pairs(2, [(0, 1)]))

    def test_nontrivial_class_witnesses_antisymmetry_failure(self):
        rng = random.Random(53)
        for _ in range(100):
            p = random_process(rng, kinds=("prec", "resp"))
            occ = implied_occurrence(p)
            q = condense(occ)
            if any(len(group) >= 2 for group in q.classes):
                assert not is_antisymmetric(occ)
            else:
                assert is_antisymmetric(occ)


class TestExpandDownset:
    def test_empty(self):
        q = condense(implied_occurrence(example_mixed_five()))
        assert expand_downset(q, []) == frozenset()

    def test_three_singleton_classes(self):
        q = condense(implied_occurrence(example_mixed_five()))
        assert expand_downset(q, [0, 1, 2]) == frozenset({0, 1, 2})

    def test_all_classes_give_the_alphabet(self):
        q = condense(implied_occurrence(example_mixed_five()))
        assert expand_downset(q, range(len(q.classes))) == frozenset(range(5))

    def test_rejects_non_downset(self):
        q = condense(implied_occurrence(example_mixed_five()))
        with pytest.raises(ValueError, match="down-set"):
            expand_downset(q, [1])  # the class of b needs the class of a below it
        with pytest.raises(ValueError, match="class"):
            expand_downset(q, [99])
        # An index that names no class is reported before the down-set test.
        with pytest.raises(ValueError, match="no class with index 99"):
            expand_downset(q, [1, 99])

    def test_bijection_with_preorder_downsets(self):
        rng = random.Random(59)
        for _ in range(100):
            p = random_process(rng, kinds=("prec", "resp"))
            occ = implied_occurrence(p)
            q = condense(occ)
            quotient_downsets = preorder_downsets(q.order)
            expanded = {expand_downset(q, image) for image in quotient_downsets}
            assert expanded == preorder_downsets(occ)
            assert len(expanded) == len(quotient_downsets)
