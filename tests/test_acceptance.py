"""Acceptance checks: known-result examples at their timing budgets plus the
bulk randomized properties, one printed pass/fail line per criterion."""

import random
import time
from contextlib import contextmanager

from decltrace import (
    BinaryRelation,
    Independence,
    Poset,
    PossimContext,
    brute_force_traces,
    closure,
    count_linear_extensions,
    enumerate_possim,
    implied_occurrence,
    induced_subposet,
    is_independent,
    linear_extensions,
    max_elements,
    maximum_image,
    order_preserving,
    restrict_extension,
    traces,
    traces_general,
    traces_precedence_only,
    traces_response_only,
    traces_successor_only,
    transpose,
)
from decltrace.model import ProcessClass, classify
from support import (
    closure_by_iteration,
    example_mixed_five,
    example_mixed_three,
    example_prec_six,
    random_poset,
    random_process,
    random_relation,
    words,
)

EXAMPLE_TIME_BUDGET = 0.010
BATCH_TIME_BUDGET = 60.0


@contextmanager
def criterion(label):
    try:
        yield
    except BaseException:
        print(f"[acceptance] {label}: FAIL")
        raise
    print(f"[acceptance] {label}: PASS")


def timed(fn, *args):
    fn(*args)  # warm up
    start = time.perf_counter()
    result = fn(*args)
    return result, time.perf_counter() - start


def test_criterion_1_three_activity_example():
    with criterion("1 three-activity mixed example"):
        p = example_mixed_three()
        result, elapsed = timed(traces, p)
        assert set(words(p, result)) == {"", "b", "ba", "cba", "bca"}
        assert len(result) == 5
        assert elapsed < EXAMPLE_TIME_BUDGET


def test_criterion_2_five_activity_example():
    with criterion("2 five-activity mixed example"):
        p = example_mixed_five()
        images, elapsed_images = timed(enumerate_possim, p)
        a, b, c = 0, 1, 2
        assert [d.members for d in images] == [
            frozenset(),
            frozenset({a}),
            frozenset({a, b}),
            frozenset({a, c}),
            frozenset({a, b, c}),
        ]
        result, elapsed_traces = timed(traces, p)
        assert words(p, result) == ["", "a", "ba", "ca", "bca", "cba"]
        # the full alphabet is a down-set but its inner order is cyclic, so
        # the final independence step must reject it
        assert frozenset(range(5)) not in {d.members for d in images}
        verdict, _ = is_independent({p.index_of("d")}, PossimContext.of(p))
        assert verdict is Independence.FAILS_ANTISYMMETRY
        assert elapsed_images + elapsed_traces < EXAMPLE_TIME_BUDGET


def test_criterion_3_precedence_only_example():
    with criterion("3 six-activity precedence-only example"):
        p = example_prec_six()
        core, elapsed_core = timed(maximum_image, p)
        assert core == frozenset({0, 1, 2})
        result, elapsed_traces = timed(traces, p)
        assert words(p, result) == ["", "a", "b", "ab", "ba", "abc", "bac"]
        images = enumerate_possim(p)
        assert [d.members for d in images] == [
            frozenset(),
            frozenset({0}),
            frozenset({1}),
            frozenset({0, 1}),
            frozenset({0, 1, 2}),
        ]
        # the core maxima generate a power set: each image meets them in a
        # distinct subset, every subset occurs, and each such subset is
        # itself a recorded generator
        core_max = max_elements(core, implied_occurrence(p))
        assert core_max == frozenset({2})
        met = {d.members & core_max for d in images}
        assert met == {frozenset(), frozenset({2})}
        assert met <= {d.generator for d in images}
        assert elapsed_core + elapsed_traces < EXAMPLE_TIME_BUDGET


def test_criterion_4_fence_poset_extensions():
    with criterion("4 four-element fence poset"):
        order = closure(BinaryRelation.from_pairs(4, [(0, 2), (1, 2), (1, 3)]))
        poset = Poset(frozenset(range(4)), order)
        extensions = linear_extensions(poset)
        assert extensions == [
            (0, 1, 2, 3),
            (0, 1, 3, 2),
            (1, 0, 2, 3),
            (1, 0, 3, 2),
            (1, 3, 0, 2),
        ]
        assert count_linear_extensions(poset) == 5


def test_criterion_5_oracle_equivalence(instance_batch):
    with criterion("5 oracle equivalence on 1000 random processes"):
        start = time.perf_counter()
        specialized = {
            ProcessClass.PRECEDENCE_ONLY: traces_precedence_only,
            ProcessClass.RESPONSE_ONLY: traces_response_only,
            ProcessClass.SUCCESSOR_ONLY: traces_successor_only,
        }
        mismatches = 0
        for p in instance_batch:
            reference = brute_force_traces(p)
            if traces(p) != reference or traces_general(p) != reference:
                mismatches += 1
                continue
            path = specialized.get(classify(p))
            if path is not None and path(p) != reference:
                mismatches += 1
        elapsed = time.perf_counter() - start
        assert mismatches == 0
        assert elapsed < BATCH_TIME_BUDGET


def test_criterion_6_unique_decomposition_counts(instance_batch):
    with criterion("6 per-image extension counts sum to the trace count"):
        for p in instance_batch:
            per_image = sum(
                count_linear_extensions(Poset(d.members, d.order))
                for d in enumerate_possim(p)
            )
            assert per_image == len(traces(p))


def test_criterion_7_generator_system_is_subset_closed(instance_batch):
    with criterion("7 generator sets form a subset-closed system"):
        rng = random.Random(555)
        for p in instance_batch:
            ctx = PossimContext.of(p)
            for downset in enumerate_possim(p):
                generator = sorted(downset.generator)
                samples = [generator]
                samples.extend(
                    [x for x in generator if rng.random() < 0.5] for _ in range(3)
                )
                for subset in samples:
                    verdict, _ = is_independent(subset, ctx)
                    assert verdict is Independence.INDEPENDENT


def test_criterion_8_restriction_covers_induced_subposets():
    with criterion("8 restricted extensions cover induced subposets"):
        rng = random.Random(777)
        for _ in range(200):
            poset = random_poset(rng)
            subset = {x for x in poset.elements if rng.random() < 0.5}
            restricted = {
                restrict_extension(ext, subset) for ext in linear_extensions(poset)
            }
            assert restricted == set(linear_extensions(induced_subposet(poset, subset)))


def test_criterion_9_relation_kernel_properties():
    with criterion("9 closure kernel and single-kind identities"):
        rng = random.Random(999)
        for _ in range(500):
            rel = random_relation(rng)
            closed = closure(rel)
            assert set(closed.pairs()) == closure_by_iteration(rel)
            assert closure(closed) == closed
            assert set(rel.pairs()) <= set(closed.pairs())
            assert all(closed.has(i, i) for i in closed.member_indices())
            pairs = set(closed.pairs())
            assert all((a, d) in pairs for (a, b) in pairs for (c, d) in pairs if b == c)
        for _ in range(150):
            p = random_process(rng, kinds=("prec",))
            assert implied_occurrence(p) == closure(order_preserving(p))
        for _ in range(150):
            p = random_process(rng, kinds=("resp",))
            assert implied_occurrence(p) == transpose(closure(order_preserving(p)))
