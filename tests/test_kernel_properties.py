"""Differential properties of the bitmask relation kernel and the counts.

Each kernel result is compared with a direct reference: the brute-force
oracle, fixed-point closure, permutation filtering, or the textbook
definition, on small random processes, relations and posets.  Trace counts
are checked against the oracle's length histogram, against enumeration, and
against a closed form.  The lazy generators are checked against the oracle
and the lists, and for the memory they hold.  The possim walk of each
connected component is checked against the whole walk.  The ``possim``
command's bytes are checked against lines built from ``enumerate_possim``
and ``hasse_pairs``.
"""

import contextlib
import io
import tempfile
import tracemalloc
from math import factorial
from pathlib import Path

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from decltrace import (
    BinaryRelation,
    Poset,
    brute_force_traces,
    closure,
    condense,
    count_by_length,
    count_linear_extensions,
    count_traces,
    enumerate_possim,
    expand_successors,
    hasse_pairs,
    is_antisymmetric,
    iter_linear_extensions,
    iter_traces,
    linear_extensions,
    make_process,
    order_preserving,
    restrict,
    traces,
)
from decltrace.cli import main
from decltrace.linext import _count, _extensions
from decltrace.possim import PossimContext, _walk
from decltrace.relations import _bits, _mask
from decltrace.traces import _components
from support import (
    KINDS,
    LETTERS,
    closure_by_iteration,
    compliant_permutations,
    example_split_class,
)

MAX_N = 7


@st.composite
def processes(draw, kinds=KINDS, max_n=MAX_N):
    n = draw(st.integers(1, max_n))
    constraints = []
    if n >= 2:
        pairs = st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)).filter(lambda p: p[0] != p[1])
        for i, j in draw(st.lists(pairs, max_size=8)):
            constraints.append((draw(st.sampled_from(kinds)), LETTERS[i], LETTERS[j]))
    return make_process(LETTERS[:n], constraints)


@st.composite
def disjoint_unions(draw):
    """Two random processes of n <= 4 side by side, their activities interleaved."""
    sizes = draw(st.integers(1, 4)), draw(st.integers(1, 4))
    placed = draw(st.permutations(LETTERS[: sum(sizes)]))
    parts = placed[: sizes[0]], placed[sizes[0] :]
    constraints = []
    for part in parts:
        if len(part) >= 2:
            pairs = st.tuples(st.sampled_from(part), st.sampled_from(part)).filter(
                lambda p: p[0] != p[1]
            )
            for a, b in draw(st.lists(pairs, max_size=5)):
                constraints.append((draw(st.sampled_from(KINDS)), a, b))
    return make_process(LETTERS[: sum(sizes)], constraints)


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
# A mutual class {a, c} with b between its members, alone and beside a dead pair.
@example(example_split_class())
@example(example_split_class(dead_pair=True))
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




@given(processes())
def test_image_extensions_are_the_sorted_compliant_permutations(process):
    for poset in image_posets(process):
        assert linear_extensions(poset) == sorted(compliant_permutations(poset))


def two_element_poset(pairs) -> Poset:
    return Poset(frozenset({0, 1}), closure(BinaryRelation.from_pairs(2, pairs)))


@given(posets())
@example(Poset(frozenset(), BinaryRelation.from_pairs(0, [])))
@example(Poset(frozenset({0}), BinaryRelation.from_pairs(1, [(0, 0)])))
@example(Poset(frozenset({2}), BinaryRelation.from_pairs(3, [(2, 2)])))
@example(two_element_poset([]))
@example(two_element_poset([(0, 1)]))
@example(two_element_poset([(1, 0)]))
def test_extensions_are_the_sorted_compliant_permutations(poset):
    lazy = list(iter_linear_extensions(poset))
    assert lazy == linear_extensions(poset) == sorted(compliant_permutations(poset))


@st.composite
def cyclic_orders(draw):
    """A closed relation on all of 0..n-1 with at least one pair of distinct elements both ways."""
    n = draw(st.integers(2, MAX_N))
    i, j = draw(st.permutations(range(n)))[:2]
    pairs = draw(st.lists(st.tuples(st.integers(0, n - 1), st.integers(0, n - 1)), max_size=n * n))
    return Poset(frozenset(range(n)), closure(BinaryRelation.from_pairs(n, [*pairs, (i, j), (j, i)])))


@given(cyclic_orders())
def test_lazy_extensions_reject_a_cycle_at_the_call(poset):
    with pytest.raises(ValueError, match="antisymmetric"):
        iter_linear_extensions(poset)  # never advanced: validation is eager


@pytest.mark.parametrize("kinds", [KINDS, ("prec",), ("resp",), ("succ",)], ids="-".join)
@given(data=st.data())
def test_lazy_traces_are_the_oracle_traces(kinds, data):
    process = data.draw(processes(kinds))
    assert list(iter_traces(process)) == brute_force_traces(process)


def test_lazy_traces_hold_no_trace_list():
    # 8 unconstrained activities: 109,601 traces from 256 images.  As a list
    # the traces take about 10 MiB; streamed, only the images and one
    # extension generator per image of the current size stay alive.
    process = make_process([f"a{i}" for i in range(8)])
    tracemalloc.start()
    try:
        emitted = sum(1 for _ in iter_traces(process))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert emitted == 109_601
    assert peak < 2 << 20


@st.composite
def generating_graphs(draw):
    """An element mask and acyclic graph rows: forward edges along a shuffled axis.

    The graph is not closed, may hold transitively redundant edges and self
    loops, and may have edges to nodes outside the elements.
    """
    n = draw(st.integers(0, MAX_N))
    axis = draw(st.permutations(range(n)))
    rows = [1 << v if draw(st.booleans()) else 0 for v in range(n)]
    for i in range(n):
        for j in range(i + 1, n):
            if draw(st.booleans()):
                rows[axis[i]] |= 1 << axis[j]
    elements = draw(st.sets(st.integers(0, n - 1))) if n else set()
    return _mask(elements), tuple(rows)


@given(generating_graphs())
@example((0, ()))
@example((0b1, (0,)))
@example((0b111, (0b110, 0b100, 0)))  # a -> b -> c, plus the redundant a -> c
def test_graph_extensions_and_count_match_the_closed_poset(graph):
    elements, rows = graph
    n = len(rows)
    members = frozenset(_bits(elements))
    # Edges leaving the elements are ignored: restrict first, then close.
    order = closure(restrict(BinaryRelation(n, rows, (1 << n) - 1), members))
    poset = Poset(members, order)
    assert list(_extensions(elements, rows)) == linear_extensions(poset)
    assert _count(elements, rows) == count_linear_extensions(poset)


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


def process_text(process) -> str:
    lines = ["activities " + " ".join(process.names())]
    lines += [f"{c.kind.value} {c.source.name} {c.target.name}" for c in process.constraints]
    return "\n".join(lines) + "\n"


def reference_possim_output(process) -> str:
    """The ``possim`` lines built from ``enumerate_possim`` and ``hasse_pairs``."""
    names = process.names()
    lines = []
    for downset in enumerate_possim(process):
        line = "{" + ",".join(names[i] for i in sorted(downset.members)) + "}"
        covers = hasse_pairs(downset.order)
        if covers:
            line += " " + " ".join(f"{names[i]}<{names[j]}" for i, j in covers)
        lines.append(line + "\n")
    return "".join(lines)


@given(st.one_of([processes(kinds, max_n=8) for kinds in (KINDS, ("prec",), ("resp",), ("succ",))]))
# A redundant edge: a<c follows from a<b<c and is no cover.
@example(make_process("abc", [("prec", "a", "b"), ("prec", "b", "c"), ("prec", "a", "c")]))
# A resp edge pointing down the occurrence order, from c to the lower index a.
@example(make_process("abc", [("resp", "c", "a"), ("prec", "b", "a")]))
# A contradictory two-activity class, a dead subtree of the walk, beside a
# free activity.
@example(make_process("abc", [("succ", "a", "b"), ("succ", "b", "a")]))
def test_possim_cli_prints_the_reference_covers(process):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.proc"
        path.write_text(process_text(process), encoding="utf-8")
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            assert main(["possim", str(path)]) == 0
    assert out.getvalue() == reference_possim_output(process)


@given(relations())
def test_antisymmetry_matches_its_definition(rel):
    members = rel.member_indices()
    expected = not any(
        i != j and rel.has(i, j) and rel.has(j, i) for i in members for j in members
    )
    assert is_antisymmetric(rel) == expected


def length_histogram(process) -> list[int]:
    counts = []
    for trace in brute_force_traces(process):
        counts.extend([0] * (len(trace) + 1 - len(counts)))
        counts[len(trace)] += 1
    return counts


@given(processes())
def test_counts_by_length_match_the_oracle(process):
    assert count_by_length(process) == length_histogram(process)


@given(disjoint_unions())
# A contradictory two-activity class, whose image is a dead subtree of the
# walk, beside a free activity.
@example(make_process("abc", [("succ", "a", "b"), ("succ", "b", "a")]))
def test_counts_by_length_join_disjoint_processes(process):
    assert count_by_length(process) == length_histogram(process)


@given(st.one_of(processes(), disjoint_unions()))
@example(example_split_class(dead_pair=True))
def test_component_walks_are_the_whole_walk_split(process):
    ctx = PossimContext.of(process)
    whole = [(members, generator) for members, generator, _ in _walk(ctx, (1 << process.n) - 1)]
    for component in _components(process):
        inside = [(m, g) for m, g, _ in _walk(ctx, component)]
        assert sorted(inside) == sorted(image for image in whole if not image[0] & ~component)


def test_count_equals_enumeration_on_the_acceptance_batch(instance_batch):
    for process in instance_batch:
        assert count_traces(process) == len(traces(process))


def test_unconstrained_counts_are_partial_permutations():
    n = 20
    process = make_process([f"a{i}" for i in range(n)])
    expected = [factorial(n) // factorial(n - k) for k in range(n + 1)]
    assert count_by_length(process) == expected
    assert count_traces(process) == sum(expected)
