"""Differential properties of the bitmask relation kernel and the counts.

Each kernel result is compared with a direct reference: the brute-force
oracle, fixed-point closure, permutation filtering, or the textbook
definition, on small random processes, relations and posets.  Trace counts
are checked against the oracle's length histogram, against enumeration, and
against a closed form.  The occurrence rows, which carry the one reading
of constraint kinds, are checked against what the oracle's traces force.
The lazy generators are checked against the oracle and the lists, and for
the memory they hold; the trace listing, as tuples and as the CLI's text
and JSON bytes, against the heap merge of per-image extensions.  The
finished sets of the placed-set pass are checked against the possim walk's
images, and all its kept sets against the prefix sets of the oracle's
traces.  The ``possim`` command's bytes are
checked against lines built from ``enumerate_possim`` and ``hasse_pairs``.
On single-kind processes ``maximum_image`` is checked against the union of
the walk's images.
"""

import contextlib
import io
import json
import sys
import tempfile
import tracemalloc
from collections import Counter
from itertools import islice, permutations
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
    implied_occurrence,
    is_antisymmetric,
    iter_linear_extensions,
    iter_traces,
    linear_extensions,
    make_process,
    maximum_image,
    order_preserving,
    restrict,
    traces,
)
from decltrace.cli import WRITE_BATCH, _text, _trace_lines, main
from decltrace.linext import _count, _extensions
from decltrace.possim import _topological_order, _walk
from decltrace.relations import _bits, _mask
from decltrace.traces import _graphs, _layers
from support import (
    KINDS,
    LETTERS,
    closure_by_iteration,
    compliant_permutations,
    example_split_class,
    merged_traces,
    text_lines,
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
def test_occurrence_rows_are_what_the_oracle_traces_force(process):
    # b forces exactly the activities that every trace holding b holds.
    occurrence = implied_occurrence(process)
    images = {frozenset(t) for t in brute_force_traces(process)}
    for b in range(process.n):
        holding = [image for image in images if b in image]
        if holding:
            forced = {a for a in range(process.n) if occurrence.has(a, b)}
            assert forced == frozenset.intersection(*holding)


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
    # the traces take about 10 MiB; streamed, only the placed sets, their
    # moves, one prefix per depth and the completions of sets of at most
    # BLOCK stay alive.
    process = make_process([f"a{i}" for i in range(8)])
    tracemalloc.start()
    try:
        emitted = sum(1 for _ in iter_traces(process))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert emitted == 109_601
    assert peak < 2 << 20


def test_short_traces_come_before_the_long_images_are_found():
    # 60 unconstrained activities have 2^60 images, but the 3601 traces of
    # length at most 2 need only the placed sets of size at most 2.
    process = make_process([f"a{i}" for i in range(60)])
    expected = [t for k in range(3) for t in permutations(range(60), k)]
    assert list(islice(iter_traces(process), 3601)) == expected


def traces_stdout(process) -> dict[str, str]:
    """The stdout of ``decltrace traces`` on ``process``, per format."""
    printed = {}
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "p.proc"
        path.write_text(process_text(process), encoding="utf-8")
        for fmt in ("text", "json"):
            out = io.StringIO()
            with contextlib.redirect_stdout(out):
                assert main(["traces", "--format", fmt, str(path)]) == 0
            printed[fmt] = out.getvalue()
    return printed


def chain_into(length: int, tail: str, constraints=()):
    """A ``prec`` chain c0 -> ... of ``length`` activities, then the
    single-letter activities of ``tail``, each only after the chain's last
    activity, under ``constraints`` among themselves.  The chain's placed
    sets have one move each, so their completions are built by walking the
    run to the set of the whole chain."""
    chain = [f"c{i}" for i in range(length)]
    links = [("prec", a, b) for a, b in zip(chain, chain[1:])]
    return make_process(
        chain + list(tail), links + [("prec", chain[-1], t) for t in tail] + list(constraints)
    )


# A run into a fan-out of 4 leaves; the whole chain has 4, 12, 24 and 24
# completions to the lengths past it.
LONG_RUN = chain_into(40, "abcd")
# Runs that end at the whole chain: it has exactly 64 completions to
# length 14 in the first, exactly 65 to length 14 in the second.
RUN_TO_64 = chain_into(10, "abcdef", [("prec", "d", "c"), ("prec", "e", "b"), ("prec", "e", "f")])
RUN_TO_65 = chain_into(10, "abcdef", [("resp", "b", "a"), ("prec", "f", "e"), ("resp", "b", "e")])


class Drawn:
    """Stands in for ``st.data()`` in an explicit example: every draw gives ``value``."""

    def __init__(self, value) -> None:
        self.value = value

    def draw(self, strategy):
        return self.value


@pytest.mark.parametrize("kinds", [KINDS, ("prec",), ("resp",), ("succ",)], ids="-".join)
@given(data=st.data())
@example(data=Drawn(LONG_RUN))
@example(data=Drawn(RUN_TO_64))
@example(data=Drawn(RUN_TO_65))
def test_trace_listings_match_the_heap_merge_referee(kinds, data):
    process = data.draw(processes(kinds))
    expected = list(merged_traces(process))
    assert list(iter_traces(process)) == expected
    names = process.names()
    printed = traces_stdout(process)
    assert printed["text"] == "\n".join(_text(names, expected)) + "\n"
    assert printed["json"] == json.dumps([[names[i] for i in t] for t in expected]) + "\n"


@pytest.mark.parametrize("block", [1, 2, 64])
@given(process=processes())
# The placed set {a} has exactly 64 completions to length 5.
@example(
    process=make_process("abcdefg", [("resp", "b", "d"), ("prec", "e", "g"), ("resp", "c", "d")])
)
# The placed set {d} has exactly 65 completions to length 6.
@example(
    process=make_process(
        "abcdefg", [("succ", "d", "f"), ("prec", "g", "c"), ("succ", "e", "c"), ("prec", "e", "b")]
    )
)
@example(process=LONG_RUN)
@example(process=RUN_TO_64)
@example(process=RUN_TO_65)
def test_trace_blocks_match_the_heap_merge_referee(block, process):
    # Sets of at most BLOCK completions make one block, the search descends
    # through the others; every split gives the same tuples and bytes.
    expected = list(merged_traces(process))
    names = process.names()
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(sys.modules["decltrace.traces"], "BLOCK", block)
        listed = list(iter_traces(process))
        printed = traces_stdout(process)
    assert listed == expected
    assert printed["text"] == "\n".join(_text(names, expected)) + "\n"
    assert printed["json"] == json.dumps([[names[i] for i in t] for t in expected]) + "\n"


def test_lazy_trace_lines_hold_no_line_list():
    # The text lines of 8 unconstrained activities: as a list they take
    # about 8 MiB; streamed, only the placed sets, their moves, one prefix
    # per depth and the completions of sets of at most BLOCK stay alive.
    process = make_process([f"a{i}" for i in range(8)])
    tracemalloc.start()
    try:
        emitted = sum(block.count("\n") + 1 for block in _trace_lines(process, "text"))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert emitted == 109_601
    assert peak < 2 << 20


def test_short_trace_lines_come_before_layer_three_is_built(monkeypatch):
    # 60 unconstrained activities: the 3601 traces of length at most 2 need
    # the placed sets of size at most 2 only, as tuples and as lines.
    built = []

    def counted(component, graphs):
        for layer in _layers(component, graphs):
            built.append(len(layer))
            yield layer

    monkeypatch.setattr(sys.modules["decltrace.traces"], "_layers", counted)
    names = [f"a{i}" for i in range(60)]
    process = make_process(names)
    short = [t for k in range(3) for t in permutations(range(60), k)]
    assert list(islice(iter_traces(process), 3601)) == short
    assert built == [1, 60, 1770]
    built.clear()
    lines = list(islice(text_lines(_trace_lines(process, "text")), 3601))
    assert lines == ["-"] + [" ".join(names[i] for i in t) for t in short[1:]]
    assert built == [1, 60, 1770]


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


@st.composite
def digraphs(draw):
    """A member mask and strict graph rows: any edges but self loops, so cycles too."""
    n = draw(st.integers(0, MAX_N))
    succ = [0] * n
    for a in range(n):
        for b in range(n):
            if a != b and draw(st.booleans()):
                succ[a] |= 1 << b
    members = draw(st.sets(st.integers(0, n - 1))) if n else set()
    return _mask(members), succ


@given(digraphs())
@example((0, []))
@example((0b11, [0b10, 0b01]))  # a 2-cycle
@example((0b011, [0b010, 0b100, 0b001]))  # the 3-cycle a -> b -> c -> a without c
@example((0b110, [0b010, 0b100, 0b010]))  # {b, c} of resp a b, resp b c, resp c b
def test_topological_order_sorts_exactly_the_acyclic_restrictions(graph):
    members, succ = graph
    n = len(succ)
    pred = [sum(1 << a for a in range(n) if succ[a] >> b & 1) for b in range(n)]
    order = _topological_order(members, succ, pred)
    kept = frozenset(_bits(members))
    closed = closure(restrict(BinaryRelation(n, tuple(succ), (1 << n) - 1), kept))
    assert (order is None) == (not is_antisymmetric(closed))
    if order is not None:
        assert sorted(order) == sorted(kept)
        position = {v: at for at, v in enumerate(order)}
        for a in kept:
            for b in _bits(succ[a] & members):
                assert position[a] < position[b]


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


@pytest.mark.parametrize("kind", ["prec", "resp"])
@given(data=st.data())
def test_maximum_image_is_the_union_of_the_images(kind, data):
    process = data.draw(processes(kinds=(kind,)))
    images = [image.members for image in enumerate_possim(process)]
    largest = maximum_image(process)
    assert largest == frozenset().union(*images)
    assert largest in images


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


def test_possim_cli_prints_every_write_batch(tmp_path):
    # 13 activities, a1 only after a0: 3 * 2^11 = 6,144 images, more than
    # one write batch, and 2,048 of them hold the cover a0<a1.
    names = [f"a{i}" for i in range(13)]
    process = make_process(names, [("prec", "a0", "a1")])
    path = tmp_path / "p.proc"
    path.write_text(process_text(process), encoding="utf-8")
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        assert main(["possim", str(path)]) == 0
    lines = out.getvalue().split("\n")
    assert len(lines) - 1 == 6_144 > WRITE_BATCH
    assert sum(line.endswith(" a0<a1") for line in lines) == 2_048
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
# A succ star: two images, but every set of leaves placed after the centre is live.
@example(make_process("abcd", [("succ", "a", "b"), ("succ", "a", "c"), ("succ", "a", "d")]))
def test_finished_placed_sets_are_the_walk_images(process):
    finished = [
        placed
        for layer in _layers((1 << process.n) - 1, _graphs(process))
        for placed, (_, forced, *_) in layer.items()
        if forced == placed
    ]
    images = [members for members, _, _ in _walk(_graphs(process))]
    assert sorted(finished) == sorted(images)
    assert [m.bit_count() for m in finished] == sorted(m.bit_count() for m in images)


def or_rows(rows, mask):
    out = 0
    for x in _bits(mask):
        out |= rows[x]
    return out


@given(processes())
# {a, c} is dead: a forces b, which must come before c.
@example(make_process("abc", [("resp", "a", "b"), ("resp", "b", "c")]))
def test_kept_placed_sets_are_the_trace_prefix_sets(process):
    # A placed set is kept exactly when some trace starts with its
    # activities, its ways are the orderings that start one, and its barred
    # mask is what must come before any of them.  Once the pass is over,
    # its placeable mask holds the x that some trace places right after it.
    graphs = _graphs(process)
    pred = graphs[4]
    kept = {}
    states = {}
    for layer in _layers((1 << process.n) - 1, graphs):
        for placed, state in layer.items():
            ways, *_, barred = state
            assert barred == or_rows(pred, placed)
            kept[placed] = ways
            states[placed] = state
    oracle = brute_force_traces(process)
    prefixes = {trace[:k] for trace in oracle for k in range(len(trace) + 1)}
    assert kept == Counter(_mask(prefix) for prefix in prefixes)
    moves = dict.fromkeys(kept, 0)
    for trace in oracle:
        for k, x in enumerate(trace):
            moves[_mask(trace[:k])] |= 1 << x
    assert {placed: state[2] for placed, state in states.items()} == moves


def test_count_equals_enumeration_on_the_acceptance_batch(instance_batch):
    for process in instance_batch:
        assert count_traces(process) == len(traces(process))


def test_unconstrained_counts_are_partial_permutations():
    for n in (20, 1000):
        process = make_process([f"a{i}" for i in range(n)])
        expected = [factorial(n) // factorial(n - k) for k in range(n + 1)]
        assert count_by_length(process) == expected
        assert count_traces(process) == sum(expected)
