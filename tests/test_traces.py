import random
import sys
from itertools import chain, combinations, islice

import pytest

from decltrace import (
    Poset,
    brute_force_traces,
    count_by_length,
    count_linear_extensions,
    count_traces,
    enumerate_possim,
    implied_occurrence,
    iter_traces,
    make_process,
    max_elements,
    maximum_image,
    parse_process,
    satisfies,
    traces,
    traces_general,
    traces_precedence_only,
    traces_response_only,
    traces_successor_only,
)
from decltrace.cli import _text, _trace_lines
from decltrace.possim import PossimContext, _walk
from decltrace.relations import _bits
from decltrace.traces import _components, _flatten, _graphs, _layers, _listing
from support import (
    KINDS,
    SubsetDP,
    example_mixed_five,
    example_mixed_three,
    example_prec_six,
    example_three_chainish,
    merged_traces,
    random_process,
    random_wide_process,
    text_lines,
    words,
)


class TestGeneral:
    def test_five_activity_example(self):
        p = example_mixed_five()
        assert words(p, traces_general(p)) == ["", "a", "ba", "ca", "bca", "cba"]

    def test_three_activity_example(self):
        p = example_mixed_three()
        assert words(p, traces_general(p)) == ["", "b", "ba", "bca", "cba"]

    def test_contradictory_pair_leaves_only_the_empty_trace(self):
        p = parse_process("activities a b\nprec a b\nprec b a")
        assert traces_general(p) == [()]

    def test_chainish_example_keeps_free_pair(self):
        p = example_three_chainish()
        assert words(p, traces_general(p)) == ["", "a", "c", "ac", "ca", "abc"]

    def test_parallel_output_is_identical(self):
        for p in (example_mixed_five(), example_prec_six(), make_process("a")):
            assert traces_general(p, parallel=True) == traces_general(p, parallel=False)


class TestPrecedenceOnly:
    def test_six_activity_example(self):
        p = example_prec_six()
        assert words(p, traces_precedence_only(p)) == ["", "a", "b", "ab", "ba", "abc", "bac"]

    def test_maximum_image(self):
        p = example_prec_six()
        assert maximum_image(p) == frozenset({0, 1, 2})

    def test_no_constraints_gives_all_subset_permutations(self):
        p = make_process("ab")
        assert words(p, traces_precedence_only(p)) == ["", "a", "b", "ab", "ba"]

    def test_rejects_other_kinds(self):
        with pytest.raises(ValueError, match="precedence-only"):
            traces_precedence_only(example_mixed_three())

    def test_generator_sets_restricted_to_core_maxima_form_a_power_set(self):
        # every realizable image meets the maximal elements of the core in a
        # different subset, and all subsets occur
        rng = random.Random(109)
        for _ in range(80):
            p = random_process(rng, kinds=("prec",))
            core_max = max_elements(maximum_image(p), implied_occurrence(p))
            met = {d.members & core_max for d in enumerate_possim(p)}
            expected = {
                frozenset(sub)
                for sub in chain.from_iterable(
                    combinations(sorted(core_max), k) for k in range(len(core_max) + 1)
                )
            }
            assert met == expected


class TestResponseOnly:
    def test_single_response(self):
        p = make_process("ab", [("resp", "a", "b")])
        assert words(p, traces_response_only(p)) == ["", "b", "ab"]

    def test_mirror_of_the_six_activity_example(self):
        p = parse_process(
            "activities a b c d e f\n"
            "resp c a\nresp c b\nresp d c\nresp e d\nresp d e\nresp f d"
        )
        assert words(p, traces_response_only(p)) == ["", "a", "b", "ab", "ba", "cab", "cba"]
        assert traces_response_only(p) == brute_force_traces(p)
        assert maximum_image(p) == frozenset({0, 1, 2})

    def test_no_constraints(self):
        p = make_process("ab")
        assert traces_response_only(p) == brute_force_traces(p)

    def test_rejects_other_kinds(self):
        with pytest.raises(ValueError, match="response-only"):
            traces_response_only(example_prec_six())


class TestSuccessorOnly:
    def test_cyclic_class_is_dropped(self):
        p = parse_process("activities a b c d\nsucc a b\nsucc c d\nsucc d c")
        assert words(p, traces_successor_only(p)) == ["", "ab"]

    def test_free_activity_interleaves(self):
        p = parse_process("activities a b c\nsucc a b")
        assert words(p, traces_successor_only(p)) == ["", "c", "ab", "abc", "acb", "cab"]

    def test_no_constraints(self):
        p = make_process("abc")
        assert traces_successor_only(p) == brute_force_traces(p)

    def test_rejects_other_kinds(self):
        with pytest.raises(ValueError, match="successor-only"):
            traces_successor_only(example_mixed_three())


class TestDispatchAndCounting:
    def test_counts_on_the_examples(self):
        assert count_traces(example_mixed_five()) == 6
        assert count_traces(example_prec_six()) == 7
        assert count_traces(make_process("a")) == 2

    def test_count_matches_enumeration(self):
        rng = random.Random(113)
        for _ in range(120):
            p = random_process(rng)
            assert count_traces(p) == len(traces(p))

    def test_no_trace_is_produced_twice(self):
        rng = random.Random(127)
        for _ in range(120):
            p = random_process(rng)
            result = traces(p)
            assert len(set(result)) == len(result)
            per_image = sum(
                count_linear_extensions(Poset(d.members, d.order))
                for d in enumerate_possim(p)
            )
            assert per_image == len(result)

    def test_counts_by_length_are_the_extension_counts_of_the_images(self):
        # The paper's characterization, past the oracle's range: the traces of
        # length L are the linear extensions of the images of size L.  Two
        # different algorithms: the per-component DP over live placed sets,
        # joined by convolution, against the whole-process image walk with a
        # closed-order DP per image.
        rng = random.Random(149)
        names = [f"a{i}" for i in range(12)]

        def constraints(kinds, n, low, draws):
            pairs = [rng.sample(range(low, n), 2) for _ in range(draws)] if n - low > 1 else []
            return [(rng.choice(kinds), names[i], names[j]) for i, j in pairs]

        processes = []
        for kinds in (KINDS, ("prec",), ("resp",), ("succ",)):
            for _ in range(50):
                n = rng.randint(1, 12)
                drawn = constraints(kinds, n, 0, rng.randint(n // 2, 2 * n))
                processes.append(make_process(names[:n], drawn))
        for _ in range(30):
            # A contradictory pair beside the rest: its only image is the empty one.
            n = rng.randint(3, 12)
            pair = [("succ", "a0", "a1"), ("succ", "a1", "a0")]
            drawn = constraints(KINDS, n, 2, rng.randint(0, n))
            processes.append(make_process(names[:n], pair + drawn))
        for p in processes:
            expected = [0] * (p.n + 1)
            for d in enumerate_possim(p):
                expected[len(d.members)] += count_linear_extensions(Poset(d.members, d.order))
            while not expected[-1]:
                expected.pop()
            assert count_by_length(p) == expected

    def test_specialized_paths_agree_with_general(self):
        rng = random.Random(131)
        paths = {
            "prec": traces_precedence_only,
            "resp": traces_response_only,
            "succ": traces_successor_only,
        }
        for kind, path in paths.items():
            for _ in range(60):
                p = random_process(rng, kinds=(kind,))
                assert path(p) == traces_general(p) == traces(p)

    def test_every_trace_satisfies_every_constraint(self):
        rng = random.Random(137)
        for _ in range(100):
            p = random_process(rng)
            for trace in traces(p):
                assert all(satisfies(trace, c) for c in p.constraints)

    def test_images_are_occurrence_downsets(self):
        rng = random.Random(139)
        for _ in range(100):
            p = random_process(rng, kinds=("prec", "resp"))
            occ = implied_occurrence(p)
            indices = occ.member_indices()
            for trace in traces(p):
                image = set(trace)
                assert all(
                    x in image for y in image for x in indices if occ.has(x, y)
                )

    def test_maximum_image_rejects_general_processes(self):
        with pytest.raises(ValueError):
            maximum_image(example_mixed_three())
        with pytest.raises(ValueError):
            maximum_image(make_process("ab", [("succ", "a", "b")]))


def _downset_count(members: int, rows) -> int:
    """Down-sets of the order the graph ``rows`` generates on ``members``,
    found by peeling maximal elements as the per-image count DP does."""
    seen = layer = {members}
    while layer:
        layer = {
            mask & ~(1 << x)
            for mask in layer
            for x in _bits(mask)
            if not rows[x] & mask & ~(1 << x)
        }
        seen = seen | layer
    return len(seen)


class TestPlacedSetDP:
    def test_dead_states_are_never_kept(self):
        # Placing any x_i forces y, which lies on a cycle with z, so every
        # one-activity set is dead and none of the 2^20 sets of x's is reached.
        k = 20
        names = [f"x{i}" for i in range(k)] + ["y", "z"]
        drawn = [("resp", f"x{i}", "y") for i in range(k)] + [("prec", "y", "z"), ("prec", "z", "y")]
        p = make_process(names, drawn)
        graphs = _graphs(p)
        kept = [placed for c in _components(graphs) for layer in _layers(c, graphs) for placed in layer]
        assert kept == [0]
        assert count_by_length(p) == [1]

    def test_one_sort_per_unplaced_rest(self, monkeypatch):
        # Placing x0 or x1 forces y and z, which must each come before the
        # other: two forced sets, but one unplaced rest {y, z} to sort.
        module = sys.modules["decltrace.traces"]
        sort = module._topological_order
        sorted_sets = []

        def counted(members, succ, pred):
            sorted_sets.append(members)
            return sort(members, succ, pred)

        monkeypatch.setattr(module, "_topological_order", counted)
        p = parse_process("activities x0 x1 y z\nresp x0 y\nresp x1 y\nprec y z\nprec z y")
        assert count_by_length(p) == [1]
        assert sorted_sets == [0b1100]

    def test_a_live_activity_can_still_make_a_dead_set(self):
        # {a, c} is dead: a forces b, which must come before c.
        p = make_process("abc", [("resp", "a", "b"), ("resp", "b", "c")])
        graphs = _graphs(p)
        (component,) = _components(graphs)
        assert 0b101 not in {placed for layer in _layers(component, graphs) for placed in layer}
        assert count_by_length(p) == [1, 1, 1, 1]

    def test_states_are_down_sets_of_images(self):
        # Each kept set T is a down-set of the order on the image D it
        # forces, so the DP keeps no more states than the per-image DPs
        # visit in total.
        rng = random.Random(163)
        names = [f"a{i}" for i in range(9)]
        for _ in range(150):
            n = rng.randint(2, 9)
            pairs = [rng.sample(range(n), 2) for _ in range(rng.randint(0, 2 * n))]
            p = make_process(names[:n], [(rng.choice(KINDS), names[i], names[j]) for i, j in pairs])
            ctx = PossimContext.of(p)
            rows = ctx.ordering.rows
            whole = [members for members, _, _ in _walk(_graphs(p))]
            graphs = _graphs(p)
            for component in _components(graphs):
                images = {members & component for members in whole}
                states = 0
                for size, layer in enumerate(_layers(component, graphs)):
                    for placed, (ways, forced, *_) in layer.items():
                        assert placed.bit_count() == size and ways > 0
                        assert forced in images
                        assert not any(rows[y] & placed for y in _bits(forced & ~placed))
                    states += len(layer)
                assert states <= sum(_downset_count(m, rows) for m in images)

    def test_long_chain_has_one_trace_per_length(self):
        # Five times the default recursion limit; every stage keeps its own stack.
        n = 5000
        names = [f"a{i}" for i in range(n)]
        p = make_process(names, [("prec", names[i], names[i + 1]) for i in range(n - 1)])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            by_length = count_by_length(p)
            first = list(islice(iter_traces(p), 10))
            # One completion per placed set: each line is one block, built
            # from its set's completions without recursion.
            text_items = list(islice(_trace_lines(p, "text"), 10))
            json_items = list(islice(_trace_lines(p, "json"), 10))
        finally:
            sys.setrecursionlimit(limit)
        assert by_length == [1] * (n + 1)
        assert first == [tuple(range(k)) for k in range(10)]
        assert text_items == ["-"] + [" ".join(names[:k]) for k in range(1, 10)]
        assert json_items == ["[" + ", ".join(f'"{a}"' for a in names[:k]) + "]" for k in range(10)]
        assert count_traces(p) == n + 1

    def test_long_chain_traces_end_with_the_whole_chain(self):
        # Every placed set of a chain has one move, so each length's one
        # trace is built by walking the run from the first activity.
        n = 1000
        names = [f"a{i}" for i in range(n)]
        p = make_process(names, [("prec", names[i], names[i + 1]) for i in range(n - 1)])
        limit = sys.getrecursionlimit()
        sys.setrecursionlimit(1000)
        try:
            listed = list(iter_traces(p))
        finally:
            sys.setrecursionlimit(limit)
        assert len(listed) == n + 1
        assert listed[-1] == tuple(range(n))

    def test_the_empty_set_stores_no_completions(self):
        # The search starts from the empty set's kept moves and never yields
        # it as a block, so the backward pass builds no completions on it,
        # though it has two kept moves and 2 completions of length 3.
        p = parse_process("activities a b c\nresp c a\nprec b a")
        pieces = [(x,) for x in range(p.n)]
        gen = _listing(p, pieces, pieces, (), (), _flatten)
        assert next(gen) == ((), [()])
        for prefix, ends in gen:
            if len(prefix + ends[0]) == 3:
                break
        assert (prefix, ends) == ((1,), [(2, 0)])
        root = gen.gi_frame.f_locals["root"]
        assert root[4] == 2 and [x for x, _ in root[3]] == [1, 2]
        assert root[5] is None
        assert list(gen) == [((2,), [(1, 0)])]


@pytest.mark.parametrize("seed", range(30))
def test_placed_set_pass_matches_the_subset_referee(seed):
    # Past the oracle's reach, count and traces both read the placed-set
    # pass, so a set it drops by mistake is missing from both; the referee
    # shares none of its code.
    process = random_wide_process(seed)
    referee = SubsetDP(process)
    assert count_by_length(process) == referee.count_by_length()
    graphs = _graphs(process)
    kept = {}
    finished = set()
    for layer in _layers((1 << process.n) - 1, graphs):
        for placed, (ways, forced, *_) in layer.items():
            kept[placed] = ways
            if forced == placed:
                finished.add(placed)
    assert finished == referee.images
    assert sorted(members for members, _, _ in _walk(graphs)) == sorted(referee.images)
    assert kept == {
        placed: ways
        for placed, (ways, lengths) in enumerate(zip(referee.ways, referee.lengths))
        if ways and lengths
    }
    shown = 50_000 if sum(referee.count_by_length()) <= 50_000 else 1_000
    assert list(islice(iter_traces(process), shown)) == list(islice(referee.traces(), shown))
    # The heap merge of per-image extensions shares the pass but not the search.
    merged = list(islice(merged_traces(process), 1_000))
    assert list(islice(iter_traces(process), 1_000)) == merged
    lines = text_lines(_trace_lines(process, "text"))
    assert list(islice(lines, 1_000)) == list(_text(process.names(), merged))
