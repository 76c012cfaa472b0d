import random

import pytest
from hypothesis import example, given
from hypothesis import strategies as st

from decltrace import (
    Activity,
    Constraint,
    ConstraintKind,
    DeclarativeProcess,
    ParseError,
    ProcessClass,
    classify,
    expand_successors,
    make_process,
    parse_process,
    render_process,
    satisfies,
    traces,
)
from support import example_mixed_three, example_prec_six, random_process, word


def constraint_triples(process):
    return {(c.kind, c.source.name, c.target.name) for c in process.constraints}


def parse_outcome(text):
    """None when ``text`` parses, else the error's line and message."""
    try:
        parse_process(text)
    except ParseError as error:
        return error.line, str(error)
    return None


NO_ACTIVITIES = (1, "line 1: no activities declared")

# Valid lines, and lines with each kind of fault; z is never declared.
PROCESS_LINES = [
    "activities a b",
    "activities c",
    "activities b b",
    "activities a-b",
    "activities",
    "prec a b",
    "resp b c",
    "  succ c a  # note",
    "prec a z",
    "resp a a",
    "succ a",
    "prec a b c",
    "foo a",
    "",
    "# comment",
]


class TestParse:
    def test_mixed_example(self):
        p = parse_process("activities a b c\nresp c a\nprec b a")
        assert p.names() == ("a", "b", "c")
        assert constraint_triples(p) == {
            (ConstraintKind.RESPONSE, "c", "a"),
            (ConstraintKind.PRECEDENCE, "b", "a"),
        }

    def test_minimal_process(self):
        p = parse_process("activities a")
        assert p.names() == ("a",)
        assert p.constraints == ()

    def test_comments_and_blank_lines(self):
        p = parse_process("# header\n\nactivities a b  # inline\n\nprec a b\n")
        assert p.names() == ("a", "b")
        assert len(p.constraints) == 1

    # Separators that str.splitlines breaks at but a process file does not.
    NOT_LINE_BREAKS = ["\x0b", "\x0c", "\x1c", "\x1d", "\x1e", "\x85", "\u2028", "\u2029"]

    @pytest.mark.parametrize("sep", NOT_LINE_BREAKS)
    def test_separator_inside_a_comment_stays_in_it(self, sep):
        p = parse_process(f"activities a b # note{sep}more\nprec a b  # x{sep}prec b a\n")
        assert p.names() == ("a", "b")
        assert constraint_triples(p) == {(ConstraintKind.PRECEDENCE, "a", "b")}

    @pytest.mark.parametrize("sep", NOT_LINE_BREAKS)
    def test_separator_between_names_is_whitespace(self, sep):
        p = parse_process(f"activities a{sep}b {sep}c\nprec{sep}a b{sep}\n")
        assert p.names() == ("a", "b", "c")
        assert constraint_triples(p) == {(ConstraintKind.PRECEDENCE, "a", "b")}

    @pytest.mark.parametrize("sep", ["\x0c", "\u2028"])
    def test_error_after_a_separator_reports_its_file_line(self, sep):
        with pytest.raises(ParseError, match="^line 3: unknown activity 'z'$") as info:
            parse_process(f"# head{sep}more{sep}\nactivities a b # x{sep}y\nprec a z\n")
        assert info.value.line == 3

    @pytest.mark.parametrize("newline", ["\n", "\r\n", "\r"])
    def test_each_newline_ends_a_line(self, newline):
        text = newline.join(["# c", "activities a b", "", "prec a b", "resp b a", ""])
        assert parse_process(text) == parse_process("activities a b\nprec a b\nresp b a\n")
        with pytest.raises(ParseError, match="^line 4: unknown activity 'z'$"):
            parse_process(newline.join(["# c", "activities a b", "", "prec a z"]))

    def test_multiple_activities_lines_concatenate(self):
        p = parse_process("activities a b\nactivities c\nprec a c")
        assert p.names() == ("a", "b", "c")

    def test_self_constraint_rejected_with_line(self):
        with pytest.raises(ParseError, match="line 2") as info:
            parse_process("activities a b\nprec a a")
        assert info.value.line == 2

    def test_unknown_activity_rejected(self):
        with pytest.raises(ParseError, match="unknown activity 'z'"):
            parse_process("activities a b\nresp a z")

    def test_empty_document_rejected(self):
        with pytest.raises(ParseError, match="no activities"):
            parse_process("# nothing here\n")

    def test_malformed_lines_rejected(self):
        with pytest.raises(ParseError, match="line 2"):
            parse_process("activities a b\nprec a")
        with pytest.raises(ParseError, match="unrecognized"):
            parse_process("activities a\nfoo a b")
        with pytest.raises(ParseError, match="at least one name"):
            parse_process("activities")

    def test_activities_after_constraint_rejected(self):
        with pytest.raises(ParseError, match="line 3"):
            parse_process("activities a b\nprec a b\nactivities c")

    def test_duplicate_name_rejected(self):
        with pytest.raises(ParseError, match="duplicate"):
            parse_process("activities a a")

    def test_invalid_name_rejected(self):
        with pytest.raises(ParseError, match="invalid"):
            parse_process("activities a-b")

    @given(st.lists(st.sampled_from(PROCESS_LINES), min_size=1, max_size=7))
    @example(["activities a a", "foo x"])
    @example(["activities a b", "prec a z", "prec a"])
    def test_a_file_fails_as_its_first_faulty_prefix(self, lines):
        # Lines are checked as they are read, so the first faulty prefix's
        # error is the error of every longer prefix, the whole file included.
        # Until some line declares an activity, a prefix fails only for that.
        outcomes = [parse_outcome("\n".join(lines[:k])) for k in range(1, len(lines) + 1)]
        faulty = [k for k, outcome in enumerate(outcomes, 1) if outcome not in (None, NO_ACTIVITIES)]
        if faulty:
            first = faulty[0]
            assert outcomes[first - 1][0] == first
            assert outcomes[first:] == [outcomes[first - 1]] * (len(lines) - first)

    @pytest.mark.parametrize(
        "text, message",
        [
            ("activities a a\nfoo x", "line 1: duplicate activity name 'a'"),
            ("activities a b\nprec a z\nprec a", "line 2: unknown activity 'z'"),
            ("activities a a a-b", "line 1: duplicate activity name 'a'"),
            ("activities a b\nprec a a\nactivities c", "line 2: self-constraint on 'a'"),
            ("activities a b\nresp b z\nbar", "line 2: unknown activity 'z'"),
            ("activities a\nactivities a\nactivities", "line 2: duplicate activity name 'a'"),
            # No name is declared above a leading constraint line.
            ("prec a b", "line 1: unknown activity 'a'"),
            ("# head\nsucc a b\nactivities a b", "line 2: unknown activity 'a'"),
        ],
    )
    def test_the_first_faulty_line_is_reported(self, text, message):
        with pytest.raises(ParseError) as info:
            parse_process(text)
        assert str(info.value) == message

    def test_duplicate_constraints_collapse(self):
        p = parse_process("activities a b\nprec a b\nprec a b")
        assert len(p.constraints) == 1

    def test_both_orientations_are_legal_input(self):
        p = parse_process("activities a b\nprec a b\nprec b a")
        assert len(p.constraints) == 2

    def test_render_round_trip(self):
        for p in (example_mixed_three(), example_prec_six(), parse_process("activities a")):
            assert parse_process(render_process(p)) == p

    def test_render_round_trip_random(self):
        rng = random.Random(11)
        for _ in range(100):
            p = random_process(rng)
            assert parse_process(render_process(p)) == p


class TestExpandSuccessors:
    def test_single_successor_splits(self):
        p = make_process("ab", [("succ", "a", "b")])
        assert constraint_triples(expand_successors(p)) == {
            (ConstraintKind.PRECEDENCE, "a", "b"),
            (ConstraintKind.RESPONSE, "a", "b"),
        }

    def test_identity_without_successors(self):
        p = example_mixed_three()
        assert expand_successors(p) == p

    def test_overlap_deduplicates(self):
        p = make_process("ab", [("succ", "a", "b"), ("prec", "a", "b")])
        expanded = expand_successors(p)
        assert len(expanded.constraints) == 2
        assert constraint_triples(expanded) == {
            (ConstraintKind.PRECEDENCE, "a", "b"),
            (ConstraintKind.RESPONSE, "a", "b"),
        }

    def test_idempotent(self):
        rng = random.Random(5)
        for _ in range(50):
            once = expand_successors(random_process(rng))
            assert expand_successors(once) == once


class TestSatisfies:
    def constraint(self, p, kind, source, target):
        return Constraint(
            ConstraintKind(kind),
            p.activities[p.index_of(source)],
            p.activities[p.index_of(target)],
        )

    def test_response_holds_when_target_follows(self):
        p = example_mixed_three()
        assert satisfies(word(p, "cba"), self.constraint(p, "resp", "c", "a"))

    def test_precedence_needs_prior_source(self):
        p = make_process("ab")
        assert not satisfies(word(p, "b"), self.constraint(p, "prec", "a", "b"))

    def test_response_order_matters(self):
        p = make_process("abc")
        assert not satisfies(word(p, "acb"), self.constraint(p, "resp", "b", "a"))

    def test_vacuous_when_activity_absent(self):
        p = make_process("ab")
        assert satisfies((), self.constraint(p, "prec", "a", "b"))
        assert satisfies(word(p, "b"), self.constraint(p, "resp", "a", "b"))

    def test_successor_requires_both_directions(self):
        p = make_process("ab")
        succ = self.constraint(p, "succ", "a", "b")
        assert satisfies(word(p, "ab"), succ)
        assert satisfies((), succ)
        assert not satisfies(word(p, "a"), succ)
        assert not satisfies(word(p, "b"), succ)
        assert not satisfies(word(p, "ba"), succ)


class TestClassify:
    def test_precedence_only(self):
        assert classify(example_prec_six()) is ProcessClass.PRECEDENCE_ONLY

    def test_successor_only(self):
        assert classify(make_process("ab", [("succ", "a", "b")])) is ProcessClass.SUCCESSOR_ONLY

    def test_response_only(self):
        assert classify(make_process("ab", [("resp", "a", "b")])) is ProcessClass.RESPONSE_ONLY

    def test_general(self):
        assert classify(example_mixed_three()) is ProcessClass.GENERAL

    def test_empty_takes_cheapest_path(self):
        assert classify(make_process("ab")) is ProcessClass.PRECEDENCE_ONLY


class TestConstruction:
    def test_rejects_empty_alphabet(self):
        with pytest.raises(ValueError):
            make_process([])

    def test_rejects_unknown_endpoint(self):
        with pytest.raises(ValueError, match="unknown activity"):
            make_process("ab", [("prec", "a", "z")])

    def test_rejects_self_constraint(self):
        with pytest.raises(ValueError, match="self-constraint"):
            make_process("ab", [("prec", "a", "a")])

    def test_index_of_unknown(self):
        with pytest.raises(ValueError):
            make_process("ab").index_of("z")

    @pytest.mark.parametrize(
        "activities, message",
        [
            ([Activity(1, "a")], "activity 'a' has index 1, expected 0"),
            ([Activity(0, "a-b")], "invalid activity name 'a-b'"),
            ([Activity(0, "a"), Activity(1, "a")], "duplicate activity name 'a'"),
        ],
    )
    def test_rejects_each_faulty_alphabet(self, activities, message):
        with pytest.raises(ValueError, match=f"^{message}$"):
            DeclarativeProcess(activities)

    def test_rejects_an_undeclared_endpoint(self):
        a, b = Activity(0, "a"), Activity(1, "b")
        with pytest.raises(ValueError, match="^constraint endpoints must be declared activities$"):
            DeclarativeProcess([a], [Constraint(ConstraintKind.PRECEDENCE, a, b)])

    @pytest.mark.parametrize(
        "activities, constraints, message",
        [
            (
                [Activity(0, 5)],
                [],
                "activity 0: expected an Activity with a str name, got Activity(index=0, name=5)",
            ),
            (["a"], [], "activity 0: expected an Activity with a str name, got 'a'"),
            (
                [Activity(0, "a"), "b"],
                [],
                "activity 1: expected an Activity with a str name, got 'b'",
            ),
            (
                [Activity(0, "a")],
                [("prec", "a", "a")],
                "constraint 0: expected a Constraint, got ('prec', 'a', 'a')",
            ),
            (
                [Activity(0, "a"), Activity(1, "b")],
                [Constraint("prec", Activity(0, "a"), Activity(1, "b")), None],
                "constraint 1: expected a Constraint, got None",
            ),
        ],
        ids=["int-name", "bare-name", "later-bare-name", "raw-triple", "later-none"],
    )
    def test_rejects_each_value_of_the_wrong_type(self, activities, constraints, message):
        with pytest.raises(TypeError) as raised:
            DeclarativeProcess(activities, constraints)
        assert str(raised.value) == message


class TestConstraintKind:
    @pytest.mark.parametrize("kind", list(ConstraintKind))
    def test_a_kind_given_as_its_value_is_stored_as_the_member(self, kind):
        a, b = Activity(0, "a"), Activity(1, "b")
        assert Constraint(kind.value, a, b).kind is kind
        assert Constraint(kind.value, a, b) == Constraint(kind, a, b)

    def test_a_response_given_as_a_string_acts_as_a_response(self):
        a, b = Activity(0, "a"), Activity(1, "b")
        process = DeclarativeProcess([a, b], [Constraint("resp", a, b)])
        assert traces(process) == [(), (1,), (0, 1)]
        assert classify(process) is ProcessClass.RESPONSE_ONLY
        assert render_process(process) == "activities a b\nresp a b\n"
        assert process == make_process("ab", [("resp", "a", "b")])

    @pytest.mark.parametrize("kind", ["response", "RESP", None, 1])
    def test_rejects_any_other_kind(self, kind):
        with pytest.raises(ValueError):
            Constraint(kind, Activity(0, "a"), Activity(1, "b"))
