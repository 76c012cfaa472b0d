"""Value semantics of the library's record classes.

Each class compares, hashes and prints by its fields, in declaration order,
can be built by keyword, and is immutable: assigning or deleting a field
raises ``AttributeError``.
"""

import copy
import pickle

import pytest

from decltrace import (
    Activity,
    BinaryRelation,
    Constraint,
    ConstraintKind,
    DeclarativeProcess,
    DownSet,
    Poset,
    PossimContext,
    QuotientPoset,
    implied_occurrence,
    order_preserving,
)

A = Activity(index=0, name="a")
B = Activity(index=1, name="b")
A_B = Constraint(kind=ConstraintKind.PRECEDENCE, source=A, target=B)
PROCESS = DeclarativeProcess(activities=(A, B), constraints=(A_B,))
ORDER = BinaryRelation(n=2, rows=(3, 2), members=3)
POINT = BinaryRelation(n=2, rows=(1, 0), members=1)

R_A = "Activity(index=0, name='a')"
R_B = "Activity(index=1, name='b')"
R_A_B = f"Constraint(kind=<ConstraintKind.PRECEDENCE: 'prec'>, source={R_A}, target={R_B})"
R_PROCESS = f"DeclarativeProcess(activities=({R_A}, {R_B}), constraints=({R_A_B},))"
R_ORDER = "BinaryRelation(n=2, rows=(3, 2), members=3)"
R_POINT = "BinaryRelation(n=2, rows=(1, 0), members=1)"

# (class, keyword fields, one field changed, repr of the keyword fields)
CASES = [
    (Activity, dict(index=0, name="a"), dict(name="c"), R_A),
    (
        Constraint,
        dict(kind=ConstraintKind.PRECEDENCE, source=A, target=B),
        dict(kind=ConstraintKind.RESPONSE),
        R_A_B,
    ),
    (
        DeclarativeProcess,
        dict(activities=(A, B), constraints=(A_B,)),
        dict(constraints=()),
        R_PROCESS,
    ),
    (BinaryRelation, dict(n=2, rows=(3, 2), members=3), dict(rows=(1, 2)), R_ORDER),
    (
        Poset,
        dict(elements=frozenset({0, 1}), order=ORDER),
        dict(elements=frozenset({0})),
        f"Poset(elements=frozenset({{0, 1}}), order={R_ORDER})",
    ),
    (
        DownSet,
        dict(members=frozenset({0}), order=POINT, generator=frozenset({0})),
        dict(generator=frozenset()),
        f"DownSet(members=frozenset({{0}}), order={R_POINT}, generator=frozenset({{0}}))",
    ),
    (
        PossimContext,
        dict(
            process=PROCESS,
            occurrence=implied_occurrence(PROCESS),
            ordering=order_preserving(PROCESS),
        ),
        dict(ordering=ORDER),
        f"PossimContext(process={R_PROCESS}, occurrence={R_ORDER}, "
        "ordering=BinaryRelation(n=2, rows=(2, 0), members=3))",
    ),
    (
        QuotientPoset,
        dict(classes=(frozenset({0, 1}),), order=POINT, class_of=(0, 0)),
        dict(class_of=(0, -1)),
        f"QuotientPoset(classes=(frozenset({{0, 1}}),), order={R_POINT}, class_of=(0, 0))",
    ),
]

each_class = pytest.mark.parametrize(
    "cls, fields, changed, text", CASES, ids=[case[0].__name__ for case in CASES]
)


@each_class
def test_equal_fields_give_equal_values_and_hashes(cls, fields, changed, text):
    one, two = cls(**fields), cls(**fields)
    assert one is not two
    assert one == two and not one != two
    assert hash(one) == hash(two)
    assert len({one, two}) == 1
    other = cls(**{**fields, **changed})
    assert one != other and not one == other


@each_class
def test_values_of_different_classes_never_compare_equal(cls, fields, changed, text):
    value = cls(**fields)
    lookalike = type("Lookalike", (cls,), {})(**fields)
    assert value != lookalike and lookalike != value
    assert value != tuple(fields.values())
    assert value != fields


@each_class
def test_repr_lists_the_fields_in_order(cls, fields, changed, text):
    assert repr(cls(**fields)) == text


@each_class
def test_keyword_and_positional_construction_agree(cls, fields, changed, text):
    value = cls(**fields)
    assert value == cls(*fields.values())
    for name, expected in fields.items():
        assert getattr(value, name) == expected


@each_class
def test_fields_cannot_be_assigned_or_deleted(cls, fields, changed, text):
    value = cls(**fields)
    for name, expected in fields.items():
        with pytest.raises(AttributeError):
            setattr(value, name, expected)
        with pytest.raises(AttributeError):
            delattr(value, name)
        assert getattr(value, name) == expected
    with pytest.raises(AttributeError):
        value.extra = 1


@each_class
def test_values_survive_pickle_and_copy(cls, fields, changed, text):
    value = cls(**fields)
    assert pickle.loads(pickle.dumps(value)) == value
    assert copy.copy(value) == value
    assert copy.deepcopy(value) == value


def test_process_constraints_default_to_empty():
    assert DeclarativeProcess(activities=(A, B)).constraints == ()
    assert DeclarativeProcess((A, B)) == DeclarativeProcess((A, B), ())
