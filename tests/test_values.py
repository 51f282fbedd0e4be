"""The public value types: equality, hashing, repr, immutability, pickling
and copying."""

import copy
import pickle

import pytest

from franklin_squares import (
    Archetype,
    AuxPair,
    ClassifyOutcome,
    ConditionResult,
    ConditionStatus,
    FixtureEntry,
    GeneratedSquare,
    IndexTargets,
    LineDescriptor,
    LineFamily,
    PropertyReport,
    SearchMode,
    SearchOptions,
    SearchOutcome,
    SeedPattern,
    Square,
)
from franklin_squares.lines import Condition, table


def _samples():
    """One new instance of each value type; a second call gives equal,
    distinct instances."""
    sq = Square.from_rows([[1, 2], [3, 4]])
    line = LineDescriptor(LineFamily.ROW, 0, ((0, 0), (0, 1)))
    result = ConditionResult("rows", ConditionStatus.FAILED, 5, False, 2, ((line, 3),))
    report = PropertyReport(
        2, IndexTargets(2, 5), (result,), False, False, False, False, False, True, False
    )
    return [
        sq,
        AuxPair(Square(((0, 1), (1, 0))), Square(((1, 0), (0, 1)))),
        IndexTargets(2, 5),
        FixtureEntry("x", 2, "p", {"x.csv": "ab"}, ("natural",), ("magic",), "n", (1,)),
        line,
        Condition("rows", ((LineFamily.ROW, 0, (0, 1)),), 1, 1, False, True),
        SeedPattern(Archetype.ROW_ALTERNATE, 4, (3, 0, 1, 2)),
        GeneratedSquare(sq, report),
        SearchOptions(8, SearchMode.FIRST, 10),
        SearchOutcome(1, False, (sq,), 5),
        result,
        report,
        ClassifyOutcome(frozenset({"natural"}), False, report),
    ]


_NAMES = [type(v).__name__ for v in _samples()]

# repr of each sample as the dataclasses these types once were wrote it.
_LINE = (
    "LineDescriptor(family=<LineFamily.ROW: 'ROW'>, shift=0, cells=((0, 0), (0, 1)))"
)
_RESULT = (
    "ConditionResult(condition='rows', status=<ConditionStatus.FAILED: 'failed'>, "
    f"target=5, doubled=False, lines_checked=2, failures=(({_LINE}, 3),))"
)
_REPORT = (
    "PropertyReport(order=2, targets=IndexTargets(order=2, line_sum=5), "
    f"conditions=({_RESULT},), semi_magic=False, magic=False, pandiagonal=False, "
    "franklin=False, pandiagonal_franklin=False, natural=True, balanced=False)"
)
_SQUARE = "Square(cells=((1, 2), (3, 4)))"
REPRS = [
    _SQUARE,
    "AuxPair(quotient=Square(cells=((0, 1), (1, 0))), "
    "remainder=Square(cells=((1, 0), (0, 1))))",
    "IndexTargets(order=2, line_sum=5)",
    "FixtureEntry(name='x', order=2, provenance='p', files={'x.csv': 'ab'}, "
    "claims=('natural',), claims_known_false=('magic',), notes='n', "
    "reconstructed_quotient_rows=(1,))",
    _LINE,
    "Condition(name='rows', lines=((<LineFamily.ROW: 'ROW'>, 0, (0, 1)),), "
    "scale=1, mult=1, doubled=False, franklin=True)",
    "SeedPattern(archetype=<Archetype.ROW_ALTERNATE: 'row_alternate'>, order=4, "
    "seed=(3, 0, 1, 2))",
    f"GeneratedSquare(square={_SQUARE}, report={_REPORT})",
    "SearchOptions(order=8, mode=<SearchMode.FIRST: 'first'>, node_budget=10, "
    "prune=True, progress=None, progress_interval=100000)",
    f"SearchOutcome(count=1, exhausted=False, witnesses=({_SQUARE},), nodes_visited=5)",
    _RESULT,
    _REPORT,
    f"ClassifyOutcome(labels=frozenset({{'natural'}}), target_inferred=False, "
    f"report={_REPORT})",
]


@pytest.mark.parametrize("i", range(len(REPRS)), ids=_NAMES)
def test_repr_is_the_dataclass_repr(i):
    assert repr(_samples()[i]) == REPRS[i]


@pytest.mark.parametrize("i", range(len(REPRS)), ids=_NAMES)
def test_equal_values_compare_and_hash_alike(i):
    a, b = _samples()[i], _samples()[i]
    assert a is not b
    if isinstance(a, Condition):
        assert a != b and a == a
        return
    assert a == b and not a != b
    assert hash(a) == hash(b)


def test_values_of_different_types_are_not_equal():
    values = _samples()
    for a in values:
        for b in values:
            if a is not b:
                assert a != b and not a == b, (a, b)


def test_a_square_equals_no_tuple_or_subclass():
    sq = Square.from_rows([[1, 2], [3, 4]])

    class Sub(Square):
        pass

    assert sq != sq.cells and sq != (sq.cells,)
    assert sq != Sub(sq.cells) and Sub(sq.cells) != sq
    assert Sub(sq.cells) == Sub(sq.cells)


def test_values_differing_in_one_field_are_not_equal():
    assert IndexTargets(2, 5) != IndexTargets(2, 6)
    assert SearchOptions(8, node_budget=10) != SearchOptions(8, node_budget=11)
    assert SeedPattern(Archetype.ROW_ALTERNATE, 4, (3, 0, 1, 2)) != SeedPattern(
        Archetype.ROW_ALTERNATE, 4, (2, 0, 1, 3)
    )


@pytest.mark.parametrize("i", range(len(REPRS)), ids=_NAMES)
def test_fields_cannot_be_assigned_or_deleted(i):
    value = _samples()[i]
    text = repr(value)
    for name in (*type(value).__match_args__, "_descriptors", "_square", "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, None)
        with pytest.raises(AttributeError):
            delattr(value, name)
    assert repr(value) == text


@pytest.mark.parametrize("i", range(len(REPRS)), ids=_NAMES)
def test_pickle_and_copy_round_trip(i):
    value = _samples()[i]
    copies = [copy.copy(value), copy.deepcopy(value)]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copies.append(pickle.loads(pickle.dumps(value, protocol)))
    for twin in copies:
        assert type(twin) is type(value) and repr(twin) == repr(value)
        if isinstance(value, Condition):
            assert twin._descriptors == value._descriptors
        else:
            assert twin == value
        if isinstance(value, SeedPattern):
            assert twin.expand() == value.expand()
        with pytest.raises(AttributeError):
            twin.extra = 1


def test_search_options_ignore_progress_in_eq_and_hash():
    def report(nodes, depth):
        pass

    plain = SearchOptions(8, node_budget=10)
    watched = SearchOptions(8, node_budget=10, progress=report)
    assert plain == watched and hash(plain) == hash(watched)
    assert repr(plain) != repr(watched)


@pytest.mark.parametrize("n", [1, 4, 8])
def test_table_conditions_compare_by_identity(n):
    for cond in table(n):
        twin = Condition(*(getattr(cond, name) for name in Condition.__match_args__))
        assert repr(twin) == repr(cond)
        assert cond == cond and cond != twin and cond != copy.copy(cond)
        assert hash(cond) == object.__hash__(cond)
    assert table(n) == table(n)
