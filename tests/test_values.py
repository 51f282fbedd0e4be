"""The public value types: fields, signatures, equality, hashing, repr,
immutability, pickling and copying."""

import copy
import inspect
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
    compose,
    decompose,
    is_balanced,
    is_natural,
    search_natural_franklin,
)
from franklin_squares.formats import parse_square_csv
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


# Each sample's fields, in _samples() order.
MATCH_ARGS = [
    ("cells",),
    ("quotient", "remainder"),
    ("order", "line_sum"),
    (
        "name", "order", "provenance", "files", "claims", "claims_known_false",
        "notes", "reconstructed_quotient_rows",
    ),
    ("family", "shift", "cells"),
    ("name", "lines", "scale", "mult", "doubled", "franklin"),
    ("archetype", "order", "seed"),
    ("square", "report"),
    ("order", "mode", "node_budget", "prune", "progress", "progress_interval"),
    ("count", "exhausted", "witnesses", "nodes_visited"),
    ("condition", "status", "target", "doubled", "lines_checked", "failures"),
    (
        "order", "targets", "conditions", "semi_magic", "magic", "pandiagonal",
        "franklin", "pandiagonal_franklin", "natural", "balanced",
    ),
    ("labels", "target_inferred", "report"),
]

# inspect.signature of each sample's type, as the hand-written __init__
# methods these types once had gave it.
SIGNATURES = [
    "(cells: 'tuple[tuple[int, ...], ...]') -> 'None'",
    "(quotient: 'Square', remainder: 'Square') -> 'None'",
    "(order: 'int', line_sum: 'int') -> 'None'",
    "(name: 'str', order: 'int', provenance: 'str', files: 'dict[str, str]', "
    "claims: 'tuple[str, ...]', claims_known_false: 'tuple[str, ...]' = (), "
    "notes: 'str' = '', reconstructed_quotient_rows: 'tuple[int, ...]' = ()) "
    "-> 'None'",
    "(family: 'LineFamily', shift: 'int', cells: 'Sequence[Sequence[int]]') "
    "-> 'None'",
    "(name: 'str', lines: 'tuple[tuple[LineFamily, int, tuple[int, ...]], ...]', "
    "scale: 'int' = 1, mult: 'int' = 1, doubled: 'bool' = False, "
    "franklin: 'bool' = False) -> 'None'",
    "(archetype: 'Archetype', order: 'int', seed: 'Iterable[int]') -> 'None'",
    "(square: 'Square', report: 'PropertyReport') -> 'None'",
    "(order: 'int', mode: 'SearchMode' = <SearchMode.COUNT: 'count'>, "
    "node_budget: 'int | None' = None, prune: 'bool' = True, "
    "progress: 'Callable[[int, int], None] | None' = None, "
    "progress_interval: 'int' = 100000) -> 'None'",
    "(count: 'int', exhausted: 'bool', witnesses: 'tuple[Square, ...]', "
    "nodes_visited: 'int') -> 'None'",
    "(condition: 'str', status: 'ConditionStatus', target: 'int | None', "
    "doubled: 'bool', lines_checked: 'int', "
    "failures: 'tuple[tuple[LineDescriptor, int], ...]') -> 'None'",
    "(order: 'int', targets: 'IndexTargets', "
    "conditions: 'tuple[ConditionResult, ...]', semi_magic: 'bool', "
    "magic: 'bool', pandiagonal: 'bool', franklin: 'bool', "
    "pandiagonal_franklin: 'bool', natural: 'bool', balanced: 'bool') -> 'None'",
    "(labels: 'frozenset[str]', target_inferred: 'bool', "
    "report: 'PropertyReport') -> 'None'",
]

# The types built by the shared __init__, by their sample's index.
SHARED_INIT = [
    i for i, value in enumerate(_samples())
    if type(value).__init__.__code__.co_flags & inspect.CO_VARARGS
]


@pytest.mark.parametrize("i", range(len(REPRS)), ids=_NAMES)
def test_fields_are_the_declared_annotations(i):
    cls = type(_samples()[i])
    assert cls.__match_args__ == MATCH_ARGS[i]


@pytest.mark.parametrize("i", range(len(REPRS)), ids=_NAMES)
def test_signature_lists_the_fields(i):
    sig = inspect.signature(type(_samples()[i]))
    assert str(sig) == SIGNATURES[i]
    assert [p.name for p in sig.parameters.values()] == list(MATCH_ARGS[i])
    kinds = {p.kind for p in sig.parameters.values()}
    assert kinds == {inspect.Parameter.POSITIONAL_OR_KEYWORD}


def test_store_only_types_have_no_init_of_their_own():
    assert [_NAMES[i] for i in SHARED_INIT] == [
        "FixtureEntry",
        "Condition",
        "GeneratedSquare",
        "SearchOutcome",
        "ConditionResult",
        "PropertyReport",
        "ClassifyOutcome",
    ]
    for cls in (
        GeneratedSquare, SearchOutcome, ConditionResult, PropertyReport, ClassifyOutcome
    ):
        assert "__init__" not in vars(cls)


@pytest.mark.parametrize("i", SHARED_INIT, ids=[_NAMES[i] for i in SHARED_INIT])
def test_shared_init_binds_like_a_def(i):
    value = _samples()[i]
    cls, fields = type(value), type(value).__match_args__
    args = [getattr(value, name) for name in fields]
    kwargs = dict(zip(fields, args))
    text = repr(value)
    assert repr(cls(*args)) == text
    assert repr(cls(**kwargs)) == text
    assert repr(cls(**dict(reversed(kwargs.items())))) == text
    assert repr(cls(*args[:2], **dict(list(kwargs.items())[2:]))) == text
    first = fields[0]
    with pytest.raises(TypeError, match=f"missing argument '{first}'"):
        cls(**{name: v for name, v in kwargs.items() if name != first})
    with pytest.raises(TypeError, match="unexpected argument 'extra'"):
        cls(*args, extra=1)
    with pytest.raises(TypeError, match=f"multiple values for '{first}'"):
        cls(*args, **{first: args[0]})
    surplus = f"takes {len(fields)} arguments, got {len(fields) + 1}"
    with pytest.raises(TypeError, match=surplus):
        cls(*args, None)
    with pytest.raises(TypeError):
        cls()


def test_condition_and_fixture_entry_fill_in_their_defaults():
    cond = Condition("rows", ((LineFamily.ROW, 0, (0, 1)),))
    assert (cond.scale, cond.mult, cond.doubled, cond.franklin) == (1, 1, False, False)
    assert cond._descriptors == [None]
    cond = Condition("half", (), mult=1, scale=2)
    assert (cond.scale, cond.mult, cond._descriptors) == (2, 1, [])
    row = FixtureEntry("x", 2, "p", {"x.csv": "ab"}, ("natural",))
    assert (row.claims_known_false, row.notes, row.reconstructed_quotient_rows) == (
        (),
        "",
        (),
    )
    assert type(row.files).__name__ == "_FrozenDict"
    assert row == FixtureEntry(
        name="x", order=2, provenance="p", files={"x.csv": "ab"}, claims=("natural",)
    )


def test_a_subclass_that_declares_no_fields_keeps_its_bases():
    class Sub(Square):
        pass

    assert Sub.__match_args__ == ("cells",)
    assert repr(Sub(((1,),))).endswith(".Sub(cells=((1,),))")


@pytest.mark.parametrize(
    "cells",
    [[[1, 2], [3, 4]], ([1, 2], [3, 4]), [(1, 2), (3, 4)], ((1, 2), [3, 4])],
    ids=["lists", "tuple-of-lists", "list-of-tuples", "mixed"],
)
def test_a_square_stores_its_rows_as_tuples(cells):
    sq = Square(cells)
    assert sq.cells == ((1, 2), (3, 4))
    assert type(sq.cells) is tuple and all(type(row) is tuple for row in sq.cells)
    assert sq == Square.from_rows([[1, 2], [3, 4]])
    assert hash(sq) == hash(Square.from_rows([[1, 2], [3, 4]]))
    if isinstance(cells[0], list):
        cells[0][0] = 9
    assert sq.cells[0][0] == 1


def test_a_square_keeps_tuple_rows_as_given():
    rows = ((1, 2), (3, 4))
    sq = Square(rows)
    assert sq.cells is rows
    assert Square([rows[0], rows[1]]).cells[0] is rows[0]


def _stored_without_a_second_scan():
    """(value, twin) pairs: a value the package stored with no second
    scan of its cells, and the same value built by a checking constructor."""
    parsed = parse_square_csv("4,1\n1,4\n")
    pair = decompose(parsed)
    first = search_natural_franklin(SearchOptions(8, SearchMode.FIRST, 200_000))
    witness = first.witnesses[0]
    return [
        (parsed, Square(((4, 1), (1, 4)))),
        (pair, AuxPair(Square(((1, 0), (0, 1))), Square(((1, 0), (0, 1))))),
        (compose(pair), Square([[4, 1], [1, 4]])),
        (witness, Square(witness.to_lists())),
    ]


@pytest.mark.parametrize(
    "k", range(4), ids=["parse_square_csv", "decompose", "compose", "search-leaf"]
)
def test_values_stored_without_a_second_scan_act_as_checked_ones(k):
    value, twin = _stored_without_a_second_scan()[k]
    copies = [value, copy.copy(value), copy.deepcopy(value)]
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        copies.append(pickle.loads(pickle.dumps(value, protocol)))
    for got in copies:
        assert type(got) is type(twin)
        assert got == twin and hash(got) == hash(twin) and repr(got) == repr(twin)
        with pytest.raises(AttributeError):
            got.extra = 1
    squares = (value.quotient, value.remainder) if k == 1 else (value,)
    for sq in squares:
        assert type(sq.cells) is tuple
        assert all(type(row) is tuple and len(row) == sq.order for row in sq.cells)
        assert all(type(v) is int for row in sq.cells for v in row)


@pytest.mark.parametrize(
    "cells,flags",
    [(((1, 2), (3, 4)), (True, False)), (((0, 1), (1, 0)), (False, True))],
    ids=["natural", "balanced"],
)
def test_natural_and_balanced_flags_are_kept_out_of_eq_hash_and_repr(cells, flags):
    sq, fresh = Square(cells), Square(cells)
    assert (is_natural(sq), is_balanced(sq)) == flags
    assert vars(sq) == {"cells": cells, "_natural": flags[0], "_balanced": flags[1]}
    assert vars(fresh) == {"cells": cells}
    assert sq == fresh and hash(sq) == hash(fresh) and repr(sq) == repr(fresh)
    assert (is_natural(sq), is_balanced(sq)) == flags
    for name in ("_natural", "_balanced"):
        with pytest.raises(AttributeError):
            setattr(sq, name, None)
    for protocol in range(pickle.HIGHEST_PROTOCOL + 1):
        twin = pickle.loads(pickle.dumps(sq, protocol))
        assert twin == fresh and repr(twin) == repr(fresh)
        assert (is_natural(twin), is_balanced(twin)) == flags
