import enum
import json
import math
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from franklin_squares import IndexTargets, Square, classify, verify
from franklin_squares import fixtures
from franklin_squares.formats import (
    FormatError,
    _dumps_indented,
    outcome_to_dict,
    parse_square_csv,
    parse_square_json,
    report_to_dict,
    square_to_csv,
    square_to_json,
)
from franklin_squares.search import SearchOutcome


def test_csv_roundtrip_is_byte_stable_for_every_stored_grid():
    root = fixtures.data_dir()
    for name in fixtures.names():
        for filename in fixtures.entry(name).files:
            text = (root / filename).read_text(encoding="ascii")
            assert square_to_csv(parse_square_csv(text)) == text, filename


def test_parse_square_csv_basic():
    sq = parse_square_csv("1,2\n3,4\n")
    assert sq.cells == ((1, 2), (3, 4))
    # a missing trailing newline is accepted on input
    assert parse_square_csv("1,2\n3,4").cells == ((1, 2), (3, 4))


def test_square_to_csv_canonical_form():
    assert square_to_csv(Square.from_rows([[1, 2], [3, 4]])) == "1,2\n3,4\n"


@pytest.mark.parametrize(
    "text",
    [
        "",
        "\n\n",
        "1,2\n3\n",
        "1,2\n",
        "1,a\n3,4\n",
        "1,2.5\n3,4\n",
        "1,,2\n3,4,5\n1,2,3\n",
    ],
)
def test_parse_square_csv_rejects_malformed(text):
    with pytest.raises(FormatError):
        parse_square_csv(text)


def test_csv_error_reports_line_number():
    with pytest.raises(FormatError, match="line 2"):
        parse_square_csv("1,2\nx,4\n")
    # Blank lines are skipped but still counted.
    with pytest.raises(FormatError, match="line 3 has 1 values"):
        parse_square_csv("1,2\n\n3\n")


def test_json_square_roundtrip():
    sq = Square.from_rows([[4, 1], [1, 4]])
    text = square_to_json(sq, name="demo")
    back, name = parse_square_json(text)
    assert back.cells == sq.cells
    assert name == "demo"
    back2, name2 = parse_square_json(square_to_json(sq))
    assert back2.cells == sq.cells
    assert name2 is None


MALFORMED_JSON = {
    "[1,2]": "JSON square must be an object",
    "{}": "JSON square needs a positive integer 'order'",
    '{"order": 2}': "'cells' must hold exactly 2*2 values",
    '{"order": 2, "cells": [[1, 2], [3]]}': "'cells' must hold exactly 2*2 values",
    '{"order": 3, "cells": [[1, 2], [3, 4]]}': "'cells' must hold exactly 3*3 values",
    '{"order": 2, "cells": [1, "x", 3, 4]}': "'cells' values must be integers",
    '{"order": 2, "cells": [1, 2, 3, 4], "name": 7}': "'name' must be a string",
    '{"order": true, "cells": [1]}': "JSON square needs a positive integer 'order'",
    "not json at all": "invalid JSON: ",
}


@pytest.mark.parametrize("payload", list(MALFORMED_JSON))
def test_parse_square_json_rejects_malformed(payload):
    with pytest.raises(FormatError, match=re.escape(MALFORMED_JSON[payload])):
        parse_square_json(payload)


def test_report_dict_shape():
    sq = fixtures.load_square("f8_1769")
    rep = verify(sq, IndexTargets.natural(8))
    obj = report_to_dict(rep, target_inferred=False)
    assert obj["schema_version"] == 1
    assert obj["order"] == 8
    assert obj["line_sum"] == 260
    assert obj["target_inferred"] is False
    assert set(obj["flags"]) == {
        "semi_magic",
        "magic",
        "pandiagonal",
        "franklin",
        "pandiagonal_franklin",
        "natural",
        "balanced",
    }
    names = [c["condition"] for c in obj["conditions"]]
    assert names == [
        "rows",
        "columns",
        "main_diagonal",
        "cross_diagonal",
        "pandiagonals",
        "bent_down",
        "bent_up",
        "bent_right",
        "bent_left",
        "half_lines",
        "subsquares",
    ]
    main = obj["conditions"][2]
    assert main["status"] == "failed"
    assert main["passed"] is False
    assert main["failures"][0]["actual"] == 228
    assert main["failures"][0]["family"] == "MAIN_DIAGONAL"
    assert main["failures"][0]["cells"][0] == [0, 0]
    # the whole report serializes
    json.dumps(obj)


def test_report_dict_marks_inferred_targets():
    out = classify(Square.from_rows([[2, 2], [2, 2]]))
    obj = report_to_dict(out.report, target_inferred=out.target_inferred)
    assert obj["target_inferred"] is True


def test_outcome_dict_with_and_without_witnesses():
    witness = Square.from_rows([[1, 2], [3, 4]])
    outcome = SearchOutcome(
        count=1, exhausted=False, witnesses=(witness,), nodes_visited=7
    )
    full = outcome_to_dict(outcome)
    assert full["count"] == 1
    assert full["witnesses"] == [{"order": 2, "cells": [1, 2, 3, 4]}]
    trimmed = outcome_to_dict(outcome, include_witnesses=False)
    assert "witnesses" not in trimmed
    assert trimmed["nodes_visited"] == 7
    json.dumps(full)


# Text the encoder must escape: quotes, backslashes, control characters,
# non-ASCII (two-byte, astral, line separator) and lone surrogates.
_texts = st.text(
    st.one_of(
        st.sampled_from('"\\/\x00\x08\x1f\x7f\u00e9\u2028\U0001d11e\ud800'),
        st.characters(),
    ),
    max_size=8,
)
_ints = st.one_of(
    st.integers(-1000, 1000),
    st.integers(min_value=2**64),
    st.integers(max_value=-(2**64)),
)
_int_rows = st.integers(0, 4).flatmap(
    lambda k: st.lists(st.lists(_ints, min_size=k, max_size=k), max_size=4)
)
_json_values = st.recursive(
    st.one_of(
        st.none(),
        st.booleans(),
        _ints,
        _texts,
        st.lists(_ints, max_size=5),
        st.lists(st.one_of(_ints, st.booleans(), st.none()), max_size=5),
        _int_rows,
        st.lists(st.lists(_ints, max_size=3), max_size=4),  # mostly ragged
        st.lists(st.lists(st.one_of(_ints, st.booleans()), min_size=2, max_size=2)),
    ),
    lambda inner: st.one_of(
        st.lists(inner, max_size=4), st.dictionaries(_texts, inner, max_size=4)
    ),
    max_leaves=20,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
def test_indented_writer_matches_stdlib(value):
    assert _dumps_indented(value) == json.dumps(value, indent=2)


class _Level(enum.IntEnum):
    LOW = 1


@pytest.mark.parametrize(
    "value",
    [
        1.5,
        float("nan"),
        (1, 2),
        [[1, 2], (3, 4)],
        {"a": [0.5, 2]},
        {1: "int key", None: "null key"},
        {"k": {True: [1]}},
        _Level.LOW,
        [_Level.LOW, 2],
        [[_Level.LOW, 2], [3, 4]],
        [[[]], [[1]], {}],
    ],
)
def test_indented_writer_hands_other_values_to_stdlib(value):
    assert _dumps_indented(value) == json.dumps(value, indent=2)


def test_indented_writer_raises_as_stdlib_does():
    loop: list = []
    loop.append(loop)
    with pytest.raises(ValueError, match="Circular reference"):
        _dumps_indented({"a": loop})
    with pytest.raises(TypeError, match="not JSON serializable"):
        _dumps_indented([1, object()])


def test_indented_writer_matches_stdlib_on_fixture_reports():
    root = fixtures.data_dir()
    count = 0
    for name in fixtures.names():
        for filename in fixtures.entry(name).files:
            out = classify(parse_square_csv((root / filename).read_text()))
            obj = report_to_dict(out.report, out.target_inferred)
            # Line lists: pytest's diff of two long strings is very slow.
            got = _dumps_indented(obj).split("\n")
            assert got == json.dumps(obj, indent=2).split("\n"), filename
            count += 1
    assert count == 32


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12).flatmap(lambda n: st.permutations(range(1, n * n + 1))))
def test_indented_writer_matches_stdlib_on_random_reports(values):
    n = math.isqrt(len(values))
    square = Square.from_rows([values[r * n:(r + 1) * n] for r in range(n)])
    obj = report_to_dict(verify(square, IndexTargets.natural(n)))
    got = _dumps_indented(obj).split("\n")
    assert got == json.dumps(obj, indent=2).split("\n")
