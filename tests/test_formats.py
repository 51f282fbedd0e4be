import json
import re

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from franklin_squares import (
    IndexTargets,
    PropertyReport,
    Square,
    check_lines,
    classify,
    verify,
)
from franklin_squares import fixtures
from franklin_squares.formats import (
    FormatError,
    outcome_to_dict,
    parse_square_csv,
    parse_square_json,
    report_to_dict,
    report_to_json,
    square_to_csv,
    square_to_json,
)
from franklin_squares.lines import LineDescriptor, LineFamily
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
    # a sign and blanks around a value are accepted
    assert parse_square_csv("-1, +2\n 3 ,04\n").cells == ((-1, 2), (3, 4))


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
        "1_6,2\n3,4\n",
        "1,2\n3,\u0664\n",
        "1,2\n3,+-4\n",
        "1,2\n3,-\n",
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
    text = square_to_json(sq)
    assert json.loads(text) == {"order": 2, "cells": [4, 1, 1, 4]}
    assert parse_square_json(text) == sq
    # An input name, a string or null, is accepted and not kept.
    for name in ("demo", None):
        named = json.dumps({"order": 2, "cells": [4, 1, 1, 4], "name": name})
        assert parse_square_json(named) == sq


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
    # A CR or CRLF ends a line as LF does, in the place the decoder names.
    '{"order": 2,\r "cells": [1,2,\r\n3 4]}': (
        "invalid JSON: Expecting ',' delimiter: line 3 column 3 (char 31)"
    ),
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


def _assert_stdlib_text(report, target_inferred=False):
    """report_to_json equals the stdlib's indent-2 text of report_to_dict,
    rendered twice so a line cached by the first call is reused."""
    want = json.dumps(report_to_dict(report, target_inferred), indent=2)
    for _ in range(2):
        # Line lists: pytest's diff of two long strings is very slow.
        assert report_to_json(report, target_inferred).split("\n") == want.split("\n")
    return want


def test_indented_writer_matches_stdlib_on_fixture_reports():
    root = fixtures.data_dir()
    count = 0
    for name in fixtures.names():
        for filename in fixtures.entry(name).files:
            out = classify(parse_square_csv((root / filename).read_text()))
            _assert_stdlib_text(out.report, out.target_inferred)
            count += 1
    assert count == 32


@st.composite
def _reports(draw):
    """A report at orders 1-12: a natural square at its own target, any
    grid at the target classify infers, or any grid at an odd target, which
    makes the half-lines unsatisfiable and can leave subsquares no target."""
    n = draw(st.integers(1, 12))
    kind = draw(st.sampled_from(["natural", "inferred", "odd"]))
    if kind == "natural":
        values = draw(st.permutations(range(1, n * n + 1)))
    else:
        values = draw(st.lists(st.integers(-3, 9), min_size=n * n, max_size=n * n))
    square = Square.from_rows([values[r * n:(r + 1) * n] for r in range(n)])
    if kind == "natural":
        return verify(square, IndexTargets.natural(n)), False
    if kind == "inferred":
        out = classify(square)
        return out.report, out.target_inferred
    m = draw(st.integers(-200, 200)) * 2 + 1
    return verify(square, IndexTargets(n, m)), False


@settings(max_examples=80, deadline=None)
@given(_reports())
def test_indented_writer_matches_stdlib_on_random_reports(drawn):
    _assert_stdlib_text(*drawn)


def test_odd_target_report_has_unsatisfiable_sections_and_null_target():
    sq = fixtures.load_square("f8_1769")
    text = _assert_stdlib_text(verify(sq, IndexTargets(8, 259)))
    assert '"status": "unsatisfiable"' in text
    assert '"target": null' in text


def test_report_with_no_conditions_matches_stdlib():
    report = verify(fixtures.load_square("f8_1769"), IndexTargets.natural(8))
    fields = {name: getattr(report, name) for name in PropertyReport.__match_args__}
    text = _assert_stdlib_text(PropertyReport(**{**fields, "conditions": ()}))
    assert '"conditions": []' in text


def test_cached_line_text_carries_no_sum():
    # Both reports fail every line at order 4; only the sums differ.
    ones = verify(Square.from_rows([[1] * 4] * 4), IndexTargets(4, 5))
    threes = verify(Square.from_rows([[3] * 4] * 4), IndexTargets(4, 5))
    assert '"actual": 4' in report_to_json(ones)
    text = _assert_stdlib_text(threes)
    assert '"actual": 12' in text and '"actual": 4' not in text


def _report_of(result):
    """The report verify gives Square.from_rows([[1, 2], [3, 4]]) at its
    natural target, with result as its one condition."""
    return PropertyReport(
        order=2,
        targets=IndexTargets.natural(2),
        conditions=(result,),
        semi_magic=False,
        magic=False,
        pandiagonal=True,
        franklin=False,
        pandiagonal_franklin=False,
        natural=True,
        balanced=False,
    )


def test_check_lines_list_cells_are_frozen_into_a_hashable_descriptor():
    sq = Square.from_rows([[1, 2], [3, 4]])
    pairs = [(0, 0), [0, 1]]
    line = LineDescriptor(LineFamily.ROW, 0, pairs)
    assert line.cells == ((0, 0), (0, 1))
    assert hash(line) == hash(LineDescriptor(LineFamily.ROW, 0, ((0, 0), (0, 1))))
    result = check_lines(sq, (line,), 5, condition='caf\u00e9 "rows"')
    report = _report_of(result)
    text = _assert_stdlib_text(report)
    assert '"condition": "caf\\u00e9 \\"rows\\"",' in text
    # Later edits to the caller's list do not reach the descriptor.
    pairs[1][1] = 1
    pairs[0] = (1, 1)
    assert line.cells == ((0, 0), (0, 1))
    assert _assert_stdlib_text(report) == text


def test_check_lines_values_outside_the_report_schema_raise():
    # Each would reach the JSON report as a value its schema does not have:
    # bool coordinates and shift, a bool target, an int for doubled and an
    # int condition name.
    sq = Square.from_rows([[1, 2], [3, 4]])
    line = LineDescriptor(LineFamily.ROW, 0, ((0, 0), (1, 1)))
    for build in (
        lambda: LineDescriptor(LineFamily.ROW, True, ((0, 0), (1, 1))),
        lambda: LineDescriptor(LineFamily.ROW, 0, ((True, 0), (1, 1))),
        lambda: check_lines(sq, (line,), True),
        lambda: check_lines(sq, (line,), 5, doubled=1),
        lambda: check_lines(sq, (line,), 5, condition=7),
    ):
        with pytest.raises(ValueError):
            build()


def test_line_text_lives_as_long_as_its_line():
    import gc
    import weakref

    sq = Square.from_rows([[1, 2], [3, 4]])
    lines = tuple(LineDescriptor(LineFamily.ROW, k, ((0, 0),)) for k in range(600))
    report = _report_of(check_lines(sq, lines, 5))
    _assert_stdlib_text(report)
    assert all("_json" in vars(line) for line in lines)
    # The text hangs on its line, so dropping the caller's objects frees both.
    last = weakref.ref(lines[-1])
    del report, lines
    gc.collect()
    assert last() is None
