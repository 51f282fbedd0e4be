import json

import pytest

from franklin_squares import IndexTargets, Square, classify, verify
from franklin_squares import fixtures
from franklin_squares.formats import (
    FormatError,
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


@pytest.mark.parametrize(
    "payload",
    [
        "[1,2]",
        "{}",
        '{"order": 2}',
        '{"order": 2, "cells": [[1, 2], [3]]}',
        '{"order": 3, "cells": [[1, 2], [3, 4]]}',
        '{"order": 2, "cells": [[1, "x"], [3, 4]]}',
        '{"order": 2, "cells": [[1, 2], [3, 4]], "name": 7}',
        '{"order": true, "cells": [1]}',
        "not json at all",
    ],
)
def test_parse_square_json_rejects_malformed(payload):
    with pytest.raises(FormatError):
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
