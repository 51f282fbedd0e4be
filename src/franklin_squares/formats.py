"""Interchange formats: CSV grids, JSON squares, JSON reports.

Canonical CSV is one grid row per line, comma-separated decimal integers,
no header, LF line endings, exactly one trailing newline. Parsing a
canonical file and emitting it again is byte-identical. On input a value
is an optional sign and ASCII digits, with blanks around it allowed, and
a line may end in LF, CRLF or a lone CR.

JSON squares are {"order": n, "cells": [row-major ints]}; on input an
optional "name" must be a string or null, and is ignored.
Reports serialize a PropertyReport with a schema_version field and a fixed
key order; failures are already sorted by (family, shift). report_to_json
writes ``json.dumps(report_to_dict(...), indent=2)`` byte for byte from the
report, as a list of pieces joined once. A failing line's text is
rendered the first time a report shows it and kept on its
LineDescriptor, so it lives as long as the line does, and only that one
join copies it.
"""

from __future__ import annotations

import json
import sys
from json.encoder import encode_basestring_ascii as _quote
from typing import TYPE_CHECKING

from .core import Square, _set
from .verify import ConditionResult, PropertyReport

if TYPE_CHECKING:
    from .lines import LineDescriptor
    from .search import SearchOutcome

SCHEMA_VERSION = 1


class FormatError(ValueError):
    """Malformed input text (bad CSV/JSON grid)."""


def _decimal(text: str) -> int:
    """The int text spells as an optional sign and ASCII digits, with
    blanks around them; anything else raises ValueError. int() alone also
    takes "1_000" and non-ASCII digits."""
    tok = text.strip()
    digits = tok[1:] if tok[:1] in ("+", "-") else tok
    if not (digits.isascii() and digits.isdigit()):
        raise ValueError(f"not a decimal integer: {text!r}")
    return int(tok)


def _lf(text: str) -> str:
    """text with each CRLF or lone CR read as LF."""
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _not_an_integer(tok: str, lineno: int) -> str:
    """The message for a CSV value int() or _decimal refused."""
    tok = tok.strip()
    digits = tok[1:] if tok[:1] in ("+", "-") else tok
    if digits.isascii() and digits.isdigit():
        # A decimal integer is refused only past the interpreter's limit
        # on the digits int() converts.
        return (
            f"line {lineno}: {tok[:20]!r}... has {len(digits)} digits, "
            f"more than the {sys.get_int_max_str_digits()}-digit limit"
        )
    return f"line {lineno}: {tok!r} is not an integer"


def _line_values(line: str, lineno: int, number) -> tuple[int, ...]:
    """The values of one CSV line, each token read by number; a token it
    refuses raises FormatError."""
    cells = []
    for tok in line.split(","):
        try:
            cells.append(number(tok))
        except ValueError:
            raise FormatError(_not_an_integer(tok, lineno)) from None
    return tuple(cells)


def parse_square_csv(text: str) -> Square:
    """The square in CSV text.

    Each value is checked once, as it is read: int() and _decimal return
    exact ints, and the rows are counted against the row count, so the
    square is stored with no second scan.
    """
    rows: dict[int, tuple[int, ...]] = {}  # file line number -> values
    for lineno, line in enumerate(_lf(text).split("\n"), start=1):
        if line == "":
            continue
        # int() also takes "1_6" and non-ASCII digits; an ASCII line with
        # no "_" holds neither, so it is read whole by int, and only a
        # line int refuses is read again token by token, for the message.
        if line.isascii() and "_" not in line:
            try:
                rows[lineno] = tuple(map(int, line.split(",")))
            except ValueError:
                _line_values(line, lineno, int)  # raises, naming the token
        else:
            rows[lineno] = _line_values(line, lineno, _decimal)
    if not rows:
        raise FormatError("empty grid")
    n = len(rows)
    for lineno, row in rows.items():
        if len(row) != n:
            raise FormatError(
                f"ragged grid: {n} rows but line {lineno} has {len(row)} values"
            )
    return Square._of(tuple(rows.values()))


def square_to_csv(sq: Square) -> str:
    return "".join(",".join(str(v) for v in row) + "\n" for row in sq.cells)


def parse_square_json(text: str) -> Square:
    """The square in a JSON square's text; an optional "name" must be a
    string or null, and is not kept."""
    try:
        obj = json.loads(_lf(text))
    # ValueError: a JSONDecodeError, or an integer over the digit limit;
    # RecursionError: arrays nested too deep for the decoder.
    except (ValueError, RecursionError) as exc:
        raise FormatError(f"invalid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise FormatError("JSON square must be an object")
    order = obj.get("order")
    cells = obj.get("cells")
    if not isinstance(order, int) or isinstance(order, bool) or order < 1:
        raise FormatError("JSON square needs a positive integer 'order'")
    if not isinstance(cells, list) or len(cells) != order * order:
        raise FormatError(f"'cells' must hold exactly {order}*{order} values")
    if not all(isinstance(v, int) and not isinstance(v, bool) for v in cells):
        raise FormatError("'cells' values must be integers")
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise FormatError("'name' must be a string")
    return Square.from_rows(cells[r * order:(r + 1) * order] for r in range(order))


def _square_dict(sq: Square) -> dict:
    return {"order": sq.order, "cells": [v for row in sq.cells for v in row]}


def square_to_json(sq: Square) -> str:
    return json.dumps(_square_dict(sq))


def _condition_to_dict(result: ConditionResult) -> dict:
    return {
        "condition": result.condition,
        "status": result.status.value,
        "passed": result.passed,
        "target": result.target,
        "doubled": result.doubled,
        "lines_checked": result.lines_checked,
        "failures": [
            {
                "family": line.family.value,
                "shift": line.shift,
                "cells": [[r, c] for r, c in line.cells],
                "actual": actual,
            }
            for line, actual in result.failures
        ],
    }


def report_to_dict(
    report: PropertyReport, target_inferred: bool = False
) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "order": report.order,
        "line_sum": report.targets.line_sum,
        "target_inferred": target_inferred,
        "flags": {
            "semi_magic": report.semi_magic,
            "magic": report.magic,
            "pandiagonal": report.pandiagonal,
            "franklin": report.franklin,
            "pandiagonal_franklin": report.pandiagonal_franklin,
            "natural": report.natural,
            "balanced": report.balanced,
        },
        "conditions": [_condition_to_dict(c) for c in report.conditions],
    }


def _array(items: list[str], depth: int, brackets: str = "[]") -> str:
    """Rendered items laid out as json.dumps(..., indent=2) does at depth."""
    if not items:
        return brackets
    pad = "\n" + "  " * depth
    return f"{brackets[0]}{pad}  " + f",{pad}  ".join(items) + pad + brackets[1]


# %-templates of the report's objects, each cut before its last value
# (an object's text goes on after that value with its _END); a failure is
# a line's _line_json text, its actual sum and _END.
(_REPORT, _REPORT_END), (_CONDITION, _CONDITION_END), (_FAILURE, _END) = (
    _array([f'"{key}": %s' for key in keys.split()], depth, "{}").rsplit("%s", 1)
    for depth, keys in (
        (0, "schema_version order line_sum target_inferred flags conditions"),
        (2, "condition status passed target doubled lines_checked failures"),
        (4, "family shift cells actual"))
)
_FLAGS = "semi_magic magic pandiagonal franklin pandiagonal_franklin natural balanced"
# The conditions array and a failures array: the line start of each item,
# and the array's close.
_CONDITION_ITEM, _CONDITIONS_CLOSE = "\n    ", "\n  ]"
_FAILURE_ITEM, _FAILURES_CLOSE = "\n        ", "\n      ]"


def _scalar(value) -> str:
    """value as json.dumps writes it, without the call for a str, int or bool."""
    kind = type(value)
    if kind is bool:
        return "true" if value else "false"
    return _quote(value) if kind is str else str(value) if kind is int else json.dumps(value)


def _line_json(line: LineDescriptor) -> str:
    """_FAILURE filled in for a line, kept on the line as ``_json``."""
    text = line.__dict__.get("_json")
    if text is None:
        flat = tuple([v for cell in line.cells for v in cell])
        array = _array([_array(["%d", "%d"], 6)] * len(line.cells), 5) % flat
        text = _FAILURE % (_quote(line.family.value), "%d" % line.shift, array)
        _set(line, "_json", text)
    return text


def _close(parts: list[str], close: str) -> None:
    """End the array that parts end in: the comma after its last item
    becomes close, and an array with no items is []."""
    parts[-1] = "[]" if parts[-1] == "[" else close


def report_to_json(report: PropertyReport, target_inferred: bool = False) -> str:
    """``json.dumps(report_to_dict(report, target_inferred), indent=2)``,
    as pieces joined once: the largest, each failing line's kept text, is
    not copied before that join."""
    flags = [f'"{key}": {_scalar(getattr(report, key))}' for key in _FLAGS.split()]
    parts = [_REPORT % (
        SCHEMA_VERSION, _scalar(report.order), _scalar(report.targets.line_sum),
        _scalar(target_inferred), _array(flags, 1, "{}"),
    ), "["]
    for c in report.conditions:
        parts += (_CONDITION_ITEM, _CONDITION % (
            _scalar(c.condition), _quote(c.status.value), _scalar(c.passed),
            _scalar(c.target), _scalar(c.doubled), _scalar(c.lines_checked),
        ), "[")
        for line, actual in c.failures:
            parts += (_FAILURE_ITEM, _line_json(line), str(actual), _END, ",")
        _close(parts, _FAILURES_CLOSE)
        parts += (_CONDITION_END, ",")
    _close(parts, _CONDITIONS_CLOSE)
    parts.append(_REPORT_END)
    return "".join(parts)


def outcome_to_dict(
    outcome: SearchOutcome, include_witnesses: bool = True
) -> dict:
    obj = {
        "schema_version": SCHEMA_VERSION,
        "count": outcome.count,
        "exhausted": outcome.exhausted,
        "nodes_visited": outcome.nodes_visited,
    }
    if include_witnesses:
        obj["witnesses"] = [_square_dict(w) for w in outcome.witnesses]
    return obj
