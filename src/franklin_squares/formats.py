"""Interchange formats: CSV grids, JSON squares, JSON reports.

Canonical CSV is one grid row per line, comma-separated decimal integers,
no header, LF line endings, exactly one trailing newline. Parsing a
canonical file and emitting it again is byte-identical.

JSON squares are {"order": n, "cells": [row-major ints], "name"?: str}.
Reports serialize a PropertyReport with a schema_version field and a fixed
key order; failures are already sorted by (family, shift).
"""

from __future__ import annotations

import json
from typing import TYPE_CHECKING

from .core import Square
from .verify import ConditionResult, PropertyReport

if TYPE_CHECKING:
    from .search import SearchOutcome

SCHEMA_VERSION = 1


class FormatError(ValueError):
    """Malformed input text (bad CSV/JSON grid)."""


def parse_square_csv(text: str) -> Square:
    rows = []
    for lineno, line in enumerate(text.split("\n"), start=1):
        if line == "":
            continue
        cells = []
        for tok in line.split(","):
            tok = tok.strip()
            try:
                cells.append(int(tok))
            except ValueError:
                raise FormatError(
                    f"line {lineno}: {tok!r} is not an integer"
                ) from None
        rows.append(cells)
    if not rows:
        raise FormatError("empty grid")
    n = len(rows)
    for lineno, row in enumerate(rows, start=1):
        if len(row) != n:
            raise FormatError(
                f"ragged grid: {n} rows but line {lineno} has {len(row)} values"
            )
    return Square.from_rows(rows)


def square_to_csv(sq: Square) -> str:
    return "".join(",".join(str(v) for v in row) + "\n" for row in sq.cells)


def parse_square_json(text: str) -> tuple[Square, str | None]:
    try:
        obj = json.loads(text)
    except json.JSONDecodeError as exc:
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
    rows = [cells[r * order:(r + 1) * order] for r in range(order)]
    name = obj.get("name")
    if name is not None and not isinstance(name, str):
        raise FormatError("'name' must be a string")
    return Square.from_rows(rows), name


def square_to_json(sq: Square, name: str | None = None) -> str:
    obj: dict = {"order": sq.order, "cells": [v for row in sq.cells for v in row]}
    if name is not None:
        obj["name"] = name
    return json.dumps(obj)


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


def report_to_json(report: PropertyReport, target_inferred: bool = False) -> str:
    return json.dumps(report_to_dict(report, target_inferred), indent=2)


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
        obj["witnesses"] = [
            {"order": w.order, "cells": [v for row in w.cells for v in row]}
            for w in outcome.witnesses
        ]
    return obj
