import os
import subprocess
import sys
from pathlib import Path

import pytest

import franklin_squares
from franklin_squares.lines import (
    BENT_FAMILIES,
    HALF_LINE_FAMILIES,
    LineFamily,
    bent_diagonal_cells,
    family_lines,
    franklin_checks,
    half_line_cells,
    pandiagonal_cells,
    subsquare_cells,
    table,
)

EVEN_ORDERS = (2, 4, 6, 8, 16, 24, 40)


@pytest.mark.parametrize("n", EVEN_ORDERS)
def test_family_counts(n):
    assert len(family_lines(n, LineFamily.ROW)) == n
    assert len(family_lines(n, LineFamily.COLUMN)) == n
    assert len(family_lines(n, LineFamily.MAIN_DIAGONAL)) == 1
    assert len(family_lines(n, LineFamily.CROSS_DIAGONAL)) == 1
    assert len(family_lines(n, LineFamily.PANDIAG_DOWNRIGHT)) == n
    assert len(family_lines(n, LineFamily.PANDIAG_DOWNLEFT)) == n
    for fam in BENT_FAMILIES:
        assert len(family_lines(n, fam)) == n
    for fam in HALF_LINE_FAMILIES:
        assert len(family_lines(n, fam)) == n
    assert len(family_lines(n, LineFamily.SUBSQUARE_2x2)) == n * n


@pytest.mark.parametrize("n", EVEN_ORDERS)
def test_line_lengths(n):
    full = (
        LineFamily.ROW,
        LineFamily.COLUMN,
        LineFamily.MAIN_DIAGONAL,
        LineFamily.CROSS_DIAGONAL,
        LineFamily.PANDIAG_DOWNRIGHT,
        LineFamily.PANDIAG_DOWNLEFT,
    ) + BENT_FAMILIES
    for fam in full:
        for line in family_lines(n, fam):
            assert len(line.cells) == n
    for fam in HALF_LINE_FAMILIES:
        for line in family_lines(n, fam):
            assert len(line.cells) == n // 2
    for line in family_lines(n, LineFamily.SUBSQUARE_2x2):
        assert len(line.cells) == 4


@pytest.mark.parametrize("n", EVEN_ORDERS)
@pytest.mark.parametrize("family", BENT_FAMILIES)
def test_bent_family_partitions_grid(n, family):
    seen = set()
    for line in family_lines(n, family):
        cells = set(line.cells)
        assert len(cells) == n
        assert not cells & seen
        seen |= cells
    assert seen == {(r, c) for r in range(n) for c in range(n)}


@pytest.mark.parametrize("n", EVEN_ORDERS)
@pytest.mark.parametrize(
    "family", (LineFamily.PANDIAG_DOWNRIGHT, LineFamily.PANDIAG_DOWNLEFT)
)
def test_pandiagonal_family_partitions_grid(n, family):
    seen = set()
    for line in family_lines(n, family):
        seen |= set(line.cells)
    assert seen == {(r, c) for r in range(n) for c in range(n)}
    assert sum(len(line.cells) for line in family_lines(n, family)) == n * n


@pytest.mark.parametrize("n", EVEN_ORDERS)
def test_half_lines_partition_grid(n):
    all_cells = {(r, c) for r in range(n) for c in range(n)}
    row_halves = set()
    for fam in (LineFamily.HALF_ROW_LEFT, LineFamily.HALF_ROW_RIGHT):
        for line in family_lines(n, fam):
            assert not set(line.cells) & row_halves
            row_halves |= set(line.cells)
    assert row_halves == all_cells
    col_halves = set()
    for fam in (LineFamily.HALF_COL_UPPER, LineFamily.HALF_COL_LOWER):
        for line in family_lines(n, fam):
            assert not set(line.cells) & col_halves
            col_halves |= set(line.cells)
    assert col_halves == all_cells


@pytest.mark.parametrize("n", EVEN_ORDERS)
def test_each_cell_in_exactly_four_subsquares(n):
    counts = {}
    for line in family_lines(n, LineFamily.SUBSQUARE_2x2):
        for cell in line.cells:
            counts[cell] = counts.get(cell, 0) + 1
    assert set(counts.values()) == {4}
    assert len(counts) == n * n


def test_subsquare_wraps_around():
    cells = set(subsquare_cells(4, 3, 3))
    assert cells == {(3, 3), (3, 0), (0, 3), (0, 0)}


def test_bent_down_order_2_is_top_row():
    assert bent_diagonal_cells(2, LineFamily.BENT_DOWN, 0) == ((0, 0), (0, 1))


def test_bent_down_order_4_shape():
    # V pointing down: descends toward the vertical midline, then rises.
    assert set(bent_diagonal_cells(4, LineFamily.BENT_DOWN, 0)) == {
        (0, 0),
        (1, 1),
        (1, 2),
        (0, 3),
    }


def test_bent_shift_translates_rows():
    base = bent_diagonal_cells(8, LineFamily.BENT_DOWN, 0)
    shifted = bent_diagonal_cells(8, LineFamily.BENT_DOWN, 3)
    assert [(r + 3) % 8 for r, _ in base] == [r for r, _ in shifted]


def test_pandiagonal_directions_differ():
    down_right = pandiagonal_cells(4, LineFamily.PANDIAG_DOWNRIGHT, 0)
    down_left = pandiagonal_cells(4, LineFamily.PANDIAG_DOWNLEFT, 0)
    assert (1, 1) in down_right
    assert (1, 3) in down_left


def test_half_line_cells_split_at_midline():
    assert half_line_cells(4, LineFamily.HALF_ROW_LEFT, 1) == ((1, 0), (1, 1))
    assert half_line_cells(4, LineFamily.HALF_ROW_RIGHT, 1) == ((1, 2), (1, 3))
    assert half_line_cells(4, LineFamily.HALF_COL_UPPER, 2) == ((0, 2), (1, 2))
    assert half_line_cells(4, LineFamily.HALF_COL_LOWER, 2) == ((2, 2), (3, 2))


def test_odd_order_rejected_for_even_only_families():
    with pytest.raises(ValueError):
        bent_diagonal_cells(5, LineFamily.BENT_DOWN, 0)
    with pytest.raises(ValueError):
        half_line_cells(5, LineFamily.HALF_ROW_LEFT, 0)


@pytest.mark.parametrize("n", (1, 3, 5) + EVEN_ORDERS)
def test_table_holds_family_lines_as_flat_indexes(n):
    assert table(n) is table(n)
    built = {
        (family, shift, cells)
        for cond in table(n)
        for family, shift, cells in cond.lines
    }
    even_only = BENT_FAMILIES + HALF_LINE_FAMILIES + (LineFamily.SUBSQUARE_2x2,)
    families = [f for f in LineFamily if n % 2 == 0 or f not in even_only]
    want = {
        (d.family, d.shift, tuple(r * n + c for r, c in d.cells))
        for family in families
        for d in family_lines(n, family)
    }
    assert built == want


def test_table_rules_and_report_order():
    rules = {c.name: (c.scale, c.mult, c.doubled, c.franklin) for c in table(8)}
    assert list(rules) == [
        "rows", "columns", "main_diagonal", "cross_diagonal", "pandiagonals",
        "bent_down", "bent_up", "bent_right", "bent_left",
        "half_lines", "subsquares",
    ]
    assert rules["rows"] == (1, 1, False, True)
    assert rules["pandiagonals"] == (1, 1, False, False)
    assert rules["half_lines"] == (2, 1, True, True)
    assert rules["subsquares"] == (8, 4, False, True)
    half, sub = table(6)[-2:]
    assert not half.satisfiable(111) and half.satisfiable(110)
    assert not sub.satisfiable(16) and sub.satisfiable(111)
    assert [c.name for c in table(5) if not c.lines] == [
        "bent_down", "bent_up", "bent_right", "bent_left",
        "half_lines", "subsquares",
    ]


def test_franklin_checks_targets():
    targets = {}
    for cells, target in franklin_checks(8, 260):
        targets.setdefault(len(cells), set()).add(target)
    # full lines 260, half-lines 260/2, subsquares 4*260/8
    assert targets == {8: {260}, 4: {130}}
    assert len(franklin_checks(8, 260)) == 8 + 8 + 4 * 8 + 4 * 8 + 64
    assert franklin_checks(8, 28)[-1] == ((63, 56, 7, 0), 14)
    assert franklin_checks(6, 111) is None  # odd m: no half-line target
    assert franklin_checks(5, 65) is None  # odd order: no bent lines


def test_importing_the_package_builds_no_table():
    code = (
        "import franklin_squares.cli, franklin_squares.lines as lines; "
        "assert lines.table.cache_info().currsize == 0"
    )
    src = str(Path(franklin_squares.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], check=True, env=env)
