"""Cell enumeration for every line family a square condition can sum over.

Families: full rows and columns, the two main diagonals, wraparound
diagonals in both directions, the four bent-diagonal families (V-shaped
lines of n cells bending at the grid midline, wrapping mod n), half-rows
and half-columns, and 2x2 subsquares anchored at every cell with
wraparound on both axes.

Each family is one cell formula in _geometry, shift s and position k along
the line, everything mod n. The bent families fold the position at the
midline, fold(k) = min(k, n-1-k):

    BENT_DOWN   (r, c) = (s + fold(c), c)
    BENT_UP     (r, c) = (s - fold(c), c)
    BENT_RIGHT  (r, c) = (r, s + fold(r))
    BENT_LEFT   (r, c) = (r, s - fold(r))

For a fixed even order and one bent family, the n shifts partition the
grid: n lines of n cells covering each cell exactly once. The same holds
for the n wraparound diagonals of one direction. family_lines wraps the
geometry in LineDescriptors; table reads it directly.

table(n) compiles every condition a report checks into flat cell indexes
(r*n + c) with one target rule per condition: a line passes at line sum m
when scale*sum == mult*m.

    rows, columns, diagonals, pandiagonals, bent lines   1*sum == 1*m
    half-lines                                           2*sum == 1*m
    2x2 subsquares                                       n*sum == 4*m

Both sides stay integers, so odd or awkward targets never leave exact
arithmetic. When mult*m % scale != 0 no integer sum can meet the rule and
the condition is unsatisfiable at m: half-lines at odd m, subsquares when
n does not divide 4m. This module is the only place that knows the line
geometry and the target arithmetic; verify, search and seed search read
the table.
"""

from __future__ import annotations

from collections.abc import Sequence
from enum import Enum
from functools import lru_cache
from math import gcd

from .core import _require, _set, _Value


class LineFamily(Enum):
    ROW = "ROW"
    COLUMN = "COLUMN"
    MAIN_DIAGONAL = "MAIN_DIAGONAL"
    CROSS_DIAGONAL = "CROSS_DIAGONAL"
    PANDIAG_DOWNRIGHT = "PANDIAG_DOWNRIGHT"
    PANDIAG_DOWNLEFT = "PANDIAG_DOWNLEFT"
    BENT_DOWN = "BENT_DOWN"
    BENT_UP = "BENT_UP"
    BENT_RIGHT = "BENT_RIGHT"
    BENT_LEFT = "BENT_LEFT"
    HALF_ROW_LEFT = "HALF_ROW_LEFT"
    HALF_ROW_RIGHT = "HALF_ROW_RIGHT"
    HALF_COL_UPPER = "HALF_COL_UPPER"
    HALF_COL_LOWER = "HALF_COL_LOWER"
    SUBSQUARE_2x2 = "SUBSQUARE_2x2"


BENT_FAMILIES = (
    LineFamily.BENT_DOWN,
    LineFamily.BENT_UP,
    LineFamily.BENT_RIGHT,
    LineFamily.BENT_LEFT,
)

HALF_LINE_FAMILIES = (
    LineFamily.HALF_ROW_LEFT,
    LineFamily.HALF_ROW_RIGHT,
    LineFamily.HALF_COL_UPPER,
    LineFamily.HALF_COL_LOWER,
)


class LineDescriptor(_Value):
    """One concrete line: its family, its shift within the family and its
    cells, frozen into (row, column) tuples so that it hashes. Anything but
    a LineFamily, an int shift and a sequence of distinct int pairs raises
    ValueError.

    ``_json`` is not a field: formats sets it the first time a report
    shows the line as failing, to the line's JSON text. That text is a
    pure function of the fields under report schema version 1."""

    family: LineFamily
    shift: int
    cells: tuple[tuple[int, int], ...]

    def __init__(
        self, family: LineFamily, shift: int, cells: Sequence[Sequence[int]]
    ) -> None:
        _require("family", family, LineFamily)
        _require("shift", shift)
        cells = tuple(
            cell if type(cell) is tuple else tuple(_require("cell", cell, Sequence))
            for cell in _require("cells", cells, Sequence)
        )
        for r, c in cells:  # a cell that is not a pair fails to unpack
            if type(r) is not int or type(c) is not int:
                _require("row", r)
                _require("column", c)
        if len(set(cells)) != len(cells):
            raise ValueError(f"duplicate cells in line {family} #{shift}")
        _set(self, "family", family)
        _set(self, "shift", shift)
        _set(self, "cells", cells)


def _geometry(n: int, family: LineFamily) -> list[list[tuple[int, int]]]:
    """Every line of one family as (r, c) cells, in shift order."""
    F = LineFamily
    # Odd orders have no midline to bend or halve at; n <= 0 has no lines.
    if n > 0 and n % 2 and (family in BENT_FAMILIES or family in HALF_LINE_FAMILIES):
        raise ValueError(f"even order required, got {n}")
    N, h = range(n), n // 2
    fold = [min(k, n - 1 - k) for k in N]
    match family:
        case F.ROW:
            return [[(s, k) for k in N] for s in N]
        case F.COLUMN:
            return [[(k, s) for k in N] for s in N]
        case F.MAIN_DIAGONAL:
            return [[(k, k) for k in N]]
        case F.CROSS_DIAGONAL:
            return [[(k, n - 1 - k) for k in N]]
        case F.PANDIAG_DOWNRIGHT:
            return [[(k, (s + k) % n) for k in N] for s in N]
        case F.PANDIAG_DOWNLEFT:
            return [[(k, (s - k) % n) for k in N] for s in N]
        case F.BENT_DOWN:
            return [[((s + fold[k]) % n, k) for k in N] for s in N]
        case F.BENT_UP:
            return [[((s - fold[k]) % n, k) for k in N] for s in N]
        case F.BENT_RIGHT:
            return [[(k, (s + fold[k]) % n) for k in N] for s in N]
        case F.BENT_LEFT:
            return [[(k, (s - fold[k]) % n) for k in N] for s in N]
        case F.HALF_ROW_LEFT:
            return [[(s, k) for k in range(h)] for s in N]
        case F.HALF_ROW_RIGHT:
            return [[(s, k) for k in range(h, n)] for s in N]
        case F.HALF_COL_UPPER:
            return [[(k, s) for k in range(h)] for s in N]
        case F.HALF_COL_LOWER:
            return [[(k, s) for k in range(h, n)] for s in N]
        case F.SUBSQUARE_2x2:
            return [
                [(r, c), (r, (c + 1) % n), ((r + 1) % n, c), ((r + 1) % n, (c + 1) % n)]
                for r in N
                for c in N
            ]
    raise ValueError(f"unknown family: {family}")


def family_lines(n: int, family: LineFamily) -> tuple[LineDescriptor, ...]:
    """Every line of one family on an order-n grid, in shift order.

    Subsquare shifts encode the anchor as r*n + c. Main and cross
    diagonals are single-line families with shift 0.
    """
    geometry = enumerate(_geometry(n, family))
    return tuple(LineDescriptor(family, shift, cells) for shift, cells in geometry)


class Condition(_Value):
    """One report section at one order: its lines and its target rule.

    ``lines`` holds (family, shift, flat cell indexes) in (family, shift)
    order; it is empty where the geometry does not exist (bent lines,
    half-lines and subsquares at odd order). A line passes at line sum m
    when scale*sum == mult*m. ``doubled`` marks the section a report shows
    as a doubled comparison (2*sum against m). ``franklin`` marks the
    sections whose passing makes a square Franklin.

    ``_descriptors[k]`` is ``lines[k]`` as a LineDescriptor, or None until
    verify first reports that line failing; verify builds it then and
    every later report shares it, so each line gets one descriptor per
    process, kept as long as the table. Conditions compare by identity:
    table(n) holds one per section, and verify keys shared results by it.
    """

    __eq__ = object.__eq__
    __hash__ = object.__hash__
    name: str
    lines: tuple[tuple[LineFamily, int, tuple[int, ...]], ...]
    scale: int = 1
    mult: int = 1
    doubled: bool = False
    franklin: bool = False
    _descriptors: list[LineDescriptor | None]

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        _set(self, "_descriptors", [None] * len(self.lines))

    def satisfiable(self, m: int) -> bool:
        return (self.mult * m) % self.scale == 0


@lru_cache(maxsize=None)
def table(n: int) -> tuple[Condition, ...]:
    """Every condition on an order-n grid, in report order, built once.

    Each condition's lines all have one width. verify builds one gather
    per order over the cells of every line here, in this order, and it
    gives every line sum of a square in one pass."""
    # One int object per cell index, shared by every line through it.
    index = tuple(range(n * n))

    def lines(*families: LineFamily):
        return tuple(
            (family, shift, tuple([index[r * n + c] for r, c in cells]))
            for family in families
            for shift, cells in enumerate(_geometry(n, family))
        )

    def even_lines(*families: LineFamily):
        return lines(*families) if n % 2 == 0 else ()

    F = LineFamily
    return (
        Condition("rows", lines(F.ROW), franklin=True),
        Condition("columns", lines(F.COLUMN), franklin=True),
        Condition("main_diagonal", lines(F.MAIN_DIAGONAL)),
        Condition("cross_diagonal", lines(F.CROSS_DIAGONAL)),
        Condition("pandiagonals", lines(F.PANDIAG_DOWNRIGHT, F.PANDIAG_DOWNLEFT)),
        *(
            Condition(family.value.lower(), even_lines(family), franklin=True)
            for family in BENT_FAMILIES
        ),
        Condition(
            "half_lines", even_lines(*HALF_LINE_FAMILIES),
            scale=2, doubled=True, franklin=True,
        ),
        Condition(
            "subsquares", even_lines(F.SUBSQUARE_2x2),
            scale=n, mult=4, franklin=True,
        ),
    )


def franklin_checks(n: int, m: int) -> tuple[tuple[tuple[int, ...], int], ...] | None:
    """The lines of the Franklin conditions at line sum m, in report order,
    as (flat cell indexes, exact plain-sum target).

    None when no order-n square can be Franklin at m: a Franklin condition
    does not exist at this order or is unsatisfiable at m.
    """
    conditions = [c for c in table(n) if c.franklin]
    if not all(c.lines and c.satisfiable(m) for c in conditions):
        return None
    return tuple(
        (cells, c.mult * m // c.scale)
        for c in conditions
        for _family, _shift, cells in c.lines
    )


def independent(basis: list[tuple[int, list[int]]], row: list[int]) -> bool:
    """Reduce ``row``, an affine form (integer coefficients, then a
    constant), against ``basis`` and report whether anything is left.

    Nothing is left exactly when row is a combination of the rows the
    basis accepted before, so it is 0 wherever they all are. What is left
    joins the basis as (pivot, row), pivoting on its first nonzero entry;
    a row left with only its constant is 0 nowhere, inconsistent with the
    basis. Both walks use this to find the few lines they must check.
    Exact ints: each step cross-multiplies, and a joining row is divided
    by its gcd.
    """
    for p, pivot_row in basis:
        a = row[p]
        if a:
            b = pivot_row[p]
            row = [x * b - y * a for x, y in zip(row, pivot_row)]
    if not any(row):
        return False
    g = gcd(*row)
    p = next(k for k, x in enumerate(row) if x)
    basis.append((p, [x // g for x in row]))
    return True
