"""Cell enumeration for every line family a square condition can sum over.

Families: full rows and columns, the two main diagonals, wraparound
diagonals in both directions, the four bent-diagonal families (V-shaped
lines of n cells bending at the grid midline, wrapping mod n), half-rows
and half-columns, and 2x2 subsquares anchored at every cell with
wraparound on both axes.

For a fixed even order and one bent family, the n shifts partition the
grid: n lines of n cells covering each cell exactly once. The same holds
for the n wraparound diagonals of one direction.

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

from dataclasses import dataclass
from enum import Enum
from functools import lru_cache


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


@dataclass(frozen=True)
class LineDescriptor:
    """One concrete line: its family, its shift within the family, its cells."""

    family: LineFamily
    shift: int
    cells: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        if len(set(self.cells)) != len(self.cells):
            raise ValueError(f"duplicate cells in line {self.family} #{self.shift}")


def _require_even(n: int) -> None:
    if n < 2 or n % 2 != 0:
        raise ValueError(f"even order required, got {n}")


def row_cells(n: int, r: int) -> tuple[tuple[int, int], ...]:
    return tuple((r, c) for c in range(n))


def column_cells(n: int, c: int) -> tuple[tuple[int, int], ...]:
    return tuple((r, c) for r in range(n))


def main_diagonal_cells(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, i) for i in range(n))


def cross_diagonal_cells(n: int) -> tuple[tuple[int, int], ...]:
    return tuple((i, n - 1 - i) for i in range(n))


def pandiagonal_cells(
    n: int, direction: LineFamily, shift: int
) -> tuple[tuple[int, int], ...]:
    """Wraparound diagonal: down-right (r, (s+r) mod n) or down-left (r, (s-r) mod n).

    Shift 0 down-right is the main diagonal; shift n-1 down-left is the
    cross diagonal.
    """
    if direction not in (LineFamily.PANDIAG_DOWNRIGHT, LineFamily.PANDIAG_DOWNLEFT):
        raise ValueError(f"not a wraparound-diagonal direction: {direction}")
    if not 0 <= shift < n:
        raise ValueError(f"shift {shift} outside 0..{n - 1}")
    if direction is LineFamily.PANDIAG_DOWNRIGHT:
        return tuple((r, (shift + r) % n) for r in range(n))
    return tuple((r, (shift - r) % n) for r in range(n))


def bent_diagonal_cells(
    n: int, family: LineFamily, shift: int
) -> tuple[tuple[int, int], ...]:
    """The n cells of one bent diagonal, in column order (DOWN/UP) or row
    order (RIGHT/LEFT).

    With h = n/2 and everything mod n:
      BENT_DOWN   (r, c): r = s + c          for c < h, r = s + n-1-c  for c >= h
      BENT_UP     (r, c): r = s - c          for c < h, r = s - (n-1-c) for c >= h
      BENT_RIGHT  (r, c): c = s + r          for r < h, c = s + n-1-r  for r >= h
      BENT_LEFT   (r, c): c = s - r          for r < h, c = s - (n-1-r) for r >= h
    """
    _require_even(n)
    if family not in BENT_FAMILIES:
        raise ValueError(f"not a bent family: {family}")
    if not 0 <= shift < n:
        raise ValueError(f"shift {shift} outside 0..{n - 1}")
    h = n // 2
    s = shift
    if family is LineFamily.BENT_DOWN:
        return tuple(
            ((s + c) % n if c < h else (s + n - 1 - c) % n, c) for c in range(n)
        )
    if family is LineFamily.BENT_UP:
        return tuple(
            ((s - c) % n if c < h else (s - (n - 1 - c)) % n, c) for c in range(n)
        )
    if family is LineFamily.BENT_RIGHT:
        return tuple(
            (r, (s + r) % n if r < h else (s + n - 1 - r) % n) for r in range(n)
        )
    return tuple(
        (r, (s - r) % n if r < h else (s - (n - 1 - r)) % n) for r in range(n)
    )


def half_line_cells(
    n: int, kind: LineFamily, index: int
) -> tuple[tuple[int, int], ...]:
    """Half of row `index` or column `index`; h = n/2 cells."""
    _require_even(n)
    if kind not in HALF_LINE_FAMILIES:
        raise ValueError(f"not a half-line family: {kind}")
    if not 0 <= index < n:
        raise ValueError(f"index {index} outside 0..{n - 1}")
    h = n // 2
    if kind is LineFamily.HALF_ROW_LEFT:
        return tuple((index, c) for c in range(h))
    if kind is LineFamily.HALF_ROW_RIGHT:
        return tuple((index, c) for c in range(h, n))
    if kind is LineFamily.HALF_COL_UPPER:
        return tuple((r, index) for r in range(h))
    return tuple((r, index) for r in range(h, n))


def subsquare_cells(n: int, r: int, c: int) -> tuple[tuple[int, int], ...]:
    """The 2x2 block anchored at (r, c), wrapping around both axes."""
    if not (0 <= r < n and 0 <= c < n):
        raise ValueError(f"anchor ({r}, {c}) outside the order-{n} grid")
    r2, c2 = (r + 1) % n, (c + 1) % n
    return ((r, c), (r, c2), (r2, c), (r2, c2))


def family_lines(n: int, family: LineFamily) -> tuple[LineDescriptor, ...]:
    """Every line of one family on an order-n grid, in shift order.

    Subsquare shifts encode the anchor as r*n + c. Main and cross
    diagonals are single-line families with shift 0.
    """
    if family is LineFamily.ROW:
        return tuple(LineDescriptor(family, r, row_cells(n, r)) for r in range(n))
    if family is LineFamily.COLUMN:
        return tuple(LineDescriptor(family, c, column_cells(n, c)) for c in range(n))
    if family is LineFamily.MAIN_DIAGONAL:
        return (LineDescriptor(family, 0, main_diagonal_cells(n)),)
    if family is LineFamily.CROSS_DIAGONAL:
        return (LineDescriptor(family, 0, cross_diagonal_cells(n)),)
    if family in (LineFamily.PANDIAG_DOWNRIGHT, LineFamily.PANDIAG_DOWNLEFT):
        return tuple(
            LineDescriptor(family, s, pandiagonal_cells(n, family, s))
            for s in range(n)
        )
    if family in BENT_FAMILIES:
        return tuple(
            LineDescriptor(family, s, bent_diagonal_cells(n, family, s))
            for s in range(n)
        )
    if family in HALF_LINE_FAMILIES:
        return tuple(
            LineDescriptor(family, i, half_line_cells(n, family, i))
            for i in range(n)
        )
    if family is LineFamily.SUBSQUARE_2x2:
        return tuple(
            LineDescriptor(family, r * n + c, subsquare_cells(n, r, c))
            for r in range(n)
            for c in range(n)
        )
    raise ValueError(f"unknown family: {family}")


@dataclass(frozen=True)
class Condition:
    """One report section at one order: its lines and its target rule.

    ``lines`` holds (family, shift, flat cell indexes) in (family, shift)
    order; it is empty where the geometry does not exist (bent lines,
    half-lines and subsquares at odd order). A line passes at line sum m
    when scale*sum == mult*m. ``doubled`` marks the section a report shows
    as a doubled comparison (2*sum against m). ``franklin`` marks the
    sections whose passing makes a square Franklin.
    """

    name: str
    lines: tuple[tuple[LineFamily, int, tuple[int, ...]], ...]
    scale: int = 1
    mult: int = 1
    doubled: bool = False
    franklin: bool = False

    def satisfiable(self, m: int) -> bool:
        return (self.mult * m) % self.scale == 0


@lru_cache(maxsize=None)
def table(n: int) -> tuple[Condition, ...]:
    """Every condition on an order-n grid, in report order, built once."""
    # One int object per cell index, shared by every line through it.
    index = tuple(range(n * n))

    def lines(*families: LineFamily):
        return tuple(
            (d.family, d.shift, tuple(index[r * n + c] for r, c in d.cells))
            for family in families
            for d in family_lines(n, family)
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
