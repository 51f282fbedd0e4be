"""Fundamental value types and index-number arithmetic for square grids.

A Square is an immutable order-n grid of integers. An AuxPair bundles a
quotient and a remainder square whose values live in 0..n-1. IndexTargets
carries the line-sum target (m for natural squares, the auxiliary constant
for quotient/remainder squares); lines.table derives every condition's
target from it.

Cell values are plain Python integers, so arbitrarily large orders cannot
overflow. Indices are 0-based everywhere; reports meant for humans do
their own 1-based formatting.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence


def _require(name: str, value, kind: type = int):
    """value, if it is a kind (an int is not a bool); else ValueError."""
    if isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
        return value
    raise ValueError(f"{name} must be {kind.__name__}, got {value!r}")


def magic_constant(n: int) -> int:
    """Line-sum target of a natural order-n square: n(n^2 + 1)/2."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    return n * (n * n + 1) // 2


def aux_constant(n: int) -> int:
    """Line-sum target of a balanced order-n square: n(n - 1)/2."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    return n * (n - 1) // 2


@dataclass(frozen=True)
class Square:
    """Immutable order-n grid, row-major, indexed cells[r][c]."""

    cells: tuple[tuple[int, ...], ...]

    def __post_init__(self) -> None:
        n = len(self.cells)
        if n < 1:
            raise ValueError("square must have at least one row")
        for row in self.cells:
            if len(row) != n:
                raise ValueError(
                    f"ragged square: expected {n} columns, got {len(row)}"
                )
            for v in row:
                if type(v) is not int:
                    _require("cell value", v)

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "Square":
        return cls(tuple(tuple(row) for row in rows))

    @property
    def order(self) -> int:
        return len(self.cells)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.cells]


@dataclass(frozen=True)
class AuxPair:
    """A quotient/remainder pair of equal order with values in 0..n-1."""

    quotient: Square
    remainder: Square

    def __post_init__(self) -> None:
        n = self.quotient.order
        if self.remainder.order != n:
            raise ValueError(
                f"order mismatch: quotient {n}, remainder {self.remainder.order}"
            )
        for name, sq in (("quotient", self.quotient), ("remainder", self.remainder)):
            for row in sq.cells:
                for v in row:
                    if not 0 <= v < n:
                        raise ValueError(
                            f"{name} value {v} outside 0..{n - 1}"
                        )

    @property
    def order(self) -> int:
        return self.quotient.order


@dataclass(frozen=True)
class IndexTargets:
    """A line-sum target m for one order, both ints (a bool is not).

    The half-line and subsquare conditions compare 2*sum == m and
    n*sum == 4*m (see lines.table), so odd targets such as 111 stay in
    integer arithmetic.
    """

    order: int
    line_sum: int

    def __post_init__(self) -> None:
        if _require("order", self.order) < 1:
            raise ValueError(f"order must be >= 1, got {self.order}")
        _require("line_sum", self.line_sum)

    @classmethod
    def natural(cls, n: int) -> "IndexTargets":
        return cls(n, magic_constant(n))

    @classmethod
    def balanced(cls, n: int) -> "IndexTargets":
        return cls(n, aux_constant(n))


def is_natural(sq: Square) -> bool:
    """True iff the cells are exactly the multiset {1, 2, ..., n^2}."""
    n = sq.order
    return sorted(v for row in sq.cells for v in row) == list(range(1, n * n + 1))


def is_balanced(sq: Square) -> bool:
    """True iff every value in 0..n-1 occurs exactly n times."""
    n = sq.order
    counts = [0] * n
    for row in sq.cells:
        for v in row:
            if not 0 <= v < n:
                return False
            counts[v] += 1
    return all(c == n for c in counts)
