"""Quotient-remainder composition of squares and its exact inverse.

A square M decomposes cellwise into M = n*Q + R + 1 with quotient values
Q and remainder values R both in 0..n-1. Composition is total on valid
pairs; decomposition requires cells >= 1 and rejects any cell whose
quotient would leave 0..n-1, which is the precise signature of a
non-natural-range input.

A pair is orthogonal when the n^2 positionwise ordered value pairs
(Q[r][c], R[r][c]) are pairwise distinct. Orthogonal + both members
balanced is exactly what makes the composed square natural.
"""

from __future__ import annotations

from .core import AuxPair, Square


def compose(pair: AuxPair) -> Square:
    """M[r][c] = n*Q[r][c] + R[r][c] + 1.

    The values are not checked again: AuxPair has proved them ints in
    0..n-1, so every cell is an int in 1..n^2.
    """
    n = pair.order
    return Square._of(tuple([
        tuple([n * a + b + 1 for a, b in zip(q_row, r_row)])
        for q_row, r_row in zip(pair.quotient.cells, pair.remainder.cells)
    ]))


def decompose(sq: Square) -> AuxPair:
    """Invert composition: Q = (M - 1) // n, R = M - 1 - n*Q.

    Raises ValueError for any cell < 1, or when a quotient falls outside
    0..n-1 (the input is not in natural range 1..n^2), naming the first
    such cell in row-major order. Each cell is checked once, as it is
    split; the quotient and remainder squares then hold ints in 0..n-1
    and are stored without a second scan.
    """
    n = sq.order
    q_rows = []
    r_rows = []
    for i, row in enumerate(sq.cells):
        q_row = []
        r_row = []
        for j, v in enumerate(row):
            if v < 1:
                raise ValueError(f"cell ({i}, {j}) = {v} is < 1")
            quo = (v - 1) // n
            if quo >= n:
                raise ValueError(
                    f"cell ({i}, {j}) = {v} has quotient {quo} outside 0..{n - 1}"
                )
            q_row.append(quo)
            r_row.append(v - 1 - n * quo)
        q_rows.append(tuple(q_row))
        r_rows.append(tuple(r_row))
    return AuxPair._of(Square._of(tuple(q_rows)), Square._of(tuple(r_rows)))


def is_orthogonal(pair: AuxPair) -> bool:
    """True iff every ordered (quotient, remainder) value pair occurs once."""
    n = pair.order
    q, r = pair.quotient.cells, pair.remainder.cells
    pairs = {(q[i][j], r[i][j]) for i in range(n) for j in range(n)}
    return len(pairs) == n * n
