"""Seed-driven construction of auxiliary squares.

The structured auxiliary squares in the corpus all follow one of four
expansion archetypes: a whole square is determined by one short seed
vector. Expanding a quotient seed and a remainder seed and composing the
results reproduces the classic squares exactly; searching over remainder
seeds finds new ones.

Row/column indexing matches the rest of the package (0-based, row-major).
``complement`` below always means the value map v -> n-1-v.

Each archetype is one cell rule in _expand: cell (r, c) is seed[i], or its
complement n-1-seed[i] when flip is 1, with

    ROW_ALTERNATE     (i, flip) = (c, r % 2)
    COLUMN_ALTERNATE  (i, flip) = (r, c % 2)
    BLOCK_PAIR        (i, flip) = (r // 2, c % 2)
    FOUR_ROW_CYCLE    (i, flip) = (c ^ (p >= n/4), p % (n/4) % 2),  p = r % (n/2)

c ^ 1 swaps adjacent columns, so the four-row cycle runs through the seed
A, its complement B, the adjacent-pair swap C of A and its complement D:
each half of the grid is n/4 rows alternating A, B then n/4 rows
alternating C, D.
"""

from __future__ import annotations

import itertools
from collections.abc import Iterable
from enum import Enum
from functools import lru_cache, partial
from operator import mul

from . import fixtures
from .composition import compose, is_orthogonal
from .core import (
    AuxPair,
    IndexTargets,
    Square,
    _require,
    _set,
    _Value,
    aux_constant,
    is_balanced,
)
from .lines import franklin_checks, independent
from .verify import PropertyReport, verify


class Archetype(Enum):
    ROW_ALTERNATE = "row_alternate"
    COLUMN_ALTERNATE = "column_alternate"
    BLOCK_PAIR = "block_pair"
    FOUR_ROW_CYCLE = "four_row_cycle"


def _expand(archetype: Archetype, seed, n: int) -> Square:
    """The square ``seed`` expands to under ``archetype``.

    Raises ValueError when the archetype is not an Archetype, the order
    not an int, the seed not an iterable of ints, or the order or the
    seed does not fit the archetype.
    """
    _require("archetype", archetype, Archetype)
    _require("order", n)
    seed = tuple(_require("seed", seed, Iterable))
    for v in seed:
        _require("seed value", v)
    A = Archetype
    if archetype is A.FOUR_ROW_CYCLE:
        kind, least = "four-row-cycle", 4
        if n % 4:
            raise ValueError("four-row-cycle expansion needs order divisible by 4")
    else:
        kind = "block-pair" if archetype is A.BLOCK_PAIR else "alternating"
        least = 2
        if n % 2:
            raise ValueError(f"{kind} expansion needs an even order")
    if n < least:
        raise ValueError(
            f"{kind} expansion needs an order of at least {least}, got {n}"
        )
    if archetype is A.BLOCK_PAIR:
        if len(seed) != n // 2:
            raise ValueError(
                f"block-pair seed must have {n // 2} values, got {len(seed)}"
            )
        for v in seed:
            if not 0 <= v < n:
                raise ValueError(f"seed value {v} outside 0..{n - 1}")
    elif sorted(seed) != list(range(n)):
        raise ValueError(f"seed must be a permutation of 0..{n - 1}: {list(seed)}")

    # value[flip][i]: the seed, then its complement
    value = (seed, tuple(n - 1 - v for v in seed))
    N = range(n)
    match archetype:
        case A.ROW_ALTERNATE:
            rows = [[value[r % 2][c] for c in N] for r in N]
        case A.COLUMN_ALTERNATE:
            rows = [[value[c % 2][r] for c in N] for r in N]
        case A.BLOCK_PAIR:
            rows = [[value[c % 2][r // 2] for c in N] for r in N]
        case A.FOUR_ROW_CYCLE:
            q, ps = n // 4, [r % (n // 2) for r in N]
            rows = [[value[p % q % 2][c ^ (p >= q)] for c in N] for p in ps]
    return Square.from_rows(rows)


class SeedPattern(_Value):
    """An archetype tag plus the seed vector that expands under it."""

    archetype: Archetype
    order: int
    seed: tuple[int, ...]

    def __init__(self, archetype: Archetype, order: int, seed: Iterable[int]) -> None:
        seed = tuple(_require("seed", seed, Iterable))
        # Expanding validates the seed: an invalid one raises here.
        square = _expand(archetype, seed, order)
        _set(self, "archetype", archetype)
        _set(self, "order", order)
        _set(self, "seed", seed)
        _set(self, "_square", square)

    def expand(self) -> Square:
        """The square the seed expands to, built once per pattern."""
        return self._square


def canonical_row_seed(n: int) -> tuple[int, ...]:
    """First-row seed shared by the classic quotient squares.

    seed[j] = (j + 3n/4) mod n; the printed first rows at orders 8, 16,
    and 24 all follow it.
    """
    if _require("order", n) < 4 or n % 4:
        raise ValueError(f"order must be a positive multiple of 4, got {n}")
    return tuple((j + 3 * n // 4) % n for j in range(n))


# The archetypes under the names callers use; each is called as (seed, n).
expand_quotient = partial(_expand, Archetype.ROW_ALTERNATE)
expand_remainder = partial(_expand, Archetype.COLUMN_ALTERNATE)
expand_block_pair = partial(_expand, Archetype.BLOCK_PAIR)
expand_four_row_cycle = partial(_expand, Archetype.FOUR_ROW_CYCLE)


class GeneratedSquare(_Value):
    """A composed square together with its report."""

    square: Square
    report: PropertyReport


def generate(qseed: SeedPattern, rseed: SeedPattern) -> GeneratedSquare:
    """Expand both seeds, compose, and verify at the natural line sum.

    Raises ValueError when the orders differ, an expansion is not
    balanced, or the expansions are not orthogonal (the composition would
    not be natural).
    """
    if qseed.order != rseed.order:
        raise ValueError(
            f"seed orders differ: {qseed.order} vs {rseed.order}"
        )
    q = qseed.expand()
    r = rseed.expand()
    if not is_balanced(q):
        raise ValueError("quotient expansion is not balanced")
    if not is_balanced(r):
        raise ValueError("remainder expansion is not balanced")
    pair = AuxPair(quotient=q, remainder=r)
    if not is_orthogonal(pair):
        raise ValueError("seed expansions are not orthogonal")
    square = compose(pair)
    report = verify(square, IndexTargets.natural(qseed.order))
    return GeneratedSquare(square=square, report=report)


_PRESET_SEEDS: dict[str, tuple[SeedPattern, SeedPattern]] = {
    "f8_1769": (
        SeedPattern(Archetype.ROW_ALTERNATE, 8, canonical_row_seed(8)),
        SeedPattern(Archetype.COLUMN_ALTERNATE, 8, (3, 5, 4, 2, 6, 0, 1, 7)),
    ),
    "f16_1769": (
        SeedPattern(Archetype.ROW_ALTERNATE, 16, canonical_row_seed(16)),
        SeedPattern(
            Archetype.COLUMN_ALTERNATE,
            16,
            (7, 9, 5, 11, 8, 6, 10, 4, 12, 2, 14, 0, 3, 13, 1, 15),
        ),
    ),
    "f24": (
        SeedPattern(Archetype.ROW_ALTERNATE, 24, canonical_row_seed(24)),
        SeedPattern(
            Archetype.COLUMN_ALTERNATE,
            24,
            (11, 13, 9, 15, 7, 17, 12, 10, 14, 8, 16, 6,
             18, 4, 20, 2, 22, 0, 5, 19, 3, 21, 1, 23),
        ),
    ),
    "f8_pandiagonal": (
        SeedPattern(Archetype.BLOCK_PAIR, 8, (0, 6, 5, 3)),
        SeedPattern(Archetype.FOUR_ROW_CYCLE, 8, (1, 0, 5, 4, 7, 6, 3, 2)),
    ),
    "f16_pandiagonal": (
        SeedPattern(Archetype.BLOCK_PAIR, 16, (0, 14, 13, 3, 4, 10, 9, 7)),
        SeedPattern(
            Archetype.FOUR_ROW_CYCLE,
            16,
            (15, 14, 1, 0, 13, 12, 3, 2, 11, 10, 5, 4, 9, 8, 7, 6),
        ),
    ),
}


def preset_names() -> list[str]:
    seeded = list(_PRESET_SEEDS)
    stored = [name for name in fixtures.names() if name not in _PRESET_SEEDS]
    return seeded + stored


def preset(name: str) -> Square | AuxPair:
    """Reconstruct a named reference square from its seeds, falling back
    to the stored grid for fixtures with no seed archetype.

    A seeded preset is composed without generate's checks and report:
    its seeds are package constants, and tests pin each composition to
    its stored grid."""
    if name in _PRESET_SEEDS:
        qseed, rseed = _PRESET_SEEDS[name]
        return compose(AuxPair(qseed.expand(), rseed.expand()))
    return fixtures.load(name)


def _leaf_passes(seed, rows, checks) -> bool:
    """True when the column-alternating expansion of seed, whose row for
    value v is rows[v], meets every (flat cells, target) check line."""
    flat = [v for s in seed for v in rows[s]]
    for cells, target in checks:
        total = 0
        for i in cells:
            total += flat[i]
        if total != target:
            return False
    return True


@lru_cache(maxsize=None)
def _leaf_checks(n: int) -> tuple[tuple[tuple[int, ...], int], ...]:
    """The Franklin lines of a column-alternate expansion as linear forms in
    its seed, less those the pruned seed walk meets by construction: each
    (coef, t) holds when sum(coef[r] * seed[r]) == t, and a seed of the
    walk meets every line exactly when it meets every form.

    Cell (r, c) is base[c] + sign[c] * seed[r], read off the expansion of
    0..n-1, so every line sum is affine in the seed. At orders divisible
    by 4, rows, half-rows, subsquares and the BENT_DOWN and BENT_UP lines
    meet each row they touch in as many even columns as odd ones, so each
    seed value comes in once as v and once as n-1-v: their seed terms
    cancel and the line reduces to 0 = 0. Columns give the whole seed
    summing to n(n-1)/2, half-columns the upper and lower halves summing
    to half the whole, and BENT_RIGHT and BENT_LEFT the bent form, signed
    + - + - ... on the upper rows and - + - + ... on the lower rows,
    summing to 0. Every seed of the walk is a permutation of 0..n-1,
    which meets the whole sum, and passed the half bound, which pins its
    upper half. lines.independent starts from those two sums and keeps
    each line's form, in report order, that the forms before it do not
    imply: the bent form alone.

    A line whose form reduces to its constant alone, as a seed-free line
    off its target would, is kept like any other form: it fails every
    seed, so no seed passes. No order divisible by 4 has one.
    """
    rows = expand_remainder(range(n), n).cells
    base = rows[0]
    sign = [y - x for x, y in zip(rows[0], rows[1])]
    h, whole = n // 2, n * (n - 1) // 2
    basis: list[tuple[int, list[int]]] = []
    independent(basis, [1] * n + [-whole])
    independent(basis, [1] * h + [0] * h + [-(whole // 2)])
    forms = []
    for cells, target in franklin_checks(n, aux_constant(n)):
        coef = [0] * n
        for i in cells:
            r, c = divmod(i, n)
            coef[r] += sign[c]
            target -= base[c]
        if independent(basis, [*coef, -target]):
            forms.append((tuple(coef), target))
    return tuple(forms)


def _remainder_masks(n: int, quotient: Square) -> list[list[int | None]]:
    """masks[r][v] has one bit, n*q + x, per value pair (q, x) that seed
    value v puts in row r beside ``quotient``, or is None when two of
    those pairs repeat and v can never sit in row r.

    Value v puts x = v in the even columns and x = n-1-v in the odd ones.
    With even and odd the sums of 2**(n*q) over a quotient row's even and
    odd columns, (even << v) + (odd << (n-1-v)) is the sum of 2**(n*q + x)
    over the row's n cells. A sum of n powers of two has n set bits
    exactly when the powers are distinct: (a + b).bit_count() is at most
    a.bit_count() + b.bit_count(), and a repeated power carries, losing a
    bit. So the sum is the mask when it has n set bits, and the row
    repeats a pair otherwise.
    """
    masks = []
    for qrow in quotient.cells:
        even = sum(1 << n * q for q in qrow[::2])
        odd = sum(1 << n * q for q in qrow[1::2])
        sums = [(even << v) + (odd << (n - 1 - v)) for v in range(n)]
        masks.append([m if m.bit_count() == n else None for m in sums])
    return masks


def find_remainder_seeds(
    n: int,
    quotient: Square,
    limit: int | None = None,
    *,
    pruned: bool = True,
) -> list[tuple[int, ...]]:
    """Search remainder seeds whose column-alternating expansion is a
    Franklin square at n(n-1)/2 (rows, columns, bent diagonals, half-lines
    and 2x2 subsquares) and is orthogonal to ``quotient``.

    Seeds are permutations of 0..n-1, emitted in lexicographic order; an
    int ``limit`` stops the search early. With ``pruned`` false the search
    scans every permutation outright and sums every Franklin line of each
    expanded grid from the line table, with no shortcuts. It is only
    tractable for small orders and exists as a cross-check: the pruned
    search checks the linear forms of _leaf_checks instead, so the two
    agreeing checks that algebra against lines.table; lines that cannot
    all hold fail every seed at either leaf. Both take their
    orthogonality masks from _remainder_masks.

    Seed value v puts v and n-1-v alternately across its row, so a
    quotient row that repeats a value can repeat a value pair within that
    row: v is then ruled out for the row, and a quotient with such rows may
    admit no seed at all.
    """
    if _require("order", n) < 4 or n % 4:
        raise ValueError(f"order must be a positive multiple of 4, got {n}")
    if _require("quotient", quotient, Square).order != n:
        raise ValueError(f"quotient order {quotient.order} != {n}")
    if not is_balanced(quotient):
        raise ValueError("quotient square must be balanced")
    _require("pruned", pruned, bool)
    if limit is not None and _require("limit", limit) <= 0:
        return []

    masks = _remainder_masks(n, quotient)
    if not pruned:
        rows = expand_remainder(range(n), n).cells
        checks = franklin_checks(n, aux_constant(n))
        return _seed_search_unpruned(n, masks, rows, limit, checks)
    return _seed_search_pruned(n, masks, limit, _leaf_checks(n))


def _seed_search_unpruned(n, masks, rows, limit, checks):
    results = []
    for perm in itertools.permutations(range(n)):
        taken = 0
        for r, v in enumerate(perm):
            mask = masks[r][v]
            if mask is None or mask & taken:
                break
            taken |= mask
        else:
            if _leaf_passes(perm, rows, checks):
                results.append(perm)
                if limit is not None and len(results) >= limit:
                    break
    return results


def _seed_search_pruned(n, masks, limit, checks):
    """Lexicographic backtracking with exact pruning.

    The walk carries the unused values as a sorted tuple and tries them
    in order; dropping the tried value from it gives both the values left
    for the half-sum bound and the next row's candidates. It prunes
    partial seeds on (a) orthogonality to the quotient, checked row by
    row against the pairs already taken, and (b) feasibility of the upper
    half-column sum: the first n/2 seed values must sum to n(n-1)/4. Both
    prunes reject only prefixes no completion of which could be emitted.

    The seed prefix lives in one list, written row by row, and the walk
    carries the first form of _leaf_checks (the bent form at every order
    the search takes) as a running sum: acc is sum(coef[i] * seed[i])
    over the rows placed so far. Row n-1 takes the one value left, so the
    frame for row n-2 checks that value's mask and completes the sum
    itself rather than recursing; any further form is summed over the full
    seed. A full seed, a permutation that passed the half bound, passes
    when it meets every form of _leaf_checks, that is, exactly when its
    expansion meets every Franklin line: the result matches the unpruned
    scan exactly.
    """
    half = n // 2
    half_target = n * (n - 1) // 4
    last_row = masks[n - 1]
    (coef, t), *more = checks
    last_coef = coef[n - 1]
    seed = [0] * n
    results: list[tuple[int, ...]] = []

    def walk(r: int, free: tuple[int, ...], taken: int, total: int, acc: int) -> bool:
        row = masks[r]
        weight = coef[r]
        for k, v in enumerate(free):
            mask = row[v]
            if mask is None or mask & taken:
                continue
            rest = free[:k] + free[k + 1:]
            if r < half:
                # the upper half's other slots must be able to make up the rest
                slots = half - r - 1
                need = half_target - total - v
                if not sum(rest[:slots]) <= need <= sum(rest[len(rest) - slots:]):
                    continue
            seed[r] = v
            if len(rest) > 1:
                if walk(r + 1, rest, taken | mask, total + v, acc + weight * v):
                    return True
                continue
            last = rest[0]
            if acc + weight * v + last_coef * last != t:
                continue
            last_mask = last_row[last]
            if last_mask is None or last_mask & (taken | mask):
                continue
            seed[n - 1] = last
            full = tuple(seed)
            for other, u in more:
                if sum(map(mul, other, full)) != u:
                    break
            else:
                results.append(full)
                if limit is not None and len(results) >= limit:
                    return True
        return False

    walk(0, tuple(range(n)), 0, 0, 0)
    return results
