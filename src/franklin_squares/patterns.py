"""Seed-driven construction of auxiliary squares.

The structured auxiliary squares in the corpus all follow one of four
expansion archetypes: a whole square is determined by one short seed
vector. Expanding a quotient seed and a remainder seed and composing the
results reproduces the classic squares exactly; searching over remainder
seeds finds new ones.

Row/column indexing matches the rest of the package (0-based, row-major).
``complement`` below always means the value map v -> n-1-v.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from enum import Enum
from functools import cached_property

from . import fixtures
from .composition import compose, is_orthogonal
from .core import AuxPair, IndexTargets, Square, aux_constant, is_balanced
from .lines import franklin_checks
from .verify import PropertyReport, verify


class Archetype(Enum):
    ROW_ALTERNATE = "row_alternate"
    COLUMN_ALTERNATE = "column_alternate"
    BLOCK_PAIR = "block_pair"
    FOUR_ROW_CYCLE = "four_row_cycle"


def _require_permutation(seed: tuple[int, ...], n: int) -> None:
    if sorted(seed) != list(range(n)):
        raise ValueError(f"seed must be a permutation of 0..{n - 1}: {list(seed)}")


def _require_even(n: int, kind: str) -> None:
    if n % 2:
        raise ValueError(f"{kind} expansion needs an even order")
    if n < 2:
        raise ValueError(f"{kind} expansion needs an order of at least 2, got {n}")


@dataclass(frozen=True)
class SeedPattern:
    """An archetype tag plus the seed vector that expands under it."""

    archetype: Archetype
    order: int
    seed: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "seed", tuple(self.seed))
        # Expanding validates the seed: an invalid one raises here.
        self.expand()

    def expand(self) -> Square:
        """The square the seed expands to, built once per pattern."""
        return self._square

    @cached_property
    def _square(self) -> Square:
        if self.archetype is Archetype.ROW_ALTERNATE:
            return expand_quotient(self.seed, self.order)
        if self.archetype is Archetype.COLUMN_ALTERNATE:
            return expand_remainder(self.seed, self.order)
        if self.archetype is Archetype.BLOCK_PAIR:
            return expand_block_pair(self.seed, self.order)
        return expand_four_row_cycle(self.seed, self.order)


def canonical_row_seed(n: int) -> tuple[int, ...]:
    """First-row seed shared by the classic quotient squares.

    seed[j] = (j + 3n/4) mod n; the printed first rows at orders 8, 16,
    and 24 all follow it.
    """
    if n < 4 or n % 4:
        raise ValueError(f"order must be a positive multiple of 4, got {n}")
    return tuple((j + 3 * n // 4) % n for j in range(n))


def expand_quotient(seed, n: int) -> Square:
    """Rows alternate between the seed and its complement."""
    seed = tuple(seed)
    _require_even(n, "alternating")
    _require_permutation(seed, n)
    comp = tuple(n - 1 - v for v in seed)
    return Square(tuple(seed if r % 2 == 0 else comp for r in range(n)))


def _alternating_row(v: int, n: int) -> tuple[int, ...]:
    """v and its complement n-1-v alternating across n columns."""
    return (v, n - 1 - v) * (n // 2)


def expand_remainder(seed, n: int) -> Square:
    """Columns alternate between the seed and its complement."""
    seed = tuple(seed)
    _require_even(n, "alternating")
    _require_permutation(seed, n)
    return Square(tuple(_alternating_row(v, n) for v in seed))


def expand_block_pair(seed, n: int) -> Square:
    """Row pairs 2i, 2i+1 both alternate seed[i] with its complement."""
    seed = tuple(seed)
    _require_even(n, "block-pair")
    if len(seed) != n // 2:
        raise ValueError(
            f"block-pair seed must have {n // 2} values, got {len(seed)}"
        )
    for v in seed:
        if not 0 <= v < n:
            raise ValueError(f"seed value {v} outside 0..{n - 1}")
    rows = []
    for i in range(n // 2):
        row = _alternating_row(seed[i], n)
        rows.append(row)
        rows.append(row)
    return Square(tuple(rows))


def _pair_swap(vec: tuple[int, ...]) -> tuple[int, ...]:
    out = list(vec)
    for j in range(0, len(out), 2):
        out[j], out[j + 1] = out[j + 1], out[j]
    return tuple(out)


def expand_four_row_cycle(seed, n: int) -> Square:
    """Rows cycle through the seed, its complement, its adjacent-pair
    swap, and the complement of that swap.

    The four derived rows fill a block of n/2 rows — the first half of the
    block alternates seed/complement, the second half alternates
    swap/complement-of-swap — and the block repeats. For n = 8 this is the
    plain A,B,C,D,A,B,C,D cycle; larger orders repeat each alternating
    pair to fill the longer block.
    """
    seed = tuple(seed)
    if n % 4:
        raise ValueError("four-row-cycle expansion needs order divisible by 4")
    _require_permutation(seed, n)
    a = seed
    b = tuple(n - 1 - v for v in a)
    c = _pair_swap(a)
    d = tuple(n - 1 - v for v in c)
    quarter = n // 4
    rows = []
    for r in range(n):
        p = r % (n // 2)
        if p < quarter:
            rows.append(a if p % 2 == 0 else b)
        else:
            p -= quarter
            rows.append(c if p % 2 == 0 else d)
    return Square(tuple(rows))


@dataclass(frozen=True)
class GeneratedSquare:
    """A composed square together with its auxiliary pair and report."""

    square: Square
    pair: AuxPair
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
    return GeneratedSquare(square=square, pair=pair, report=report)


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
    to the stored grid for fixtures with no seed archetype."""
    if name in _PRESET_SEEDS:
        qseed, rseed = _PRESET_SEEDS[name]
        return generate(qseed, rseed).square
    return fixtures.load(name)


def _leaf_passes(seed, n: int, checks) -> bool:
    """True when the column-alternating expansion of seed meets every
    (flat cells, target) check line."""
    flat = [v for s in seed for v in _alternating_row(s, n)]
    for cells, target in checks:
        total = 0
        for i in cells:
            total += flat[i]
        if total != target:
            return False
    return True


def _row_pair_set(qrow: tuple[int, ...], v: int, n: int) -> frozenset:
    comp = n - 1 - v
    return frozenset(
        (qrow[c], v if c % 2 == 0 else comp) for c in range(n)
    )


def find_remainder_seeds(
    n: int,
    quotient: Square,
    limit: int | None = None,
    *,
    pruned: bool = True,
) -> list[tuple[int, ...]]:
    """Search remainder seeds whose column-alternating expansion meets all
    three Franklin conditions at n(n-1)/2 and is orthogonal to ``quotient``.

    Seeds are permutations of 0..n-1, emitted in lexicographic order;
    ``limit`` stops the search early. With ``pruned`` false the search
    scans every permutation outright — same results, no shortcuts — which
    is only tractable for small orders and exists as a cross-check.
    """
    if n < 4 or n % 4:
        raise ValueError(f"order must be a positive multiple of 4, got {n}")
    if quotient.order != n:
        raise ValueError(f"quotient order {quotient.order} != {n}")
    if not is_balanced(quotient):
        raise ValueError("quotient square must be balanced")
    if limit is not None and limit <= 0:
        return []

    checks = franklin_checks(n, aux_constant(n))
    if pruned:
        return _seed_search_pruned(n, quotient, limit, checks)
    return _seed_search_unpruned(n, quotient, limit, checks)


def _seed_search_unpruned(n, quotient, limit, checks):
    results = []
    for perm in itertools.permutations(range(n)):
        pairs = set()
        ok = True
        for r, v in enumerate(perm):
            row_pairs = _row_pair_set(quotient.cells[r], v, n)
            if pairs & row_pairs:
                ok = False
                break
            pairs |= row_pairs
        if not ok:
            continue
        if not _leaf_passes(perm, n, checks):
            continue
        results.append(perm)
        if limit is not None and len(results) >= limit:
            break
    return results


def _seed_search_pruned(n, quotient, limit, checks):
    """Lexicographic backtracking with exact pruning.

    Prunes partial seeds on (a) orthogonality to the quotient, checked
    incrementally row by row, and (b) feasibility of the upper half-column
    sum: the first n/2 seed values must sum to n(n-1)/4. Both prunes
    reject only prefixes no completion of which could be emitted, so the
    result matches the unpruned scan exactly.
    """
    half = n // 2
    half_target = n * (n - 1) // 4
    results: list[tuple[int, ...]] = []
    seed: list[int] = []
    used = [False] * n
    used_pairs: set = set()
    prefix_sum = 0

    def half_sum_feasible(r: int, candidate: int, total: int) -> bool:
        slots = half - (r + 1)
        if slots == 0:
            return total == half_target
        remaining = [v for v in range(n) if not used[v] and v != candidate]
        lo = total + sum(remaining[:slots])
        hi = total + sum(remaining[-slots:])
        return lo <= half_target <= hi

    def dfs(r: int) -> bool:
        nonlocal prefix_sum
        if r == n:
            if _leaf_passes(seed, n, checks):
                results.append(tuple(seed))
                if limit is not None and len(results) >= limit:
                    return True
            return False
        for v in range(n):
            if used[v]:
                continue
            row_pairs = _row_pair_set(quotient.cells[r], v, n)
            if used_pairs & row_pairs:
                continue
            if r < half:
                if not half_sum_feasible(r, v, prefix_sum + v):
                    continue
                prefix_sum += v
            used[v] = True
            seed.append(v)
            used_pairs.update(row_pairs)
            stop = dfs(r + 1)
            used_pairs.difference_update(row_pairs)
            seed.pop()
            used[v] = False
            if r < half:
                prefix_sum -= v
            if stop:
                return True
        return False

    dfs(0)
    return results
