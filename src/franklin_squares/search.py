"""Exhaustive backtracking search for natural Franklin squares.

The search fills cells in row-major order (a fixed, documented constant —
chosen so half-rows, 2x2 subsquares, and bent diagonals close early) with
unused values from 1..n², rejecting a branch the moment any fully placed
check line (row, column, half-line, bent diagonal, 2x2 subsquare) misses
its target. Those completed-line rejections are always on; they are what
makes the unpruned cross-check runnable at all.

With pruning enabled the engine additionally (a) derives the value of any
cell that is the last open cell of some check line instead of trying all
candidates — for row-major order that pins every interior cell below the
first row via its 2x2 subsquare — and (b) bounds the current row's partial
sum against what the remaining cells could still contribute. Both prunes
reject only branches that a completed-line check would reject later, so
pruned and unpruned searches accept identical squares. A derived value
accepts exactly the placements the completed-line check would; the row
bound rejects some free candidates that the unpruned walk places and
abandons by the end of the row, so ``nodes_visited`` can differ.

What the walk reads at each cell is fixed per order and pruning mode,
so ``_plan(n, prune)`` builds it once: each cell carries the lines it
closes, and a candidate is checked against those lines only. With
pruning the walk recurses once per free cell (a cell that closes no
line; 2n-5 of them at orders 4 to 40), and one loop places the free
cell's value and then the forced cells after it. Without pruning the
plan makes every cell free and bounds no row, so the same walk
recurses once per cell.

``search_natural_franklin`` is the one entry point. It settles an order
in one of two ways: without search when the line sum is odd (a
half-line would need twice a cell sum to equal an odd number), or else
by one walk, ``_run_tree``. A census method (by symmetry class or by
seeds) would be a third case there, picked by mode and order. An
outcome with ``exhausted`` true and ``count`` zero proves that no
square of that order exists.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from operator import itemgetter
from typing import Callable

from .core import IndexTargets, Square, _require, magic_constant
from .lines import franklin_checks
from .verify import verify


class SearchMode(Enum):
    COUNT = "count"
    FIRST = "first"
    STREAM = "stream"


@dataclass(frozen=True)
class SearchOptions:
    """Search parameters; each int field rejects a bool or a non-int,
    ``mode`` anything but a SearchMode and ``prune`` anything but a bool.

    ``node_budget`` caps placements (a node is one accepted cell
    assignment, forced or free); the leaf that the budget-th placement
    completes is re-verified and counted. ``progress`` is called with
    (nodes_visited, fill_depth) every ``progress_interval`` placements.
    """

    order: int
    mode: SearchMode = SearchMode.COUNT
    node_budget: int | None = None
    prune: bool = True
    progress: Callable[[int, int], None] | None = field(
        default=None, compare=False
    )
    progress_interval: int = 100_000

    def __post_init__(self):
        if _require("order", self.order) < 2 or self.order % 2:
            raise ValueError(f"search order must be even and >= 2, got {self.order}")
        _require("mode", self.mode, SearchMode)
        _require("prune", self.prune, bool)
        if self.node_budget is not None and _require("node_budget", self.node_budget) < 1:
            raise ValueError("node_budget must be positive")
        if _require("progress_interval", self.progress_interval) < 1:
            raise ValueError("progress_interval must be positive")


@dataclass(frozen=True)
class SearchOutcome:
    """What a run established.

    ``exhausted`` is true only when the whole tree was covered (no budget
    hit, no early stop); with ``count`` zero that proves non-existence.
    It is false whenever the budget is reached, even at the tree's last
    node, since the walk stops before it can tell that the tree is done.
    ``witnesses`` carries found squares for FIRST (at most one) and STREAM
    (all, in discovery order); COUNT leaves it empty.
    """

    count: int
    exhausted: bool
    witnesses: tuple[Square, ...]
    nodes_visited: int


@lru_cache(maxsize=None)
def _plan(n: int, prune: bool):
    """What the row-major walk reads at each cell, or None when no
    natural Franklin square of order n can exist.

    Each Franklin line closes at its last cell, as (a getter of its other
    cells, exact target), shortest first and, among equal lengths, in
    report order. The plan is (next_free, derive_at, checks_at,
    row_bound). With pruning a cell that closes a line is forced: its
    first closing line derives its value, the others are checked, and a
    free cell's row bound counts the cells left in its row. Without
    pruning every cell is free, checks every line it closes and has row
    bound 0. next_free maps each free cell to the next, or to n*n.
    """
    lines = franklin_checks(n, magic_constant(n))
    if lines is None:
        return None
    n2 = n * n
    closing: list[list] = [[] for _ in range(n2)]
    for cells, target in sorted(lines, key=lambda line: len(line[0])):
        *others, last = sorted(cells)
        # A line sum is sum(get(grid)). A getter of one cell would return
        # a bare value (order-4 half-lines have one other cell), so it
        # reads a slice.
        if len(others) == 1:
            others = [slice(others[0], others[0] + 1)]
        closing[last].append((itemgetter(*others), target))
    free = [i for i in range(n2) if not (prune and closing[i])]
    return (
        dict(zip(free, free[1:] + [n2])),
        tuple(at[0] if prune and at else None for at in closing),
        tuple(tuple(at[1:] if prune else at) for at in closing),
        tuple(n - 1 - i % n if prune else 0 for i in range(n2)),
    )


def _candidate_order(grid: list[int], used: list[bool], i: int, n: int) -> list[int]:
    # Free cells sit in row 0 and column 0 (everything else is closed
    # by a completing line). Candidates are tried structured-first:
    # split v-1 into (block, offset) base n. The corpus squares all
    # decompose into alternating auxiliaries, which in grid terms
    # means rows use each block once with offsets alternating
    # x <-> n-1-x, and the first column keeps offsets distinct while
    # blocks alternate. Preferring such candidates finds a witness
    # early; the order stays exhaustive, so nothing is ever skipped.
    # A candidate's penalty is its block's plus its offset's, 0 to 3;
    # one ascending pass fills a bucket per penalty, which gives the
    # (penalty, v) order without a sort.
    r, c = divmod(i, n)
    if r == 0:
        row_blocks = {(grid[j] - 1) // n for j in range(c)}
        block_penalty = [2 if b in row_blocks else 0 for b in range(n)]
        if c >= 1:
            want_off = n - 1 - (grid[i - 1] - 1) % n
            offset_penalty = [int(x != want_off) for x in range(n)]
        else:
            offset_penalty = [0] * n
    else:
        col_offsets = {(grid[k * n] - 1) % n for k in range(r)}
        offset_penalty = [2 if x in col_offsets else 0 for x in range(n)]
        if r >= 2:
            want_block = (grid[(r - 2) * n] - 1) // n
        else:
            want_block = n - 1 - (grid[0] - 1) // n
        block_penalty = [int(b != want_block) for b in range(n)]
    buckets: tuple[list[int], ...] = ([], [], [], [])
    v = 1
    for bp in block_penalty:
        for op in offset_penalty:
            if not used[v]:
                buckets[bp + op].append(v)
            v += 1
    return buckets[0] + buckets[1] + buckets[2] + buckets[3]


def _run_tree(opts: SearchOptions, plan) -> SearchOutcome:
    """Walk the tree that ``plan`` (see _plan) lays out; the outcome is
    exhausted unless the budget ran out or FIRST found its witness."""
    n = opts.order
    mode = opts.mode
    node_budget = opts.node_budget
    progress = opts.progress
    progress_interval = opts.progress_interval
    n2 = n * n
    m = magic_constant(n)
    next_free, derive_at, checks_at, row_bound = plan
    natural_targets = IndexTargets.natural(n)

    grid = [0] * n2
    used = [False] * (n2 + 1)
    witnesses: list[Square] = []
    nodes = count = 0

    def walk(i: int) -> bool:
        """Place each value free cell i admits, then the forced run after
        it, and walk on; True stops the run."""
        nonlocal nodes, count
        nxt = next_free[i]
        candidates = _candidate_order(grid, used, i, n)
        remaining = row_bound[i]
        if remaining:
            # Row bound: the cells left in the row must still be able
            # to make up the gap to m.
            gap = m - sum(grid[i - i % n:i])
            candidates = [
                v for v in candidates if remaining <= gap - v <= remaining * n2
            ]
        for v in candidates:
            # Place v at cell i, then each forced cell up to nxt with the
            # value its first closing line derives. j is the cell to place
            # next, so cells i .. j-1 hold this branch's values. The run
            # also ends at the budget-th placement.
            j = i
            while True:
                for get, target in checks_at[j]:
                    if v + sum(get(grid)) != target:
                        break
                else:
                    grid[j] = v
                    used[v] = True
                    nodes += 1
                    if progress is not None and nodes % progress_interval == 0:
                        progress(nodes, j)
                    j += 1
                    if j < nxt and nodes != node_budget:
                        get, target = derive_at[j]
                        v = target - sum(get(grid))
                        if 0 < v <= n2 and not used[v]:
                            continue
                break
            if j == n2:
                square = Square.from_rows(grid[r:r + n] for r in range(0, n2, n))
                report = verify(square, natural_targets)
                if report.franklin and report.natural:
                    count += 1
                    if mode is not SearchMode.COUNT:
                        witnesses.append(square)
                    if mode is SearchMode.FIRST:
                        return True
            # The one budget stop: it follows the leaf, so the square the
            # budget-th placement completes is counted.
            if nodes == node_budget or (j == nxt < n2 and walk(nxt)):
                return True
            # Grid cells are rewritten before any later cell reads them.
            for k in range(i, j):
                used[grid[k]] = False
        return False

    stopped = walk(0)
    return SearchOutcome(
        count=count,
        exhausted=not stopped,
        witnesses=tuple(witnesses),
        nodes_visited=nodes,
    )


def search_natural_franklin(opts: SearchOptions) -> SearchOutcome:
    """Enumerate natural Franklin squares of the given order.

    Every reported witness is re-verified through the property verifier
    before it is counted; nothing is trusted from search bookkeeping.
    """
    plan = _plan(opts.order, opts.prune)
    if plan is None:
        # Some Franklin target is not an integer (an odd m leaves the
        # half-lines none): no square exists, with no tree to walk.
        return SearchOutcome(count=0, exhausted=True, witnesses=(), nodes_visited=0)
    return _run_tree(opts, plan)
