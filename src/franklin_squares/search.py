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
pruned and unpruned searches accept identical squares.

An outcome with ``exhausted`` true and ``count`` zero is a non-existence
proof for that order. Orders whose line sum is odd are settled without
search: a half-line would need twice a cell sum to equal an odd number.
"""

from __future__ import annotations

import concurrent.futures
from dataclasses import dataclass, field
from enum import Enum
from functools import lru_cache
from typing import Callable

from .core import IndexTargets, Square, magic_constant
from .lines import franklin_checks
from .verify import verify


class SearchMode(Enum):
    COUNT = "count"
    FIRST = "first"
    STREAM = "stream"


@dataclass(frozen=True)
class SearchOptions:
    """Search parameters.

    ``node_budget`` caps placements (a node is one accepted cell
    assignment, forced or free). ``parallel_width`` > 1 splits the tree at
    the first cell across worker processes for COUNT/STREAM runs without a
    budget; FIRST and budgeted runs always execute sequentially so their
    outcome stays identical to the single-worker one. ``progress`` is
    called with (nodes_visited, fill_depth) every ``progress_interval``
    placements (per worker batch when parallel).
    """

    order: int
    mode: SearchMode = SearchMode.COUNT
    node_budget: int | None = None
    parallel_width: int = 1
    prune: bool = True
    progress: Callable[[int, int], None] | None = field(
        default=None, compare=False
    )
    progress_interval: int = 100_000

    def __post_init__(self):
        if self.order < 2 or self.order % 2:
            raise ValueError(f"search order must be even and >= 2, got {self.order}")
        if self.node_budget is not None and self.node_budget < 1:
            raise ValueError("node_budget must be positive")
        if self.parallel_width < 1:
            raise ValueError("parallel_width must be >= 1")
        if self.progress_interval < 1:
            raise ValueError("progress_interval must be positive")


@dataclass(frozen=True)
class SearchOutcome:
    """What a run established.

    ``exhausted`` is true only when the whole tree was covered (no budget
    hit, no early stop); with ``count`` zero that proves non-existence.
    ``witnesses`` carries found squares for FIRST (at most one) and STREAM
    (all, in discovery order); COUNT leaves it empty.
    """

    count: int
    exhausted: bool
    witnesses: tuple[Square, ...]
    nodes_visited: int


@lru_cache(maxsize=None)
def _check_tables(n: int):
    """Precomputed check lines for one order, keyed to row-major filling.

    Returns (lines, complete_at, forced_line), or None when no natural
    Franklin square of order n can exist. ``lines`` is the Franklin part
    of the line table as (flat cell indexes, exact target);
    ``complete_at[i]`` lists the lines whose last filled cell is i;
    ``forced_line[i]`` is the shortest such line, used to derive the cell
    value when pruning.
    """
    lines = franklin_checks(n, magic_constant(n))
    if lines is None:
        return None
    complete_at: list[list[int]] = [[] for _ in range(n * n)]
    for idx, (cells, _target) in enumerate(lines):
        complete_at[max(cells)].append(idx)
    forced_line: list[int | None] = []
    for i in range(n * n):
        candidates = complete_at[i]
        if candidates:
            forced_line.append(min(candidates, key=lambda j: len(lines[j][0])))
        else:
            forced_line.append(None)
    return (
        lines,
        tuple(tuple(ids) for ids in complete_at),
        tuple(forced_line),
    )


class _Stop(Exception):
    pass


def _run_tree(
    n: int,
    mode: SearchMode,
    prune: bool,
    node_budget: int | None,
    first_value: int | None,
    progress: Callable[[int, int], None] | None,
    progress_interval: int,
):
    """Sequential engine. When ``first_value`` is given, only the branch
    with that value in cell 0 is explored (the parallel split unit).

    Returns (count, witnesses, nodes_visited, budget_hit).
    """
    n2 = n * n
    m = magic_constant(n)
    lines, complete_at, forced_line = _check_tables(n)
    natural_targets = IndexTargets.natural(n)

    grid = [0] * n2
    used = [False] * (n2 + 1)
    row_sum = [0] * n
    state = {"nodes": 0, "count": 0, "budget_hit": False}
    witnesses: list[Square] = []

    def completed_ok(i: int) -> bool:
        for idx in complete_at[i]:
            cells, target = lines[idx]
            total = 0
            for j in cells:
                total += grid[j]
            if total != target:
                return False
        return True

    def row_bound_ok(i: int) -> bool:
        r, c = divmod(i, n)
        remaining = n - 1 - c
        if remaining == 0:
            return True
        gap = m - row_sum[r]
        return remaining * 1 <= gap <= remaining * n2

    def place(i: int, v: int) -> None:
        grid[i] = v
        used[v] = True
        row_sum[i // n] += v
        state["nodes"] += 1
        if progress is not None and state["nodes"] % progress_interval == 0:
            progress(state["nodes"], i)
        if node_budget is not None and state["nodes"] >= node_budget:
            state["budget_hit"] = True
            raise _Stop

    def unplace(i: int, v: int) -> None:
        grid[i] = 0
        used[v] = False
        row_sum[i // n] -= v

    def leaf() -> None:
        square = Square.from_rows(
            [grid[r * n:(r + 1) * n] for r in range(n)]
        )
        report = verify(square, natural_targets)
        if not (report.franklin and report.natural):
            return
        state["count"] += 1
        if mode is not SearchMode.COUNT:
            witnesses.append(square)
        if mode is SearchMode.FIRST:
            raise _Stop

    def descend(i: int, v: int) -> None:
        place(i, v)
        try:
            if i + 1 == n2:
                leaf()
            else:
                dfs(i + 1)
        finally:
            unplace(i, v)

    def candidate_order(i: int) -> list[int]:
        # Free cells sit in row 0 and column 0 (everything else is closed
        # by a completing line). Candidates are tried structured-first:
        # split v-1 into (block, offset) base n. The corpus squares all
        # decompose into alternating auxiliaries, which in grid terms
        # means rows use each block once with offsets alternating
        # x <-> n-1-x, and the first column keeps offsets distinct while
        # blocks alternate. Preferring such candidates finds a witness
        # early; the order stays exhaustive, so nothing is ever skipped.
        r, c = divmod(i, n)
        cands = [v for v in range(1, n2 + 1) if not used[v]]
        if r == 0:
            row_blocks = {(grid[j] - 1) // n for j in range(c)}
            want_off = None
            if c >= 1:
                want_off = n - 1 - (grid[i - 1] - 1) % n
        else:
            col_offsets = {(grid[k * n] - 1) % n for k in range(r)}
            if r >= 2:
                want_block = (grid[(r - 2) * n] - 1) // n
            else:
                want_block = n - 1 - (grid[0] - 1) // n

        def key(v: int):
            block, off = divmod(v - 1, n)
            penalty = 0
            if r == 0:
                if block in row_blocks:
                    penalty += 2
                if want_off is not None and off != want_off:
                    penalty += 1
            else:
                if off in col_offsets:
                    penalty += 2
                if block != want_block:
                    penalty += 1
            return (penalty, v)

        cands.sort(key=key)
        return cands

    def dfs(i: int) -> None:
        if prune and forced_line[i] is not None:
            cells, target = lines[forced_line[i]]
            v = target
            for j in cells:
                if j != i:
                    v -= grid[j]
            if v < 1 or v > n2 or used[v]:
                return
            if not completed_ok_with(i, v):
                return
            descend(i, v)
            return
        if i == 0 and first_value is not None:
            candidates = [first_value] if not used[first_value] else []
        else:
            candidates = candidate_order(i)
        for v in candidates:
            if not completed_ok_with(i, v):
                continue
            if prune and not row_bound_ok_with(i, v):
                continue
            descend(i, v)

    def completed_ok_with(i: int, v: int) -> bool:
        grid[i] = v
        ok = completed_ok(i)
        grid[i] = 0
        return ok

    def row_bound_ok_with(i: int, v: int) -> bool:
        row_sum[i // n] += v
        ok = row_bound_ok(i)
        row_sum[i // n] -= v
        return ok

    try:
        dfs(0)
    except _Stop:
        pass
    return state["count"], witnesses, state["nodes"], state["budget_hit"]


def _branch_task(args):
    n, mode_value, prune, first_value = args
    count, witnesses, nodes, budget_hit = _run_tree(
        n, SearchMode(mode_value), prune, None, first_value, None, 1 << 62
    )
    return count, witnesses, nodes, budget_hit


def search_natural_franklin(opts: SearchOptions) -> SearchOutcome:
    """Enumerate natural Franklin squares of the given order.

    Every reported witness is re-verified through the property verifier
    before it is counted; nothing is trusted from search bookkeeping.
    """
    n = opts.order
    if _check_tables(n) is None:
        # Some Franklin target is not an integer (an odd m leaves the
        # half-lines none): no square exists, with no tree to walk.
        return SearchOutcome(count=0, exhausted=True, witnesses=(), nodes_visited=0)

    parallel = (
        opts.parallel_width > 1
        and opts.mode is not SearchMode.FIRST
        and opts.node_budget is None
    )
    if not parallel:
        count, witnesses, nodes, budget_hit = _run_tree(
            n,
            opts.mode,
            opts.prune,
            opts.node_budget,
            None,
            opts.progress,
            opts.progress_interval,
        )
        stopped_early = budget_hit or (
            opts.mode is SearchMode.FIRST and count > 0
        )
        return SearchOutcome(
            count=count,
            exhausted=not stopped_early,
            witnesses=tuple(witnesses),
            nodes_visited=nodes,
        )

    tasks = [(n, opts.mode.value, opts.prune, v) for v in range(1, n * n + 1)]
    total_count = 0
    total_nodes = 0
    all_witnesses: list[Square] = []
    with concurrent.futures.ProcessPoolExecutor(
        max_workers=opts.parallel_width
    ) as pool:
        for count, witnesses, nodes, _hit in pool.map(_branch_task, tasks):
            total_count += count
            total_nodes += nodes
            all_witnesses.extend(witnesses)
            if opts.progress is not None:
                opts.progress(total_nodes, 0)
    return SearchOutcome(
        count=total_count,
        exhausted=True,
        witnesses=tuple(all_witnesses),
        nodes_visited=total_nodes,
    )
