"""Exhaustive backtracking search for natural Franklin squares.

The search fills cells in row-major order (a fixed, documented constant —
chosen so half-rows, 2x2 subsquares, and bent diagonals close early) with
unused values from 1..n². Without pruning it tries every candidate at
every cell and rejects a branch the moment any fully placed check line
(row, column, half-line, bent diagonal, 2x2 subsquare) misses its
target: every line is checked at the cell where it closes, and nothing
is taken from the elimination below, so this walk is the cross-check.

Free cells try values structure-first. Split v-1 base n into the
quotient and remainder of M = n·Q + R + 1: row 0 prefers quotients
not yet placed in it and remainders that alternate x <-> n-1-x, and
column 0 is row 0 with quotient and remainder swapped. The order only
sorts, so both walks stay exhaustive.

With pruning enabled the engine instead derives the value of any cell
that is the last open cell of some check line; for row-major order that
pins every interior cell below the first row via its 2x2 subsquare. A
derived value is accepted exactly where the completed-line checks would
accept it, so pruned and unpruned walks place the same values at the
same cells: they accept the same squares with the same
``nodes_visited`` and progress calls.

What the walk reads at each cell is fixed per order and pruning mode,
so ``_plan(n, prune)`` builds it once. With pruning each cell carries
the lines it closes, less every line that the lines enforced before it
imply. The Franklin lines are far from independent, so once each forced
cell's deriving line holds, all other lines but two hold as well; exact
elimination over the free cells (lines.independent) finds which, and
the walk checks only those two, closing at cells (n/2-1, n/2) and
(n-1, 0): 2 of the 91 lines at order 8 that derive nothing. The walk
recurses once per free cell (a cell that closes no line; 2n-5 of them
at orders 4 to 40), and one loop places the free cell's value x and
then the forced run after it. Within a visit each run cell's value is
base + coef·x: coef is fixed per order (±1 from order 8 on) and comes
from the elimination, and base reads only cells before the free cell
(it is the cell's line summed with 0 at the free cell).

COUNT and STREAM first count a visit's values together (_run_count).
The unused values are a bitmask; at each run cell in turn one shift of
it keeps the values x whose base + coef·x is unused, and the visit's
placements are the sizes of these masks. The count stops at the first
cell that keeps no value, so a base is derived only where some value
reaches its cell. A visit that no value gets through, with no progress
mark or budget stop inside its count, ends there: no candidate order,
no loop over values, no grid write. Every other visit, and every visit
of FIRST, which stops at its first witness, goes value by value in
candidate order on the bases derived once per visit (by the count, or
as a FIRST visit starts): every value takes one multiply-add per run
cell, with no line sum. There a value whose forced successor is out of
range or used is counted as its placement by one subtraction and never
placed. A run's placements are counted in one step, and one helper
makes the progress calls and the budget stop that a count reaches.

Without pruning the plan makes every cell free and checks every line it
closes, 144 lines at order 8, so the same walk recurses once per cell,
places every value alone, and a wrong elimination or a wrong count of
values together would show as a difference between the walks.

``search_natural_franklin`` is the one entry point. It settles an order
in one of two ways: without search when the line sum is odd (a
half-line would need twice a cell sum to equal an odd number), or else
by one walk, ``_run_tree``. A census method (by symmetry class or by
seeds) would be a third case there, picked by mode and order. An
outcome with ``exhausted`` true and ``count`` zero proves that no
square of that order exists.
"""

from __future__ import annotations

from collections.abc import Callable
from enum import Enum
from functools import lru_cache
from operator import itemgetter

from .core import IndexTargets, Square, _require, _set, _Value, magic_constant
from .lines import franklin_checks, independent
from .verify import verify


class SearchMode(Enum):
    COUNT = "count"
    FIRST = "first"
    STREAM = "stream"


class SearchOptions(_Value):
    """Search parameters; each int field rejects a bool or a non-int,
    ``mode`` anything but a SearchMode, ``prune`` anything but a bool
    and ``progress`` anything but None or a callable.

    ``node_budget`` caps placements (a node is one accepted cell
    assignment, forced or free); the leaf that the budget-th placement
    completes is re-verified and counted. ``progress`` is called with
    (nodes_visited, fill_depth) every ``progress_interval`` placements.
    ``progress`` takes no part in == or hash.
    """

    order: int
    mode: SearchMode
    node_budget: int | None
    prune: bool
    progress: Callable[[int, int], None] | None
    progress_interval: int

    def __init__(
        self,
        order: int,
        mode: SearchMode = SearchMode.COUNT,
        node_budget: int | None = None,
        prune: bool = True,
        progress: Callable[[int, int], None] | None = None,
        progress_interval: int = 100_000,
    ) -> None:
        if _require("order", order) < 2 or order % 2:
            raise ValueError(f"search order must be even and >= 2, got {order}")
        _require("mode", mode, SearchMode)
        _require("prune", prune, bool)
        if node_budget is not None and _require("node_budget", node_budget) < 1:
            raise ValueError("node_budget must be positive")
        if _require("progress_interval", progress_interval) < 1:
            raise ValueError("progress_interval must be positive")
        if progress is not None:
            _require("progress", progress, Callable)
        _set(self, "order", order)
        _set(self, "mode", mode)
        _set(self, "node_budget", node_budget)
        _set(self, "prune", prune)
        _set(self, "progress", progress)
        _set(self, "progress_interval", progress_interval)

    def _key(self) -> tuple:
        return (
            self.order, self.mode, self.node_budget, self.prune, self.progress_interval
        )


class SearchOutcome(_Value):
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

    Each Franklin line closes at its last cell, shortest first and, among
    equal lengths, in report order. With pruning a cell that closes a
    line is forced: its first closing line derives its value. Of the
    other closing lines the walk checks only those that _kept_lines
    cannot prove implied: two at every order from 4 to 40, closing at
    cells (n/2-1, n/2) and (n-1, 0). Each line dropped is an exact
    combination of deriving lines and kept checks that close no later
    than it does, so wherever those hold it holds too and checking it
    could reject nothing.

    The plan is (next_free, derive_at, checks_at, coef_at, runs), one
    shape for both modes; a line is (a getter of its other cells, exact
    target). The free cells are listed once, here, and _kept_lines
    writes its forms over that list. next_free maps each free cell to
    the next, or to n*n; the forced cells between are the free cell's
    run. derive_at is None at a free cell and a forced cell's deriving
    line elsewhere; checks_at holds all of a free cell's lines and the
    rest of a forced cell's. Within one visit of free cell i each run
    cell's value is base + coef·x in i's value x, where base reads only
    cells before i: coef_at holds coef, the coefficient of i in the
    cell's affine form from _kept_lines. It is ±1 at every forced cell
    at orders 8 to 40 (order 4 has two 0s) and 0 at free cells; the walk
    derives base as each visit starts. runs maps each free cell to its
    run's rows for _run_count, one per cell j in cell order: (j, the
    getter and target of its deriving line, coef, its kept checks), a
    check being (getter, target, slope) with slope the check's
    coefficient of i, read from the same forms. A run with a coef of 0
    (two order-4 cells) has no rows and is walked value by value.
    Without pruning every cell is free and checks every line it closes,
    with no elimination and no runs, so coef_at is all 0, every runs
    entry is empty and the two walks agree only if _kept_lines dropped
    nothing that could reject.
    """
    lines = franklin_checks(n, magic_constant(n))
    if lines is None:
        return None
    n2 = n * n
    closing: list[list] = [[] for _ in range(n2)]
    for cells, target in sorted(lines, key=lambda line: len(line[0])):
        closing[max(cells)].append((cells, target))
    free = [i for i in range(n2) if not (prune and closing[i])]
    kept, form = _kept_lines(closing, free) if prune else (closing, None)

    def read(j, cells, target):
        others = [c for c in cells if c != j]
        # A line sum is sum(get(grid)). A getter of one cell would return
        # a bare value, not a sequence (order-4 half-lines have one other
        # cell), so that cell is read as a slice. Every line has 2 cells
        # or more.
        if len(others) == 1:
            others = [slice(others[0], others[0] + 1)]
        return itemgetter(*others), target

    checks_at = [tuple(read(j, *line) for line in kept[j]) for j in range(n2)]
    next_free = dict(zip(free, free[1:] + [n2]))
    derive_at = [None] * n2
    coef_at = [0] * n2
    runs = {}
    for k, i in enumerate(free):
        rows = []
        for j in range(i + 1, next_free[i]):
            derive_at[j], checks_at[j] = checks_at[j][0], checks_at[j][1:]
            coef_at[j] = form[j][k]
            slopes = [sum(form[c][k] for c in cells) for cells, _ in kept[j][1:]]
            checks = tuple((*check, s) for check, s in zip(checks_at[j], slopes))
            rows.append((j, *derive_at[j], coef_at[j], checks))
        runs[i] = tuple(rows) if 0 not in coef_at[i + 1:next_free[i]] else ()
    return next_free, tuple(derive_at), tuple(checks_at), tuple(coef_at), runs


def _kept_lines(
    closing: list[list], free: list[int]
) -> tuple[list[list], list[list[int]]]:
    """closing (per cell, the (cells, target) lines that close there,
    deriving line first) less every check the lines before it imply,
    and each cell's affine form over the free cells.

    Each cell value is an affine form over the free cells, those that
    close no line, which free lists in cell order: a free cell is its
    own variable, and a forced cell is its deriving line's target minus
    the line's other cells. A form is a list of the free cells'
    coefficients in that order, then the constant. A check's
    residual, the sum of its cells less its target, is then a form too,
    and the check holds exactly when the residual is 0. It is implied
    when lines.independent reduces the residual to nothing against the
    residuals of the checks kept before it in walk order, and is dropped.
    A residual left with only a constant fails on every branch; it is
    kept.
    """
    n2 = len(closing)
    f = len(free)
    form: list[list[int]] = [[]] * n2
    for k, i in enumerate(free):
        form[i] = [0] * (f + 1)
        form[i][k] = 1
    basis: list[tuple[int, list[int]]] = []
    kept = []
    for j, lines in enumerate(closing):
        if not lines:
            kept.append(lines)
            continue
        (cells, target), *checks = lines
        form[j] = [-sum(col) for col in zip(*[form[c] for c in cells if c != j])]
        form[j][f] += target
        kept.append([lines[0]])
        for cells, target in checks:
            residual = [sum(col) for col in zip(*[form[c] for c in cells])]
            residual[f] -= target
            if independent(basis, residual):
                kept[j].append((cells, target))
    return kept, form


# Bounded: a 2M-placement order-8 count fills 168 entries of 64 values
# (263 when every visit went value by value; most are now counted by
# _run_count, which needs no order).
@lru_cache(maxsize=1024)
def _value_order(n: int, column: bool, seen: int, want: int) -> tuple[int, ...]:
    """Every value 1..n² in (penalty, v) order, for a row-0 cell or a
    column cell. v-1 splits base n into (major, minor): (block, offset)
    in row 0 and (offset, block) in a column. seen is a bitmask of the
    majors placed earlier in that row or column, and want the wanted
    minor, -1 for none. See _candidate_order."""

    def penalty(v):
        major, minor = divmod(v - 1, n)
        if column:
            major, minor = minor, major
        return 2 * (seen >> major & 1) + (minor != want)

    # sorted is stable: values of equal penalty stay in ascending order.
    return tuple(sorted(range(1, n * n + 1), key=penalty))


def _candidate_order(grid: list[int], i: int, n: int) -> tuple[int, ...]:
    # Free cells sit in row 0 and column 0 (everything else is closed
    # by a completing line). Candidates are tried structured-first:
    # split v-1 into (block, offset) base n, the quotient and remainder
    # of M = n·Q + R + 1. The corpus squares all decompose into
    # alternating auxiliaries, which in grid terms means row 0 uses
    # each block once with offsets alternating x <-> n-1-x; column 0 is
    # row 0 with block and offset swapped. Preferring such candidates
    # finds a witness early; the order stays exhaustive, so nothing is
    # ever skipped. A cell below row 0 (an interior one too, in the
    # unpruned walk) reads column 0 above it. The order lists every
    # value and depends only on the majors seen and one wanted minor, so
    # _value_order caches it per those; the walk skips used values.
    r, c = divmod(i, n)
    column = r > 0
    seen = 0
    for v in grid[0:i - c:n] if column else grid[:c]:
        seen |= 1 << divmod(v - 1, n)[column]
    if r == 0:
        want = n - 1 - (grid[i - 1] - 1) % n if c >= 1 else -1
    elif r >= 2:
        want = (grid[i - c - 2 * n] - 1) // n
    else:
        want = n - 1 - (grid[0] - 1) // n
    return _value_order(n, column, seen, want)


def _run_count(
    rows, grid: list[int], base: list[int], free: int, mirror: int
) -> int | None:
    """Placements of one visit of a free cell whose forced run is rows
    (see _plan), or None when some value completes the run.

    grid holds the cells before the free cell and 0 at it. free has bit
    v set for each unused value v, and mirror bit n²+1-v. alive holds
    the values x whose run has been placed so far: every unused value
    to start with, each counted as its own placement. At each run cell
    j the value is b + coef·x, with b derived from j's line with 0 at
    the free cell; it is written to grid[j] and base[j]. x survives j
    when that value is unused (one shift of free, or of mirror for coef
    -1), differs from x and from each earlier run cell's value (two
    affine values meet at one x at most, or at every x), and meets j's
    kept checks, each affine in x with the plan's slope. The loop stops
    at the first cell no value survives.
    """
    n2 = len(grid)
    alive = free
    count = free.bit_count()
    k = 2 * n2  # |b| < k at a cell where some value survives
    # keys[1 + coef + b % 2] has bit (k - coef·b) / 2 for each cell so
    # far, the free cell (b 0, coef 1) first: two cells of one coef meet
    # only when their b agree, two of opposite coef at x = coef·(b2 - b)/2.
    keys = [0, 0, 1 << n2, 0]
    for j, get, target, coef, checks in rows:
        b = grid[j] = base[j] = target - sum(get(grid))
        src, s = (free, b) if coef > 0 else (mirror, n2 + 1 - b)
        alive &= src >> s if s >= 0 else src << -s
        if not alive:
            return count
        own = (k - coef * b) >> 1
        p = b & 1
        if keys[1 + coef + p] >> own & 1:
            return count
        keys[1 + coef + p] |= 1 << own
        alive &= ~(keys[1 - coef + p] >> (k + coef * b >> 1))
        for get, target, slope in checks:
            a = b + sum(get(grid)) - target
            if slope:
                x, r = divmod(-a, slope)
                alive &= 1 << x if not r and x > 0 else 0
            elif a:
                alive = 0
        if not alive:
            return count
        count += alive.bit_count()
    return None


def _run_tree(opts: SearchOptions, plan) -> SearchOutcome:
    """Walk the tree that ``plan`` (see _plan) lays out; the outcome is
    exhausted unless the budget ran out or FIRST found its witness.

    base[j] is run cell j's value less coef_at[j]·x, for the free value
    x of the visit that places it. walk(i, free, mirror) gets the
    unused values as _run_count reads them (FIRST and the unpruned walk
    pass them on unchanged and never read them). In pruned COUNT and
    STREAM a visit of free cell i with rows first takes _run_count's
    count, which derives bases in cell order with 0 at cell i up to the
    first cell no value survives. With no value through the run and
    ``mark`` (the next node count due a progress call or the budget
    stop) past the count, the visit adds the count and returns.
    Otherwise it goes value by value on those bases: no value reaches a
    cell past the first that no value survives. In FIRST, and for a run
    with no rows, it derives every base of the run as the visit starts.
    No other visit writes a cell of i's run. Value by value, a value x whose forced successor is out of
    range, used or x counts as one placement, with no grid write, used
    mark or unwind: the full loop's net effect. Placements are counted
    per run, with no test of mark per placement: tally serves a run
    whose count reaches it.
    """
    n = opts.order
    mode = opts.mode
    node_budget = opts.node_budget
    progress = opts.progress
    progress_interval = opts.progress_interval
    n2 = n * n
    next_free, derive_at, checks_at, coef_at, runs = plan
    natural_targets = IndexTargets.natural(n)
    # FIRST stops at its first witness, so it goes value by value, and
    # the unpruned plan has no runs.
    bulk = opts.prune and mode is not SearchMode.FIRST
    if bulk:
        bit = [1 << v for v in range(n2 + 2)]
        mirror_bit = bit[::-1]

    grid = [0] * n2
    used = [False] * (n2 + 1)
    base = [0] * n2
    witnesses: list[Square] = []
    nodes = count = 0

    def next_stop(after: int) -> int:
        """The first node count past ``after`` that is due a progress
        call or is the budget; with neither, a count 2**62 on, which
        no walk reaches."""
        stops = [node_budget] if node_budget is not None else []
        if progress is not None:
            stops.append(after - after % progress_interval + progress_interval)
        return min(stops, default=after + (1 << 62))

    mark = next_stop(0)

    def tally(j: int) -> int:
        """nodes counts a run of placements that ends at cell j - 1 and
        has reached mark. Call progress for each due placement in the
        run, with its cell; return j, or at the budget the cell after
        the budget-th placement, with nodes cut back to the budget."""
        nonlocal nodes, mark
        while mark <= nodes:
            cell = j - 1 - (nodes - mark)
            if progress is not None and mark % progress_interval == 0:
                progress(mark, cell)
            if mark == node_budget:
                nodes = mark
                return cell + 1
            mark = next_stop(mark)
        return j

    def walk(i: int, free: int, mirror: int) -> bool:
        """Count the values free cell i admits and their forced runs
        together, or place each value x, then its forced run, and walk
        on; True stops the run."""
        nonlocal nodes, count
        nxt = next_free[i]
        # With 0 at cell i each run cell's deriving line leaves its base.
        grid[i] = 0
        start = i + 1
        if bulk and runs[i]:
            total = _run_count(runs[i], grid, base, free, mirror)
            if total is not None and nodes + total < mark:
                nodes += total
                return False
            # No value reaches a cell whose base _run_count left.
            start = nxt
        for j in range(start, nxt):
            get, target = derive_at[j]
            grid[j] = base[j] = target - sum(get(grid))
        run = i + 1 < nxt
        if run:
            first = base[i + 1]
            coef = coef_at[i + 1]
        for x in _candidate_order(grid, i, n):
            if used[x]:
                continue
            if run:
                v = first + coef * x
                if not 0 < v <= n2 or used[v] or v == x:
                    nodes += 1
                    if nodes >= mark:
                        tally(i + 1)
                        if nodes == node_budget:
                            return True
                    continue
            # Place x at cell i, then each forced cell up to nxt with the
            # value its first closing line derives. j is the cell to
            # place next, so cells i .. j-1 hold this branch's values. A
            # cell's kept checks run before it is placed; most cells
            # have none.
            v = x
            j = i
            while True:
                for get, target in checks_at[j]:
                    if v + sum(get(grid)) != target:
                        break
                else:
                    grid[j] = v
                    used[v] = True
                    j += 1
                    if j < nxt:
                        v = base[j] + coef_at[j] * x
                        if 0 < v <= n2 and not used[v]:
                            continue
                break
            nodes += j - i
            if nodes >= mark:
                j = tally(j)
            if j == n2:
                # The walk placed only ints in 1..n^2.
                flat = tuple(grid)
                square = Square._of(tuple([flat[r:r + n] for r in range(0, n2, n)]))
                report = verify(square, natural_targets)
                if report.franklin and report.natural:
                    count += 1
                    if mode is not SearchMode.COUNT:
                        witnesses.append(square)
                    if mode is SearchMode.FIRST:
                        return True
            # The budget stop follows the leaf, so the square the
            # budget-th placement completes is counted.
            if nodes == node_budget:
                return True
            if j == nxt < n2:
                free2, mirror2 = free, mirror
                if bulk:
                    placed = grid[i:j]
                    free2 -= sum(map(bit.__getitem__, placed))
                    mirror2 -= sum(map(mirror_bit.__getitem__, placed))
                if walk(nxt, free2, mirror2):
                    return True
            # Grid cells are rewritten before any later cell reads them.
            for k in range(i, j):
                used[grid[k]] = False
        return False

    every = (1 << n2 + 1) - 2
    stopped = walk(0, every, every)
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
