import hashlib
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from franklin_squares import (
    IndexTargets,
    SearchMode,
    SearchOptions,
    classify,
    search_natural_franklin,
    verify,
)
from franklin_squares import search
from franklin_squares.core import magic_constant
from franklin_squares.formats import square_to_csv
from franklin_squares.lines import franklin_checks


def test_odd_line_sum_orders_settle_instantly():
    for n in (2, 6, 10):
        outcome = search_natural_franklin(SearchOptions(order=n))
        assert outcome.count == 0
        assert outcome.exhausted
        assert outcome.nodes_visited == 0
        assert outcome.witnesses == ()


def test_order_4_exhaustive_count_is_zero():
    outcome = search_natural_franklin(SearchOptions(order=4))
    assert outcome.count == 0
    assert outcome.exhausted
    assert outcome.nodes_visited == 480


def test_order_4_prune_toggle_agrees():
    pruned = search_natural_franklin(SearchOptions(order=4, prune=True))
    plain = search_natural_franklin(SearchOptions(order=4, prune=False))
    assert pruned == plain


def test_order_8_first_witness_verifies():
    outcome = search_natural_franklin(
        SearchOptions(order=8, mode=SearchMode.FIRST, node_budget=200_000)
    )
    assert outcome.count == 1
    assert not outcome.exhausted
    assert len(outcome.witnesses) == 1
    witness = outcome.witnesses[0]
    rep = verify(witness, IndexTargets.natural(8))
    assert rep.natural
    assert rep.franklin
    assert {"natural", "franklin"} <= classify(witness).labels


def test_order_8_first_is_deterministic():
    opts = SearchOptions(order=8, mode=SearchMode.FIRST, node_budget=200_000)
    assert search_natural_franklin(opts) == search_natural_franklin(opts)


def test_node_budget_stops_the_walk():
    outcome = search_natural_franklin(
        SearchOptions(order=8, node_budget=50)
    )
    assert outcome.nodes_visited == 50
    assert not outcome.exhausted
    assert outcome.count == 0


def test_budget_counts_the_square_its_last_placement_completes():
    # The order-8 FIRST witness is completed by the 100th placement: a
    # budget of 100 re-verifies and counts it, a budget of 99 stops short.
    short = search_natural_franklin(
        SearchOptions(order=8, mode=SearchMode.FIRST, node_budget=99)
    )
    assert (short.count, short.nodes_visited, short.witnesses) == (0, 99, ())
    edge = search_natural_franklin(
        SearchOptions(order=8, mode=SearchMode.FIRST, node_budget=100)
    )
    assert (edge.count, edge.nodes_visited, edge.exhausted) == (1, 100, False)
    assert edge.witnesses == search_natural_franklin(
        SearchOptions(order=8, mode=SearchMode.FIRST, node_budget=200_000)
    ).witnesses


def test_budget_at_the_tree_size_is_not_exhausted():
    # The order-4 tree has 480 nodes. A budget of 480 stops the walk at
    # its last node, before it can tell that the tree is done.
    at_size = search_natural_franklin(SearchOptions(order=4, node_budget=480))
    assert (at_size.count, at_size.nodes_visited, at_size.exhausted) == (0, 480, False)
    past = search_natural_franklin(SearchOptions(order=4, node_budget=481))
    assert (past.count, past.nodes_visited, past.exhausted) == (0, 480, True)


def test_stream_mode_collects_witnesses():
    outcome = search_natural_franklin(
        SearchOptions(order=4, mode=SearchMode.STREAM)
    )
    assert outcome.witnesses == ()
    assert outcome.exhausted
    stream8 = search_natural_franklin(
        SearchOptions(order=8, mode=SearchMode.STREAM, node_budget=200)
    )
    assert len(stream8.witnesses) == stream8.count


def test_progress_hook_reports_accepted_placements():
    calls = []
    opts = SearchOptions(
        order=4,
        progress=lambda nodes, depth: calls.append(nodes),
        progress_interval=100,
    )
    search_natural_franklin(opts)
    assert calls == [100, 200, 300, 400]


def test_options_validation():
    with pytest.raises(ValueError):
        SearchOptions(order=5)
    with pytest.raises(ValueError):
        SearchOptions(order=0)
    with pytest.raises(ValueError):
        SearchOptions(order=4, node_budget=0)
    with pytest.raises(ValueError):
        SearchOptions(order=4, progress_interval=0)


@pytest.mark.parametrize(
    "options",
    [
        {"order": 8.0},
        {"order": True},
        {"order": 4, "node_budget": 2.5},
        {"order": 4, "node_budget": True},
        {"order": 4, "progress_interval": 1.5},
        {"order": 4, "progress_interval": True},
    ],
)
def test_options_take_ints_not_bools(options):
    # A budget of 2.5 would never equal the placement count, so the walk
    # would not stop on it; True would act as a budget of 1.
    with pytest.raises(ValueError, match="must be int"):
        SearchOptions(**options)


@pytest.mark.parametrize(
    "options",
    [{"mode": "first"}, {"mode": None}, {"prune": 1}, {"prune": None}],
)
def test_options_reject_a_mode_or_prune_of_another_type(options):
    # A string mode is never SearchMode.FIRST, so the walk would not stop
    # at the first witness.
    with pytest.raises(ValueError, match="must be (SearchMode|bool)"):
        SearchOptions(order=8, node_budget=1000, **options)


@pytest.mark.parametrize("progress", [5, "print", True])
def test_options_reject_a_progress_that_is_not_callable(progress):
    # The walk would call it at the progress_interval-th placement and
    # raise TypeError there, or never with a large enough interval.
    with pytest.raises(ValueError, match="progress must be Callable, got"):
        SearchOptions(order=4, progress=progress, progress_interval=10)


def test_walk_outcomes_are_pinned():
    # Exact outcomes of the walk: any change to the candidate order, the
    # pruning or the budget and progress checks moves at least one. The
    # budget only bounds a broken walk: FIRST stops at placement 100.
    first = search_natural_franklin(
        SearchOptions(order=8, mode=SearchMode.FIRST, node_budget=200_000)
    )
    assert first.nodes_visited == 100
    digest = hashlib.sha256(square_to_csv(first.witnesses[0]).encode()).hexdigest()
    assert digest == "164b6619bff991ff7e3bc67ff11ab3e5cb412585ac11244c07d71618e6974495"

    counted = search_natural_franklin(SearchOptions(order=8, node_budget=100_000))
    assert counted.count == 88

    streams = [
        search_natural_franklin(
            SearchOptions(
                order=8, mode=SearchMode.STREAM, node_budget=50_000, prune=prune
            )
        ).witnesses
        for prune in (True, False)
    ]
    assert len(streams[0]) == 40
    assert streams[0] == streams[1]

    calls = []
    search_natural_franklin(
        SearchOptions(
            order=4,
            progress=lambda nodes, depth: calls.append((nodes, depth)),
            progress_interval=37,
        )
    )
    assert calls == [
        (37, 2), (74, 3), (111, 2), (148, 3), (185, 2), (222, 3),
        (259, 2), (296, 3), (333, 2), (370, 3), (407, 2), (444, 3),
    ]

    # At order 8 most progress calls come from cells placed by a forced
    # run, not from the free cell that started it.
    calls = []
    search_natural_franklin(
        SearchOptions(
            order=8,
            node_budget=100_000,
            progress=lambda nodes, depth: calls.append((nodes, depth)),
            progress_interval=9_973,
        )
    )
    assert calls == [
        (9973, 54), (19946, 48), (29919, 52), (39892, 55), (49865, 52),
        (59838, 50), (69811, 48), (79784, 32), (89757, 55), (99730, 41),
    ]


def test_unpruned_walk_progress_is_pinned():
    # Without pruning every cell is free and checks all the lines it
    # closes, so this pins the walk's check-only path.
    calls = []
    outcome = search_natural_franklin(
        SearchOptions(
            order=8,
            mode=SearchMode.STREAM,
            node_budget=50_000,
            prune=False,
            progress=lambda nodes, depth: calls.append((nodes, depth)),
            progress_interval=4_999,
        )
    )
    assert len(outcome.witnesses) == 40
    assert outcome.nodes_visited == 50_000
    assert calls == [
        (4999, 54), (9998, 49), (14997, 52), (19996, 50), (24995, 52),
        (29994, 48), (34993, 50), (39992, 48), (44991, 49), (49990, 48),
    ]


def _walk_with_progress(n, budget, prune, interval):
    calls = []
    outcome = search_natural_franklin(
        SearchOptions(
            order=n,
            mode=SearchMode.STREAM,
            node_budget=budget,
            prune=prune,
            progress=lambda nodes, depth: calls.append((nodes, depth)),
            progress_interval=interval,
        )
    )
    return outcome, calls


@pytest.mark.parametrize("n, budget", [(8, 20_000), (12, 2_000), (16, 2_000)])
def test_pruned_and_unpruned_walks_place_the_same_nodes(n, budget):
    # A derived value is accepted exactly where the completed-line check
    # accepts it, so the two walks agree node for node.
    pruned = _walk_with_progress(n, budget, True, 97)
    assert pruned == _walk_with_progress(n, budget, False, 97)
    assert len(pruned[1]) == budget // 97


def test_pruned_walk_progress_is_pinned_late_in_row_0():
    # The budget reaches free cells late in row 0, where any filter on
    # their candidates shows: a walk that also bounded the row sum at
    # (0, 6) first differs from this one at placement 223,000.
    outcome, calls = _walk_with_progress(8, 250_000, True, 1_000)
    assert (outcome.count, outcome.nodes_visited, len(calls)) == (192, 250_000, 250)
    digest = hashlib.sha256(repr(calls).encode()).hexdigest()
    assert digest == "317733ec56fea4cf29dc36379112af8910e17d21604fd43c826ec4023c9fe0d6"


def _plan_lines(n, prune):
    """Each line the plan derives or checks at each cell, as (bitmask of
    its cells, target), asserting that it closes at the cell that reads
    it."""
    _, derive_at, checks_at, _ = search._plan(n, prune)
    bits = [1 << j for j in range(n * n)]
    at = []
    for i, (derive, checks) in enumerate(zip(derive_at, checks_at)):
        found = []
        for get, target in ((derive,) if derive else ()) + checks:
            others = sum(get(bits))
            assert others < bits[i]
            found.append((others | bits[i], target))
        at.append(found)
    return at


def _franklin_lines(n):
    lines = franklin_checks(n, magic_constant(n))
    return sorted((sum(1 << j for j in cells), target) for cells, target in lines)


def _lines_the_plan_misses(n, prune):
    """The Franklin lines that are neither plan lines nor an exact
    combination, target included, of the plan lines that close at or
    before their last cell. Fraction elimination, pivoting each row on
    its last cell."""

    def row(mask, target):
        r = {j: Fraction(1) for j in range(n * n) if mask >> j & 1}
        r[-1] = Fraction(target)
        return r

    def reduce(r):
        """Reduce r in place; its last cell left, or None if it has none."""
        while True:
            p = max((k for k, x in r.items() if x and k >= 0), default=None)
            if p is None or p not in basis:
                return p
            f = r[p] / basis[p][p]
            for k, x in basis[p].items():
                r[k] = r.get(k, 0) - f * x

    plan_at = _plan_lines(n, prune)
    franklin_at = [[] for _ in range(n * n)]
    for mask, target in _franklin_lines(n):
        franklin_at[mask.bit_length() - 1].append((mask, target))
    basis = {}
    missed = []
    for j in range(n * n):
        for mask, target in plan_at[j]:
            r = row(mask, target)
            p = reduce(r)
            if p is not None:
                basis[p] = r
        for mask, target in franklin_at[j]:
            r = row(mask, target)
            if reduce(r) is not None or r[-1]:
                missed.append((divmod(j, n), mask, target))
    return missed


def _check_cells(n, checks_at):
    return [divmod(j, n) for j, checks in enumerate(checks_at) for _ in checks]


@pytest.mark.parametrize("n", range(4, 41, 4))
def test_pruned_plan_forces_all_but_2n_minus_5_cells(n):
    next_free, derive_at, checks_at, _ = search._plan(n, True)
    free = sorted(next_free)
    assert len(free) == 2 * n - 5
    assert [next_free[i] for i in free] == free[1:] + [n * n]
    # A forced cell is derived by its shortest closing line; a free cell
    # closes none.
    for i, (derive, checks) in enumerate(zip(derive_at, checks_at)):
        assert (derive is None) == (i in next_free)
        if derive is not None:
            length = len(derive[0](range(n * n)))
            assert all(len(get(range(n * n))) >= length for get, _ in checks)
    # The deriving lines imply every other line but two, one closing in
    # the middle of the grid and one at the foot of column 0.
    assert _check_cells(n, checks_at) == [(n // 2 - 1, n // 2), (n - 1, 0)]
    if n <= 12:
        assert _lines_the_plan_misses(n, True) == []


# SHA-256 of repr(_plan_lines(n, True)): the deriving line and kept
# checks of each cell, so any change to what the pruned walk reads shows.
PRUNED_PLAN_DIGESTS = {
    4: "134d90fb1f4325bde505c3729e1ad9b6bfa81de132d83554e20c1ede8962c420",
    8: "aab40f56c198dd7a8aa442dc60d8eec4377e0a2a5224e696c0160bf1720e9117",
    12: "65ee94e75586277cca64b90e246c00c4c649a7f8158224112c20b6c0deed2212",
    16: "4e3ed4c300ea4de403f60380b2dc7b278cacd2e1b19a8e368f2d09c5a48ceb4c",
    20: "31d51efa4b9e35139847b4701aaa542da8367dfd4344170ef16d405ce9edeee2",
    24: "a305e31026d91f6634cdb6ecb20f493b44a2c4080ce29387d9235976e82a5e4c",
    28: "5f24e6bfe4337b02be1d41d578f4aaea9f5096bc49ed883245186057260fdc48",
    32: "f6aa6c44e4ad2ad6afd4f46cb152be97881b74e51a043a5d98a2950ec1ba6e6b",
    36: "292eb89b7cb0da80cbb99e6de60da06afa8b64a8ea82ca056e904aee60f2909c",
    40: "cf1d5696992d886e7db02da83f14f8e84d8d32c4cee61431f38838c6c3db34f7",
}


@pytest.mark.parametrize("n", sorted(PRUNED_PLAN_DIGESTS))
def test_pruned_plan_is_pinned(n):
    digest = hashlib.sha256(repr(_plan_lines(n, True)).encode()).hexdigest()
    assert digest == PRUNED_PLAN_DIGESTS[n]


@pytest.mark.parametrize("n", range(4, 41, 4))
def test_unpruned_plan_frees_every_cell_and_checks_every_line(n):
    # No elimination: each Franklin line is checked at the cell where it
    # closes (_plan_lines asserts that), so the unpruned walk shares
    # nothing with the pruned plan's choice of lines.
    next_free, derive_at, checks_at, _ = search._plan(n, False)
    assert next_free == {i: i + 1 for i in range(n * n)}
    assert set(derive_at) == {None}
    checked = [line for lines in _plan_lines(n, False) for line in lines]
    assert sorted(checked) == _franklin_lines(n)


def _substituted_coefficients(n):
    """Each cell's coef by substitution: each free cell's run derived
    cell by cell with 1 at the free cell, 0 at every other cell and the
    targets dropped."""
    next_free, derive_at, _, _ = search._plan(n, True)
    coef_at = [0] * (n * n)
    for i in next_free:
        x = [0] * (n * n)
        x[i] = 1
        for j in range(i + 1, next_free[i]):
            get, _ = derive_at[j]
            x[j] = coef_at[j] = -sum(get(x))
    return coef_at


@pytest.mark.parametrize("n", range(4, 41, 4))
def test_run_coefficients_are_0_at_free_cells_and_unit_at_forced_cells(n):
    # A run cell's value is base + coef·x in its free cell's value x.
    # coef is 0 at free cells, ±1 at forced ones but for two order-4
    # cells whose lines miss the run's free cell, and 0 everywhere
    # without pruning, where there are no runs.
    next_free, derive_at, _, coef_at = search._plan(n, True)
    # _plan reads coef from the elimination's affine forms.
    assert list(coef_at) == _substituted_coefficients(n)
    for j, coef in enumerate(coef_at):
        if j in next_free:
            assert coef == 0
        else:
            assert coef in ((-1, 0, 1) if n == 4 else (-1, 1))
    if n == 4:
        zeros = [j for j, coef in enumerate(coef_at) if coef == 0 and derive_at[j]]
        assert [divmod(j, n) for j in zeros] == [(1, 0), (1, 1)]
    # n-1 free cells have a forced successor, each derived by a line
    # through the free cell.
    runs = [i for i in sorted(next_free) if i + 1 < next_free[i]]
    assert len(runs) == n - 1
    assert all(coef_at[i + 1] == -1 for i in runs)
    if n == 8:
        assert [divmod(i, n) for i in runs] == [
            (0, 2), (0, 6), (1, 0), (2, 0), (4, 0), (5, 0), (6, 0),
        ]
    assert set(search._plan(n, False)[3]) == {0}


@settings(max_examples=100, deadline=None)
@given(st.data())
def test_run_cells_are_their_base_plus_coef_times_the_free_value(data):
    # As a visit of free cell i starts, the walk derives each run cell
    # j with 0 at cell i and keeps that value as base_j; every value x
    # of the visit then takes base_j + coef_j·x. Deriving the run cell
    # by cell from x must agree, whatever the cells before i hold.
    n = data.draw(st.sampled_from([4, 8, 12, 16]))
    next_free, derive_at, _, coef_at = search._plan(n, True)
    grid = data.draw(st.lists(st.integers(-n**4, n**4), min_size=n * n, max_size=n * n))
    i = data.draw(st.sampled_from([i for i in sorted(next_free) if i + 1 < next_free[i]]))

    def run(x):
        grid[i] = x
        for j in range(i + 1, next_free[i]):
            get, target = derive_at[j]
            grid[j] = target - sum(get(grid))
        return grid[i + 1:next_free[i]]

    coefs = coef_at[i + 1:next_free[i]]
    bases = run(0)
    x = data.draw(st.integers(1, n * n))
    assert run(x) == [b + coef * x for b, coef in zip(bases, coefs)]


def test_budgets_and_marks_on_rejected_values_match_the_unpruned_walk():
    # The order-8 FIRST walk rejects cell (0, 2)'s values by subtraction
    # at placements 3-6, so a budget or progress mark there must still
    # place, report and stop as the full loop does.
    for budget in range(1, 121):
        runs = []
        for prune in (True, False):
            calls = []
            outcome = search_natural_franklin(
                SearchOptions(
                    order=8,
                    mode=SearchMode.FIRST,
                    node_budget=budget,
                    prune=prune,
                    progress=lambda nodes, depth: calls.append((nodes, depth)),
                    progress_interval=3,
                )
            )
            runs.append((outcome, calls))
        assert runs[0] == runs[1]
        assert outcome.nodes_visited == min(budget, 100)
        assert len(calls) == outcome.nodes_visited // 3


@pytest.mark.parametrize("interval", [1, 3, 7])
def test_marks_inside_deep_forced_runs_match_the_unpruned_walk(interval):
    # The pruned walk counts a forced run's placements in one step, so a
    # progress mark or the budget can fall on any cell of a run, deep in
    # the grid: each must report and stop as the unpruned walk, which
    # places one cell per step, does.
    for budget in [*range(1, 131), 997, 5003, 20011]:
        pruned = _walk_with_progress(8, budget, True, interval)
        assert pruned == _walk_with_progress(8, budget, False, interval)
        assert pruned[0].nodes_visited == budget
        assert len(pruned[1]) == budget // interval


@pytest.mark.parametrize("n", [*range(2, 39, 4), *range(1, 40, 2)])
def test_no_plan_where_no_natural_franklin_square_exists(n):
    assert search._plan(n, True) is None
    assert search._plan(n, False) is None


def _reference_candidate_order(grid, used, i, n):
    """The candidate order as a plain (penalty, v) sort."""
    r, c = divmod(i, n)

    def key(v):
        block, off = divmod(v - 1, n)
        if r == 0:
            penalty = 2 * any((grid[j] - 1) // n == block for j in range(c))
            penalty += c >= 1 and off != n - 1 - (grid[i - 1] - 1) % n
        else:
            penalty = 2 * any((grid[k * n] - 1) % n == off for k in range(r))
            if r >= 2:
                want_block = (grid[(r - 2) * n] - 1) // n
            else:
                want_block = n - 1 - (grid[0] - 1) // n
            penalty += block != want_block
        return penalty, v

    return sorted((v for v in range(1, n * n + 1) if not used[v]), key=key)


@settings(max_examples=200, deadline=None)
@given(st.data())
def test_candidate_order_lists_every_unused_value_once(data):
    # Row 0 and column 0 are the free cells; an interior cell takes the
    # column-0 branch, as it does in the unpruned walk. The order lists
    # every value and the walk skips the used ones, so the order less
    # the used values must be the reference's, however many more values
    # are used past the placed prefix that the order is cached on.
    n = data.draw(st.sampled_from([4, 8, 12, 16]))
    values = data.draw(st.permutations(range(1, n * n + 1)))
    i = data.draw(st.integers(0, n * n - 1))
    grid = list(values[:i]) + [0] * (n * n - i)
    used = [False] * (n * n + 1)
    for v in values[:i]:
        used[v] = True
    more = data.draw(st.lists(st.sampled_from(values[i:]), max_size=3))
    for extra in [None, None, *more]:
        if extra is not None:
            used[extra] = True
        order = search._candidate_order(grid, i, n)
        assert sorted(order) == list(range(1, n * n + 1))
        unused = [v for v in order if not used[v]]
        assert unused == _reference_candidate_order(grid, used, i, n)
