import hashlib
import os

import pytest

from franklin_squares import (
    IndexTargets,
    SearchMode,
    SearchOptions,
    classify,
    search_natural_franklin,
    verify,
)
from franklin_squares import search
from franklin_squares.formats import square_to_csv


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


@pytest.mark.parametrize("workers", [1, 2, 4])
def test_order_4_parallel_matches_sequential(workers):
    base = search_natural_franklin(SearchOptions(order=4))
    outcome = search_natural_franklin(
        SearchOptions(order=4, parallel_width=workers)
    )
    assert outcome == base


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
        SearchOptions(order=4, parallel_width=0)
    with pytest.raises(ValueError):
        SearchOptions(order=4, node_budget=0)
    with pytest.raises(ValueError):
        SearchOptions(order=4, progress_interval=0)


def test_walk_outcomes_are_pinned():
    # Exact outcomes of the walk: any change to the candidate order, the
    # pruning or the budget and progress checks moves at least one.
    first = search_natural_franklin(SearchOptions(order=8, mode=SearchMode.FIRST))
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


def test_worker_count_is_clamped(monkeypatch):
    widths = []

    class SerialPool:
        """Stands in for ProcessPoolExecutor: records the width and runs
        the branches in this process."""

        def __init__(self, max_workers):
            widths.append(max_workers)

        def __enter__(self):
            return self

        def __exit__(self, *exc):
            return False

        def map(self, fn, *iterables):
            return map(fn, *iterables)

    monkeypatch.setattr(search.concurrent.futures, "ProcessPoolExecutor", SerialPool)
    outcome = search_natural_franklin(
        SearchOptions(order=4, mode=SearchMode.STREAM, parallel_width=10_000)
    )
    (width,) = widths
    assert width <= (os.cpu_count() or 1)
    assert width <= 16
    assert outcome == search_natural_franklin(
        SearchOptions(order=4, mode=SearchMode.STREAM)
    )
