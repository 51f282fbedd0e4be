"""Every test fails once it runs past a fixed time limit.

A walk that loses its FIRST witness would otherwise run on for hours
and the suite would hang instead of failing. The limit needs SIGALRM,
so on platforms without it tests run unlimited.

The ``swap_fixture_files`` fixture gives a test a fixture registry row
with other file digests for the test's duration.
"""

import signal

import pytest

from franklin_squares import FixtureEntry, fixtures

# Seconds one test may take; the slowest test takes about 6 s.
TEST_TIME_LIMIT_S = 120


@pytest.fixture(autouse=True)
def _time_limit(request):
    if not hasattr(signal, "SIGALRM"):
        yield
        return

    def expire(signum, frame):
        pytest.fail(
            f"{request.node.nodeid} ran past {TEST_TIME_LIMIT_S} s", pytrace=False
        )

    previous = signal.signal(signal.SIGALRM, expire)
    signal.alarm(TEST_TIME_LIMIT_S)
    try:
        yield
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


@pytest.fixture
def swap_fixture_files(monkeypatch):
    """swap(name, files) replaces fixture name's registry row by one with
    these files, every other field kept; the row is restored afterwards."""

    def swap(name, files):
        e = fixtures.entry(name)
        fields = {field: getattr(e, field) for field in FixtureEntry.__match_args__}
        row = FixtureEntry(**{**fields, "files": files})
        monkeypatch.setitem(fixtures.REGISTRY, name, row)

    return swap
