"""Acceptance gate: the contractual claims the package must satisfy.

Each criterion is numbered; its tests either pass within the stated time
budget or fail honestly. Three claims about the bundled reference data do
not hold for the grids as published (the fixture registry records them
under ``claims_known_false``). Their tests pin the measured discrepancy
instead: the exact failing lines and sums, computed by slicing and summing
the stored cells without ``verify``, must match what ``verify`` reports:

    test_criterion_2_euler_aux_pair_magic_at_15
    test_criterion_2_xian_aux_pair_magic_at_15
    test_criterion_5_new_pandiagonal_square_is_franklin
"""

import random
import time

import pytest

from franklin_squares import (
    Archetype,
    AuxPair,
    IndexTargets,
    SearchMode,
    SearchOptions,
    SeedPattern,
    Square,
    canonical_row_seed,
    compose,
    decompose,
    find_remainder_seeds,
    generate,
    is_balanced,
    is_natural,
    is_orthogonal,
    preset,
    search_natural_franklin,
    verify,
)
from franklin_squares import fixtures
from franklin_squares.lines import BENT_FAMILIES, LineFamily, family_lines
from franklin_squares.patterns import expand_quotient

GOLDEN_PAIRS = [
    ("f8_1769", "f8_1769_aux"),
    ("f8_pandiagonal", "f8_pandiagonal_aux"),
    ("f8_third", "f8_third_aux"),
    ("f8_schindel_2574", "f8_schindel_2574_aux"),
    ("f16_1769", "f16_1769_aux"),
    ("f16_pandiagonal", "f16_pandiagonal_aux"),
    ("m6_franklin_1769", "m6_franklin_1769_aux"),
    ("m6_euler", "m6_euler_aux"),
    ("m6_xian", "m6_xian_aux"),
]

# ---------------------------------------------------------------------------
# criterion 1: decomposition reproduces every stored quotient/remainder pair


def test_criterion_1_decomposition_goldens():
    start = time.perf_counter()
    for square_name, aux_name in GOLDEN_PAIRS:
        got = decompose(fixtures.load_square(square_name))
        want = fixtures.load_aux_pair(aux_name)
        assert got.quotient.cells == want.quotient.cells, square_name
        assert got.remainder.cells == want.remainder.cells, square_name
    assert time.perf_counter() - start < 1.0


# ---------------------------------------------------------------------------
# criterion 2: verifier reproduces the documented properties of each grid


def test_criterion_2_verifier_claims():
    start = time.perf_counter()

    rep = verify(fixtures.load_square("m6_franklin_1769"), IndexTargets.natural(6))
    assert rep.natural and rep.semi_magic and not rep.franklin

    pair6 = fixtures.load_aux_pair("m6_franklin_1769_aux")
    q_cols = verify(pair6.quotient, IndexTargets.balanced(6)).condition("columns")
    r_cols = verify(pair6.remainder, IndexTargets.balanced(6)).condition("columns")
    assert [(d.shift, a) for d, a in q_cols.failures] == [(1, 16), (4, 14)]
    assert [(d.shift, a) for d, a in r_cols.failures] == [(1, 9), (4, 21)]
    for member in (pair6.quotient, pair6.remainder):
        assert verify(member, IndexTargets.balanced(6)).condition("rows").passed

    rep13 = verify(fixtures.load_square("f8_pandiagonal"), IndexTargets.natural(8))
    for name in ("bent_down", "bent_up", "bent_right", "bent_left", "subsquares"):
        assert rep13.condition(name).passed, name
    assert not rep13.condition("half_lines").passed

    pair_third = fixtures.load_aux_pair("f8_third_aux")
    assert verify(pair_third.quotient, IndexTargets.balanced(8)).pandiagonal
    assert not verify(pair_third.remainder, IndexTargets.balanced(8)).pandiagonal

    sq17 = fixtures.load_square("f8_schindel_2574")
    assert verify(sq17, IndexTargets.natural(8)).pandiagonal_franklin
    pair17 = fixtures.load_aux_pair("f8_schindel_2574_aux")
    for member in (pair17.quotient, pair17.remainder):
        assert verify(member, IndexTargets.balanced(8)).pandiagonal_franklin

    assert time.perf_counter() - start < 1.0


def _assert_aux_pair_rows_miss(aux_name, square_name):
    """The pair is claimed magic at 15, but some rows of each member miss
    15; columns and both main diagonals hold, and the misses cancel in the
    composed square."""
    assert "magic" in fixtures.entry(aux_name).claims
    assert "magic" in fixtures.entry(aux_name).claims_known_false
    pair = fixtures.load_aux_pair(aux_name)
    for label, member in (("quotient", pair.quotient), ("remainder", pair.remainder)):
        row_misses = [
            (r, sum(row)) for r, row in enumerate(member.cells) if sum(row) != 15
        ]
        assert row_misses, label
        rep = verify(member, IndexTargets.balanced(6))
        rows = rep.condition("rows")
        assert [(d.shift, a) for d, a in rows.failures] == row_misses, label
        for name in ("columns", "main_diagonal", "cross_diagonal"):
            assert rep.condition(name).passed, (label, name)
        assert not rep.magic, label
    square = compose(pair)
    assert square.cells == fixtures.load_square(square_name).cells
    rep = verify(square, IndexTargets.natural(6))
    assert rep.natural and rep.magic


def test_criterion_2_euler_aux_pair_magic_at_15():
    _assert_aux_pair_rows_miss("m6_euler_aux", "m6_euler")


def test_criterion_2_xian_aux_pair_magic_at_15():
    _assert_aux_pair_rows_miss("m6_xian_aux", "m6_xian")


# ---------------------------------------------------------------------------
# criterion 3: composition reproduces the stored squares, including order 24
# and the stitched order-40 grid


def test_criterion_3_composition_goldens():
    start = time.perf_counter()

    sq8 = compose(fixtures.load_aux_pair("f8_1769_aux"))
    assert sq8.cells == fixtures.load_square("f8_1769").cells

    sq24 = compose(fixtures.load_aux_pair("q24_r24"))
    rep24 = verify(sq24, IndexTargets.natural(24))
    assert rep24.natural
    assert rep24.franklin
    assert rep24.targets.line_sum == 6924

    sq40 = fixtures.load_square("f40")
    rep40 = verify(sq40, IndexTargets.natural(40))
    assert rep40.natural
    assert rep40.franklin
    assert rep40.targets.line_sum == 32020
    pair40 = decompose(sq40)
    for member in (pair40.quotient, pair40.remainder):
        rep = verify(member, IndexTargets.balanced(40))
        assert rep.targets.line_sum == 780
        for name in ("bent_down", "bent_up", "bent_right", "bent_left",
                     "half_lines", "subsquares"):
            assert rep.condition(name).passed, name
        assert rep.franklin

    assert time.perf_counter() - start < 5.0


# ---------------------------------------------------------------------------
# criterion 4: seed presets rebuild the reference squares exactly


def test_criterion_4_presets_reproduce_reference_squares():
    for name in ("f8_1769", "f8_pandiagonal", "f16_1769", "f16_pandiagonal"):
        assert preset(name).cells == fixtures.load_square(name).cells, name
    assert preset("f24").cells == compose(fixtures.load_aux_pair("q24_r24")).cells


def test_criterion_4_canonical_row_seed_matches_stored_first_rows():
    for n, aux_name in ((8, "f8_1769_aux"), (16, "f16_1769_aux"), (24, "q24_r24")):
        quotient = fixtures.load_aux_pair(aux_name).quotient
        assert canonical_row_seed(n) == quotient.cells[0], n


# ---------------------------------------------------------------------------
# criterion 5: the two newer order-16 squares verify as documented


def test_criterion_5_new_pandiagonal_square_is_natural_pandiagonal():
    rep = verify(fixtures.load_square("f16_new_pandiagonal"), IndexTargets.natural(16))
    assert rep.natural
    assert rep.pandiagonal
    assert rep.magic
    assert rep.targets.line_sum == 2056


def test_criterion_5_new_pandiagonal_square_is_franklin():
    # Claimed Franklin, but the half-rows miss 2056/2 = 1028 while every
    # half-column hits it; everything else Franklin asks for holds.
    entry = fixtures.entry("f16_new_pandiagonal")
    assert {"franklin", "pandiagonal-franklin"} <= set(entry.claims_known_false)
    sq = fixtures.load_square("f16_new_pandiagonal")
    half_rows = [
        (LineFamily.HALF_ROW_LEFT, i, sum(row[:8])) for i, row in enumerate(sq.cells)
    ] + [(LineFamily.HALF_ROW_RIGHT, i, sum(row[8:])) for i, row in enumerate(sq.cells)]
    row_misses = [line for line in half_rows if line[2] != 1028]
    assert len(row_misses) == 32
    assert {total for _, _, total in row_misses} == {1020, 1036}
    assert all(sum(col[:8]) == sum(col[8:]) == 1028 for col in zip(*sq.cells))

    rep = verify(sq, IndexTargets.natural(16))
    half = rep.condition("half_lines")
    assert [(d.family, d.shift, a) for d, a in half.failures] == row_misses
    for name in ("rows", "columns", "bent_down", "bent_up", "bent_right",
                 "bent_left", "subsquares"):
        assert rep.condition(name).passed, name
    assert rep.pandiagonal and rep.magic
    assert not rep.franklin
    assert not rep.pandiagonal_franklin


def test_criterion_5_second_new_square_is_natural_franklin():
    rep = verify(fixtures.load_square("f16_new_second"), IndexTargets.natural(16))
    assert rep.natural
    assert rep.franklin


# ---------------------------------------------------------------------------
# criterion 6: exhaustive search settles small orders and finds an order-8
# witness under a node budget


def test_criterion_6_order_4_exhaustive_count_zero():
    start = time.perf_counter()
    outcome = search_natural_franklin(SearchOptions(order=4))
    elapsed = time.perf_counter() - start
    assert outcome.count == 0
    assert outcome.exhausted
    assert elapsed < 60.0


def test_criterion_6_order_2_settles_instantly():
    start = time.perf_counter()
    outcome = search_natural_franklin(SearchOptions(order=2))
    assert outcome.count == 0
    assert outcome.exhausted
    assert outcome.nodes_visited == 0
    assert time.perf_counter() - start < 1.0


def test_criterion_6_order_8_first_witness_reverifies():
    outcome = search_natural_franklin(
        SearchOptions(order=8, mode=SearchMode.FIRST, node_budget=200_000)
    )
    assert outcome.count == 1
    witness = outcome.witnesses[0]
    rep = verify(witness, IndexTargets.natural(8))
    assert rep.natural
    assert rep.franklin


# ---------------------------------------------------------------------------
# criterion 7: structural property suites


def test_criterion_7_compose_decompose_identity_on_1000_random_grids():
    rng = random.Random(20260815)
    for _ in range(1000):
        n = rng.randint(1, 12)
        sq = Square.from_rows(
            [[rng.randint(1, n * n) for _ in range(n)] for _ in range(n)]
        )
        assert compose(decompose(sq)).cells == sq.cells


def test_criterion_7_orthogonal_balanced_iff_natural_on_fixtures():
    for name in fixtures.names(fixtures.FixtureKind.SQUARE):
        sq = fixtures.load_square(name)
        assert is_natural(sq), name
        pair = decompose(sq)
        assert is_orthogonal(pair), name
        assert is_balanced(pair.quotient) and is_balanced(pair.remainder), name
    for name in fixtures.names(fixtures.FixtureKind.AUX_PAIR):
        pair = fixtures.load_aux_pair(name)
        assert is_orthogonal(pair), name
        assert is_balanced(pair.quotient) and is_balanced(pair.remainder), name
        assert is_natural(compose(pair)), name
    # a balanced but non-orthogonal pair must not compose to a natural square
    q = fixtures.load_aux_pair("m6_euler_aux").quotient
    degenerate = AuxPair(q, q)
    assert not is_orthogonal(degenerate)
    assert not is_natural(compose(degenerate))


@pytest.mark.parametrize("n", (2, 4, 6, 8, 16, 24, 40))
def test_criterion_7_bent_families_partition_the_grid(n):
    everything = {(r, c) for r in range(n) for c in range(n)}
    for family in BENT_FAMILIES:
        seen = set()
        for line in family_lines(n, family):
            cells = set(line.cells)
            assert len(cells) == n
            assert not cells & seen
            seen |= cells
        assert seen == everything


# Hand-checked order-6 partitions: each letter marks the cells of one bent
# diagonal, so a family matches when its six shifts reproduce the six
# letter classes exactly.
BENT_TABLEAUX = {
    LineFamily.BENT_RIGHT: (
        "SDCHTV",
        "VSDCHT",
        "TVSDCH",
        "TVSDCH",
        "VSDCHT",
        "SDCHTV",
    ),
    LineFamily.BENT_LEFT: (
        "SDCHTV",
        "DCHTVS",
        "CHTVSD",
        "CHTVSD",
        "DCHTVS",
        "SDCHTV",
    ),
    LineFamily.BENT_UP: (
        "SHCCHS",
        "HCDDCH",
        "CDTTDC",
        "DTVVTD",
        "TVSSVT",
        "VSHHSV",
    ),
    LineFamily.BENT_DOWN: (
        "SVTTVS",
        "DSVVSD",
        "CDSSDC",
        "HCDDCH",
        "THCCHT",
        "VTHHTV",
    ),
}


@pytest.mark.parametrize("family", BENT_FAMILIES)
def test_criterion_7_order_6_bent_tableaux(family):
    grid = BENT_TABLEAUX[family]
    classes = {
        frozenset(
            (r, c) for r in range(6) for c in range(6) if grid[r][c] == symbol
        )
        for symbol in "SDCHTV"
    }
    shifts = {frozenset(line.cells) for line in family_lines(6, family)}
    assert shifts == classes


# ---------------------------------------------------------------------------
# criterion 8: remainder-seed search finds the reference seed and its pruned
# and exhaustive variants agree


def test_criterion_8_remainder_seed_search():
    quotient = expand_quotient(canonical_row_seed(8), 8)
    pruned = find_remainder_seeds(8, quotient, pruned=True)
    brute = find_remainder_seeds(8, quotient, pruned=False)
    assert (3, 5, 4, 2, 6, 0, 1, 7) in pruned
    assert pruned == brute


def test_criterion_8_found_seeds_build_verified_squares():
    quotient = expand_quotient(canonical_row_seed(8), 8)
    qp = SeedPattern(Archetype.ROW_ALTERNATE, 8, canonical_row_seed(8))
    for seed in find_remainder_seeds(8, quotient, limit=5):
        rp = SeedPattern(Archetype.COLUMN_ALTERNATE, 8, seed)
        assert generate(qp, rp).report.franklin
