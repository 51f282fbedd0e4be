import pytest

from franklin_squares import (
    Archetype,
    IndexTargets,
    SeedPattern,
    Square,
    canonical_row_seed,
    decompose,
    find_remainder_seeds,
    generate,
    preset,
    preset_names,
    verify,
)
from franklin_squares import fixtures
from franklin_squares.patterns import (
    expand_block_pair,
    expand_four_row_cycle,
    expand_quotient,
    expand_remainder,
)

SEEDED_PRESETS = {
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


def test_canonical_row_seed_values():
    assert canonical_row_seed(4) == (3, 0, 1, 2)
    assert canonical_row_seed(8) == (6, 7, 0, 1, 2, 3, 4, 5)
    assert canonical_row_seed(16) == tuple((j + 12) % 16 for j in range(16))


def test_canonical_row_seed_requires_doubly_even_order():
    with pytest.raises(ValueError):
        canonical_row_seed(6)


@pytest.mark.parametrize("name", sorted(SEEDED_PRESETS))
def test_seed_expansions_match_stored_pairs(name):
    qp, rp = SEEDED_PRESETS[name]
    want = fixtures.load_aux_pair(name + "_aux")
    assert qp.expand().cells == want.quotient.cells
    assert rp.expand().cells == want.remainder.cells


@pytest.mark.parametrize("name", sorted(SEEDED_PRESETS))
def test_presets_reproduce_stored_squares(name):
    assert preset(name).cells == fixtures.load_square(name).cells


def test_f24_preset_composes_the_order24_pair():
    from franklin_squares import compose

    sq = preset("f24")
    assert sq.cells == compose(fixtures.load_aux_pair("q24_r24")).cells
    rep = verify(sq, IndexTargets.natural(24))
    assert rep.natural and rep.franklin
    assert sq.cells[0][0] == 444


def test_preset_names_cover_seeds_and_fixtures():
    names = preset_names()
    assert set(SEEDED_PRESETS) <= set(names)
    assert "f24" in names
    assert "f40" in names  # falls back to the stored grid


def test_preset_falls_back_to_fixture_names():
    assert preset("f40").cells == fixtures.load_square("f40").cells


def test_preset_unknown_name():
    with pytest.raises(fixtures.FixtureError):
        preset("who_knows")


def test_row_alternate_expansion():
    sq = expand_quotient((3, 0, 1, 2), 4)
    assert sq.cells == (
        (3, 0, 1, 2),
        (0, 3, 2, 1),
        (3, 0, 1, 2),
        (0, 3, 2, 1),
    )


def test_column_alternate_expansion():
    sq = expand_remainder((1, 3, 0, 2), 4)
    assert sq.cells == (
        (1, 2, 1, 2),
        (3, 0, 3, 0),
        (0, 3, 0, 3),
        (2, 1, 2, 1),
    )


def test_block_pair_expansion():
    sq = expand_block_pair((0, 2), 4)
    assert sq.cells == (
        (0, 3, 0, 3),
        (0, 3, 0, 3),
        (2, 1, 2, 1),
        (2, 1, 2, 1),
    )


def test_four_row_cycle_expansion_order_4():
    # with quarter-blocks of one row each, rows follow seed, swap, seed, swap
    sq = expand_four_row_cycle((1, 0, 3, 2), 4)
    assert sq.cells == (
        (1, 0, 3, 2),
        (0, 1, 2, 3),
        (1, 0, 3, 2),
        (0, 1, 2, 3),
    )


def test_four_row_cycle_expansion_order_8_literal_cycle():
    seed = (1, 0, 5, 4, 7, 6, 3, 2)
    sq = expand_four_row_cycle(seed, 8)
    comp = tuple(7 - v for v in seed)
    swap = (0, 1, 4, 5, 6, 7, 2, 3)
    swap_comp = tuple(7 - v for v in swap)
    assert sq.cells == (
        seed, comp, swap, swap_comp, seed, comp, swap, swap_comp
    )


def test_seed_pattern_validation():
    expanders = {
        Archetype.ROW_ALTERNATE: expand_quotient,
        Archetype.COLUMN_ALTERNATE: expand_remainder,
        Archetype.BLOCK_PAIR: expand_block_pair,
        Archetype.FOUR_ROW_CYCLE: expand_four_row_cycle,
    }
    even = "alternating expansion needs an even order"
    bad = [
        (Archetype.ROW_ALTERNATE, 4, (0, 1, 2), "permutation"),  # wrong length
        (Archetype.ROW_ALTERNATE, 4, (0, 1, 2, 2), "permutation"),
        (Archetype.ROW_ALTERNATE, 5, (0, 1, 2, 3, 4), even),
        (Archetype.COLUMN_ALTERNATE, 5, (0, 1, 2, 3, 4), even),
        (Archetype.BLOCK_PAIR, 7, (0, 6, 5), "block-pair expansion needs an even"),
        (Archetype.BLOCK_PAIR, 8, (0, 6, 5), "must have 4 values, got 3"),
        (Archetype.BLOCK_PAIR, 8, (0, 6, 5, 9), "seed value 9 outside 0..7"),
        (Archetype.FOUR_ROW_CYCLE, 6, (0, 1, 2, 3, 4, 5), "divisible by 4"),
        (Archetype.ROW_ALTERNATE, 0, (), "an order of at least 2, got 0"),
        (Archetype.COLUMN_ALTERNATE, 0, (), "an order of at least 2, got 0"),
        (Archetype.COLUMN_ALTERNATE, -4, (0, 1), "an order of at least 2, got -4"),
        (Archetype.BLOCK_PAIR, 0, (), "block-pair expansion needs an order of at"),
        (Archetype.BLOCK_PAIR, -4, (0, 1), "at least 2, got -4"),
    ]
    for archetype, n, seed, message in bad:
        with pytest.raises(ValueError, match=message) as from_pattern:
            SeedPattern(archetype, n, seed)
        with pytest.raises(ValueError) as from_expander:
            expanders[archetype](seed, n)
        assert str(from_pattern.value) == str(from_expander.value)


def test_generate_attaches_verified_report():
    qp, rp = SEEDED_PRESETS["f8_1769"]
    result = generate(qp, rp)
    assert result.report.franklin
    assert result.report.natural
    assert result.square.cells == fixtures.load_square("f8_1769").cells
    assert result.pair.quotient.cells == qp.expand().cells
    # The expansion made when the pattern was built is the one composed;
    # the cached square takes no part in equality or hashing.
    assert result.pair.quotient is qp.expand()
    assert result.pair.remainder is rp.expand()
    twin = SeedPattern(qp.archetype, qp.order, list(qp.seed))
    assert twin == qp and hash(twin) == hash(qp)


def test_generate_rejects_order_mismatch():
    qp, _ = SEEDED_PRESETS["f8_1769"]
    _, rp16 = SEEDED_PRESETS["f16_1769"]
    with pytest.raises(ValueError):
        generate(qp, rp16)


def test_generate_rejects_non_orthogonal_seeds():
    qp = SeedPattern(Archetype.ROW_ALTERNATE, 8, canonical_row_seed(8))
    with pytest.raises(ValueError, match="orthogonal"):
        generate(qp, qp)


def test_generated_square_decomposes_back_to_the_expansions():
    qp, rp = SEEDED_PRESETS["f16_pandiagonal"]
    result = generate(qp, rp)
    pair = decompose(result.square)
    assert pair.quotient.cells == qp.expand().cells
    assert pair.remainder.cells == rp.expand().cells


def test_remainder_seed_search_counts_and_endpoints():
    quotient = expand_quotient(canonical_row_seed(8), 8)
    seeds = find_remainder_seeds(8, quotient)
    assert len(seeds) == 384
    assert seeds[0] == (0, 1, 7, 6, 2, 3, 5, 4)
    assert seeds[-1] == (7, 6, 0, 1, 5, 4, 2, 3)
    assert (3, 5, 4, 2, 6, 0, 1, 7) in seeds
    assert seeds == sorted(seeds)


def test_remainder_seed_search_pruned_equals_exhaustive():
    quotient = expand_quotient(canonical_row_seed(8), 8)
    pruned = find_remainder_seeds(8, quotient, pruned=True)
    brute = find_remainder_seeds(8, quotient, pruned=False)
    assert pruned == brute


def test_remainder_seed_search_every_result_generates_franklin():
    quotient = expand_quotient(canonical_row_seed(8), 8)
    qp = SeedPattern(Archetype.ROW_ALTERNATE, 8, canonical_row_seed(8))
    for seed in find_remainder_seeds(8, quotient, limit=10):
        rp = SeedPattern(Archetype.COLUMN_ALTERNATE, 8, seed)
        assert generate(qp, rp).report.franklin


def test_remainder_seed_search_limit():
    quotient = expand_quotient(canonical_row_seed(8), 8)
    assert (
        find_remainder_seeds(8, quotient, limit=5)
        == find_remainder_seeds(8, quotient)[:5]
    )


def test_remainder_seed_search_empty_at_order_4():
    quotient = expand_quotient(canonical_row_seed(4), 4)
    assert find_remainder_seeds(4, quotient) == []


def test_remainder_seed_search_preconditions():
    with pytest.raises(ValueError):
        find_remainder_seeds(6, expand_quotient((5, 0, 1, 2, 3, 4), 6))
    quotient = expand_quotient(canonical_row_seed(8), 8)
    with pytest.raises(ValueError):
        find_remainder_seeds(4, quotient)  # order disagrees with the grid
    unbalanced = Square.from_rows([[0] * 8] * 8)
    with pytest.raises(ValueError):
        find_remainder_seeds(8, unbalanced)
