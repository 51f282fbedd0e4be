import functools
import hashlib
import random
from operator import mul

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from franklin_squares import (
    Archetype,
    AuxPair,
    IndexTargets,
    SeedPattern,
    Square,
    aux_constant,
    canonical_row_seed,
    compose,
    decompose,
    find_remainder_seeds,
    generate,
    is_orthogonal,
    preset,
    preset_names,
    verify,
)
from franklin_squares import fixtures, patterns
from franklin_squares.lines import franklin_checks
from franklin_squares.patterns import (
    _leaf_checks,
    _remainder_masks,
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


@pytest.mark.parametrize("name", sorted(patterns._PRESET_SEEDS))
def test_seeded_presets_build_no_report(monkeypatch, name):
    # A seeded preset is its seeds' composition, as generate builds it,
    # without the report that generate's verify would add.
    want = generate(*patterns._PRESET_SEEDS[name]).square
    if name == "f24":  # stored only as its auxiliary pair
        assert want == compose(fixtures.load_aux_pair("q24_r24"))
    else:
        assert want == fixtures.load_square(name)

    def refuse(*args, **kwargs):
        raise AssertionError("a preset was verified")

    monkeypatch.setattr(patterns, "verify", refuse)
    assert preset(name) == want


@pytest.mark.parametrize("name", sorted(patterns._PRESET_SEEDS))
def test_seeded_presets_check_their_pair_once(monkeypatch, name):
    # Each expansion was checked as its SeedPattern was built, so the
    # preset stores its pair with no second scan; the public check
    # accepts the same pair.
    q, r = (seed.expand() for seed in patterns._PRESET_SEEDS[name])
    want = compose(AuxPair(q, r))

    def refuse(*args, **kwargs):
        raise AssertionError("a preset pair was checked again")

    monkeypatch.setattr(AuxPair, "__init__", refuse)
    assert preset(name) == want


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
        (Archetype.FOUR_ROW_CYCLE, 0, (1,), "an order of at least 4, got 0"),
        (Archetype.FOUR_ROW_CYCLE, -4, (1,), "an order of at least 4, got -4"),
    ]
    for archetype, n, seed, message in bad:
        with pytest.raises(ValueError, match=message) as from_pattern:
            SeedPattern(archetype, n, seed)
        with pytest.raises(ValueError) as from_expander:
            expanders[archetype](seed, n)
        assert str(from_pattern.value) == str(from_expander.value)


# SHA-256 of repr([cells, ...]) for the seeds _pin_seeds gives. The digests
# were recorded from four separately written expanders, so they hold each
# archetype's cell rule to an independent construction: do not re-record them.
EXPANSION_DIGESTS = {
    ("ROW_ALTERNATE", 2): "d38b092e58757f89eb1061ccf8439cd715c8b7db3cbfa41122d1a8ca3bac7eca",
    ("ROW_ALTERNATE", 4): "ae7a622aebe242bb9cfdf33f14ac81b422b7d7e3c8e72ada89d398f80c354395",
    ("ROW_ALTERNATE", 6): "4d7a0a68f73258c06725195b6a46c3c26f3d0e2e17ef204e65017303cc6e50f9",
    ("ROW_ALTERNATE", 8): "fbc1c169082610021738ba702677a4ae750c500e06a676a4bdffb78dd01a1a0f",
    ("ROW_ALTERNATE", 12): "720ae45112ea71a45f06e0e73b0a952022e27efb9a3ff32931ba77baa638f355",
    ("ROW_ALTERNATE", 16): "53f80e8e9c37b9c54631c910a16cd41045779ed28c41d77a42bca8ff8de6bfec",
    ("ROW_ALTERNATE", 24): "7779c53264f0e78a79b438548b01622fa957e98cbb6aebd82ff5d42d1820ae9b",
    ("COLUMN_ALTERNATE", 2): "d38b092e58757f89eb1061ccf8439cd715c8b7db3cbfa41122d1a8ca3bac7eca",
    ("COLUMN_ALTERNATE", 4): "482a4dc553065254067a0c21f49b2096051aecedc07390867af223eb92fd2c8b",
    ("COLUMN_ALTERNATE", 6): "7322c9727d516601546942b322a4c6d2ca14e4c0af5ca6adafcec3818af616c6",
    ("COLUMN_ALTERNATE", 8): "fa97ea66c13f3b2e2891e732b4ce6a44e2bf74b2f482c4460667150fb536cba7",
    ("COLUMN_ALTERNATE", 12): "42bfb610ef8f278ced96725ecf8e4717e36e2ffa852bd29f7fe55273746b71c6",
    ("COLUMN_ALTERNATE", 16): "b2468de89e039b06d443e420218460ef2e11814fd87b8862900becf6b31a9801",
    ("COLUMN_ALTERNATE", 24): "24f66deda387c8405222f62b7211715c46fea0d85e87496467c45c9d915d2527",
    ("BLOCK_PAIR", 2): "11a0a4c84976c315c5a1f2632024338a1f0a15537800baabc11a9d7f33154808",
    ("BLOCK_PAIR", 4): "55ea408fc5d49b6209b6c62cef4caa90bd897966f44f6386bdff8ad4d03888a5",
    ("BLOCK_PAIR", 6): "dfcef778d938420a7d58653357231eeec8fcfdc69104f5f0e9873a0b16cb7225",
    ("BLOCK_PAIR", 8): "e8b9cac7128bbb5a2e4de18bc8775ef810182b234ef99af0201ede070f9f4f77",
    ("BLOCK_PAIR", 12): "ba9c38b1177b0ad717179bd3b3e02d4bafff7e04f3c8452ea81a91d0919a541c",
    ("BLOCK_PAIR", 16): "edfaf17b73e408acc9a2c7b159ca2699d4354882609c9257bf04693b5cad081a",
    ("BLOCK_PAIR", 24): "df270290bbb73da43aa9b54bdf8715ac0f23302d3576334257fe73a175b440da",
    ("FOUR_ROW_CYCLE", 4): "db119792c1fd373739d0e99d26f4b2a160f02bf5b58e9174d7fa2f93e686252b",
    ("FOUR_ROW_CYCLE", 8): "16ec56feafba1e8dc1e3a229b938cc5ff7779a0e4fe6248c9a5b563946a24007",
    ("FOUR_ROW_CYCLE", 12): "6cff3915db2971023fea1b7a6960da8ad5ba8ae9bcf8b91e6877826f415f319e",
    ("FOUR_ROW_CYCLE", 16): "ea5beb71e87c62b007cb336869f8e75a1c0dd55db6d9df00ce8ffd09b797c464",
    ("FOUR_ROW_CYCLE", 24): "f667b6ec3684ae83946a3d0b44e6e1db69bf6219238c1e1a3786879f2a49d028",
}


def _pin_seeds(archetype, n):
    if archetype is Archetype.BLOCK_PAIR:
        return [[(3 * i + 1) % n for i in range(n // 2)]]
    fixed = [canonical_row_seed(n)] if n % 4 == 0 else []
    return fixed + [random.Random(n).sample(range(n), n)]


@pytest.mark.parametrize("name, n", sorted(EXPANSION_DIGESTS))
def test_expansions_are_pinned(name, n):
    archetype = Archetype[name]
    cells = [SeedPattern(archetype, n, s).expand().cells for s in _pin_seeds(archetype, n)]
    digest = hashlib.sha256(repr(cells).encode()).hexdigest()
    assert digest == EXPANSION_DIGESTS[name, n]


def test_generate_attaches_verified_report():
    qp, rp = SEEDED_PRESETS["f8_1769"]
    result = generate(qp, rp)
    assert result.report.franklin
    assert result.report.natural
    assert result.square.cells == fixtures.load_square("f8_1769").cells
    # The square composes the two expansions, each built once when its
    # pattern was; the cached square takes no part in equality or hashing.
    assert result.square == compose(AuxPair(qp.expand(), rp.expand()))
    assert qp.expand() is qp.expand()
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


def test_generate_rejects_an_unbalanced_expansion():
    # Block pair (0, 0, 0, 0) fills column 0 with 0s: its sum is not 28.
    flat = SeedPattern(Archetype.BLOCK_PAIR, 8, (0, 0, 0, 0))
    qp, rp = SEEDED_PRESETS["f8_1769"]
    with pytest.raises(ValueError, match="remainder expansion is not balanced"):
        generate(qp, flat)
    with pytest.raises(ValueError, match="quotient expansion is not balanced"):
        generate(flat, rp)


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


# Order-8 row-alternate quotient seeds and how many remainder seeds each
# admits. Over one quotient seed per pattern, the result depended only on
# whether each complement pair {v, 7-v} sits at columns of equal parity:
# the first two give the canonical quotient's 384 seeds, the last two (all
# four pairs at equal parity) a list of 768.
ORDER8_QUOTIENT_SEEDS = {
    (0, 1, 2, 3, 4, 5, 6, 7): 384,
    (2, 1, 4, 6, 3, 7, 0, 5): 384,
    (0, 1, 2, 3, 5, 4, 7, 6): 768,
    (3, 2, 7, 1, 4, 6, 0, 5): 768,
}


@pytest.mark.parametrize(
    "qseed", sorted(ORDER8_QUOTIENT_SEEDS), ids=lambda q: "".join(map(str, q))
)
def test_remainder_seed_search_pruned_equals_exhaustive_other_quotients(qseed):
    count = ORDER8_QUOTIENT_SEEDS[qseed]
    quotient = expand_quotient(qseed, 8)
    pruned = find_remainder_seeds(8, quotient)
    assert pruned == find_remainder_seeds(8, quotient, pruned=False)
    assert len(pruned) == count
    canonical = find_remainder_seeds(8, expand_quotient(canonical_row_seed(8), 8))
    assert (pruned == canonical) == (count == 384)


@settings(max_examples=10, deadline=None)
@given(st.permutations(range(8)))
def test_remainder_seed_search_pruned_equals_exhaustive_random_quotients(qseed):
    quotient = expand_quotient(qseed, 8)
    pruned = find_remainder_seeds(8, quotient)
    assert pruned == find_remainder_seeds(8, quotient, pruned=False)


@pytest.mark.parametrize("extra_first", [True, False], ids=["extra_first", "extra_last"])
def test_pruned_walk_checks_a_second_form_in_either_place(monkeypatch, extra_first):
    # Every seed of the walk meets the whole sum, so adding its form keeps
    # every result. Put first, it is the walk's running sum and the bent
    # form is summed over the full seed at the leaf; put last, the reverse.
    n = 8
    (bent,) = _leaf_checks(n)
    whole = ((1,) * n, n * (n - 1) // 2)
    forms = (whole, bent) if extra_first else (bent, whole)
    monkeypatch.setattr(patterns, "_leaf_checks", lambda order: forms)
    for qseed, count in ORDER8_QUOTIENT_SEEDS.items():
        quotient = expand_quotient(qseed, n)
        pruned = find_remainder_seeds(n, quotient)
        assert pruned == find_remainder_seeds(n, quotient, pruned=False)
        assert len(pruned) == count


def test_first_1000_order16_seeds_are_pinned():
    # SHA-256 of repr([list(seed), ...]), recorded from a leaf that summed
    # all 416 Franklin lines of each expanded grid. A leaf that rejected
    # Franklin seeds would send the limited search through all of 16!, so
    # fail fast on the preset's seed first.
    preset_seed = patterns._PRESET_SEEDS["f16_1769"][1].seed
    assert _meets(preset_seed, _leaf_checks(16))
    quotient = expand_quotient(canonical_row_seed(16), 16)
    seeds = find_remainder_seeds(16, quotient, limit=1000)
    digest = hashlib.sha256(repr([list(s) for s in seeds]).encode()).hexdigest()
    assert digest == "7c19e4e6d5cdbfaec265efcba6efee46c3391dc4e063ab2f17fb15c7aa99ea16"


LEAF_ORDERS = (4, 8, 12, 16, 24)


def _statement_forms(n):
    """The four seed forms as _leaf_checks states them, built from that
    statement rather than from the line table: whole sum, bent form,
    upper half, lower half."""
    h, m = n // 2, n * (n - 1) // 2
    bent = tuple((-1) ** (r + (r >= h)) for r in range(n))
    return (
        ((1,) * n, m),
        (bent, 0),
        ((1,) * h + (0,) * h, m // 2),
        ((0,) * h + (1,) * h, m // 2),
    )


@pytest.mark.parametrize("n", range(4, 33, 4))
def test_leaf_forms_are_the_four_seed_forms(n):
    # The walk meets the whole and upper-half sums itself, and the lower
    # half is the whole less the upper half, so its leaf checks the bent
    # form alone.
    _whole, bent, _upper, _lower = _statement_forms(n)
    assert _leaf_checks(n) == (bent,)


def test_a_seed_free_line_that_misses_admits_no_seed(monkeypatch):
    # A row's seed terms cancel; with its target moved, no seed can pass.
    n = 8
    checks = franklin_checks(n, aux_constant(n))
    row, target = checks[0]
    missed = checks + ((row, target + 1),)
    monkeypatch.setattr(patterns, "franklin_checks", lambda n, m: missed)
    _leaf_checks.cache_clear()
    try:
        # The row's form is left with its constant alone: kept, it fails
        # every seed.
        _whole, bent, _upper, _lower = _statement_forms(n)
        assert _leaf_checks(n) == (bent, ((0,) * n, 1))
        quotient = expand_quotient(canonical_row_seed(n), n)
        assert find_remainder_seeds(n, quotient) == []
        assert find_remainder_seeds(n, quotient, pruned=False) == []
    finally:
        _leaf_checks.cache_clear()


def _meets(vector, forms):
    """True when vector meets every (coef, t) form."""
    return all(sum(map(mul, coef, vector)) == t for coef, t in forms)


def _leaf_verdicts(seed):
    """The seed search's verdict on a permutation seed, its leaf checks
    and the upper-half sum its walk enforces, and verify's Franklin
    verdict on the column-alternate expansion of seed; verify does not
    read the forms."""
    n = len(seed)
    checks = _leaf_checks(n)
    by_forms = _meets(seed, checks) and sum(seed[: n // 2]) == n * (n - 1) // 4
    report = verify(expand_remainder(seed, n), IndexTargets.balanced(n))
    return by_forms, report.franklin


# Order-12 seeds whose expansions are Franklin, drawn from random
# permutations: the canonical order-12 quotient admits no remainder seed.
ORDER12_FRANKLIN_SEEDS = (
    (9, 1, 2, 7, 11, 3, 8, 6, 4, 5, 10, 0),
    (8, 10, 6, 2, 3, 4, 9, 0, 7, 11, 1, 5),
)


@functools.cache
def _found_seeds():
    """Seeds whose expansions are Franklin: every order-8 seed the search
    finds for the quotients above, the remainder seeds of the f8_1769,
    f16_1769 and f24 presets, and the order-12 seeds above. The search runs
    only at order 8, where it ends quickly whatever its leaf accepts."""
    seeds = set(ORDER12_FRANKLIN_SEEDS)
    for qseed in ORDER8_QUOTIENT_SEEDS:
        seeds.update(find_remainder_seeds(8, expand_quotient(qseed, 8)))
    for name in ("f8_1769", "f16_1769", "f24"):
        seeds.add(patterns._PRESET_SEEDS[name][1].seed)
    return sorted(seeds)


def test_leaf_forms_match_verify_on_every_found_seed():
    found = _found_seeds()
    # the f8_1769 seed is one of the 768 order-8 seeds
    assert len(found) == 768 + 2 + 2
    for seed in found:
        assert _leaf_verdicts(seed) == (True, True), seed


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(LEAF_ORDERS).flatmap(lambda n: st.permutations(range(n))))
def test_leaf_forms_match_verify_on_random_seeds(seed):
    by_forms, by_verify = _leaf_verdicts(seed)
    assert by_forms == by_verify


@settings(max_examples=300, deadline=None)
@given(st.data())
def test_leaf_forms_match_verify_next_to_found_seeds(data):
    # Swapping two values of a Franklin seed keeps some forms and breaks
    # others, so both verdicts get exercised near the boundary.
    seed = list(data.draw(st.sampled_from(_found_seeds())))
    i, j = data.draw(st.lists(st.integers(0, len(seed) - 1), min_size=2, max_size=2))
    seed[i], seed[j] = seed[j], seed[i]
    by_forms, by_verify = _leaf_verdicts(tuple(seed))
    assert by_forms == by_verify


def _form_extremes(n):
    """For each of the four seed forms, the vectors in 0..n-1 that take it
    furthest above and below its target."""
    for coef, _ in _statement_forms(n):
        yield tuple(n - 1 if x > 0 else 0 for x in coef)
        yield tuple(n - 1 if x < 0 else 0 for x in coef)


@st.composite
def _leaf_vectors(draw):
    """Vectors with entries in 0..n-1, not only permutations: random ones,
    the form extremes, and found seeds with a few entries changed, which
    keep some forms and break others."""
    kind = draw(st.sampled_from(["random", "extreme", "near"]))
    if kind == "near":
        vector = list(draw(st.sampled_from(_found_seeds())))
        n = len(vector)
        entry = st.integers(0, n - 1)
        for i, v in draw(st.lists(st.tuples(entry, entry), max_size=3)):
            vector[i] = v
        return tuple(vector)
    n = draw(st.sampled_from(LEAF_ORDERS))
    if kind == "extreme":
        return draw(st.sampled_from(list(_form_extremes(n))))
    return tuple(draw(st.lists(st.integers(0, n - 1), min_size=n, max_size=n)))


@settings(max_examples=500, deadline=None)
@given(_leaf_vectors())
def test_leaf_checks_agree_with_the_four_seed_forms_on_the_walks_sums(vector):
    # The walk's seeds meet the whole and upper-half sums, so move the
    # vector onto both: its first entry makes up the upper half and its
    # middle entry the lower half.
    n, h = len(vector), len(vector) // 2
    half = n * (n - 1) // 4
    vector = list(vector)
    vector[0] += half - sum(vector[:h])
    vector[h] += half - sum(vector[h:])
    assert _meets(vector, _leaf_checks(n)) == _meets(vector, _statement_forms(n))


def _pair_set_masks(n, quotient):
    """masks[r][v] from its definition: one bit, n*q + x, per value pair
    (q, x) that seed value v puts in row r, or None when a pair repeats."""
    rows = expand_remainder(range(n), n).cells
    masks = []
    for qrow in quotient.cells:
        pairs = [{n * q + x for q, x in zip(qrow, row)} for row in rows]
        masks.append([sum(1 << i for i in p) if len(p) == n else None for p in pairs])
    return masks


@st.composite
def _quotient_grids(draw):
    """Even-order grids with values in 0..n-1 whose rows repeat values:
    block-pair expansions, whose rows repeat every pair, and permutation
    rows with a few cells overwritten, whose rows repeat some pairs and
    not others."""
    n = 2 * draw(st.integers(2, 8))
    if draw(st.booleans()):
        seed = draw(st.lists(st.integers(0, n - 1), min_size=n // 2, max_size=n // 2))
        return expand_block_pair(seed, n)
    rows = [list(draw(st.permutations(range(n)))) for _ in range(n)]
    cell = st.integers(0, n - 1)
    for r, c, v in draw(st.lists(st.tuples(cell, cell, cell), max_size=2 * n)):
        rows[r][c] = v
    return Square.from_rows(rows)


@settings(max_examples=300, deadline=None)
@given(_quotient_grids())
def test_closed_form_masks_equal_the_pair_sets(quotient):
    n = quotient.order
    assert _remainder_masks(n, quotient) == _pair_set_masks(n, quotient)


def test_remainder_seed_search_every_result_generates_franklin():
    quotient = expand_quotient(canonical_row_seed(8), 8)
    qp = SeedPattern(Archetype.ROW_ALTERNATE, 8, canonical_row_seed(8))
    for seed in find_remainder_seeds(8, quotient, limit=10):
        rp = SeedPattern(Archetype.COLUMN_ALTERNATE, 8, seed)
        assert generate(qp, rp).report.franklin


def test_remainder_seed_search_limit():
    quotient = expand_quotient(canonical_row_seed(8), 8)
    first5 = find_remainder_seeds(8, quotient, limit=5)
    assert first5 == find_remainder_seeds(8, quotient)[:5]
    assert first5 == find_remainder_seeds(8, quotient, limit=5, pruned=False)
    assert find_remainder_seeds(8, quotient, limit=0) == []
    assert find_remainder_seeds(8, quotient, limit=-1) == []


@pytest.mark.parametrize("n,limit", [(8, 2.5), (8, True), (8.0, None)])
def test_remainder_seed_search_takes_ints_not_bools(n, limit):
    quotient = expand_quotient(canonical_row_seed(8), 8)
    with pytest.raises(ValueError, match="must be int"):
        find_remainder_seeds(n, quotient, limit=limit)


def test_remainder_seed_search_empty_at_order_4():
    quotient = expand_quotient(canonical_row_seed(4), 4)
    assert find_remainder_seeds(4, quotient) == []


def test_canonical_order12_quotient_admits_no_remainder_seed():
    # The README's order-12 statement: an exhaustive search, about 1.3 s.
    quotient = expand_quotient(canonical_row_seed(12), 12)
    assert find_remainder_seeds(12, quotient) == []


@pytest.mark.parametrize(
    "call,kind",
    [
        (lambda: SeedPattern("row_alternate", 8, range(8)), "Archetype"),
        (lambda: SeedPattern(Archetype.ROW_ALTERNATE, 8.0, range(8)), "int"),
        (lambda: expand_quotient(canonical_row_seed(8), 8.0), "int"),
        (lambda: canonical_row_seed(8.0), "int"),
        (
            lambda: find_remainder_seeds(
                8, expand_quotient(canonical_row_seed(8), 8), pruned=1
            ),
            "bool",
        ),
        (lambda: SeedPattern(Archetype.ROW_ALTERNATE, 8, 5), "Iterable"),
        (lambda: SeedPattern(Archetype.ROW_ALTERNATE, 2, (1, "a")), "int"),
        (lambda: SeedPattern(Archetype.ROW_ALTERNATE, 2, (0, True)), "int"),
        (lambda: SeedPattern(Archetype.BLOCK_PAIR, 4, ("a", "b")), "int"),
        (lambda: find_remainder_seeds(8, [[0] * 8] * 8), "Square"),
    ],
    ids=["archetype_str", "pattern_order_float", "expand_order_float",
         "canonical_order_float", "pruned_int", "seed_int",
         "seed_mixed_types", "seed_bool_value", "block_pair_seed_str",
         "quotient_list"],
)
def test_seed_entry_points_reject_values_of_other_types(call, kind):
    with pytest.raises(ValueError, match=rf"must be {kind}, got"):
        call()


def test_remainder_seed_search_preconditions():
    with pytest.raises(ValueError):
        find_remainder_seeds(6, expand_quotient((5, 0, 1, 2, 3, 4), 6))
    quotient = expand_quotient(canonical_row_seed(8), 8)
    with pytest.raises(ValueError):
        find_remainder_seeds(4, quotient)  # order disagrees with the grid
    unbalanced = Square.from_rows([[0] * 8] * 8)
    with pytest.raises(ValueError):
        find_remainder_seeds(8, unbalanced)


def test_a_last_row_that_clashes_admits_no_seed():
    # The 768 seeds of this row-alternate quotient all fit its first seven
    # rows; the new last row gives each of them a pair an earlier row took,
    # row 6 alone for the 96 whose last two values are complements. Only
    # the check on the forced last value can see either clash.
    qrows = expand_quotient((0, 1, 2, 3, 5, 4, 7, 6), 8).cells
    rows = qrows[:-1] + (tuple(range(8)),)
    quotient = Square.from_rows(rows)
    assert find_remainder_seeds(8, quotient) == []
    assert find_remainder_seeds(8, quotient, pruned=False) == []


@pytest.mark.parametrize(
    "name, count",
    [
        ("f8_1769_aux", 384),
        ("f8_third_aux", 0),
        ("f8_schindel_2574_aux", 0),
        ("f8_pandiagonal_aux", 0),
    ],
)
def test_remainder_seeds_are_orthogonal_to_stored_quotients(name, count):
    # The last three quotients repeat a value within a row, so a row pair
    # can repeat inside one row; such a seed value is never orthogonal there.
    quotient = fixtures.load_aux_pair(name).quotient
    seeds = find_remainder_seeds(8, quotient)
    assert seeds == find_remainder_seeds(8, quotient, pruned=False)
    assert len(seeds) == count
    for seed in seeds:
        remainder = expand_remainder(seed, 8)
        assert is_orthogonal(AuxPair(quotient, remainder))
        assert verify(remainder, IndexTargets.balanced(8)).franklin
