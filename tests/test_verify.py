import pytest

from franklin_squares import (
    ConditionStatus,
    IndexTargets,
    Square,
    check_lines,
    classify,
    is_orthogonal,
    verify,
)
from franklin_squares import fixtures
from franklin_squares.lines import LineFamily, family_lines

LO_SHU = Square.from_rows([[2, 7, 6], [9, 5, 1], [4, 3, 8]])


def test_order6_classic_square_flags():
    rep = verify(fixtures.load_square("m6_franklin_1769"), IndexTargets.natural(6))
    assert rep.natural
    assert rep.semi_magic
    assert not rep.magic
    assert not rep.pandiagonal
    assert not rep.franklin


def test_order6_classic_square_bent_passing_shifts():
    # Only the corner-anchored bent diagonals reach 111.
    rep = verify(fixtures.load_square("m6_franklin_1769"), IndexTargets.natural(6))
    passing = {}
    for fam in ("bent_down", "bent_up", "bent_right", "bent_left"):
        cond = rep.condition(fam)
        failing = {d.shift for d, _ in cond.failures}
        passing[fam] = set(range(6)) - failing
    assert passing == {
        "bent_down": {0, 3},
        "bent_up": {2, 5},
        "bent_right": {0, 3},
        "bent_left": {2, 5},
    }


def test_odd_line_sum_makes_half_lines_unsatisfiable():
    rep = verify(fixtures.load_square("m6_franklin_1769"), IndexTargets.natural(6))
    half = rep.condition("half_lines")
    assert half.status is ConditionStatus.UNSATISFIABLE
    assert len(half.failures) == 24  # misses are still reported


def test_indivisible_subsquare_target_is_unsatisfiable():
    rep = verify(fixtures.load_square("m6_euler"), IndexTargets(6, 16))
    assert rep.condition("subsquares").status is ConditionStatus.UNSATISFIABLE


def test_order6_magic_squares():
    for name in ("m6_euler", "m6_xian"):
        rep = verify(fixtures.load_square(name), IndexTargets.natural(6))
        assert rep.magic, name
        assert not rep.franklin, name


def test_odd_order_even_only_conditions_not_applicable():
    rep = verify(LO_SHU, IndexTargets.natural(3))
    assert rep.magic
    assert not rep.pandiagonal
    for name in ("bent_down", "bent_up", "bent_right", "bent_left",
                 "half_lines", "subsquares"):
        assert rep.condition(name).status is ConditionStatus.NOT_APPLICABLE
    assert not rep.franklin


def test_franklin_square_fails_straight_diagonals():
    rep = verify(fixtures.load_square("f8_1769"), IndexTargets.natural(8))
    assert rep.franklin
    assert not rep.magic
    main = rep.condition("main_diagonal")
    cross = rep.condition("cross_diagonal")
    assert [a for _, a in main.failures] == [228]
    assert [a for _, a in cross.failures] == [292]


def test_pandiagonal_implies_magic():
    rep = verify(fixtures.load_square("f8_pandiagonal"), IndexTargets.natural(8))
    assert rep.pandiagonal
    assert rep.magic


def test_pandiagonal_franklin_square():
    rep = verify(fixtures.load_square("f8_schindel_2574"), IndexTargets.natural(8))
    assert rep.semi_magic and rep.magic and rep.pandiagonal and rep.franklin
    assert rep.pandiagonal_franklin
    assert all(c.status is ConditionStatus.PASSED for c in rep.conditions)


def test_half_turn_rotation_preserves_franklin():
    cells = fixtures.load_square("f8_1769").cells
    sq = Square.from_rows(row[::-1] for row in cells[::-1])
    rep = verify(sq, IndexTargets.natural(8))
    assert rep.natural
    assert rep.franklin


def test_balanced_target_on_aux_square():
    q = fixtures.load_aux_pair("f8_1769_aux").quotient
    assert verify(q, IndexTargets.balanced(8)).franklin
    assert not verify(q, IndexTargets.natural(8)).semi_magic


def test_verify_rejects_target_order_mismatch():
    with pytest.raises(ValueError):
        verify(LO_SHU, IndexTargets.natural(4))


def test_check_lines_doubled_comparison():
    sq = Square.from_rows([[1, 2], [3, 4]])
    cond = check_lines(
        sq, family_lines(2, LineFamily.HALF_ROW_LEFT), 8, doubled=True
    )
    # halves are 1 and 3; doubled they give 2 and 6, both off target 8
    assert cond.lines_checked == 2
    assert [a for _, a in cond.failures] == [1, 3]


def test_classify_natural_square():
    out = classify(fixtures.load_square("f8_1769"))
    assert not out.target_inferred
    assert out.report.targets.line_sum == 260
    assert out.labels == {"natural", "semi-magic", "franklin"}


def test_classify_balanced_square():
    q = fixtures.load_aux_pair("f8_1769_aux").quotient
    out = classify(q)
    assert not out.target_inferred
    assert out.report.targets.line_sum == 28
    assert "franklin" in out.labels and "balanced" in out.labels


def test_classify_infers_target_from_first_row():
    sq = Square.from_rows([[5, 5], [5, 5]])
    out = classify(sq)
    assert out.target_inferred
    assert out.report.targets.line_sum == 10
    assert out.report.semi_magic


def test_full_claim_table_against_stored_grids():
    # Every fixture claim should hold except the ones recorded as known
    # false; those must fail, or the registry annotation is stale.
    for name in fixtures.names():
        e = fixtures.entry(name)
        results = _claim_results(e)
        for claim in e.claims:
            if claim in e.claims_known_false:
                assert not results[claim], f"{name}: {claim} unexpectedly holds"
            else:
                assert results[claim], f"{name}: {claim} does not hold"


def _claim_results(e):
    if e.kind is fixtures.FixtureKind.SQUARE:
        sq = fixtures.load_square(e.name)
        rep = verify(sq, IndexTargets.natural(e.order))
        return {
            "natural": rep.natural,
            "balanced": rep.balanced,
            "semi-magic": rep.semi_magic,
            "magic": rep.magic,
            "pandiagonal": rep.pandiagonal,
            "franklin": rep.franklin,
            "pandiagonal-franklin": rep.pandiagonal_franklin,
        }
    pair = fixtures.load_aux_pair(e.name)
    reports = [
        verify(member, IndexTargets.balanced(e.order))
        for member in (pair.quotient, pair.remainder)
    ]
    results = {
        "balanced": all(r.balanced for r in reports),
        "orthogonal": is_orthogonal(pair),
    }
    for claim, attr in (
        ("semi-magic", "semi_magic"),
        ("magic", "magic"),
        ("pandiagonal", "pandiagonal"),
        ("franklin", "franklin"),
        ("pandiagonal-franklin", "pandiagonal_franklin"),
    ):
        results[claim] = all(getattr(r, attr) for r in reports)
    return results
