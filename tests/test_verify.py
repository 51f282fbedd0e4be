import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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
from franklin_squares.lines import (
    BENT_FAMILIES,
    HALF_LINE_FAMILIES,
    LineDescriptor,
    LineFamily,
    family_lines,
    table,
)
from franklin_squares.verify import _clean_result, _gather

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


def test_check_lines_rejects_a_line_off_the_grid():
    # An order-16 row runs past column 7 of an order-8 square.
    sq = fixtures.load_square("f8_1769")
    with pytest.raises(ValueError, match="line ROW #0 does not fit order 8"):
        check_lines(sq, family_lines(16, LineFamily.ROW), 260)


def test_report_condition_rejects_an_unknown_name():
    report = verify(fixtures.load_square("f8_1769"), IndexTargets.natural(8))
    assert report.condition("rows").condition == "rows"
    with pytest.raises(KeyError):
        report.condition("nope")


@st.composite
def natural_or_small_valued_squares(draw):
    """A natural square, or one of small values whose classify target is
    usually inferred; all-equal values pass every condition."""
    n = draw(st.integers(4, 12))
    if draw(st.booleans()):
        values = draw(st.permutations(range(1, n * n + 1)))
    else:
        top = draw(st.integers(0, 3))
        values = draw(st.lists(st.integers(0, top), min_size=n * n, max_size=n * n))
    return Square.from_rows(values[r * n:(r + 1) * n] for r in range(n))


def _line_sum(sq, line):
    return sum(sq.cells[r][c] for r, c in line.cells)


@settings(max_examples=80, deadline=None)
@given(natural_or_small_valued_squares())
def test_shared_descriptors_and_results_match_fresh_reports(a):
    n = a.order
    report_a = classify(a).report
    # b = 2a at twice the target fails exactly a's lines, at twice the sums.
    b = Square.from_rows([2 * v for v in row] for row in a.cells)
    targets_b = IndexTargets(n, 2 * report_a.targets.line_sum)
    report_b = verify(b, targets_b)
    for sq, report in ((a, report_a), (b, report_b)):
        for cond in report.conditions:
            for line, actual in cond.failures:
                assert line == family_lines(n, line.family)[line.shift]
                assert actual == _line_sum(sq, line)
    for cond_a, cond_b in zip(report_a.conditions, report_b.conditions):
        assert [line for line, _ in cond_b.failures] == [
            line for line, _ in cond_a.failures
        ]
        assert [s for _, s in cond_b.failures] == [2 * s for _, s in cond_a.failures]
    # Rebuilt b first, so a result shared across targets would differ.
    table.cache_clear()
    _gather.cache_clear()
    _clean_result.cache_clear()
    assert verify(b, targets_b) == report_b
    assert classify(a).report == report_a


def _reference_rules(n):
    """Each report condition as (name, families, scale, mult, even only): a
    line passes at line sum m when scale*sum == mult*m. Written out here,
    not read from lines.table."""
    F = LineFamily
    return [
        ("rows", [F.ROW], 1, 1, False),
        ("columns", [F.COLUMN], 1, 1, False),
        ("main_diagonal", [F.MAIN_DIAGONAL], 1, 1, False),
        ("cross_diagonal", [F.CROSS_DIAGONAL], 1, 1, False),
        ("pandiagonals", [F.PANDIAG_DOWNRIGHT, F.PANDIAG_DOWNLEFT], 1, 1, False),
        *((f.value.lower(), [f], 1, 1, True) for f in BENT_FAMILIES),
        ("half_lines", list(HALF_LINE_FAMILIES), 2, 1, True),
        ("subsquares", [F.SUBSQUARE_2x2], n, 4, True),
    ]


# Small values let lines pass; the wide ones are negative or pass 2**64.
_CELLS = st.one_of(
    st.integers(-3, 3), st.integers(-(2**70), 2**70), st.integers(2**64, 2**66)
)


@st.composite
def _squares_at_targets(draw):
    """A square at orders 1-12 and a target for it. The square is a grid
    of any values, or one value everywhere with a few cells changed, so
    that most lines pass and a few miss; the target is natural, inferred
    or odd."""
    n = draw(st.integers(1, 12))
    if draw(st.booleans()):
        values = draw(st.lists(_CELLS, min_size=n * n, max_size=n * n))
    else:
        values = [draw(_CELLS)] * (n * n)
        for i in draw(st.lists(st.integers(0, n * n - 1), max_size=4)):
            values[i] = draw(_CELLS)
    sq = Square.from_rows(values[r * n:(r + 1) * n] for r in range(n))
    kind = draw(st.sampled_from(["natural", "inferred", "odd"]))
    if kind == "natural":
        return sq, IndexTargets.natural(n)
    if kind == "inferred":
        return sq, classify(sq).report.targets
    return sq, IndexTargets(n, 2 * draw(st.integers(-(2**66), 2**66)) + 1)


@settings(max_examples=150, deadline=None)
@given(_squares_at_targets())
def test_verify_lists_exactly_the_lines_a_cell_by_cell_sum_misses(drawn):
    sq, targets = drawn
    n, m = sq.order, targets.line_sum
    report = verify(sq, targets)
    rules = _reference_rules(n)
    assert [c.condition for c in report.conditions] == [rule[0] for rule in rules]
    for cond, (name, families, scale, mult, even_only) in zip(report.conditions, rules):
        if even_only and n % 2:
            assert cond.status is ConditionStatus.NOT_APPLICABLE, name
            assert (cond.target, cond.lines_checked, cond.failures) == (None, 0, ())
            continue
        lines = [line for f in families for line in family_lines(n, f)]
        sums = [sum(sq.cells[r][c] for r, c in line.cells) for line in lines]
        missed = [(line, s) for line, s in zip(lines, sums) if scale * s != mult * m]
        assert cond.failures == tuple(missed), name
        assert cond.lines_checked == len(lines), name
        if (mult * m) % scale:
            assert cond.status is ConditionStatus.UNSATISFIABLE, name
        else:
            want = ConditionStatus.FAILED if missed else ConditionStatus.PASSED
            assert cond.status is want, name


def test_check_lines_sums_no_lines_one_cell_and_mixed_widths():
    sq = Square.from_rows([[1, 2, 3, 4], [5, 6, 7, 8], [9, 10, 11, 12], [13, 14, 15, 16]])
    empty = check_lines(sq, (), 7)
    assert (empty.status, empty.lines_checked, empty.failures) == (
        ConditionStatus.PASSED, 0, ()
    )
    # A getter of one cell index returns the bare value, not a tuple.
    cell = LineDescriptor(LineFamily.ROW, 2, [(2, 1)])
    assert check_lines(sq, (cell,), 10).status is ConditionStatus.PASSED
    one = check_lines(sq, (cell,), 9)
    assert (one.status, one.lines_checked, one.failures) == (
        ConditionStatus.FAILED, 1, ((cell, 10),)
    )
    row = family_lines(4, LineFamily.ROW)[1]  # 5+6+7+8
    half = family_lines(4, LineFamily.HALF_ROW_RIGHT)[2]  # 11+12
    sub = family_lines(4, LineFamily.SUBSQUARE_2x2)[15]  # 16+13+4+1, wrapped
    column = LineDescriptor(LineFamily.COLUMN, 0, [[0, 0], [1, 0]])  # 1+5
    nothing = LineDescriptor(LineFamily.BENT_UP, 0, [])
    lines = (row, half, sub, column, nothing)
    plain = check_lines(sq, lines, 26)
    assert (plain.status, plain.lines_checked) == (ConditionStatus.FAILED, 5)
    # Failures come in (family, shift) order, whatever order the lines had.
    assert plain.failures == ((column, 6), (nothing, 0), (half, 23), (sub, 34))
    doubled = check_lines(sq, lines, 46, doubled=True)
    assert doubled.failures == ((row, 26), (column, 6), (nothing, 0), (sub, 34))


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
