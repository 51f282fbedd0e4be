import pytest

from franklin_squares import (
    AuxPair,
    IndexTargets,
    Square,
    aux_constant,
    is_balanced,
    is_natural,
    magic_constant,
    verify,
)


@pytest.mark.parametrize(
    "n,expected",
    [(4, 34), (6, 111), (8, 260), (16, 2056), (24, 6924), (40, 32020)],
)
def test_magic_constant(n, expected):
    assert magic_constant(n) == expected


@pytest.mark.parametrize(
    "n,expected", [(4, 6), (6, 15), (8, 28), (16, 120), (24, 276), (40, 780)]
)
def test_aux_constant(n, expected):
    assert aux_constant(n) == expected


@pytest.mark.parametrize("constant", [magic_constant, aux_constant])
def test_line_sum_constants_reject_order_0(constant):
    with pytest.raises(ValueError, match="order must be >= 1, got 0"):
        constant(0)


def test_square_accessors():
    sq = Square.from_rows([[1, 2], [3, 4]])
    assert sq.order == 2
    assert sq.cells[1][0] == 3
    assert sq.cells[0] == (1, 2)
    assert tuple(row[1] for row in sq.cells) == (2, 4)
    assert sq.to_lists() == [[1, 2], [3, 4]]


def test_square_rejects_ragged():
    with pytest.raises(ValueError, match="ragged"):
        Square.from_rows([[1, 2], [3]])


def test_square_rejects_empty():
    with pytest.raises(ValueError):
        Square(())


def test_square_rejects_non_integer_cells():
    with pytest.raises(ValueError):
        Square.from_rows([[1, "2"], [3, 4]])
    with pytest.raises(ValueError):
        Square.from_rows([[1, True], [3, 4]])


def test_rotated_half_turn():
    def rotated(sq):
        return Square.from_rows(row[::-1] for row in sq.cells[::-1])

    sq = Square.from_rows([[1, 2], [3, 4]])
    assert rotated(sq).cells == ((4, 3), (2, 1))
    assert rotated(rotated(sq)) == sq


def test_aux_pair_rejects_order_mismatch():
    q = Square.from_rows([[0, 1], [1, 0]])
    r = Square.from_rows([[0, 1, 2], [1, 2, 0], [2, 0, 1]])
    with pytest.raises(ValueError, match="order mismatch"):
        AuxPair(q, r)


def test_aux_pair_rejects_out_of_range_values():
    q = Square.from_rows([[0, 2], [1, 0]])
    r = Square.from_rows([[0, 1], [1, 0]])
    with pytest.raises(ValueError, match="outside"):
        AuxPair(q, r)


def test_index_targets_constructors():
    assert IndexTargets.natural(8).line_sum == 260
    assert IndexTargets.balanced(8).line_sum == 28


def test_subsquare_target():
    def target(n, m):
        sq = Square.from_rows([[0] * n] * n)
        return verify(sq, IndexTargets(n, m)).condition("subsquares").target

    assert target(8, 260) == 130
    assert target(6, 111) == 74
    # 4 * 16 is not divisible by 6: no integer subsquare target exists
    assert target(6, 16) is None


def test_index_targets_rejects_bad_order():
    with pytest.raises(ValueError):
        IndexTargets(0, 1)


@pytest.mark.parametrize("order,line_sum", [(8, 260.0), (2, True), (True, 5), (8.0, 260)])
def test_index_targets_take_ints_not_bools(order, line_sum):
    with pytest.raises(ValueError, match="must be int"):
        IndexTargets(order, line_sum)


def test_is_natural():
    assert is_natural(Square.from_rows([[4, 1], [2, 3]]))
    assert not is_natural(Square.from_rows([[1, 1], [2, 3]]))
    assert not is_natural(Square.from_rows([[0, 1], [2, 3]]))


def test_is_balanced():
    assert is_balanced(Square.from_rows([[0, 1], [1, 0]]))
    assert not is_balanced(Square.from_rows([[0, 0], [1, 0]]))
    assert not is_balanced(Square.from_rows([[0, 2], [2, 0]]))


def test_classify_and_verify_sort_a_square_once(monkeypatch):
    from franklin_squares import classify, core, fixtures

    sorts = []

    def counted(values):
        sorts.append(1)
        return sorted(values)

    monkeypatch.setattr(core, "sorted", counted, raising=False)
    sq = fixtures.load_square("f8_1769")
    assert classify(sq).report.natural
    verify(sq, IndexTargets.natural(8))
    assert is_natural(sq) and not is_balanced(sq)
    assert sorts == [1]
