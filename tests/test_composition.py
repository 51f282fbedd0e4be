import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from franklin_squares import (
    AuxPair,
    Square,
    compose,
    decompose,
    is_balanced,
    is_natural,
    is_orthogonal,
)
from franklin_squares import fixtures

GOLDEN_PAIRS = [
    ("m6_franklin_1769", "m6_franklin_1769_aux"),
    ("m6_euler", "m6_euler_aux"),
    ("m6_xian", "m6_xian_aux"),
    ("f8_1769", "f8_1769_aux"),
    ("f8_pandiagonal", "f8_pandiagonal_aux"),
    ("f8_third", "f8_third_aux"),
    ("f8_schindel_2574", "f8_schindel_2574_aux"),
    ("f16_1769", "f16_1769_aux"),
    ("f16_pandiagonal", "f16_pandiagonal_aux"),
]


def test_compose_small_example():
    q = Square.from_rows([[1, 0], [0, 1]])
    r = Square.from_rows([[1, 0], [0, 1]])
    assert compose(AuxPair(q, r)).cells == ((4, 1), (1, 4))


def test_decompose_small_example():
    pair = decompose(Square.from_rows([[4, 1], [1, 4]]))
    assert pair.quotient.cells == ((1, 0), (0, 1))
    assert pair.remainder.cells == ((1, 0), (0, 1))


@pytest.mark.parametrize("square_name,aux_name", GOLDEN_PAIRS)
def test_decompose_matches_stored_pair(square_name, aux_name):
    pair = decompose(fixtures.load_square(square_name))
    want = fixtures.load_aux_pair(aux_name)
    assert pair.quotient.cells == want.quotient.cells
    assert pair.remainder.cells == want.remainder.cells


@pytest.mark.parametrize("square_name,aux_name", GOLDEN_PAIRS)
def test_compose_matches_stored_square(square_name, aux_name):
    sq = compose(fixtures.load_aux_pair(aux_name))
    assert sq.cells == fixtures.load_square(square_name).cells


def _decompose_error(grid):
    with pytest.raises(ValueError) as exc:
        decompose(Square.from_rows(grid))
    return str(exc.value)


def test_decompose_rejects_values_below_one():
    assert _decompose_error([[0, 1], [2, 3]]) == "cell (0, 0) = 0 is < 1"


def test_decompose_rejects_values_above_order_squared():
    assert _decompose_error([[1, 2], [3, 5]]) == (
        "cell (1, 1) = 5 has quotient 2 outside 0..1"
    )


def test_decompose_names_the_first_bad_cell_in_row_major_order():
    assert _decompose_error([[1, 5], [0, 3]]) == (
        "cell (0, 1) = 5 has quotient 2 outside 0..1"
    )
    assert _decompose_error([[1, 2, 3], [4, 0, 10], [7, 8, 9]]) == (
        "cell (1, 1) = 0 is < 1"
    )


def test_decompose_at_order_one():
    assert _decompose_error([[2]]) == "cell (0, 0) = 2 has quotient 1 outside 0..0"
    assert _decompose_error([[-7]]) == "cell (0, 0) = -7 is < 1"
    pair = decompose(Square.from_rows([[1]]))
    assert pair == AuxPair(Square(((0,),)), Square(((0,),)))


def test_is_orthogonal_on_fixture_pairs():
    for name in fixtures.names(fixtures.FixtureKind.AUX_PAIR):
        assert is_orthogonal(fixtures.load_aux_pair(name)), name


def test_pair_with_itself_is_not_orthogonal():
    q = fixtures.load_aux_pair("m6_euler_aux").quotient
    assert not is_orthogonal(AuxPair(q, q))


def test_orthogonal_balanced_pair_composes_to_natural():
    for name in fixtures.names(fixtures.FixtureKind.AUX_PAIR):
        pair = fixtures.load_aux_pair(name)
        assert is_balanced(pair.quotient), name
        assert is_balanced(pair.remainder), name
        assert is_orthogonal(pair), name
        assert is_natural(compose(pair)), name


def test_natural_square_decomposes_to_orthogonal_balanced_pair():
    for name in fixtures.names(fixtures.FixtureKind.SQUARE):
        pair = decompose(fixtures.load_square(name))
        assert is_balanced(pair.quotient), name
        assert is_balanced(pair.remainder), name
        assert is_orthogonal(pair), name


def test_non_orthogonal_pair_composes_to_non_natural():
    q = fixtures.load_aux_pair("m6_euler_aux").quotient
    assert not is_natural(compose(AuxPair(q, q)))


@st.composite
def natural_range_grids(draw):
    n = draw(st.integers(min_value=1, max_value=9))
    cells = draw(
        st.lists(
            st.lists(st.integers(1, n * n), min_size=n, max_size=n),
            min_size=n,
            max_size=n,
        )
    )
    return Square.from_rows(cells)


@settings(max_examples=200, deadline=None)
@given(natural_range_grids())
def test_compose_decompose_roundtrip(sq):
    assert compose(decompose(sq)).cells == sq.cells


@settings(max_examples=100, deadline=None)
@given(st.integers(min_value=1, max_value=8), st.data())
def test_decompose_compose_roundtrip(n, data):
    rows = [
        [data.draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)
    ]
    cols = [
        [data.draw(st.integers(0, n - 1)) for _ in range(n)] for _ in range(n)
    ]
    pair = AuxPair(Square.from_rows(rows), Square.from_rows(cols))
    back = decompose(compose(pair))
    assert back.quotient.cells == pair.quotient.cells
    assert back.remainder.cells == pair.remainder.cells


def _grid(n, values):
    """The order-n square of row-major values, built by the checking
    constructor."""
    return Square(tuple(tuple(values[r * n:(r + 1) * n]) for r in range(n)))


def _int_rows(sq):
    return all(type(row) is tuple for row in sq.cells) and all(
        type(v) is int for row in sq.cells for v in row
    )


@settings(max_examples=150, deadline=None)
@given(st.integers(min_value=1, max_value=12), st.data())
def test_decompose_and_compose_follow_the_cell_formula(n, data):
    cells = data.draw(st.lists(st.integers(1, n * n), min_size=n * n, max_size=n * n))
    pair = decompose(_grid(n, cells))
    assert pair == AuxPair(
        _grid(n, [(v - 1) // n for v in cells]), _grid(n, [(v - 1) % n for v in cells])
    )
    assert _int_rows(pair.quotient) and _int_rows(pair.remainder)

    digits = st.lists(st.integers(0, n - 1), min_size=n * n, max_size=n * n)
    q, r = data.draw(digits), data.draw(digits)
    sq = compose(AuxPair(_grid(n, q), _grid(n, r)))
    assert sq == _grid(n, [n * a + b + 1 for a, b in zip(q, r)])
    assert _int_rows(sq)
