import hashlib
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import franklin_squares
from franklin_squares.lines import (
    BENT_FAMILIES,
    HALF_LINE_FAMILIES,
    LineDescriptor,
    LineFamily,
    family_lines,
    franklin_checks,
    independent,
    table,
)

EVEN_ORDERS = (2, 4, 6, 8, 16, 24, 40)


@pytest.mark.parametrize("n", EVEN_ORDERS)
def test_family_counts(n):
    assert len(family_lines(n, LineFamily.ROW)) == n
    assert len(family_lines(n, LineFamily.COLUMN)) == n
    assert len(family_lines(n, LineFamily.MAIN_DIAGONAL)) == 1
    assert len(family_lines(n, LineFamily.CROSS_DIAGONAL)) == 1
    assert len(family_lines(n, LineFamily.PANDIAG_DOWNRIGHT)) == n
    assert len(family_lines(n, LineFamily.PANDIAG_DOWNLEFT)) == n
    for fam in BENT_FAMILIES:
        assert len(family_lines(n, fam)) == n
    for fam in HALF_LINE_FAMILIES:
        assert len(family_lines(n, fam)) == n
    assert len(family_lines(n, LineFamily.SUBSQUARE_2x2)) == n * n


@pytest.mark.parametrize("n", EVEN_ORDERS)
def test_line_lengths(n):
    full = (
        LineFamily.ROW,
        LineFamily.COLUMN,
        LineFamily.MAIN_DIAGONAL,
        LineFamily.CROSS_DIAGONAL,
        LineFamily.PANDIAG_DOWNRIGHT,
        LineFamily.PANDIAG_DOWNLEFT,
    ) + BENT_FAMILIES
    for fam in full:
        for line in family_lines(n, fam):
            assert len(line.cells) == n
    for fam in HALF_LINE_FAMILIES:
        for line in family_lines(n, fam):
            assert len(line.cells) == n // 2
    for line in family_lines(n, LineFamily.SUBSQUARE_2x2):
        assert len(line.cells) == 4


@pytest.mark.parametrize("n", EVEN_ORDERS)
@pytest.mark.parametrize("family", BENT_FAMILIES)
def test_bent_family_partitions_grid(n, family):
    seen = set()
    for line in family_lines(n, family):
        cells = set(line.cells)
        assert len(cells) == n
        assert not cells & seen
        seen |= cells
    assert seen == {(r, c) for r in range(n) for c in range(n)}


@pytest.mark.parametrize("n", EVEN_ORDERS)
@pytest.mark.parametrize(
    "family", (LineFamily.PANDIAG_DOWNRIGHT, LineFamily.PANDIAG_DOWNLEFT)
)
def test_pandiagonal_family_partitions_grid(n, family):
    seen = set()
    for line in family_lines(n, family):
        seen |= set(line.cells)
    assert seen == {(r, c) for r in range(n) for c in range(n)}
    assert sum(len(line.cells) for line in family_lines(n, family)) == n * n


@pytest.mark.parametrize("n", EVEN_ORDERS)
def test_half_lines_partition_grid(n):
    all_cells = {(r, c) for r in range(n) for c in range(n)}
    row_halves = set()
    for fam in (LineFamily.HALF_ROW_LEFT, LineFamily.HALF_ROW_RIGHT):
        for line in family_lines(n, fam):
            assert not set(line.cells) & row_halves
            row_halves |= set(line.cells)
    assert row_halves == all_cells
    col_halves = set()
    for fam in (LineFamily.HALF_COL_UPPER, LineFamily.HALF_COL_LOWER):
        for line in family_lines(n, fam):
            assert not set(line.cells) & col_halves
            col_halves |= set(line.cells)
    assert col_halves == all_cells


@pytest.mark.parametrize("n", EVEN_ORDERS)
def test_each_cell_in_exactly_four_subsquares(n):
    counts = {}
    for line in family_lines(n, LineFamily.SUBSQUARE_2x2):
        for cell in line.cells:
            counts[cell] = counts.get(cell, 0) + 1
    assert set(counts.values()) == {4}
    assert len(counts) == n * n


def cells(n, family, shift):
    return family_lines(n, family)[shift].cells


def test_subsquare_wraps_around():
    assert set(cells(4, LineFamily.SUBSQUARE_2x2, 3 * 4 + 3)) == {
        (3, 3), (3, 0), (0, 3), (0, 0),
    }


def test_bent_down_order_2_is_top_row():
    assert cells(2, LineFamily.BENT_DOWN, 0) == ((0, 0), (0, 1))


def test_bent_down_order_4_shape():
    # V pointing down: descends toward the vertical midline, then rises.
    assert set(cells(4, LineFamily.BENT_DOWN, 0)) == {
        (0, 0),
        (1, 1),
        (1, 2),
        (0, 3),
    }


def test_bent_shift_translates_rows():
    base = cells(8, LineFamily.BENT_DOWN, 0)
    shifted = cells(8, LineFamily.BENT_DOWN, 3)
    assert [(r + 3) % 8 for r, _ in base] == [r for r, _ in shifted]


def test_pandiagonal_directions_differ():
    down_right = cells(4, LineFamily.PANDIAG_DOWNRIGHT, 0)
    down_left = cells(4, LineFamily.PANDIAG_DOWNLEFT, 0)
    assert (1, 1) in down_right
    assert (1, 3) in down_left


def test_half_line_cells_split_at_midline():
    assert cells(4, LineFamily.HALF_ROW_LEFT, 1) == ((1, 0), (1, 1))
    assert cells(4, LineFamily.HALF_ROW_RIGHT, 1) == ((1, 2), (1, 3))
    assert cells(4, LineFamily.HALF_COL_UPPER, 2) == ((0, 2), (1, 2))
    assert cells(4, LineFamily.HALF_COL_LOWER, 2) == ((2, 2), (3, 2))


@pytest.mark.parametrize(
    "family,shift,cells",
    [
        ("ROW", 0, ((0, 0), (0, 1))),
        (LineFamily.ROW, 1.0, ((0, 0), (0, 1))),
        (LineFamily.ROW, False, ((0, 0), (0, 1))),
        (LineFamily.ROW, 0, ((0, 0), (0, 1.0))),
        (LineFamily.ROW, 0, ((0, 0), (True, 1))),
        (LineFamily.ROW, 0, ((0, 0), (0, 1, 2))),
        (LineFamily.ROW, 0, [(0, 0), [0, 0]]),
        (LineFamily.ROW, 0, [5]),
        (LineFamily.ROW, 0, 7),
    ],
)
def test_line_descriptor_rejects_values_outside_its_types(family, shift, cells):
    with pytest.raises(ValueError):
        LineDescriptor(family, shift, cells)


def test_family_lines_rejects_an_unknown_family():
    # A family name is not a LineFamily: no geometry matches it.
    with pytest.raises(ValueError, match="unknown family: ROW"):
        family_lines(8, "ROW")


def test_odd_order_rejected_for_even_only_families():
    with pytest.raises(ValueError):
        family_lines(5, LineFamily.BENT_DOWN)
    with pytest.raises(ValueError):
        family_lines(5, LineFamily.HALF_ROW_LEFT)


# SHA-256 of the line geometry, recorded before table() and family_lines()
# came to share one formula per family: repr of every condition's lines in
# table(n), and per family either family_lines(n, family) as (shift, cells)
# or the name of the error it raised.
TABLE_DIGESTS = {
    1: "51cfb416c4be15e4dea798ea2129d5704b33265420423cf04cd7a6c1d5b05b04",
    2: "cb213eb489dfadc98217a64d34624b63aae36d0555efa567541b25fa3599631e",
    3: "4ce838005e93be2290f12d46880f0ac27c3d7ecd1515504c23a36ffc2b9d787b",
    4: "f8e05b352384b63da0683bbac47e670a8a1b62b2297c8fb35733ad0758802cb3",
    5: "a5b78a1c6990abbd3a3a027afcde70817a5df58de682ea08a5f3a7203104bd01",
    6: "c7d48c531e563bb19d41fda7b5fd34f925f7bd76f3f8c743f885eb699379609b",
    7: "c91a0834c335587d72d1655f8b7449c18c18a662c93bd11b2af45d9549d8ad61",
    8: "e330b2c78ea74f226015f5c7a07348b82cf379ae64e362f5d789a030c30a4fa3",
    9: "f7a415a5286884be3c4ea83ddb7fe9cd8137284d0171e9c84783e253306fa6d4",
    10: "152826cb6aa13695a8e31beb0d60e1a398fb8f309c86a339df315b12da2509ef",
    11: "33d5140103ff66f13d13867b33200191caa2456b7976a4968660c4c9854befc0",
    12: "ea5b2f4489cf9caddb955de9fe8d3f2abca64770b70c89d64c6e93903ca84017",
    16: "5f8a7bf1bd8b7530c7038e1d3464bf009087e1b1497c65c8af5351c3ae0d6e3e",
    24: "385d583e803c6d112f3f548ae9785f71fd2cdd424282c79a2d50fffbdd93de57",
    40: "040cc4985b8c75751483b010ba779563dc977831458415d8f501b99cbd6f541a",
}
FAMILY_DIGESTS = {
    0: "1629a274c45273da6325ab6958aef31a9c21799588f6748fd1c9aaf01d0c9709",
    1: "dbb1e38d105c689cafffb5fcfeec6bcbeed4ab6ef21b7421ea20c26753706438",
    2: "dac8fd98db5bba8baab60536ff59e2928e236fe8da235c6ad3087e13731df6cd",
    3: "7861ea3212825171e1ab56ee02f9756b6ab62b76cb5ce7a5e54e5d351b4bbe9c",
    4: "88e243f01f78c375cacb96dc18b765798ee247e57cc32b90e646c2c04723b913",
    5: "09845bc08e5b402ff7076f93c4aa0913b22707135e1bc8c3c483036b6224b3d3",
    6: "8993fc1f2003e8850be9c5efd48a0715834d4ba3592266afd810fb8eef3e4ec0",
    7: "7be6cc2c1b25ae6aebafea737a5299b89b13ea62fc06f377aa417e7bced865ab",
    8: "8f3d40cc8d9f2b5d5acc37e47afd7c77e36b194f70558c4b4a59256a7d0f672f",
    9: "7e486facebe9215af8c9f83b183bcf7ccf27f9604c514d90119d841812b80b42",
    10: "803a5e4607f1a65af55eb669bde247e4731b027444a788d666f5359747929a0a",
    11: "43ad54b6b5cdfc3f2e71ef015788581c7132690ef653dfd65759ca671e6b3d8d",
    12: "791fdeef72d28de89f2f3f79b29db298fc8ae277497b04296a54fe8894cac3a7",
    16: "88524544fb329ddebfa71971d06c19a8d864a8b4a4cfd161c64de1a268a93a7c",
    24: "940c3f7604e8f8f3adc758b8e245f0f3621418a148b14409bd63039e1d8931fc",
    40: "6f78bb385f126abbe962133193d653c1fdb08990a534583965420d739de73d1d",
}


def _sha256(value):
    return hashlib.sha256(repr(value).encode()).hexdigest()


@pytest.mark.parametrize("n", sorted(FAMILY_DIGESTS))
def test_geometry_is_pinned(n):
    if n in TABLE_DIGESTS:
        assert _sha256([c.lines for c in table(n)]) == TABLE_DIGESTS[n]
    families = []
    for family in LineFamily:
        try:
            families.append([(d.shift, d.cells) for d in family_lines(n, family)])
        except ValueError:
            families.append(ValueError.__name__)
    assert _sha256(families) == FAMILY_DIGESTS[n]


@pytest.mark.parametrize("n", (1, 3, 5) + EVEN_ORDERS)
def test_table_holds_family_lines_as_flat_indexes(n):
    assert table(n) is table(n)
    built = {
        (family, shift, cells)
        for cond in table(n)
        for family, shift, cells in cond.lines
    }
    even_only = BENT_FAMILIES + HALF_LINE_FAMILIES + (LineFamily.SUBSQUARE_2x2,)
    families = [f for f in LineFamily if n % 2 == 0 or f not in even_only]
    want = {
        (d.family, d.shift, tuple(r * n + c for r, c in d.cells))
        for family in families
        for d in family_lines(n, family)
    }
    assert built == want


def test_table_rules_and_report_order():
    rules = {c.name: (c.scale, c.mult, c.doubled, c.franklin) for c in table(8)}
    assert list(rules) == [
        "rows", "columns", "main_diagonal", "cross_diagonal", "pandiagonals",
        "bent_down", "bent_up", "bent_right", "bent_left",
        "half_lines", "subsquares",
    ]
    assert rules["rows"] == (1, 1, False, True)
    assert rules["pandiagonals"] == (1, 1, False, False)
    assert rules["half_lines"] == (2, 1, True, True)
    assert rules["subsquares"] == (8, 4, False, True)
    half, sub = table(6)[-2:]
    assert not half.satisfiable(111) and half.satisfiable(110)
    assert not sub.satisfiable(16) and sub.satisfiable(111)
    assert [c.name for c in table(5) if not c.lines] == [
        "bent_down", "bent_up", "bent_right", "bent_left",
        "half_lines", "subsquares",
    ]


def test_franklin_checks_targets():
    targets = {}
    for cells, target in franklin_checks(8, 260):
        targets.setdefault(len(cells), set()).add(target)
    # full lines 260, half-lines 260/2, subsquares 4*260/8
    assert targets == {8: {260}, 4: {130}}
    assert len(franklin_checks(8, 260)) == 8 + 8 + 4 * 8 + 4 * 8 + 64
    assert franklin_checks(8, 28)[-1] == ((63, 56, 7, 0), 14)
    assert franklin_checks(6, 111) is None  # odd m: no half-line target
    assert franklin_checks(5, 65) is None  # odd order: no bent lines


def test_importing_the_package_builds_no_table():
    code = (
        "import sys, franklin_squares.cli, franklin_squares.lines as lines; "
        "from franklin_squares import patterns, search; "
        "from franklin_squares.verify import _clean_result, _gather; "
        # Failing-line descriptors and their report texts hang on the
        # table, so none exist either.
        "assert lines.table.cache_info().currsize == 0; "
        "assert _clean_result.cache_info().currsize == 0; "
        "assert _gather.cache_info().currsize == 0; "
        "assert patterns._leaf_checks.cache_info().currsize == 0; "
        "assert search._plan.cache_info().currsize == 0; "
        "assert 'concurrent.futures' not in sys.modules"
    )
    src = str(Path(franklin_squares.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=src)
    subprocess.run([sys.executable, "-c", code], check=True, env=env)


def _rank(rows):
    """The rank of integer rows over the rationals, by Fraction elimination."""
    rows = [[Fraction(x) for x in row] for row in rows]
    rank = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((r for r in range(rank, len(rows)) if rows[r][col]), None)
        if pivot is None:
            continue
        rows[rank], rows[pivot] = rows[pivot], rows[rank]
        for r in range(len(rows)):
            if r != rank and rows[r][col]:
                f = rows[r][col] / rows[rank][col]
                rows[r] = [x - f * y for x, y in zip(rows[r], rows[rank])]
        rank += 1
    return rank


@st.composite
def _affine_rows(draw):
    """Rows of one width (coefficients, then a constant): random rows,
    integer combinations of earlier rows, the same with the constant moved
    (inconsistent with them), and rows with only a constant."""
    width = draw(st.integers(1, 6))
    small = st.integers(-3, 3)
    rows = []
    for _ in range(draw(st.integers(1, 10))):
        kind = draw(st.sampled_from(["random", "combination", "shifted", "constant"]))
        if kind in ("combination", "shifted") and rows:
            row = [0] * (width + 1)
            for earlier in draw(st.lists(st.sampled_from(rows), min_size=1, max_size=3)):
                k = draw(small)
                row = [x + k * y for x, y in zip(row, earlier)]
            if kind == "shifted":
                row[width] += draw(st.integers(1, 5))
        elif kind == "constant":
            row = [0] * width + [draw(small)]
        else:
            row = draw(st.lists(small, min_size=width + 1, max_size=width + 1))
        rows.append(row)
    return rows


@settings(max_examples=300, deadline=None)
@given(_affine_rows())
def test_independent_agrees_with_a_fraction_rank(rows):
    # A row is independent exactly when it raises the rank of the rows
    # accepted before it; it is left with only its constant exactly when
    # it raises that rank but not the rank of their coefficients.
    basis, accepted = [], []
    for row in rows:
        grows = _rank(accepted + [row]) > _rank(accepted)
        assert independent(basis, list(row)) == grows
        if grows:
            coefs = [r[:-1] for r in accepted]
            only_constant = _rank(coefs + [row[:-1]]) == _rank(coefs)
            assert (basis[-1][0] == len(row) - 1) == only_constant
            accepted.append(row)
