import hashlib
import shutil

import pytest

from franklin_squares import AuxPair, Square, is_natural
from franklin_squares import fixtures


def test_bundled_corpus_is_intact():
    assert fixtures.verify_corpus() == []


def test_names_by_kind():
    all_names = fixtures.names()
    squares = fixtures.names(fixtures.FixtureKind.SQUARE)
    pairs = fixtures.names(fixtures.FixtureKind.AUX_PAIR)
    assert len(all_names) == 22
    assert len(squares) == 12
    assert len(pairs) == 10
    assert set(all_names) == set(squares) | set(pairs)


def test_entry_metadata():
    e = fixtures.entry("f16_1769_aux")
    assert e.kind is fixtures.FixtureKind.AUX_PAIR
    assert e.order == 16
    assert e.reconstructed_quotient_rows == tuple(range(4, 14))
    assert len(e.files) == 2
    assert list(fixtures.entry("q24_r24").files) == ["q24.csv", "r24.csv"]
    assert fixtures.entry("f40").kind is fixtures.FixtureKind.SQUARE


def test_entry_unknown_name():
    with pytest.raises(fixtures.FixtureError):
        fixtures.entry("missing")


def test_load_square_and_pair_type_guards():
    assert isinstance(fixtures.load_square("f8_1769"), Square)
    assert isinstance(fixtures.load_aux_pair("f8_1769_aux"), AuxPair)
    with pytest.raises(fixtures.FixtureError):
        fixtures.load_square("f8_1769_aux")
    with pytest.raises(fixtures.FixtureError):
        fixtures.load_aux_pair("f8_1769")
    assert isinstance(fixtures.load("f8_1769"), Square)
    assert isinstance(fixtures.load("f8_1769_aux"), AuxPair)


def test_every_stored_square_is_natural():
    for name in fixtures.names(fixtures.FixtureKind.SQUARE):
        sq = fixtures.load_square(name)
        assert sq.order == fixtures.entry(name).order
        assert is_natural(sq), name


def test_order_40_square_loads():
    sq = fixtures.load_square("f40")
    assert sq.order == 40
    assert sq.cells[0][0] == 1220
    assert sq.cells[0][39] == 1181


def test_env_override_redirects_loading(tmp_path, monkeypatch):
    # place a different (but valid) grid under a bundled file's name
    other = fixtures.load_square("m6_euler")
    target = tmp_path / "m6_franklin_1769.csv"
    target.write_text(
        "".join(",".join(str(v) for v in row) + "\n" for row in other.cells)
    )
    monkeypatch.setenv(fixtures.ENV_VAR, str(tmp_path))
    assert fixtures.data_dir() == tmp_path
    # digests are not enforced outside the bundled directory
    assert fixtures.load_square("m6_franklin_1769").cells == other.cells


def test_verify_corpus_flags_missing_and_tampered_files(tmp_path):
    root = fixtures._BUNDLED_DIR
    for e in (fixtures.entry("m6_euler"), fixtures.entry("m6_xian")):
        for filename in e.files:
            shutil.copy(root / filename, tmp_path / filename)
    tampered = tmp_path / "m6_euler.csv"
    tampered.write_text(tampered.read_text().replace("1", "2", 1))
    problems = fixtures.verify_corpus(tmp_path)
    assert any("m6_euler.csv" in p and "sha256" in p for p in problems)
    # one problem per faulty file, in registry order: m6_euler.csv is
    # corrupted, and every file not copied cannot be read
    expected = [
        "fixture file m6_euler.csv is corrupted (sha256 "
        if f == "m6_euler.csv"
        else f"cannot read fixture file {tmp_path / f}: "
        for name in fixtures.names()
        for f in fixtures.entry(name).files
        if f != "m6_xian.csv"
    ]
    assert len(problems) == len(expected)
    assert all(p.startswith(e) for p, e in zip(problems, expected))


def test_verify_corpus_reports_wrong_order_file(tmp_path, monkeypatch):
    for e in fixtures.REGISTRY.values():
        for filename in e.files:
            shutil.copy(fixtures._BUNDLED_DIR / filename, tmp_path / filename)
    data = b"1,2\n3,4\n"
    (tmp_path / "m6_xian.csv").write_bytes(data)
    monkeypatch.setitem(
        fixtures.entry("m6_xian").files, "m6_xian.csv", hashlib.sha256(data).hexdigest()
    )
    assert fixtures.verify_corpus(tmp_path) == [
        f"fixture file {tmp_path / 'm6_xian.csv'} has order 2, not 6"
    ]


def test_corrupted_bundled_file_is_rejected_on_load(monkeypatch):
    monkeypatch.setitem(fixtures.entry("f8_1769").files, "f8_1769.csv", "0" * 64)
    with pytest.raises(fixtures.FixtureError, match="corrupted"):
        fixtures.load_square("f8_1769")


@pytest.mark.parametrize(
    "data", [b"1,x\n3,4\n", "1,2\n3,\u00e9\n".encode(), None, b"1,2\n3,4\n"]
)
def test_unreadable_override_file_is_a_fixture_error(tmp_path, monkeypatch, data):
    if data is not None:
        (tmp_path / "m6_euler.csv").write_bytes(data)
    monkeypatch.setenv(fixtures.ENV_VAR, str(tmp_path))
    with pytest.raises(fixtures.FixtureError, match="m6_euler.csv"):
        fixtures.load_square("m6_euler")


def test_pair_claims_note_which_member_is_pandiagonal():
    # asymmetric pandiagonality is recorded in prose, not in claims
    e = fixtures.entry("f8_third_aux")
    assert "pandiagonal" not in e.claims
    assert "quotient" in e.notes
