import hashlib
import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

from franklin_squares import classify, fixtures
from franklin_squares.cli import main
from franklin_squares.formats import outcome_to_dict, report_to_dict, square_to_json
from franklin_squares.search import (
    SearchMode,
    SearchOptions,
    _plan,
    search_natural_franklin,
)

ERROR_LINE = re.compile(r"^error: code=[A-Z_]+ .+\n$")


def bundled(filename):
    return str(fixtures._BUNDLED_DIR / filename)


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_verify_require_satisfied(capsys):
    code, out, err = run(
        capsys, "verify", bundled("f8_1769.csv"), "--require", "franklin"
    )
    assert code == 0
    assert err == ""
    assert "labels: natural, semi-magic, franklin" in out


def test_verify_require_failed(capsys):
    code, out, err = run(
        capsys, "verify", bundled("m6_franklin_1769.csv"), "--require", "franklin"
    )
    assert code == 1
    assert ERROR_LINE.match(err)
    assert "code=REQUIRE_FAILED" in err
    assert "half_lines" in out  # the report still prints the failures


def test_verify_json_report(capsys):
    code, out, _ = run(capsys, "verify", bundled("f8_schindel_2574.csv"), "--json")
    assert code == 0
    report = json.loads(out)
    assert report["schema_version"] == 1
    assert report["flags"]["pandiagonal_franklin"] is True
    assert report["target_inferred"] is False


def test_verify_explicit_targets(capsys):
    code, out, _ = run(
        capsys, "verify", bundled("f8_1769_q.csv"), "--target", "balanced",
        "--require", "franklin",
    )
    assert code == 0
    code, _, err = run(
        capsys, "verify", bundled("f8_1769_q.csv"), "--target", "260",
        "--require", "semi-magic",
    )
    assert code == 1
    code, _, err = run(
        capsys, "verify", bundled("f8_1769_q.csv"), "--target", "nonsense"
    )
    assert code == 2
    assert "code=USAGE" in err


def test_verify_stdin(capsys, monkeypatch, tmp_path):
    import io

    text = (fixtures._BUNDLED_DIR / "m6_euler.csv").read_text()
    monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
    code, out, _ = run(capsys, "verify", "-", "--require", "magic")
    assert code == 0


def test_verify_missing_file(capsys):
    code, _, err = run(capsys, "verify", "/nonexistent/grid.csv")
    assert code == 2
    assert "code=BAD_FILE" in err
    assert ERROR_LINE.match(err)


def test_verify_malformed_csv(capsys, tmp_path):
    bad = tmp_path / "bad.csv"
    bad.write_text("1,2\n3\n")
    code, _, err = run(capsys, "verify", str(bad))
    assert code == 2
    assert "code=BAD_FORMAT" in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "{bad}", "--require", "franklin"),
        ("decompose", "{bad}"),
        ("compose", "--q", "{bad}", "--r", bundled("m6_euler_r.csv")),
        ("verify", "-", "--require", "franklin"),
    ],
)
def test_non_utf8_square_file_is_bad_format(capsys, monkeypatch, tmp_path, argv):
    import io

    bad = tmp_path / "bad.csv"
    bad.write_bytes(b"1,2\n3,\xff\n")
    stdin = io.TextIOWrapper(io.BytesIO(bad.read_bytes()), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    argv = [arg.format(bad=bad) for arg in argv]
    path = "-" if "-" in argv else bad
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (
        f"error: code=BAD_FORMAT {path}: "
        "'utf-8' codec can't decode byte 0xff in position 6: invalid start byte\n"
    )


@pytest.mark.parametrize(
    "data",
    [b"1,2\r3,4\r", b"1,2\r\n3,4\r\n\r\n", b"1,2\n3,\xff\n"],
    ids=["cr-only", "crlf-blank-line", "not-utf8"],
)
def test_stdin_reads_like_a_file(capsys, monkeypatch, tmp_path, data):
    import io

    grid = tmp_path / "grid.csv"
    grid.write_bytes(data)
    code, out, err = run(capsys, "verify", str(grid))
    assert code == (2 if b"\xff" in data else 0)
    # A POSIX stdin's text layer splits lines only at \n, and under a C
    # locale it decodes with surrogateescape.
    stdin = io.TextIOWrapper(
        io.BytesIO(data), encoding="utf-8", errors="surrogateescape", newline="\n"
    )
    monkeypatch.setattr("sys.stdin", stdin)
    assert run(capsys, "verify", "-") == (code, out, err.replace(str(grid), "-"))


@pytest.mark.parametrize("text", ["1_6,2\n3,4\n", "1,2\n3,\u0664\n"])
def test_verify_stdin_rejects_a_non_decimal_cell(capsys, monkeypatch, text):
    import io

    stdin = io.TextIOWrapper(io.BytesIO(text.encode()), encoding="utf-8")
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run(capsys, "verify", "-")
    assert (code, out) == (2, "")
    assert "code=BAD_FORMAT" in err and "is not an integer" in err
    assert ERROR_LINE.match(err)


def test_verify_rejects_boolean_json_order(capsys, monkeypatch):
    import io

    stdin = io.TextIOWrapper(io.BytesIO(b'{"order": true, "cells": [1]}'))
    monkeypatch.setattr("sys.stdin", stdin)
    code, out, err = run(capsys, "verify", "-")
    assert code == 2
    assert out == ""
    assert "code=BAD_FORMAT" in err
    assert ERROR_LINE.match(err)


# Past the JSON decoder's limits: a cell of more digits than int() takes
# (4300 by default) and arrays nested deeper than the recursion limit.
OVERSIZED_JSON = {
    "5000-digit cell": '{"order": 1, "cells": [' + "9" * 5000 + "]}",
    "100000-deep cells": '{"order": 1, "cells": ' + "[" * 100_000 + "]" * 100_000 + "}",
}


@pytest.mark.parametrize("source", ["file", "stdin"])
@pytest.mark.parametrize("payload", list(OVERSIZED_JSON))
def test_json_past_the_decoder_limits_is_bad_format(
    capsys, monkeypatch, tmp_path, payload, source
):
    import io

    digit_limit = getattr(sys, "get_int_max_str_digits", int)()
    if payload == "5000-digit cell" and not 0 < digit_limit < 5000:
        pytest.skip("int() takes 5000 digits here")
    text = OVERSIZED_JSON[payload]
    path = tmp_path / "sq.json"
    path.write_text(text)
    if source == "stdin":
        monkeypatch.setattr("sys.stdin", io.TextIOWrapper(io.BytesIO(text.encode())))
        path = "-"
    code, out, err = run(capsys, "verify", str(path))
    assert (code, out) == (2, "")
    assert err.startswith(f"error: code=BAD_FORMAT {path}: invalid JSON: ")
    assert ERROR_LINE.match(err)


def test_verify_json_input(capsys, tmp_path):
    grid = tmp_path / "sq.json"
    grid.write_text('{"order": 2, "cells": [5, 4, 4, 5]}')
    code, out, _ = run(capsys, "verify", str(grid), "--json")
    assert code == 0
    assert json.loads(out)["target_inferred"] is True


# SHA-256 of `verify FILE --json` and of `verify FILE` (the text summary)
# for every bundled grid, both members of each pair: the byte contract.
VERIFY_DIGESTS = {
    "m6_franklin_1769.csv": (
        "7cec66bfc1f30834bb3095227e7e20c04325dc62c81b38441dfe7915a6f69bbc",
        "eece4316a56d621e9b504d2568d032b8525a431fb9f1e0e8ada7d226f96909d0",
    ),
    "m6_euler.csv": (
        "45dcb6fc7a8bbdc22c7c341246aff0dfefbcd8ab8a0c0985022d8842f4b06a03",
        "fbf1df2e07b9b29df12d23ef59ad3d56020158b78aec261f91ad214c2db1ff7e",
    ),
    "m6_xian.csv": (
        "eb75985eaa1b56e4d243e70b1b8f6f589e1eae25ec20117f10c554d48e133293",
        "edfb7433f3bf720136a0adf51c977301f2c32d1b1aec90f17fda8e02ac3bcf17",
    ),
    "f8_1769.csv": (
        "9f57f8b8590d97b4cd9e95d23056de874f550520abfb7556eeab9d6f3fdaf1ea",
        "f790733ef79f9ed214aa2adcc21e3ca3af49d5b5e60fab734d45254c3b7ae252",
    ),
    "f8_pandiagonal.csv": (
        "90945230406907b263bc611abcc05499d40535776b4efdda2ad4d80d0689ee06",
        "43c5f2c251a7ae80ae9b7f8421ccd2f40bb032b3e251908d1e32656f3b1c071e",
    ),
    "f8_third.csv": (
        "929d42e0180119950ff22195c10fc689467bf6efe6d3e4381e12b300048f90ac",
        "0f5876853bab0d786c46a2c09a9e9cbf811152c12b83d8a071f1fc7019d417cd",
    ),
    "f8_schindel_2574.csv": (
        "44a0c1ab9d46cc22c9db11dffb456411498b1a8a9766b8f9f46cf584b852c9d9",
        "f292fd4c092eb3ce314a32b11db110d6dd43b3732a1d5ff400344087013dac54",
    ),
    "f16_1769.csv": (
        "a0e582ee2766f4a2f813734a3d2a1cf3ac7f8237d5a1b01abba85a051c8ec271",
        "f03710e58fb1f0bbbe191325323e317050348be693c835478efe673b60b8324d",
    ),
    "f16_pandiagonal.csv": (
        "0a6f17d11eb22d24fa0db5e537f6aeaca9c63bcf6d8f07b11196cd5d209dd354",
        "c2e26c71a57a9ac5a2a2342465559bb35004c3026b62da9709ebc18869bdbaa8",
    ),
    "f16_new_pandiagonal.csv": (
        "632f3729f65d30faa65b210536f2c6d90821664859c92fc856ba127158be7d87",
        "ed6b75894f421062da1d4106fe3fff085344bb03346118cf051d5009a29f9665",
    ),
    "f16_new_second.csv": (
        "18cb996cb6b3c894db4a8f1b5b83bec9727610ce76f51d6b990202b63c53dd94",
        "9c3649fde14608a91dfc6907db8587077a8ea39b13e8dbadebfa2b778ee9dafe",
    ),
    "f40.csv": (
        "2a2219538fd48bc20fc6bb0ac9cf9c593c281f392b3ea1d8fb2dca6d36ac362b",
        "2075ff3ebbe462c466d4496ba1c1bd80d099d65b38f9235fe6a34ca4290b581d",
    ),
    "m6_franklin_1769_q.csv": (
        "ed290d42015a7334a23a0e4288783fc1a5d0689a13db1ee4571dbb4bfb7d93a0",
        "3d99f7ffc3af9265e0ae3383965fb86f1436d8ea95ce70e020120712379d726f",
    ),
    "m6_franklin_1769_r.csv": (
        "e9cbc334739f56e97da5b08e5b8967a2e4f125ed39c833eb1b68c6445ff14440",
        "88fd7288b588aaed582b7272fc2d4aa8e8a55f0470bb290b88c034cb2ec169fb",
    ),
    "m6_euler_q.csv": (
        "784026e4eae5f6e16269669366b63b23363e88fd2d5b0e1e337baaac319c1fea",
        "072401ba4c2eb56f8fa7acd78caeb0fe6dd3a6dc71f97f9b2ba7805a8861fd3e",
    ),
    "m6_euler_r.csv": (
        "b0c50688b2b3f19e2d0f2df5ffd5f7f2ca09c2b503c30b1edd3001858fbaf73c",
        "a66308e05e46c662aa2f1ad2d62689359d864181a722d52ab5b7905c297915d8",
    ),
    "m6_xian_q.csv": (
        "b0137f8718eae03763d8a481ed9aec442bfafe30b3d07643a8127b4a9d88a8e4",
        "2d1c54decd5dcc9f437b5b9d375000f6f7a02c738e1b8c64ffd045a91e3ab0f4",
    ),
    "m6_xian_r.csv": (
        "a238ff7d1328b343cd482e86e383eaa7aa1f3d1bd5ed74dff47e257c77c6f7da",
        "70cb0f806a79c44580bb93a922f051c48fddd1e0bf7063530af9dcf954ee5bdb",
    ),
    "f8_1769_q.csv": (
        "170fb8867e52cc19c1af99206c9260caea9c63367dd138aaa6a02da9fbd1b6c7",
        "6c8325308b723dfa7304eede69e2f9316c2bbf7cfee98e73596f1d35179146e5",
    ),
    "f8_1769_r.csv": (
        "a8b5ccbc2d237f6b0ee47e9a636534d3689a87a61dfb3b734b8f7c26716af368",
        "ca3a63dbc908f1c473dd5054c09775be02ef19769215edc1af569767f53d8bec",
    ),
    "f8_pandiagonal_q.csv": (
        "345133076a3c7f2099000420bf6c5edac92573db884180924d8c0f2b769d414c",
        "8586538b1dd82265bf2a6e30574e1fa338574421941c57fe0322409e3b7bc8dc",
    ),
    "f8_pandiagonal_r.csv": (
        "879b18a43a9fe1304e7f48e5b04debd11c48aa5d02b17be8bee4a592cd6d2282",
        "77fb132e322e9b21c369dd0eab64d3b7baf454c5c7a4166ce5953c16df2bb1bf",
    ),
    "f8_third_q.csv": (
        "a8b5ccbc2d237f6b0ee47e9a636534d3689a87a61dfb3b734b8f7c26716af368",
        "ca3a63dbc908f1c473dd5054c09775be02ef19769215edc1af569767f53d8bec",
    ),
    "f8_third_r.csv": (
        "1747bf6e816c4af0d70dc5c9af9e5404486d3232f4dfd2663568e94058639a55",
        "d8c4b23a2a06219755808500aa06cce800a2cf49ff0f281391ab1df681a77da6",
    ),
    "f8_schindel_2574_q.csv": (
        "a8b5ccbc2d237f6b0ee47e9a636534d3689a87a61dfb3b734b8f7c26716af368",
        "ca3a63dbc908f1c473dd5054c09775be02ef19769215edc1af569767f53d8bec",
    ),
    "f8_schindel_2574_r.csv": (
        "a8b5ccbc2d237f6b0ee47e9a636534d3689a87a61dfb3b734b8f7c26716af368",
        "ca3a63dbc908f1c473dd5054c09775be02ef19769215edc1af569767f53d8bec",
    ),
    "f16_1769_q.csv": (
        "b144bf3e97b5a58abc74dd9bd510f8e1a0203e305cbff2a342be236edf843deb",
        "072f9096b9601008ef3003d35f504b73c006af4a84880ccf8b211ad794c95714",
    ),
    "f16_1769_r.csv": (
        "e62db6cb5c90618e504618b1b0d363991fbb64f0a5476530ca4f852230b3ff28",
        "dea5f044f89ee5b55626da8d11bce62eea3b26a0c1b516b1281741e1e7946a93",
    ),
    "f16_pandiagonal_q.csv": (
        "e62db6cb5c90618e504618b1b0d363991fbb64f0a5476530ca4f852230b3ff28",
        "dea5f044f89ee5b55626da8d11bce62eea3b26a0c1b516b1281741e1e7946a93",
    ),
    "f16_pandiagonal_r.csv": (
        "e62db6cb5c90618e504618b1b0d363991fbb64f0a5476530ca4f852230b3ff28",
        "dea5f044f89ee5b55626da8d11bce62eea3b26a0c1b516b1281741e1e7946a93",
    ),
    "q24.csv": (
        "a6db7d5ad56fb598358fe0fb3695567e281c624d1e08160d45054f36fdeae9fe",
        "faca47779276151fbecce511ad069851959fe8c8fedf06405f387f5b2b2e3271",
    ),
    "r24.csv": (
        "c83bed1cac97ec2f5a9492a8ccf7b3949cb67103cb560f6ac7f42aa25d05954c",
        "2545418f897d270b8b7e322664326b1a0ea918b88bbfce2ecf67658c6c50b6f6",
    ),
}


@pytest.mark.parametrize("filename", sorted(VERIFY_DIGESTS))
def test_verify_output_bytes_are_pinned(capsys, filename):
    want_json, want_text = VERIFY_DIGESTS[filename]
    code, out, err = run(capsys, "verify", bundled(filename), "--json")
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == want_json
    code, out, err = run(capsys, "verify", bundled(filename))
    assert (code, err) == (0, "")
    assert hashlib.sha256(out.encode()).hexdigest() == want_text
    # --summary names the default text output; it cannot join --json.
    assert run(capsys, "verify", bundled(filename), "--summary") == (0, out, "")
    assert run(capsys, "verify", bundled(filename), "--json", "--summary") == (
        2,
        "",
        "error: code=USAGE argument --summary: not allowed with argument --json\n",
    )


def test_pinned_outputs_cover_every_fixture_file():
    files = {f for name in fixtures.names() for f in fixtures.entry(name).files}
    assert len(fixtures.names()) == 22
    assert set(VERIFY_DIGESTS) == files


# Exit code, SHA-256 of stdout and of stderr, and SHA-256 of each file the
# command writes, for the commands other than `verify`: the byte contract.
# "{data}" is the bundled fixture directory. "{tmp}" is a fresh directory
# that holds bad.csv; its path reads "{tmp}" again before hashing.
EMPTY = "e3b0c44298fc1c149afbf4c8996fb92427ae41e4649b934ca495991b7852b855"
COMMAND_DIGESTS = {
    "generate --preset f8_1769": (
        0,
        "3a02d7f4e623a28fdc4982f010515970db2f083c01d7b72eb656bbdd430f148b",
        EMPTY,
        {},
    ),
    "generate --preset f8_1769 --report -": (
        0,
        "b2b2046650ab3a0b2039da6a82ffa6d171aea90fe607c91271df0dc79b4f656b",
        EMPTY,
        {},
    ),
    "generate --preset f16_1769": (
        0,
        "48f351b500b16e7cf401578115b623c5df0778a079cca2960aaba7d8ebda203b",
        EMPTY,
        {},
    ),
    "generate --preset f24": (
        0,
        "4e978ec62f0fe18b8f0404695aaf87f570143349574b8b408a380b9365a56181",
        EMPTY,
        {},
    ),
    "generate --preset f8_pandiagonal": (
        0,
        "0266ffabb1d3bbd9ebe3e1a7b050ff2311c55e97f53111e62b6d911a65e65f67",
        EMPTY,
        {},
    ),
    "generate --preset f16_pandiagonal": (
        0,
        "f0a913c854676bda9452e8727a8706c2ea7ec8e68521375415708bec4494da2e",
        EMPTY,
        {},
    ),
    "generate --preset m6_franklin_1769": (
        0,
        "2f17383acc405d1ce79b5d28b23a2bc7e24dc5535d33ee89c57c0b6c4b17d857",
        EMPTY,
        {},
    ),
    "generate --preset m6_euler": (
        0,
        "40b698ae8e8102f6eb3f851c094d5b8fa5d97b5939ae3b22c38047dbb02b9480",
        EMPTY,
        {},
    ),
    "generate --preset m6_xian": (
        0,
        "120037f6f74bc493def4c93f186b5dc481cbfc9d0249748d4aa944c5c2026eae",
        EMPTY,
        {},
    ),
    "generate --preset f8_third": (
        0,
        "54505ba7b6eb0f84cddc84d1e9757c7e7bc9035fd22cc493a3a5db24734ac55c",
        EMPTY,
        {},
    ),
    "generate --preset f8_schindel_2574": (
        0,
        "84d766c67a81f7b88be71842e2e279eb40ac90e2eb0feec6983818f10e29dd24",
        EMPTY,
        {},
    ),
    "generate --preset f16_new_pandiagonal": (
        0,
        "ffb71d7bde5b2df9b62f6f0463c36a60bc76dfb1a03f7226bbe285bc0d4a54fc",
        EMPTY,
        {},
    ),
    "generate --preset f16_new_second": (
        0,
        "2c672e8e33e753d31d5dd03006bd9c0cb2e9e8823f8219618df6aa321de9923c",
        EMPTY,
        {},
    ),
    "generate --preset f40": (
        0,
        "e5cd6c09573896248d12d1f71df0af0f56c1fb3e27e352d1e465c7df51da6d20",
        EMPTY,
        {},
    ),
    "generate --preset m6_franklin_1769_aux": (
        0,
        "b25889bb8a40407cef988d098e493d811708de5cd7d40f6940be9e6839b512aa",
        EMPTY,
        {},
    ),
    "generate --preset m6_euler_aux": (
        0,
        "8094f6661f3d39de56ebf21bd417b44e1dd7d9634f892f1a7fe4389cb0a352b2",
        EMPTY,
        {},
    ),
    "generate --preset m6_xian_aux": (
        0,
        "f90a710db2d99b4da3c9f5084323e3f7982baff5476f9d65d7618edcd5c49e64",
        EMPTY,
        {},
    ),
    "generate --preset f8_1769_aux": (
        0,
        "e5ac9d8c7ad9e71063eed22752449fdfc96257f644eb702f1c497d3b8959ae6e",
        EMPTY,
        {},
    ),
    "generate --preset f8_pandiagonal_aux": (
        0,
        "79d9ef282a0512184feb69ac6a7f9532f45b14ed925abd089e657c402509a731",
        EMPTY,
        {},
    ),
    "generate --preset f8_third_aux": (
        0,
        "9aab4113f46b6b5197b3235a8b1cc71a6536b8ed3c93ca9ad5d03756edbcb929",
        EMPTY,
        {},
    ),
    "generate --preset f8_schindel_2574_aux": (
        0,
        "6c18885a174408d19771660f401949d03125c464f0564aa1eb13470051340010",
        EMPTY,
        {},
    ),
    "generate --preset f16_1769_aux": (
        0,
        "1a1056ca77fdf9ad1fae1f5d833fd755b365d1f23443d6c877b1721e77a70034",
        EMPTY,
        {},
    ),
    "generate --preset f16_pandiagonal_aux": (
        0,
        "d42d99a2a0329e892ddb70adbe50646137195118a6a6832c1863ad71a5679b59",
        EMPTY,
        {},
    ),
    "generate --preset q24_r24": (
        0,
        "224113f4d8da4b57d0f9305821194b161689f59e4c80531b2dd40f9d2bebee35",
        EMPTY,
        {},
    ),
    "generate --order 8 --q-seed 6,7,0,1,2,3,4,5 --r-seed 3,5,4,2,6,0,1,7 --archetypes row_alternate,column_alternate --out {tmp}/sq.csv --report {tmp}/report.json": (
        0,
        EMPTY,
        EMPTY,
        {
            "report.json": "9f57f8b8590d97b4cd9e95d23056de874f550520abfb7556eeab9d6f3fdaf1ea",
            "sq.csv": "3a02d7f4e623a28fdc4982f010515970db2f083c01d7b72eb656bbdd430f148b",
        },
    ),
    "decompose {data}/f8_1769.csv": (
        0,
        "e5ac9d8c7ad9e71063eed22752449fdfc96257f644eb702f1c497d3b8959ae6e",
        EMPTY,
        {},
    ),
    "decompose {data}/f8_1769.csv --out-q - --out-r -": (
        0,
        "e5ac9d8c7ad9e71063eed22752449fdfc96257f644eb702f1c497d3b8959ae6e",
        EMPTY,
        {},
    ),
    "decompose {data}/f16_1769.csv --out-q {tmp}/q.csv --out-r {tmp}/r.csv": (
        0,
        EMPTY,
        EMPTY,
        {
            "q.csv": "28c22d289a115b69a072be2ab27b57560774252e1c49bef35bc4971c59a6e18f",
            "r.csv": "23630cdb5c25b1bf264bd22bdd4713c58006a947f0ffd481ba5cce5e938d38d6",
        },
    ),
    "compose --q {data}/f8_1769_q.csv --r {data}/f8_1769_r.csv": (
        0,
        "3a02d7f4e623a28fdc4982f010515970db2f083c01d7b72eb656bbdd430f148b",
        EMPTY,
        {},
    ),
    "compose --q {data}/f16_1769_q.csv --r {data}/f16_1769_r.csv --out {tmp}/m.csv": (
        0,
        EMPTY,
        EMPTY,
        {
            "m.csv": "48f351b500b16e7cf401578115b623c5df0778a079cca2960aaba7d8ebda203b",
        },
    ),
    "search --order 4 --mode count": (
        0,
        "e046b041f3b94722ccbb23172fcac284d666d17da01cd883e52ce0f75e55718c",
        EMPTY,
        {},
    ),
    "search --order 4 --mode first": (
        0,
        "e046b041f3b94722ccbb23172fcac284d666d17da01cd883e52ce0f75e55718c",
        EMPTY,
        {},
    ),
    "search --order 4 --mode stream": (
        0,
        "cfc33b6093f08c8c3b931e276a8e231738d88363c07a32d874cfcf829393cec9",
        EMPTY,
        {},
    ),
    "search --order 8 --mode first": (
        0,
        "0775b095fb3cb2530e646b40c840b8ba9a8fc68baa7267b5f1282b3221ea5474",
        EMPTY,
        {},
    ),
    "search --order 8 --mode stream --budget 20000": (
        0,
        "fd590a784d8cc7a8112dd8287613a2e80347f79386e36fa64d31675fea3a01d8",
        EMPTY,
        {},
    ),
    "fixtures list": (
        0,
        "62ad454628c85e06cd726ee4ee7e16c2660d036257d996f208b40e384a0327bc",
        EMPTY,
        {},
    ),
    "fixtures show f8_1769": (
        0,
        "72ee563c1a1afa4a4acc0227a36ec32b7f5734616f3a71c899cad0ff7399b407",
        EMPTY,
        {},
    ),
    "fixtures show f16_1769_aux": (
        0,
        "2a5cdc219ba92440c62407a7f6f8c15c179c747008d364c4bbac13977a291c1e",
        EMPTY,
        {},
    ),
    "fixtures show m6_euler_aux": (
        0,
        "f143ef561abd48954d0c7195433376adcdeb7a5bf3cbcbe50e8d26e83db188cd",
        EMPTY,
        {},
    ),
    "verify {data}/f8_1769.csv --target natural": (
        0,
        "f790733ef79f9ed214aa2adcc21e3ca3af49d5b5e60fab734d45254c3b7ae252",
        EMPTY,
        {},
    ),
    "verify {data}/m6_franklin_1769.csv --require franklin": (
        1,
        "eece4316a56d621e9b504d2568d032b8525a431fb9f1e0e8ada7d226f96909d0",
        "2bb0230f7714b4c6e6b72d467a421389d5ef9730ab0908aab57734858ae6913d",
        {},
    ),
    "generate --order 8": (
        2,
        EMPTY,
        "cddf8d8dc268bf515e5b0680c235cd34958669a7ae59ed31df612cd8d56e8c1b",
        {},
    ),
    "compose --q {tmp}/missing.csv --r {data}/f8_1769_r.csv": (
        2,
        EMPTY,
        "f5ac9408c0adeda4f0a86b434cf8048cc01055d3586fd388803800372641886f",
        {},
    ),
    "verify {tmp}/bad.csv": (
        2,
        EMPTY,
        "d8a8594eaeca2be8bb1d2e71c935bfd8691b40788bc9adde38e028a7a0e12d96",
        {},
    ),
    "search --order 4 --workers 2": (
        2,
        EMPTY,
        "644ff4a5a72c5cf2e57b8abaf3b7190105c26d5d98c41f1b449dac0d63df48ce",
        {},
    ),
    "search --order 4 --budget 0": (
        2,
        EMPTY,
        "fad03c2f9c2efb3edb893ad9cfdf06dd3aee553db4442d760bb31eacfe99f4ee",
        {},
    ),
    "generate --order 8 --q-seed 1,x --r-seed 3,5,4,2,6,0,1,7 --archetypes row_alternate,column_alternate": (
        2,
        EMPTY,
        "38130a0f946abdcaec83107c9534c74b240dcb4bee0d7dbb7fb80c741292c474",
        {},
    ),
    "generate --order 8 --q-seed 6,7,0,1,2,3,4,5 --r-seed 3,5,4,2,6,0,1,7 --archetypes row_alternate": (
        2,
        EMPTY,
        "2059f4b27c66209f5d95b9e3a201ab6afc70ba3c172b1a464aad9f0c263e08f9",
        {},
    ),
    "search --order 8 --budget abc": (
        2,
        EMPTY,
        "0234af5ecf08a0afa45a05ccd55f6bf3a147b5d6562f0e917770820680e8ac2c",
        {},
    ),
    "generate --order 8 --q-seed 0,0,0,0 --r-seed 1,0,5,4,7,6,3,2 --archetypes block_pair,four_row_cycle": (
        3,
        EMPTY,
        "2e80b57bf5fd8675352a2f009a33df683f7541e5cc203c319bfd6bf3ab0f203d",
        {},
    ),
    "search --order 5": (
        3,
        EMPTY,
        "dae07427436369a45ad0210efb936ff7bdf0bf3976e4d870426b1ac29a5cd706",
        {},
    ),
    "fixtures show missing": (
        3,
        EMPTY,
        "fb52300ea2b961ef9d60c089686f1f8bfbfa8280ec38c9177305497242005824",
        {},
    ),
    "decompose {data}/f8_1769.csv --out-q {tmp}/a.csv --out-r {tmp}/a.csv": (
        2,
        EMPTY,
        "4a1fad5c4f9edb326cdf9f26acbfd177d020673fecdc1314918a362fcf32ca69",
        {},
    ),
    "generate --preset f8_1769 --out {tmp}/b --report {tmp}/b": (
        2,
        EMPTY,
        "ec28a95c1ed43c20fbcbd4d49e2e0a868beead781d8e63919ba7ef6e4e9c03c9",
        {},
    ),
    "search --order 8": (
        3,
        EMPTY,
        "413aad9ca24528d4fd477ff62ea245f90f5d0c3dc985151c0ba954ac5092a631",
        {},
    ),
    "search --order 8 --no-prune": (
        3,
        EMPTY,
        "413aad9ca24528d4fd477ff62ea245f90f5d0c3dc985151c0ba954ac5092a631",
        {},
    ),
    "search --order 10": (
        0,
        "ba69f6a380831cdaa0f4dcea269af069ab07b4bb8a359fee43ae34b7e5f0cda4",
        EMPTY,
        {},
    ),
    "search --order 100000 --budget 1": (
        3,
        EMPTY,
        "6450ddeccc45f4f961558f9fd8e79c4ea8fef0ac5d2a313305ee4cf006c53bf4",
        {},
    ),
    # Integer flags read a value as the CSV reader does: an optional sign
    # and ASCII digits. A value int() refuses keeps its message.
    "search --order x": (
        2,
        EMPTY,
        "1ccc6dbb4bb1806d40305f3d1faf1bcd9e0cf4a45341e2923c5fa5efdc3edc5b",
        {},
    ),
    "verify {data}/f8_1769.csv --target x": (
        2,
        EMPTY,
        "13bd6fa18603ff612d03ac89a921cbad9e73fd3cba14e4a1360eaf115bf4b84c",
        {},
    ),
    # int() takes these, the flags do not.
    "search --order ٨ --mode first": (
        2,
        EMPTY,
        "9f3f62cc91be2a49bf4324bafbb7c8f6da95765e0099253489e512638c776f53",
        {},
    ),
    "search --order 8 --mode first --budget ١_000": (
        2,
        EMPTY,
        "4f4945555b658c1fbb9c0a40cdfeed8bb62f354443e1526e02e0a21ddf608e85",
        {},
    ),
    "verify {data}/f8_1769.csv --target 2_60 --require franklin": (
        2,
        EMPTY,
        "46a6aeb29522ede18928ca7db5c55542a1dcf859ac9710830bf2face0271525c",
        {},
    ),
    "generate --order 8 --q-seed 6,7,0,1,2,3,4,5 --r-seed 3,5,4,2,6,0,1,٧ --archetypes row_alternate,column_alternate": (
        2,
        EMPTY,
        "72fe451fc8626f323801354986bf106da5542c3bc9e62c855fc92343e2357904",
        {},
    ),
}


def run_pinned(capsys, tmp_path, command):
    (tmp_path / "bad.csv").write_text("1,2\n3\n")
    argv = command.format(data=fixtures._BUNDLED_DIR, tmp=tmp_path).split()
    code, out, err = run(capsys, *argv)

    def digest(text):
        text = text.replace(str(tmp_path), "{tmp}")
        return hashlib.sha256(text.encode()).hexdigest()

    written = {
        p.name: hashlib.sha256(p.read_bytes()).hexdigest()
        for p in sorted(tmp_path.iterdir())
        if p.name != "bad.csv"
    }
    return code, digest(out), digest(err), written


@pytest.mark.parametrize("command", sorted(COMMAND_DIGESTS))
def test_command_output_bytes_are_pinned(capsys, tmp_path, command):
    assert run_pinned(capsys, tmp_path, command) == COMMAND_DIGESTS[command]


def test_pinned_commands_cover_every_preset_and_error_code():
    from franklin_squares.patterns import preset_names

    presets = {f"generate --preset {name}" for name in preset_names()}
    assert presets <= set(COMMAND_DIGESTS)
    codes = {code for code, *_ in COMMAND_DIGESTS.values()}
    assert codes == {0, 1, 2, 3}


def test_usage_error_is_machine_parsable(capsys):
    code, _, err = run(capsys, "verify")
    assert code == 2
    assert err.startswith("error: code=USAGE ")


def test_decompose_compose_roundtrip(capsys, tmp_path):
    q = tmp_path / "q.csv"
    r = tmp_path / "r.csv"
    out_sq = tmp_path / "m.csv"
    code, _, _ = run(
        capsys, "decompose", bundled("f16_1769.csv"),
        "--out-q", str(q), "--out-r", str(r),
    )
    assert code == 0
    assert q.read_bytes() == (fixtures._BUNDLED_DIR / "f16_1769_q.csv").read_bytes()
    assert r.read_bytes() == (fixtures._BUNDLED_DIR / "f16_1769_r.csv").read_bytes()
    code, _, _ = run(
        capsys, "compose", "--q", str(q), "--r", str(r), "--out", str(out_sq)
    )
    assert code == 0
    assert out_sq.read_bytes() == (
        fixtures._BUNDLED_DIR / "f16_1769.csv"
    ).read_bytes()


def test_decompose_stdout_prints_both_grids(capsys):
    code, out, _ = run(capsys, "decompose", bundled("m6_euler.csv"))
    assert code == 0
    assert out.count("\n\n") == 1  # quotient block, blank line, remainder block


def test_decompose_out_flags_must_pair(capsys, tmp_path):
    code, _, err = run(
        capsys, "decompose", bundled("m6_euler.csv"),
        "--out-q", str(tmp_path / "q.csv"),
    )
    assert code == 2
    assert "code=USAGE" in err


def test_decompose_rejects_non_natural_range(capsys, tmp_path):
    bad = tmp_path / "zero.csv"
    bad.write_text("0,1\n2,3\n")
    code, _, err = run(capsys, "decompose", str(bad))
    assert code == 3
    assert "code=PRECONDITION" in err


def test_compose_order_mismatch(capsys):
    code, _, err = run(
        capsys, "compose", "--q", bundled("q24.csv"), "--r", bundled("m6_euler_r.csv")
    )
    assert code == 3
    assert "code=PRECONDITION" in err


def test_generate_preset_matches_fixture(capsys):
    code, out, _ = run(capsys, "generate", "--preset", "f8_1769")
    assert code == 0
    assert out == (fixtures._BUNDLED_DIR / "f8_1769.csv").read_text()


def test_generate_seeded_with_report(capsys, tmp_path):
    report_path = tmp_path / "report.json"
    code, out, _ = run(
        capsys,
        "generate",
        "--order", "8",
        "--q-seed", "6,7,0,1,2,3,4,5",
        "--r-seed", "3,5,4,2,6,0,1,7",
        "--archetypes", "row_alternate,column_alternate",
        "--report", str(report_path),
    )
    assert code == 0
    assert out == (fixtures._BUNDLED_DIR / "f8_1769.csv").read_text()
    report = json.loads(report_path.read_text())
    assert report["flags"]["franklin"] is True


def test_generate_report_file_bytes(capsys, tmp_path):
    # The stdlib encoder is the reference for the report file's bytes.
    report_path = tmp_path / "report.json"
    code, _, _ = run(
        capsys, "generate", "--preset", "f8_1769", "--report", str(report_path)
    )
    assert code == 0
    report = classify(fixtures.load_square("f8_1769")).report
    want = json.dumps(report_to_dict(report), indent=2) + "\n"
    assert report_path.read_text() == want


def test_generate_pair_preset(capsys):
    code, out, _ = run(capsys, "generate", "--preset", "q24_r24")
    assert code == 0
    blocks = out.split("\n\n")
    assert len(blocks) == 2
    want = (fixtures._BUNDLED_DIR / "q24.csv").read_text()
    assert blocks[0] + "\n" == want


def test_generate_unknown_preset(capsys):
    code, _, err = run(capsys, "generate", "--preset", "mystery")
    assert code == 3
    assert "code=UNKNOWN_NAME" in err


def test_generate_unknown_archetype(capsys):
    code, _, err = run(
        capsys,
        "generate",
        "--order", "8",
        "--q-seed", "6,7,0,1,2,3,4,5",
        "--r-seed", "3,5,4,2,6,0,1,7",
        "--archetypes", "spiral,column_alternate",
    )
    assert code == 3
    assert "code=UNKNOWN_NAME" in err


def test_generate_rejects_preset_with_seeds(capsys):
    code, _, err = run(
        capsys, "generate", "--preset", "f8_1769", "--order", "8"
    )
    assert code == 2
    assert "code=USAGE" in err


def test_generate_rejects_preset_with_order_zero(capsys):
    code, out, err = run(
        capsys, "generate", "--preset", "f8_1769", "--order", "0"
    )
    assert (code, out) == (2, "")
    assert "code=USAGE" in err
    assert "cannot be combined" in err


def test_generate_order_zero_is_a_precondition(capsys):
    code, out, err = run(
        capsys,
        "generate",
        "--order", "0",
        "--q-seed", "1",
        "--r-seed", "1",
        "--archetypes", "row_alternate,column_alternate",
    )
    assert (code, out) == (3, "")
    assert ERROR_LINE.match(err)
    assert "code=PRECONDITION" in err


def test_generate_four_row_cycle_order_zero_names_the_bound(capsys):
    code, out, err = run(
        capsys,
        "generate",
        "--order", "0",
        "--q-seed", "1",
        "--r-seed", "1",
        "--archetypes", "four_row_cycle,four_row_cycle",
    )
    assert (code, out) == (3, "")
    assert err == (
        "error: code=PRECONDITION four-row-cycle expansion needs an order "
        "of at least 4, got 0\n"
    )


def test_generate_empty_preset_with_seeds_is_usage(capsys):
    code, out, err = run(capsys, "generate", "--preset", "", "--order", "8")
    assert (code, out) == (2, "")
    assert ERROR_LINE.match(err)
    assert "code=USAGE" in err
    assert "--preset cannot be combined with seed options" in err


def test_generate_empty_preset_is_unknown(capsys):
    code, out, err = run(capsys, "generate", "--preset", "")
    assert (code, out) == (3, "")
    assert ERROR_LINE.match(err)
    assert "code=UNKNOWN_NAME" in err
    assert "unknown preset ''" in err


def test_generate_requires_full_seed_group(capsys):
    code, _, err = run(capsys, "generate", "--order", "8")
    assert code == 2
    assert "--q-seed" in err


def test_generate_bad_seed_values(capsys):
    code, _, err = run(
        capsys,
        "generate",
        "--order", "8",
        "--q-seed", "6,7,0,1,2,3,4,5",
        "--r-seed", "3,5,4,2,6,0,1,6",
        "--archetypes", "row_alternate,column_alternate",
    )
    assert code == 3
    assert "code=PRECONDITION" in err


def test_generate_checks_q_pattern_before_parsing_r_seed(capsys):
    code, out, err = run(
        capsys,
        "generate",
        "--order", "8",
        "--q-seed", "1,2",
        "--r-seed", "3,y",
        "--archetypes", "row_alternate,column_alternate",
    )
    assert (code, out) == (3, "")
    assert err == (
        "error: code=PRECONDITION seed must be a permutation of 0..7: [1, 2]\n"
    )


def test_search_order_4_count(capsys):
    code, out, _ = run(capsys, "search", "--order", "4", "--mode", "count")
    assert code == 0
    outcome = json.loads(out)
    assert outcome == {
        "schema_version": 1,
        "count": 0,
        "exhausted": True,
        "nodes_visited": 480,
        "witnesses": [],
    }


@pytest.mark.parametrize(
    "order, mode", [(4, SearchMode.COUNT), (8, SearchMode.FIRST)]
)
def test_search_json_bytes(capsys, order, mode):
    # The stdlib encoder is the reference for the indented outcome bytes.
    code, out, err = run(
        capsys, "search", "--order", str(order), "--mode", mode.value
    )
    assert (code, err) == (0, "")
    outcome = search_natural_franklin(SearchOptions(order=order, mode=mode))
    assert out == json.dumps(outcome_to_dict(outcome), indent=2) + "\n"


def test_search_order_8_needs_long_run_flag(capsys):
    code, _, err = run(capsys, "search", "--order", "8", "--mode", "count")
    assert code == 3
    assert "code=LONG_RUN_REQUIRED" in err
    code, _, err = run(capsys, "search", "--order", "8", "--mode", "stream")
    assert code == 3


def test_search_first_mode_skips_long_run_gate(capsys):
    # At order 8 the first witness comes at placement 100.
    code, out, _ = run(capsys, "search", "--order", "8", "--mode", "first")
    assert code == 0
    outcome = json.loads(out)
    assert outcome["count"] == 1
    assert len(outcome["witnesses"][0]["cells"]) == 64


@pytest.mark.parametrize("order", ["12", "16"])
@pytest.mark.parametrize("no_prune", [[], ["--no-prune"]])
def test_search_first_mode_above_order_8_needs_long_run_flag(capsys, order, no_prune):
    # FIRST finds no witness early at these orders: an unbudgeted run
    # could print nothing for days.
    code, out, err = run(
        capsys, "search", "--order", order, "--mode", "first", *no_prune
    )
    assert (code, out) == (3, "")
    assert "code=LONG_RUN_REQUIRED" in err


def test_search_budget_skips_long_run_gate(capsys):
    # A budgeted run stops after its budget, so it is no full enumeration.
    code, out, err = run(
        capsys, "search", "--order", "8", "--mode", "stream", "--budget", "100"
    )
    assert (code, err) == (0, "")
    outcome = search_natural_franklin(
        SearchOptions(order=8, mode=SearchMode.STREAM, node_budget=100)
    )
    want = [square_to_json(w) for w in outcome.witnesses]
    want.append(json.dumps(outcome_to_dict(outcome, include_witnesses=False)))
    assert out == "\n".join(want) + "\n"


def test_refused_search_builds_no_walk_plan(capsys):
    # The gate asks the line table whether a square can exist; the walk
    # plan is built only by a run that goes ahead.
    _plan.cache_clear()
    code, out, err = run(capsys, "search", "--order", "40")
    assert (code, out) == (3, "")
    assert "code=LONG_RUN_REQUIRED" in err
    assert _plan.cache_info().currsize == 0


def test_search_order_6_runs_without_flag(capsys):
    code, out, _ = run(capsys, "search", "--order", "6", "--mode", "count")
    assert code == 0
    assert json.loads(out)["nodes_visited"] == 0


def test_search_stream_prints_summary_line(capsys):
    code, out, _ = run(capsys, "search", "--order", "4", "--mode", "stream")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 1
    assert json.loads(lines[0])["exhausted"] is True


def test_search_stream_prints_witness_lines(capsys):
    code, out, err = run(
        capsys, "search", "--order", "8", "--mode", "stream", "--long-run",
        "--budget", "50000",
    )
    assert (code, err) == (0, "")
    outcome = search_natural_franklin(
        SearchOptions(order=8, mode=SearchMode.STREAM, node_budget=50_000)
    )
    assert len(outcome.witnesses) == 40
    want = [square_to_json(w) for w in outcome.witnesses]
    want.append(json.dumps(outcome_to_dict(outcome, include_witnesses=False)))
    assert out == "\n".join(want) + "\n"


def test_search_odd_order(capsys):
    code, _, err = run(capsys, "search", "--order", "5")
    assert code == 3
    assert "code=PRECONDITION" in err


def test_search_order_too_large_for_memory(capsys):
    # The line table asks for 10**10 cell indexes at once and fails at
    # once; orders that fit but exhaust memory slowly are not probed.
    assert run(capsys, "search", "--order", "100000", "--budget", "1") == (
        3,
        "",
        "error: code=PRECONDITION input too large: out of memory\n",
    )


def test_search_invalid_mode(capsys):
    code, _, err = run(capsys, "search", "--order", "4", "--mode", "guess")
    assert code == 2
    assert "code=USAGE" in err


def test_fixtures_list(capsys):
    code, out, _ = run(capsys, "fixtures", "list")
    assert code == 0
    lines = out.strip().split("\n")
    assert len(lines) == 22
    assert any(line.startswith("f8_1769 ") for line in lines)


def test_fixtures_show_square(capsys):
    code, out, _ = run(capsys, "fixtures", "show", "f8_1769")
    assert code == 0
    assert "provenance:" in out
    assert out.endswith((fixtures._BUNDLED_DIR / "f8_1769.csv").read_text())


def test_fixtures_show_pair(capsys):
    code, out, _ = run(capsys, "fixtures", "show", "f16_1769_aux")
    assert code == 0
    assert "reconstructed_quotient_rows:" in out
    assert out.count("\n\n") == 2  # metadata, quotient, remainder


def test_fixtures_show_unknown(capsys):
    code, _, err = run(capsys, "fixtures", "show", "missing")
    assert code == 3
    assert "code=UNKNOWN_NAME" in err


# A path flag counts as given even when empty: an empty path cannot be
# written, and a flag that does not apply is a usage error whatever its value.
# Either way the command fails before it writes anything to stdout.
@pytest.mark.parametrize(
    "argv, exit_code, error_code",
    [
        (("generate", "--preset", "f8_1769", "--report", ""), 2, "BAD_FILE"),
        (("generate", "--preset", "f8_1769", "--out", ""), 2, "BAD_FILE"),
        (("generate", "--preset", "f8_1769_aux", "--out", ""), 2, "USAGE"),
        (("generate", "--preset", "f8_1769_aux", "--report", ""), 2, "USAGE"),
        (
            ("decompose", bundled("m6_euler.csv"), "--out-q", "", "--out-r", ""),
            2,
            "BAD_FILE",
        ),
        (
            (
                "compose", "--q", bundled("m6_euler_q.csv"),
                "--r", bundled("m6_euler_r.csv"), "--out", "",
            ),
            2,
            "BAD_FILE",
        ),
    ],
)
def test_empty_path_flag_is_given(capsys, argv, exit_code, error_code):
    code, out, err = run(capsys, *argv)
    assert (code, out) == (exit_code, "")
    assert ERROR_LINE.match(err)
    assert f"code={error_code} " in err


@pytest.mark.parametrize(
    "argv",
    [
        ("verify", "grid\0.csv"),
        ("compose", "--q", bundled("m6_euler_q.csv"), "--r", "r\0.csv"),
        ("generate", "--preset", "f8_1769", "--out", "out\0.csv"),
    ],
)
def test_path_with_a_nul_byte_is_bad_file(capsys, argv):
    # open() raises ValueError, not OSError, for such a path.
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err.startswith("error: code=BAD_FILE ") and "embedded null byte" in err


def test_lone_empty_out_q_must_pair(capsys):
    code, out, err = run(
        capsys, "decompose", bundled("m6_euler.csv"), "--out-q", ""
    )
    assert (code, out) == (2, "")
    assert err == "error: code=USAGE --out-q and --out-r must be given together\n"


@pytest.mark.parametrize("existed", [False, True])
@pytest.mark.parametrize(
    "argv",
    [
        (
            "decompose", bundled("f8_1769.csv"),
            "--out-q", "{tmp}/q.csv", "--out-r", "{tmp}/nodir/r.csv",
        ),
        (
            "generate", "--preset", "f8_1769",
            "--out", "{tmp}/q.csv", "--report", "{tmp}/nodir/r.json",
        ),
    ],
)
def test_two_file_command_writes_both_or_neither(capsys, tmp_path, argv, existed):
    first = tmp_path / "q.csv"
    if existed:
        first.write_text("old bytes\n")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    unwritable = argv[-1]
    assert err == (
        f"error: code=BAD_FILE cannot write {unwritable}: "
        f"[Errno 2] No such file or directory: '{unwritable}'\n"
    )
    assert sorted(p.name for p in tmp_path.iterdir()) == (["q.csv"] if existed else [])
    if existed:
        assert first.read_text() == "old bytes\n"


@pytest.mark.skipif(not os.path.exists("/dev/full"), reason="no /dev/full")
@pytest.mark.parametrize("existed", [False, True])
def test_write_that_fails_removes_the_files_it_created(capsys, tmp_path, existed):
    # Both files open; the report's write then fails on a full device.
    square = tmp_path / "out.csv"
    if existed:
        square.write_text("old bytes\n")
    argv = ("generate", "--preset", "f8_1769", "--out", str(square), "--report", "/dev/full")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (
        "error: code=BAD_FILE cannot write /dev/full: [Errno 28] No space left on device\n"
    )
    if existed:
        # Rewritten before the failing write, so it keeps its new bytes.
        assert square.read_text() == (fixtures._BUNDLED_DIR / "f8_1769.csv").read_text()
    else:
        assert list(tmp_path.iterdir()) == []


@pytest.mark.parametrize("existed", [False, True])
@pytest.mark.parametrize(
    "argv",
    [
        (
            "decompose", bundled("f8_1769.csv"),
            "--out-q", "{tmp}/a.csv", "--out-r", "{tmp}/a.csv",
        ),
        (
            "decompose", bundled("f8_1769.csv"),
            "--out-q", "{tmp}/a.csv", "--out-r", "{tmp}/./a.csv",
        ),
        (
            "generate", "--preset", "f8_1769",
            "--out", "{tmp}/a.csv", "--report", "{tmp}/a.csv",
        ),
    ],
)
def test_two_outputs_that_name_one_file_write_neither(capsys, tmp_path, argv, existed):
    # The second write would replace the first, so the command refuses.
    shared = tmp_path / "a.csv"
    if existed:
        shared.write_text("old bytes\n")
    argv = [arg.format(tmp=tmp_path) for arg in argv]
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == f"error: code=USAGE {argv[-3]} and {argv[-1]} name the same file\n"
    assert sorted(p.name for p in tmp_path.iterdir()) == (["a.csv"] if existed else [])
    if existed:
        assert shared.read_text() == "old bytes\n"


def break_fixture_dir(tmp_path, monkeypatch, fault):
    """Point the fixture override at tmp_path, where m6_euler.csv has the fault."""
    if fault == "bad cell":
        (tmp_path / "m6_euler.csv").write_text("1,x\n3,4\n")
    elif fault == "non-ascii":
        (tmp_path / "m6_euler.csv").write_bytes("1,2\n3,4\u00e9\n".encode())
    elif fault == "wrong order":
        (tmp_path / "m6_euler.csv").write_text("1,2\n3,4\n")
    monkeypatch.setenv(fixtures.ENV_VAR, str(tmp_path))


@pytest.mark.parametrize(
    "fault", ["bad cell", "non-ascii", "missing file", "wrong order"]
)
@pytest.mark.parametrize(
    "argv", [("fixtures", "show", "m6_euler"), ("generate", "--preset", "m6_euler")]
)
def test_fixture_file_fault_is_bad_file(capsys, tmp_path, monkeypatch, fault, argv):
    break_fixture_dir(tmp_path, monkeypatch, fault)
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert ERROR_LINE.match(err)
    assert err.startswith("error: code=BAD_FILE ")
    assert str(tmp_path / "m6_euler.csv") in err


@pytest.mark.parametrize(
    "argv",
    [("fixtures", "show", "m6_euler_aux"), ("generate", "--preset", "m6_euler_aux")],
)
def test_fixture_pair_fault_is_bad_file(capsys, tmp_path, monkeypatch, argv):
    # both grids parse as order 6, but the remainder holds a value outside 0..5
    shutil.copy(bundled("m6_euler_q.csv"), tmp_path)
    remainder = (fixtures._BUNDLED_DIR / "m6_euler_r.csv").read_text()
    (tmp_path / "m6_euler_r.csv").write_text(remainder.replace("5", "9", 1))
    monkeypatch.setenv(fixtures.ENV_VAR, str(tmp_path))
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert err == (
        f"error: code=BAD_FILE fixture 'm6_euler_aux' in {tmp_path}: "
        "remainder value 9 outside 0..5\n"
    )


@pytest.mark.parametrize(
    "argv", [("fixtures", "show", "m6_euler"), ("generate", "--preset", "m6_euler")]
)
def test_corrupted_bundled_fixture_is_bad_file(capsys, swap_fixture_files, argv):
    swap_fixture_files("m6_euler", {"m6_euler.csv": "0" * 64})
    code, out, err = run(capsys, *argv)
    assert (code, out) == (2, "")
    assert ERROR_LINE.match(err)
    assert err.startswith("error: code=BAD_FILE fixture file m6_euler.csv ")


def test_generate_preset_report_keeps_an_inferred_target(capsys, tmp_path, monkeypatch):
    # A stored preset grid that is neither natural nor balanced: classify
    # infers its target from the first row, and --report says so as
    # verify --json does.
    grid = tmp_path / "m6_euler.csv"
    grid.write_text(
        "".join(",".join(str((6 * r + c) % 7 + 1) for c in range(6)) + "\n" for r in range(6))
    )
    monkeypatch.setenv(fixtures.ENV_VAR, str(tmp_path))
    report = tmp_path / "report.json"
    argv = ("generate", "--preset", "m6_euler", "--out", str(tmp_path / "out.csv"))
    code, _, err = run(capsys, *argv, "--report", str(report))
    assert (code, err) == (0, "")
    code, out, _ = run(capsys, "verify", str(grid), "--json")
    assert code == 0
    assert (json.loads(out)["line_sum"], json.loads(out)["target_inferred"]) == (21, True)
    assert report.read_bytes() == out.encode()


@pytest.mark.parametrize(
    "argv, detail",
    [
        (("fixtures", "show", "nope"), "unknown fixture 'nope'"),
        (("generate", "--preset", "nope"), "unknown preset 'nope'; choose from: "),
    ],
)
def test_unknown_name_is_checked_before_files(
    capsys, tmp_path, monkeypatch, argv, detail
):
    break_fixture_dir(tmp_path, monkeypatch, "missing file")
    code, out, err = run(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith(f"error: code=UNKNOWN_NAME {detail}")


def test_module_entry_point_runs_as_subprocess():
    src = str(Path(fixtures.__file__).parents[1])
    proc = subprocess.run(
        [
            sys.executable,
            "-m",
            "franklin_squares.cli",
            "verify",
            bundled("f8_1769.csv"),
            "--require",
            "franklin",
        ],
        capture_output=True,
        text=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == 0
    assert "franklin" in proc.stdout


@pytest.mark.parametrize(
    "argv",
    [
        ["fixtures", "show", "f16_1769_aux"],
        ["verify", "f40.csv", "--json"],
        # stdout breaks before the --require check can report
        ["verify", "f8_1769.csv", "--require", "magic"],
    ],
    ids=" ".join,
)
def test_closed_stdout_exits_141_quietly(argv):
    argv = [bundled(a) if a.endswith(".csv") else a for a in argv]
    src = str(Path(fixtures.__file__).parents[1])
    read_end, write_end = os.pipe()
    os.close(read_end)
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "franklin_squares.cli", *argv],
            stdout=write_end,
            stderr=subprocess.PIPE,
            text=True,
            env=dict(os.environ, PYTHONPATH=src),
        )
    finally:
        os.close(write_end)
    assert (proc.returncode, proc.stderr) == (141, "")


@pytest.mark.skipif(not os.path.isdir("/proc/self/fd"), reason="no /proc/self/fd")
def test_closed_stdout_in_process_leaks_no_descriptor(capsys):
    from unittest import mock

    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as stdout, mock.patch.object(sys, "stdout", stdout):
        open_fds = len(os.listdir("/proc/self/fd"))
        code = main(["verify", bundled("f40.csv"), "--json"])
        assert len(os.listdir("/proc/self/fd")) == open_fds
    assert (code, capsys.readouterr().err) == (141, "")


# Commands run with stdout closed: (argv, status). A command with output
# fails as on a pipe whose reader has closed; one with nothing for stdout
# succeeds and writes its files.
CLOSED_STDOUT_RUNS = [
    (["fixtures", "list"], 141),
    (["verify", "f8_1769.csv"], 141),
    (["search", "--order", "4"], 141),
    (["generate", "--preset", "f8_1769", "--out", "{tmp}/x.csv"], 0),
    (["generate", "--preset", "f8_1769", "--out", "{tmp}/x.csv", "--report", "-"], 141),
    (["decompose", "f8_1769.csv", "--out-q", "{tmp}/q.csv", "--out-r", "-"], 141),
    (["--help"], 141),
    (["verify", "--help"], 141),
]


def _files_after(tmp, argv, stdout):
    """main's status and stderr with stdout as given, and the files it
    leaves in the new directory tmp."""
    from contextlib import redirect_stderr
    from io import StringIO
    from unittest import mock

    tmp.mkdir()
    argv = [bundled(a) if a.endswith("1769.csv") else a.format(tmp=tmp) for a in argv]
    err = StringIO()
    with mock.patch.object(sys, "stdout", stdout), redirect_stderr(err):
        code = main(argv)
    files = {p.name: p.read_bytes() for p in tmp.iterdir()}
    return code, err.getvalue(), files


@pytest.mark.parametrize(
    "argv, status", CLOSED_STDOUT_RUNS, ids=[" ".join(a) for a, _ in CLOSED_STDOUT_RUNS]
)
def test_closed_stdout_in_process_writes_what_a_closed_pipe_does(
    tmp_path, argv, status
):
    closed = _files_after(tmp_path / "closed", argv, None)
    assert closed[:2] == (status, "")
    read_end, write_end = os.pipe()
    os.close(read_end)
    with open(write_end, "w") as pipe:
        assert _files_after(tmp_path / "pipe", argv, pipe) == closed
    if "--out" in argv:
        want = (fixtures._BUNDLED_DIR / "f8_1769.csv").read_bytes()
        assert closed[2]["x.csv"] == want


@pytest.mark.parametrize("argv", [["--help"], ["verify", "--help"]], ids=" ".join)
def test_help_is_written_to_stdout(capsys, argv):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    out, err = capsys.readouterr()
    assert (exc.value.code, err) == (0, "")
    assert out.startswith("usage: franklin-squares ")


def test_importing_the_cli_loads_no_dataclasses_inspect_or_hashlib():
    # A new interpreter: pytest itself has loaded all three. Each would
    # lengthen every command's start-up; hashlib loads where a digest is
    # checked.
    src = str(Path(fixtures.__file__).parents[1])
    script = (
        "import sys\n"
        "before = set(sys.modules)\n"
        "import franklin_squares.cli\n"
        "print(*set(sys.modules) - before)\n"
    )
    proc = subprocess.run(
        [sys.executable, "-c", script],
        capture_output=True,
        text=True,
        check=True,
        env=dict(os.environ, PYTHONPATH=src),
    )
    loaded = set(proc.stdout.split())
    assert "franklin_squares.cli" in loaded
    assert loaded & {"dataclasses", "inspect", "hashlib"} == set()


def test_closed_stdin_in_process_is_bad_file(capsys):
    from unittest import mock

    with mock.patch.object(sys, "stdin", None):
        code, out, err = run(capsys, "verify", "-")
    assert (code, out) == (2, "")
    assert err == "error: code=BAD_FILE cannot read -: stdin is closed\n"


class _UnwritableStream:
    """A stream on a descriptor opened for reading only."""

    def write(self, text):
        raise OSError(9, "Bad file descriptor")


@pytest.mark.parametrize("stderr", [None, _UnwritableStream()], ids=["none", "unwritable"])
def test_closed_stderr_in_process_keeps_the_exit_status(capsys, stderr):
    from unittest import mock

    with mock.patch.object(sys, "stderr", stderr):
        code, out, _ = run(capsys, "verify", "/nonexistent/grid.csv")
    assert (code, out) == (2, "")


@pytest.mark.parametrize(
    "redirect, argv, status, err",
    [
        ("<&-", ["verify", "-"], 2, "error: code=BAD_FILE cannot read -: stdin is closed\n"),
        (">&-", ["fixtures", "list"], 141, ""),
        (">&-", ["generate", "--preset", "f8_1769", "--out", "x.csv"], 0, ""),
        ("2>&-", ["verify", "/nonexistent/grid.csv"], 2, None),
        (">&-", ["--help"], 141, ""),
        (">&-", ["verify", "--help"], 141, ""),
    ],
    ids=["stdin", "stdout", "stdout-with-files", "stderr", "help", "verify-help"],
)
def test_closed_descriptor_in_a_subprocess(tmp_path, redirect, argv, status, err):
    # The shell closes the descriptor in the child before the interpreter
    # starts, so the interpreter has no stream for it.
    src = str(Path(fixtures.__file__).parents[1])
    proc = subprocess.run(
        ["sh", "-c", f'exec "$@" {redirect}', "sh",
         sys.executable, "-m", "franklin_squares.cli", *argv],
        capture_output=True,
        text=True,
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src),
    )
    assert proc.returncode == status
    if err is not None:
        assert proc.stderr == err
    if "--out" in argv:
        want = (fixtures._BUNDLED_DIR / "f8_1769.csv").read_bytes()
        assert (tmp_path / "x.csv").read_bytes() == want
