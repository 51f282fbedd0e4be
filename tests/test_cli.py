import hashlib
import json
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

from franklin_squares import fixtures
from franklin_squares.cli import main

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
    monkeypatch.setattr("sys.stdin", io.StringIO(text))
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


def test_verify_rejects_boolean_json_order(capsys, monkeypatch):
    import io

    monkeypatch.setattr("sys.stdin", io.StringIO('{"order": true, "cells": [1]}'))
    code, out, err = run(capsys, "verify", "-")
    assert code == 2
    assert out == ""
    assert "code=BAD_FORMAT" in err
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


def test_pinned_outputs_cover_every_fixture_file():
    files = {f for name in fixtures.names() for f in fixtures.entry(name).files}
    assert len(fixtures.names()) == 22
    assert set(VERIFY_DIGESTS) == files


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


def test_search_order_8_needs_long_run_flag(capsys):
    code, _, err = run(capsys, "search", "--order", "8", "--mode", "count")
    assert code == 3
    assert "code=LONG_RUN_REQUIRED" in err
    code, _, err = run(capsys, "search", "--order", "8", "--mode", "stream")
    assert code == 3


def test_search_first_mode_skips_long_run_gate(capsys):
    code, out, _ = run(
        capsys, "search", "--order", "8", "--mode", "first",
        "--budget", "200000",
    )
    assert code == 0
    outcome = json.loads(out)
    assert outcome["count"] == 1
    assert len(outcome["witnesses"][0]["cells"]) == 64


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


def test_search_odd_order(capsys):
    code, _, err = run(capsys, "search", "--order", "5")
    assert code == 3
    assert "code=PRECONDITION" in err


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
