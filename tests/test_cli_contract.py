"""The CLI's error contract, driven by generated argv and input bytes.

Every run must end in an exit status, never an exception: stderr is empty
(status 0) or one ``error: code=X ...`` line with status ``_EXIT[X]``; a
run that fails creates no file and changes none, but for an existing file
rewritten before a write that fails once every file is open; and ``-`` on
stdin gives the same result as the same bytes in a file.
"""

import io
import json
import os
import re
import sys
import tempfile
from contextlib import redirect_stderr, redirect_stdout
from pathlib import Path
from unittest import mock

from hypothesis import example, given, settings
from hypothesis import strategies as st

from franklin_squares import fixtures, patterns
from franklin_squares.cli import _EXIT, main
from franklin_squares.verify import LABELS

ERROR_LINE = re.compile(r"error: code=([A-Z_]+) .+\n")

# Output paths: a new file, a file that exists, stdout, and paths that
# cannot be written: in a missing directory, empty, holding a NUL, or
# /dev/full, which opens but fails each write (where the device is
# missing, a path in a missing directory stands in).
FULL = "/dev/full" if os.path.exists("/dev/full") else "{tmp}/no/full.csv"
OUTPUTS = st.sampled_from(
    ["{tmp}/new.csv", "{tmp}/old.csv", "-", "{tmp}/no/dir.csv", "", "{tmp}/\0.csv", FULL]
)
# JSON past the decoder's limits: a cell of more digits than int() takes
# and arrays nested deeper than the recursion limit.
OVERSIZED_JSON = [
    '{"order": 1, "cells": [' + "9" * 5000 + "]}",
    '{"order": 1, "cells": ' + "[" * 100_000 + "]" * 100_000 + "}",
]
LINE_ENDS = st.sampled_from(["\n", "\r\n", "\r"])


@st.composite
def square_bytes(draw):
    """A square file: a CSV grid of order 0-12 with LF, CRLF or CR line
    ends, or a JSON square, well formed or not; now and then a cell is
    junk, a row is short, or a byte is not UTF-8."""
    n = draw(st.integers(0, 12))
    values = draw(
        st.one_of(
            st.permutations(range(1, n * n + 1)),  # natural
            st.lists(st.integers(0, max(n - 1, 0)), min_size=n * n, max_size=n * n),
            st.lists(st.integers(-2, n * n + 1), min_size=n * n, max_size=n * n),
        )
    )
    rows = [[str(v) for v in values[r * n:(r + 1) * n]] for r in range(n)]
    fault = draw(st.sampled_from(["none"] * 6 + ["junk", "short", "json", "jsonish"]))
    if fault == "junk" and n:
        rows[draw(st.integers(0, n - 1))][0] = draw(st.sampled_from(["x", "1.5", ""]))
    if fault == "short" and n:
        rows[-1].pop()
    if fault == "json":
        obj = {
            "order": draw(st.sampled_from([n, n + 1, True, str(n)])),
            "cells": list(values) + draw(st.sampled_from([[], [1], [True], [0.5]])),
        }
        if draw(st.booleans()):
            obj["name"] = draw(st.sampled_from(["sq", 5]))
        text = json.dumps(obj)
    elif fault == "jsonish":
        samples = ["[1, 2]", "{", '{"order": 1}', "{}", "null", *OVERSIZED_JSON]
        text = draw(st.sampled_from(samples))
    else:
        end = draw(LINE_ENDS)
        text = end.join(",".join(row) for row in rows) + draw(st.sampled_from([end, ""]))
    data = text.encode()
    if draw(st.integers(0, 9)) == 0:  # not UTF-8
        at = draw(st.integers(0, len(data)))
        data = data[:at] + draw(st.sampled_from([b"\xff", b"\xc3", b"\x80"])) + data[at:]
    return data


def _seed(draw):
    values = draw(st.lists(st.integers(-1, 12), max_size=13))
    return ",".join(map(str, values)) or draw(st.sampled_from(["", "x", "1,,2"]))


@st.composite
def commands(draw):
    """(argv with {in0}, {in1} and {tmp} placeholders, input bytes)."""
    kind = draw(st.sampled_from(["verify", "decompose", "compose", "generate",
                                 "preset", "search", "fixtures"]))
    inputs = (draw(square_bytes()), draw(square_bytes()))
    opt = lambda flag, values: [flag, draw(values)] if draw(st.booleans()) else []

    def outputs(first, second):
        """Each of two output flags or not; given both, now and then they
        share a path, spelled the same or through ./."""
        argv = opt(first, OUTPUTS) + opt(second, OUTPUTS)
        if len(argv) == 4 and draw(st.booleans()):
            shared = argv[1].replace("{tmp}/", "{tmp}/./")
            argv[3] = draw(st.sampled_from([argv[1], shared]))
        return argv

    if kind == "verify":
        argv = ["verify", "{in0}"]
        argv += draw(st.sampled_from([[], ["--json"], ["--summary"], ["--json", "--summary"]]))
        argv += opt("--target", st.sampled_from(["natural", "balanced", "34", "-7", "x"]))
        argv += opt("--require", st.sampled_from(LABELS + ("nope",)))
    elif kind == "decompose":
        argv = ["decompose", "{in0}"] + outputs("--out-q", "--out-r")
    elif kind == "compose":
        r = draw(st.sampled_from(["{in1}", "{in1}", "{tmp}/missing.csv", "", "\0"]))
        argv = ["compose", "--q", "{in0}", "--r", r] + opt("--out", OUTPUTS)
    elif kind == "generate":
        archetypes = st.sampled_from([a.value for a in patterns.Archetype] + ["nope"])
        argv = [
            "generate", "--order", str(draw(st.integers(-4, 12))),
            "--q-seed", _seed(draw), "--r-seed", _seed(draw),
            "--archetypes", f"{draw(archetypes)},{draw(archetypes)}",
        ] + outputs("--out", "--report")
    elif kind == "preset":
        names = st.sampled_from(patterns.preset_names() + ["nope"])
        argv = ["generate", "--preset", draw(names)]
        argv += outputs("--out", "--report")
    elif kind == "search":
        n = draw(st.integers(-2, 12))
        argv = ["search", "--order", str(n)]
        argv += ["--mode", draw(st.sampled_from(["count", "first", "stream"]))]
        # A budget-free run at order >= 8 could take days (FIRST at order 8
        # is not gated).
        if n >= 8 or draw(st.booleans()):
            argv += ["--budget", str(draw(st.integers(1, 2000)))]
        argv += draw(st.sampled_from([[], ["--no-prune"]]))
        argv += draw(st.sampled_from([[], ["--long-run"]]))
    else:
        names = st.sampled_from(fixtures.names() + ["nope"])
        argv = draw(st.sampled_from([["fixtures", "list"], ["fixtures", "show", draw(names)]]))
    return argv, inputs


def _files(root: Path) -> dict:
    return {p: p.read_bytes() for p in sorted(root.rglob("*")) if p.is_file()}


def _run(argv, inputs, stdin_slot, no_fixtures):
    """Run main in a fresh directory, with {in<stdin_slot>} read from stdin,
    or with stdin closed when stdin_slot is None.

    Returns (status, stdout, stderr, the directory's files afterwards),
    with the directory's path in stderr written as {tmp} and the input
    file's path as '-'.
    """
    with tempfile.TemporaryDirectory() as tmp:
        root = Path(tmp)
        (root / "old.csv").write_bytes(b"old\n")
        (root / "fixtures").mkdir()  # empty
        paths = {}
        for k, data in enumerate(inputs):
            paths[f"in{k}"] = root / f"in{k}.csv"
            paths[f"in{k}"].write_bytes(data)
        names = {key: ("-" if key == stdin_slot else str(p)) for key, p in paths.items()}
        args = [a.format(tmp=tmp, **names) for a in argv]
        stdin = io.TextIOWrapper(io.BytesIO(inputs[0])) if stdin_slot else None
        env = {fixtures.ENV_VAR: str(root / "fixtures")} if no_fixtures else {}
        before = _files(root)
        out, err = io.StringIO(), io.StringIO()
        with mock.patch.object(sys, "stdin", stdin), mock.patch.dict(os.environ, env):
            with redirect_stdout(out), redirect_stderr(err):
                status = main(args)
        after = _files(root)
        err_text = err.getvalue()
        assert "Traceback" not in err_text
        if err_text:
            m = ERROR_LINE.fullmatch(err_text)
            assert m, err_text
            assert status == _EXIT[m[1]], (status, err_text)
        else:
            assert status == 0
        if status:
            assert after.keys() == before.keys(), err_text
            if not err_text.startswith(f"error: code=BAD_FILE cannot write {FULL}:"):
                assert after == before, err_text
        if stdin_slot is None:
            err_text = err_text.replace(str(paths["in0"]), "-")
        written = {p.relative_to(root): data for p, data in after.items()}
        return status, out.getvalue(), err_text.replace(tmp, "{tmp}"), written


@settings(max_examples=150, deadline=None)
@given(commands(), st.booleans())
# Library ValueErrors: a bad seed, an out-of-range decompose, a mismatched
# compose; and a FixtureError from an empty fixture directory.
@example(
    (["generate", "--order", "0", "--q-seed", "0", "--r-seed", "0",
      "--archetypes", "row_alternate,column_alternate"], (b"", b"")),
    False,
)
@example((["decompose", "{in0}"], (b"1,2\n3,5\n", b"")), False)
@example((["compose", "--q", "{in0}", "--r", "{in1}"], (b"0\n", b"0,1\n1,0\n")), False)
@example((["fixtures", "show", "f8_1769"], (b"", b"")), True)
@example((["generate", "--preset", "m6_euler_aux"], (b"", b"")), True)
# Two output paths name the file that exists.
@example(
    (["decompose", "{in0}", "--out-q", "{tmp}/old.csv", "--out-r", "{tmp}/./old.csv"],
     (b"1,2\n3,4\n", b"")),
    False,
)
# The first output file is new and the second cannot be written.
@example(
    (["decompose", "{in0}", "--out-q", "{tmp}/new.csv", "--out-r", "{tmp}/no/dir.csv"],
     (b"1,2\n3,4\n", b"")),
    False,
)
# The first output file is new and the second fails its write.
@example(
    (["generate", "--preset", "f8_1769", "--out", "{tmp}/new.csv", "--report", FULL],
     (b"", b"")),
    False,
)
# '-' names stdin, and stdin is closed.
@example((["verify", "-"], (b"", b"")), False)
def test_cli_contract_on_generated_commands(command, no_fixtures):
    argv, inputs = command
    from_file = _run(argv, inputs, None, no_fixtures)
    if "{in0}" in argv:
        assert _run(argv, inputs, "in0", no_fixtures) == from_file
