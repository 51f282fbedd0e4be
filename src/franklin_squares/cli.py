"""Command-line interface.

Six subcommands cover the whole workflow:

    verify     classify a square file and report every line condition
    decompose  split a square M into its quotient/remainder grids
    compose    rebuild a square from quotient/remainder grids
    generate   expand seed patterns (or a named preset) into a square
    search     enumerate natural Franklin squares of a given order
    fixtures   list or dump the bundled reference squares

Square files are CSV (one row of integers per line, no header) unless the
path ends in ``.json``, in which case they use the ``{"order": n, "cells":
[...]}`` layout; ``-`` reads from stdin and sniffs the format.  Files and
stdin are read alike, as UTF-8 with any newline convention.  Diagnostics
go to stderr as a single line ``error: code=<CODE> <detail>``, and each
code has one exit status (0 is success; with --require, the square has
the required property):

    1  REQUIRE_FAILED     a --require property does not hold
    2  USAGE              bad or conflicting flags and flag values
       BAD_FILE           a file cannot be read or written, or a fixture
                          file is missing, corrupted, does not parse or
                          does not hold its registered grid
       BAD_FORMAT         a square file is not UTF-8, or not valid CSV or JSON
    3  PRECONDITION       wrong order, out-of-range values, odd search order
       UNKNOWN_NAME       unknown preset, fixture or archetype name
       LONG_RUN_REQUIRED  a full enumeration at order >= 8 without --long-run

A path flag is given whenever it appears, even with an empty value: an
empty path is a file that cannot be written (BAD_FILE), and ``-`` is
stdout. A command writes all of its files or none of them.
"""

from __future__ import annotations

import argparse
import json
import os
import sys

from . import fixtures, patterns
from .composition import compose, decompose
from .core import AuxPair, IndexTargets, Square
from .formats import (
    FormatError,
    _dumps_indented,
    outcome_to_dict,
    parse_square_csv,
    parse_square_json,
    report_to_json,
    square_to_csv,
    square_to_json,
)
from .search import SearchMode, SearchOptions, _check_tables, search_natural_franklin
from .verify import LABELS, PropertyReport, classify, verify

_EXIT = {
    "REQUIRE_FAILED": 1,
    "USAGE": 2,
    "BAD_FILE": 2,
    "BAD_FORMAT": 2,
    "PRECONDITION": 3,
    "UNKNOWN_NAME": 3,
    "LONG_RUN_REQUIRED": 3,
}

_MAX_SHOWN_FAILURES = 8


class _CliError(Exception):
    """An error code (a key of _EXIT) and its detail, for main() to report."""


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems in the common error format."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _CliError("USAGE", message)


def _call(fn, *args, **kwargs):
    """Call into the library, giving its input errors their codes: a
    ValueError is PRECONDITION, and a FixtureError is BAD_FILE (callers
    check fixture and preset names first)."""
    try:
        return fn(*args, **kwargs)
    except ValueError as exc:
        raise _CliError("PRECONDITION", str(exc))
    except fixtures.FixtureError as exc:
        raise _CliError("BAD_FILE", str(exc))


# ---------------------------------------------------------------------------
# file I/O


def _read_text(path: str) -> str:
    """Read a file, or stdin for '-', as strict UTF-8 with any newlines."""
    try:
        if path == "-":
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _CliError("BAD_FORMAT", f"{path}: {exc}")
    except OSError as exc:
        raise _CliError("BAD_FILE", f"cannot read {path}: {exc}")
    return text.replace("\r\n", "\n").replace("\r", "\n")


def _read_square(path: str) -> Square:
    text = _read_text(path)
    looks_json = path.endswith(".json") or text.lstrip().startswith("{")
    try:
        if looks_json:
            sq, _name = parse_square_json(text)
            return sq
        return parse_square_csv(text)
    except FormatError as exc:
        raise _CliError("BAD_FORMAT", f"{path}: {exc}")


def _write_outputs(*outputs: tuple[str, str | None]) -> None:
    """Write each (text, path), files first; None or '-' is stdout.

    Every file is opened for append (no truncation, no need to exist)
    before anything is written, so a path that fails leaves no new file,
    no changed file and no stdout.
    """
    files = [(text, path) for text, path in outputs if path not in (None, "-")]
    created = []
    for _, path in files:
        try:
            existed = os.path.exists(path)
            open(path, "a").close()
        except OSError as exc:
            for new in created:
                os.remove(new)
            raise _CliError("BAD_FILE", f"cannot write {path}: {exc}")
        if not existed:
            created.append(path)
    for text, path in files:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            raise _CliError("BAD_FILE", f"cannot write {path}: {exc}")
    for text, path in outputs:
        if path in (None, "-"):
            sys.stdout.write(text)


def _write_pair(pair: AuxPair) -> None:
    sys.stdout.write(square_to_csv(pair.quotient) + "\n")
    sys.stdout.write(square_to_csv(pair.remainder))


# ---------------------------------------------------------------------------
# verify


def _parse_target(raw: str, n: int) -> IndexTargets:
    if raw == "natural":
        return IndexTargets.natural(n)
    if raw == "balanced":
        return IndexTargets.balanced(n)
    try:
        line_sum = int(raw)
    except ValueError:
        raise _CliError(
            "USAGE",
            f"--target must be 'natural', 'balanced', or an integer, got {raw!r}",
        )
    return IndexTargets(n, line_sum)


def _summary(report: PropertyReport, inferred: bool) -> str:
    suffix = " (inferred)" if inferred else ""
    out = [f"order {report.order}, line sum {report.targets.line_sum}{suffix}"]
    out.append("labels: " + (", ".join(report.labels) or "(none)"))
    for cond in report.conditions:
        desc = f"{cond.lines_checked} line{'s' if cond.lines_checked != 1 else ''}"
        if cond.failures:
            desc += f", {len(cond.failures)} off target"
        out.append(f"  {cond.condition:<16} {cond.status.name:<14} {desc}")
        for line, actual in cond.failures[:_MAX_SHOWN_FAILURES]:
            shown = f"sum {actual}"
            if cond.doubled:
                shown += f" (doubled {2 * actual})"
            out.append(f"      {line.family.value} shift {line.shift}: {shown}")
        hidden = len(cond.failures) - _MAX_SHOWN_FAILURES
        if hidden > 0:
            out.append(f"      ... {hidden} more")
    return "\n".join(out) + "\n"


def _cmd_verify(args: argparse.Namespace) -> None:
    sq = _read_square(args.file)
    if args.target is None:
        outcome = classify(sq)
        report, inferred = outcome.report, outcome.target_inferred
    else:
        report = verify(sq, _parse_target(args.target, sq.order))
        inferred = False
    if args.json:
        sys.stdout.write(report_to_json(report, target_inferred=inferred) + "\n")
    else:
        sys.stdout.write(_summary(report, inferred))
    if args.require and args.require not in report.labels:
        raise _CliError(
            "REQUIRE_FAILED",
            f"square does not satisfy {args.require!r} "
            f"at line sum {report.targets.line_sum}",
        )


# ---------------------------------------------------------------------------
# decompose / compose


def _cmd_decompose(args: argparse.Namespace) -> None:
    pair = _call(decompose, _read_square(args.file))
    if (args.out_q, args.out_r) in ((None, None), ("-", "-")):
        # Both grids on stdout: one blank line between them, either way.
        _write_pair(pair)
    elif args.out_q is None or args.out_r is None:
        raise _CliError("USAGE", "--out-q and --out-r must be given together")
    else:
        _write_outputs(
            (square_to_csv(pair.quotient), args.out_q),
            (square_to_csv(pair.remainder), args.out_r),
        )


def _cmd_compose(args: argparse.Namespace) -> None:
    q = _read_square(args.q)
    r = _read_square(args.r)
    _write_outputs((square_to_csv(compose(_call(AuxPair, q, r))), args.out))


# ---------------------------------------------------------------------------
# generate


def _parse_seed(raw: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise _CliError("USAGE", f"{flag} must be comma-separated integers")


def _parse_archetypes(raw: str) -> tuple[patterns.Archetype, patterns.Archetype]:
    parts = raw.split(",")
    if len(parts) != 2:
        raise _CliError(
            "USAGE",
            "--archetypes takes exactly two comma-separated names "
            "(quotient first, remainder second)",
        )
    out = []
    for part in parts:
        name = part.strip().lower().replace("-", "_")
        try:
            out.append(patterns.Archetype(name))
        except ValueError:
            known = ", ".join(a.value for a in patterns.Archetype)
            raise _CliError(
                "UNKNOWN_NAME",
                f"unknown archetype {part!r}; choose from: {known}",
            )
    return out[0], out[1]


def _cmd_generate(args: argparse.Namespace) -> None:
    seeds = {
        "--order": args.order,
        "--q-seed": args.q_seed,
        "--r-seed": args.r_seed,
        "--archetypes": args.archetypes,
    }
    missing = [flag for flag, value in seeds.items() if value is None]
    if args.preset is not None:
        if len(missing) < len(seeds):
            raise _CliError("USAGE", "--preset cannot be combined with seed options")
        known = patterns.preset_names()
        if args.preset not in known:
            raise _CliError(
                "UNKNOWN_NAME",
                f"unknown preset {args.preset!r}; choose from: {', '.join(known)}",
            )
        obj = _call(patterns.preset, args.preset)
        if isinstance(obj, AuxPair):
            for flag, path in (("--report", args.report), ("--out", args.out)):
                if path is not None:
                    raise _CliError(
                        "USAGE", f"{flag} applies to single squares, not grid pairs"
                    )
            _write_pair(obj)
            return
        square = obj
        report = classify(square).report
    elif missing:
        raise _CliError(
            "USAGE",
            "generate needs --preset or all of --order/--q-seed/--r-seed/"
            "--archetypes (missing: " + ", ".join(missing) + ")",
        )
    else:
        q_arch, r_arch = _parse_archetypes(args.archetypes)
        q_seed = _parse_seed(args.q_seed, "--q-seed")
        q_pattern = _call(patterns.SeedPattern, q_arch, args.order, q_seed)
        r_seed = _parse_seed(args.r_seed, "--r-seed")
        r_pattern = _call(patterns.SeedPattern, r_arch, args.order, r_seed)
        result = _call(patterns.generate, q_pattern, r_pattern)
        square, report = result.square, result.report
    outputs = [(square_to_csv(square), args.out)]
    if args.report is not None:
        outputs.append((report_to_json(report) + "\n", args.report))
    _write_outputs(*outputs)


# ---------------------------------------------------------------------------
# search


def _positive_int(raw: str) -> int:
    """argparse type for counts: a bad value is USAGE and names its flag."""
    try:
        value = int(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}")
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _cmd_search(args: argparse.Namespace) -> None:
    mode = SearchMode(args.mode)
    n = args.order
    # A full enumeration at order >= 8 runs for a very long time; make the
    # caller acknowledge that.  First-witness runs, budgeted runs and
    # orders the line table settles without search (no Franklin square
    # can exist) are not full enumerations and need no flag.
    if (
        mode is not SearchMode.FIRST
        and args.budget is None
        and n >= 8
        and not args.long_run
        and _check_tables(n) is not None
    ):
        raise _CliError(
            "LONG_RUN_REQUIRED",
            f"a full order-{n} enumeration may run for days; "
            "pass --long-run to confirm",
        )
    opts = _call(
        SearchOptions,
        order=n,
        mode=mode,
        node_budget=args.budget,
        prune=not args.no_prune,
    )
    outcome = search_natural_franklin(opts)
    if mode is SearchMode.STREAM:
        for witness in outcome.witnesses:
            sys.stdout.write(square_to_json(witness) + "\n")
        summary = outcome_to_dict(outcome, include_witnesses=False)
        sys.stdout.write(json.dumps(summary) + "\n")
    else:
        sys.stdout.write(_dumps_indented(outcome_to_dict(outcome)) + "\n")


# ---------------------------------------------------------------------------
# fixtures


def _cmd_fixtures(args: argparse.Namespace) -> None:
    if args.action == "list":
        for name in fixtures.names():
            e = fixtures.entry(name)
            claims = ", ".join(e.claims)
            sys.stdout.write(
                f"{e.name:<24} {e.kind.value:<8} order {e.order:>2}  {claims}\n"
            )
        return
    try:
        e = fixtures.entry(args.name)
    except fixtures.FixtureError as exc:
        raise _CliError("UNKNOWN_NAME", str(exc))
    obj = _call(fixtures.load, args.name)
    out = [
        f"name: {e.name}",
        f"kind: {e.kind.value}",
        f"order: {e.order}",
        f"provenance: {e.provenance}",
        f"claims: {', '.join(e.claims)}",
    ]
    if e.claims_known_false:
        out.append(f"claims_known_false: {', '.join(e.claims_known_false)}")
    if e.notes:
        out.append(f"notes: {e.notes}")
    if e.reconstructed_quotient_rows:
        rows = ", ".join(str(r) for r in e.reconstructed_quotient_rows)
        out.append(f"reconstructed_quotient_rows: {rows}")
    out.append(f"files: {', '.join(e.files)}")
    sys.stdout.write("\n".join(out) + "\n\n")
    if isinstance(obj, AuxPair):
        _write_pair(obj)
    else:
        sys.stdout.write(square_to_csv(obj))


# ---------------------------------------------------------------------------
# parser wiring


def _build_parser() -> _Parser:
    parser = _Parser(
        prog="franklin-squares",
        description="Verify, build, and search magic and Franklin squares.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_verify = sub.add_parser("verify", help="classify a square file")
    p_verify.add_argument("file", help="square file (CSV or JSON, '-' for stdin)")
    p_verify.add_argument(
        "--target",
        help="line-sum target: 'natural', 'balanced', or an integer "
        "(default: inferred from the cell values)",
    )
    fmt = p_verify.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true", help="emit the full JSON report")
    fmt.add_argument(
        "--summary", action="store_true", help="emit a text summary (default)"
    )
    p_verify.add_argument(
        "--require",
        choices=LABELS,
        help="exit 1 unless the square satisfies this property",
    )
    p_verify.set_defaults(run=_cmd_verify)

    p_dec = sub.add_parser(
        "decompose", help="split a square into quotient/remainder grids"
    )
    p_dec.add_argument("file", help="square file (CSV or JSON, '-' for stdin)")
    p_dec.add_argument("--out-q", help="write the quotient grid to this CSV file")
    p_dec.add_argument("--out-r", help="write the remainder grid to this CSV file")
    p_dec.set_defaults(run=_cmd_decompose)

    p_com = sub.add_parser(
        "compose", help="rebuild a square from quotient/remainder grids"
    )
    p_com.add_argument("--q", required=True, help="quotient grid file")
    p_com.add_argument("--r", required=True, help="remainder grid file")
    p_com.add_argument("--out", help="write the square here (default stdout)")
    p_com.set_defaults(run=_cmd_compose)

    p_gen = sub.add_parser("generate", help="expand seed patterns into a square")
    p_gen.add_argument("--preset", help="named preset (see `fixtures list`)")
    p_gen.add_argument("--order", type=int, help="square order for seeded generation")
    p_gen.add_argument("--q-seed", help="comma-separated quotient seed values")
    p_gen.add_argument("--r-seed", help="comma-separated remainder seed values")
    p_gen.add_argument(
        "--archetypes",
        help="two comma-separated archetype names, quotient first "
        "(row_alternate, column_alternate, block_pair, four_row_cycle)",
    )
    p_gen.add_argument("--out", help="write the square here (default stdout)")
    p_gen.add_argument("--report", help="also write the JSON verification report")
    p_gen.set_defaults(run=_cmd_generate)

    p_sea = sub.add_parser("search", help="enumerate natural Franklin squares")
    p_sea.add_argument("--order", type=int, required=True)
    p_sea.add_argument(
        "--mode", choices=[m.value for m in SearchMode], default="count"
    )
    p_sea.add_argument(
        "--long-run",
        action="store_true",
        help="confirm a potentially very long enumeration",
    )
    p_sea.add_argument(
        "--budget",
        type=_positive_int,
        help="stop after this many accepted placements",
    )
    p_sea.add_argument(
        "--no-prune",
        action="store_true",
        help="disable forcing and bound pruning (cross-check mode)",
    )
    p_sea.set_defaults(run=_cmd_search)

    p_fix = sub.add_parser("fixtures", help="inspect the bundled reference squares")
    p_fix.set_defaults(run=_cmd_fixtures)
    fix_sub = p_fix.add_subparsers(dest="action", required=True)
    fix_sub.add_parser("list", help="list fixture names, kinds, and claims")
    p_show = fix_sub.add_parser("show", help="print one fixture with its grids")
    p_show.add_argument("name")

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        args.run(args)
    except _CliError as exc:
        code, detail = exc.args
        sys.stderr.write(f"error: code={code} {detail}\n")
        return _EXIT[code]
    return 0


if __name__ == "__main__":
    sys.exit(main())
