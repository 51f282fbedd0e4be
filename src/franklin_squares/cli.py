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
       BAD_FILE           a file cannot be read or written, stdin is
                          closed (``<&-``), or a fixture file is missing,
                          corrupted, does not parse or does not hold its
                          registered grid
       BAD_FORMAT         a square file is not UTF-8, or not valid CSV or JSON
    3  PRECONDITION       wrong order, out-of-range values, odd search order,
                          an input too large to hold in memory
       UNKNOWN_NAME       unknown preset, fixture or archetype name
       LONG_RUN_REQUIRED  an unbudgeted search at order >= 8 without
                          --long-run, but for FIRST at order 8 and for an
                          order whose line table admits no square
  141                     stdout was closed before all output was written
                          (``| head``) or from the start (``>&-``); nothing
                          is printed to stderr

A path flag is given whenever it appears, even with an empty value: an
empty path is a file that cannot be written (BAD_FILE), and ``-`` is
stdout. Two path flags that name the same file are USAGE. A command
writes all of its files or none of them, with one limit: when a write
fails after every file opened (a full disk), an existing file rewritten
before it keeps its new bytes. With stderr closed (``2>&-``) an error
gives its exit status alone. main() maps
each library ValueError and each MemoryError to PRECONDITION and each
fixtures.FixtureError to BAD_FILE; a command maps only the faults that
take another code.
"""

from __future__ import annotations

import argparse
import itertools
import json
import os
import sys

from . import fixtures, patterns
from .composition import compose, decompose
from .core import AuxPair, IndexTargets, Square, magic_constant
from .formats import (
    FormatError,
    _decimal,
    outcome_to_dict,
    parse_square_csv,
    parse_square_json,
    report_to_json,
    square_to_csv,
    square_to_json,
)
from .lines import franklin_checks
from .search import SearchMode, SearchOptions, search_natural_franklin
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

# 128 + SIGPIPE, the status a shell reports for a writer killed by one.
_BROKEN_PIPE = 141

_MAX_SHOWN_FAILURES = 8


class _CliError(Exception):
    """An error code (a key of _EXIT) and its detail, for main() to report."""


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems in the common error format."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _CliError("USAGE", message)

    def print_help(self, file=None) -> None:
        # Help is output like any other: with stdout closed or its reader
        # gone, main() exits 141 with nothing on stderr. argparse would
        # write it to stderr when there is no stdout.
        _out(self.format_help())
        sys.stdout.flush()


# ---------------------------------------------------------------------------
# file I/O


def _read_text(path: str) -> str:
    """Read a file, or stdin for '-', as strict UTF-8."""
    try:
        if path == "-":
            if sys.stdin is None:  # the process started with stdin closed
                raise OSError("stdin is closed")
            data = sys.stdin.buffer.read()
        else:
            with open(path, "rb") as fh:
                data = fh.read()
        return data.decode("utf-8")
    except UnicodeDecodeError as exc:
        raise _CliError("BAD_FORMAT", f"{path}: {exc}")
    except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
        raise _CliError("BAD_FILE", f"cannot read {path}: {exc}")


def _read_square(path: str) -> Square:
    text = _read_text(path)
    looks_json = path.endswith(".json") or text.lstrip().startswith("{")
    try:
        return parse_square_json(text) if looks_json else parse_square_csv(text)
    except FormatError as exc:
        raise _CliError("BAD_FORMAT", f"{path}: {exc}")


def _out(text: str) -> None:
    """Write text to stdout. A process started with stdout closed has
    none, and a write fails as one to a pipe whose reader has closed."""
    if sys.stdout is None:
        raise BrokenPipeError("stdout is closed")
    sys.stdout.write(text)


def _write_outputs(*outputs: tuple[str, str | None]) -> None:
    """Write each (text, path), files first; None or '-' is stdout.

    Every file is opened for append (no truncation, no need to exist)
    before anything is written, so a path that fails, or two paths that
    name the same file, leave no new file, no changed file and no stdout.
    A write that fails after that removes the files this call created; an
    existing file written before it keeps its new bytes.
    """
    files = [(text, path) for text, path in outputs if path not in (None, "-")]
    created = []

    def fail(code, message):
        for new in created:
            os.remove(new)
        raise _CliError(code, message)

    for _, path in files:
        try:
            existed = os.path.exists(path)
            open(path, "a").close()
        except (OSError, ValueError) as exc:  # ValueError: a NUL in the path
            fail("BAD_FILE", f"cannot write {path}: {exc}")
        if not existed:
            created.append(path)
    for (_, a), (_, b) in itertools.combinations(files, 2):
        if os.path.samefile(a, b):
            fail("USAGE", f"{a} and {b} name the same file")
    for text, path in files:
        try:
            with open(path, "w", encoding="utf-8") as fh:
                fh.write(text)
        except OSError as exc:
            fail("BAD_FILE", f"cannot write {path}: {exc}")
    for text, path in outputs:
        if path in (None, "-"):
            _out(text)


def _write_pair(pair: AuxPair) -> None:
    _out(square_to_csv(pair.quotient) + "\n")
    _out(square_to_csv(pair.remainder))


# ---------------------------------------------------------------------------
# verify


def _parse_target(raw: str, n: int) -> IndexTargets:
    if raw == "natural":
        return IndexTargets.natural(n)
    if raw == "balanced":
        return IndexTargets.balanced(n)
    try:
        line_sum = _decimal(raw)
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
        _out(report_to_json(report, target_inferred=inferred) + "\n")
    else:
        _out(_summary(report, inferred))
    if args.require and args.require not in report.labels:
        raise _CliError(
            "REQUIRE_FAILED",
            f"square does not satisfy {args.require!r} "
            f"at line sum {report.targets.line_sum}",
        )


# ---------------------------------------------------------------------------
# decompose / compose


def _cmd_decompose(args: argparse.Namespace) -> None:
    pair = decompose(_read_square(args.file))
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
    pair = AuxPair(_read_square(args.q), _read_square(args.r))
    _write_outputs((square_to_csv(compose(pair)), args.out))


# ---------------------------------------------------------------------------
# generate


def _parse_seed(raw: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(_decimal(part) for part in raw.split(","))
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
        obj = patterns.preset(args.preset)
        if isinstance(obj, AuxPair):
            for flag, path in (("--report", args.report), ("--out", args.out)):
                if path is not None:
                    raise _CliError(
                        "USAGE", f"{flag} applies to single squares, not grid pairs"
                    )
            _write_pair(obj)
            return
        square = obj
    elif missing:
        raise _CliError(
            "USAGE",
            "generate needs --preset or all of --order/--q-seed/--r-seed/"
            "--archetypes (missing: " + ", ".join(missing) + ")",
        )
    else:
        q_arch, r_arch = _parse_archetypes(args.archetypes)
        q = patterns.SeedPattern(q_arch, args.order, _parse_seed(args.q_seed, "--q-seed"))
        r = patterns.SeedPattern(r_arch, args.order, _parse_seed(args.r_seed, "--r-seed"))
        square = patterns.generate(q, r).square
    outputs = [(square_to_csv(square), args.out)]
    if args.report is not None:
        outcome = classify(square)
        text = report_to_json(outcome.report, outcome.target_inferred)
        outputs.append((text + "\n", args.report))
    _write_outputs(*outputs)


# ---------------------------------------------------------------------------
# search


def _int(raw: str) -> int:
    """argparse type for integers, read as the CSV reader reads a value: a
    bad value is USAGE and names its flag."""
    try:
        return _decimal(raw)
    except ValueError:
        raise argparse.ArgumentTypeError(f"invalid int value: {raw!r}")


def _positive_int(raw: str) -> int:
    """argparse type for counts."""
    value = _int(raw)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be positive, got {value}")
    return value


def _cmd_search(args: argparse.Namespace) -> None:
    mode = SearchMode(args.mode)
    n = args.order
    # An unbudgeted walk at order >= 8 can run for a very long time; make
    # the caller acknowledge that.  Budgeted runs and orders whose line
    # table says no square can exist (the walk then has no plan and
    # places nothing) need no flag, and neither does FIRST at order 8,
    # whose witness comes at placement 100.  At orders 12 and 16 FIRST
    # finds no witness in its first 200k placements and may walk the
    # whole tree, so larger orders are gated.
    if (
        args.budget is None
        and n >= 8
        and (mode is not SearchMode.FIRST or n > 8)
        and not args.long_run
        and franklin_checks(n, magic_constant(n)) is not None
    ):
        raise _CliError(
            "LONG_RUN_REQUIRED",
            f"a full order-{n} enumeration may run for days; "
            "pass --long-run to confirm",
        )
    opts = SearchOptions(n, mode, node_budget=args.budget, prune=not args.no_prune)
    outcome = search_natural_franklin(opts)
    if mode is SearchMode.STREAM:
        for witness in outcome.witnesses:
            _out(square_to_json(witness) + "\n")
        summary = outcome_to_dict(outcome, include_witnesses=False)
        _out(json.dumps(summary) + "\n")
    else:
        _out(json.dumps(outcome_to_dict(outcome), indent=2) + "\n")


# ---------------------------------------------------------------------------
# fixtures


def _cmd_fixtures(args: argparse.Namespace) -> None:
    if args.action == "list":
        for name in fixtures.names():
            e = fixtures.entry(name)
            claims = ", ".join(e.claims)
            _out(
                f"{e.name:<24} {e.kind.value:<8} order {e.order:>2}  {claims}\n"
            )
        return
    try:
        e = fixtures.entry(args.name)
    except fixtures.FixtureError as exc:
        raise _CliError("UNKNOWN_NAME", str(exc))
    obj = fixtures.load(args.name)
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
    _out("\n".join(out) + "\n\n")
    if isinstance(obj, AuxPair):
        _write_pair(obj)
    else:
        _out(square_to_csv(obj))


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
    p_gen.add_argument("--order", type=_int, help="square order for seeded generation")
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
    p_sea.add_argument("--order", type=_int, required=True)
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
        help="disable forced-value pruning (cross-check mode)",
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
    error = None
    try:
        try:
            args = parser.parse_args(argv)
            args.run(args)
        except _CliError as exc:
            error = exc
        except fixtures.FixtureError as exc:
            error = _CliError("BAD_FILE", str(exc))
        except ValueError as exc:
            error = _CliError("PRECONDITION", str(exc))
        except MemoryError:
            # An order too large to lay out (search --order 100000) fails
            # at once, in the first table sized n*n.
            error = _CliError("PRECONDITION", "input too large: out of memory")
        # Before any error line, so a closed stdout always exits alike.
        if sys.stdout is not None:
            sys.stdout.flush()
    except BrokenPipeError:
        # The reader closed stdout. Point stdout at devnull so that the
        # flush at interpreter exit cannot fail again.
        if sys.stdout is not None:
            devnull = os.open(os.devnull, os.O_WRONLY)
            os.dup2(devnull, sys.stdout.fileno())
            os.close(devnull)
        return _BROKEN_PIPE
    if error is None:
        return 0
    code, detail = error.args
    try:
        sys.stderr.write(f"error: code={code} {detail}\n")
    except (AttributeError, OSError):  # stderr is closed: the status alone
        pass
    return _EXIT[code]


if __name__ == "__main__":
    sys.exit(main())
