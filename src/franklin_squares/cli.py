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
[...]}`` layout; ``-`` reads from stdin and sniffs the format.  Diagnostics
go to stderr as a single line ``error: code=<CODE> <detail>`` and the exit
code tells the caller what class of problem occurred:

    0  success (with --require: the square has the required property)
    1  verification failure (a --require property does not hold)
    2  malformed input (unreadable file, bad CSV/JSON, usage errors)
    3  precondition violation (wrong order, out-of-range values, unknown
       preset or fixture name, odd search order, missing --long-run)
"""

from __future__ import annotations

import argparse
import json
import sys

from . import fixtures, patterns
from .composition import compose, decompose
from .core import AuxPair, IndexTargets, Square, magic_constant
from .formats import (
    FormatError,
    outcome_to_dict,
    parse_square_csv,
    parse_square_json,
    report_to_json,
    square_to_csv,
)
from .search import SearchMode, SearchOptions, search_natural_franklin
from .verify import LABELS, PropertyReport, classify, verify

EXIT_OK = 0
EXIT_REQUIRE_FAILED = 1
EXIT_MALFORMED = 2
EXIT_PRECONDITION = 3

_MAX_SHOWN_FAILURES = 8


class _CliError(Exception):
    """Carries the exit code and machine-parsable error code to main()."""

    def __init__(self, exit_code: int, code: str, detail: str) -> None:
        super().__init__(detail)
        self.exit_code = exit_code
        self.code = code
        self.detail = detail


class _Parser(argparse.ArgumentParser):
    """argparse that reports usage problems in the common error format."""

    def error(self, message: str) -> None:  # type: ignore[override]
        raise _CliError(EXIT_MALFORMED, "USAGE", message)


# ---------------------------------------------------------------------------
# file I/O


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as exc:
        raise _CliError(EXIT_MALFORMED, "BAD_FILE", f"cannot read {path}: {exc}")


def _read_square(path: str) -> Square:
    text = _read_text(path)
    looks_json = path.endswith(".json") or text.lstrip().startswith("{")
    try:
        if looks_json:
            sq, _name = parse_square_json(text)
            return sq
        return parse_square_csv(text)
    except FormatError as exc:
        raise _CliError(EXIT_MALFORMED, "BAD_FORMAT", f"{path}: {exc}")


def _write_text(text: str, path: str | None) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
        return
    try:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(text)
    except OSError as exc:
        raise _CliError(EXIT_MALFORMED, "BAD_FILE", f"cannot write {path}: {exc}")


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
            EXIT_MALFORMED,
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


def _cmd_verify(args: argparse.Namespace) -> int:
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
            EXIT_REQUIRE_FAILED,
            "REQUIRE_FAILED",
            f"square does not satisfy {args.require!r} "
            f"at line sum {report.targets.line_sum}",
        )
    return EXIT_OK


# ---------------------------------------------------------------------------
# decompose / compose


def _cmd_decompose(args: argparse.Namespace) -> int:
    sq = _read_square(args.file)
    try:
        pair = decompose(sq)
    except ValueError as exc:
        raise _CliError(EXIT_PRECONDITION, "PRECONDITION", str(exc))
    q_text = square_to_csv(pair.quotient)
    r_text = square_to_csv(pair.remainder)
    if args.out_q or args.out_r:
        if not (args.out_q and args.out_r):
            raise _CliError(
                EXIT_MALFORMED, "USAGE", "--out-q and --out-r must be given together"
            )
        _write_text(q_text, args.out_q)
        _write_text(r_text, args.out_r)
    else:
        sys.stdout.write(q_text + "\n" + r_text)
    return EXIT_OK


def _cmd_compose(args: argparse.Namespace) -> int:
    q = _read_square(args.q)
    r = _read_square(args.r)
    try:
        sq = compose(AuxPair(q, r))
    except ValueError as exc:
        raise _CliError(EXIT_PRECONDITION, "PRECONDITION", str(exc))
    _write_text(square_to_csv(sq), args.out)
    return EXIT_OK


# ---------------------------------------------------------------------------
# generate


def _parse_seed(raw: str, flag: str) -> tuple[int, ...]:
    try:
        return tuple(int(part) for part in raw.split(","))
    except ValueError:
        raise _CliError(
            EXIT_MALFORMED, "USAGE", f"{flag} must be comma-separated integers"
        )


def _parse_archetypes(raw: str) -> tuple[patterns.Archetype, patterns.Archetype]:
    parts = raw.split(",")
    if len(parts) != 2:
        raise _CliError(
            EXIT_MALFORMED,
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
                EXIT_PRECONDITION,
                "UNKNOWN_NAME",
                f"unknown archetype {part!r}; choose from: {known}",
            )
    return out[0], out[1]


def _write_pair(pair: AuxPair) -> None:
    sys.stdout.write(square_to_csv(pair.quotient) + "\n")
    sys.stdout.write(square_to_csv(pair.remainder))


def _cmd_generate(args: argparse.Namespace) -> int:
    seeded = any((args.order, args.q_seed, args.r_seed, args.archetypes))
    if args.preset and seeded:
        raise _CliError(
            EXIT_MALFORMED, "USAGE", "--preset cannot be combined with seed options"
        )
    if args.preset:
        try:
            obj = patterns.preset(args.preset)
        except fixtures.FixtureError:
            known = ", ".join(patterns.preset_names())
            raise _CliError(
                EXIT_PRECONDITION,
                "UNKNOWN_NAME",
                f"unknown preset {args.preset!r}; choose from: {known}",
            )
        if isinstance(obj, AuxPair):
            if args.report:
                raise _CliError(
                    EXIT_MALFORMED,
                    "USAGE",
                    "--report applies to single squares, not grid pairs",
                )
            if args.out:
                raise _CliError(
                    EXIT_MALFORMED,
                    "USAGE",
                    "--out applies to single squares, not grid pairs",
                )
            _write_pair(obj)
            return EXIT_OK
        square = obj
        report = classify(square).report
    else:
        missing = [
            flag
            for flag, value in (
                ("--order", args.order),
                ("--q-seed", args.q_seed),
                ("--r-seed", args.r_seed),
                ("--archetypes", args.archetypes),
            )
            if not value
        ]
        if missing:
            raise _CliError(
                EXIT_MALFORMED,
                "USAGE",
                "generate needs --preset or all of --order/--q-seed/--r-seed/"
                "--archetypes (missing: " + ", ".join(missing) + ")",
            )
        q_arch, r_arch = _parse_archetypes(args.archetypes)
        try:
            q_pattern = patterns.SeedPattern(
                q_arch, args.order, _parse_seed(args.q_seed, "--q-seed")
            )
            r_pattern = patterns.SeedPattern(
                r_arch, args.order, _parse_seed(args.r_seed, "--r-seed")
            )
            result = patterns.generate(q_pattern, r_pattern)
        except ValueError as exc:
            raise _CliError(EXIT_PRECONDITION, "PRECONDITION", str(exc))
        square, report = result.square, result.report
    _write_text(square_to_csv(square), args.out)
    if args.report:
        _write_text(report_to_json(report) + "\n", args.report)
    return EXIT_OK


# ---------------------------------------------------------------------------
# search


def _cmd_search(args: argparse.Namespace) -> int:
    mode = SearchMode(args.mode)
    n = args.order
    # A full enumeration at order >= 8 runs for a very long time; make the
    # caller acknowledge that.  First-witness runs and orders whose targets
    # are unsatisfiable (odd line sum) settle quickly and need no flag.
    feasible = n >= 1 and n % 2 == 0 and magic_constant(n) % 2 == 0
    if mode is not SearchMode.FIRST and n >= 8 and feasible and not args.long_run:
        raise _CliError(
            EXIT_PRECONDITION,
            "LONG_RUN_REQUIRED",
            f"a full order-{n} enumeration may run for days; "
            "pass --long-run to confirm",
        )
    try:
        opts = SearchOptions(
            order=n,
            mode=mode,
            node_budget=args.budget,
            parallel_width=args.workers,
            prune=not args.no_prune,
        )
    except ValueError as exc:
        raise _CliError(EXIT_PRECONDITION, "PRECONDITION", str(exc))
    outcome = search_natural_franklin(opts)
    if mode is SearchMode.STREAM:
        for witness in outcome.witnesses:
            flat = [v for row in witness.cells for v in row]
            sys.stdout.write(
                json.dumps({"order": witness.order, "cells": flat}) + "\n"
            )
        summary = outcome_to_dict(outcome, include_witnesses=False)
        sys.stdout.write(json.dumps(summary) + "\n")
    else:
        sys.stdout.write(json.dumps(outcome_to_dict(outcome), indent=2) + "\n")
    return EXIT_OK


# ---------------------------------------------------------------------------
# fixtures


def _cmd_fixtures(args: argparse.Namespace) -> int:
    if args.action == "list":
        for name in fixtures.names():
            e = fixtures.entry(name)
            claims = ", ".join(e.claims)
            sys.stdout.write(
                f"{e.name:<24} {e.kind.value:<8} order {e.order:>2}  {claims}\n"
            )
        return EXIT_OK
    try:
        e = fixtures.entry(args.name)
        obj = fixtures.load(args.name)
    except fixtures.FixtureError as exc:
        raise _CliError(EXIT_PRECONDITION, "UNKNOWN_NAME", str(exc))
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
    return EXIT_OK


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

    p_dec = sub.add_parser(
        "decompose", help="split a square into quotient/remainder grids"
    )
    p_dec.add_argument("file", help="square file (CSV or JSON, '-' for stdin)")
    p_dec.add_argument("--out-q", help="write the quotient grid to this CSV file")
    p_dec.add_argument("--out-r", help="write the remainder grid to this CSV file")

    p_com = sub.add_parser(
        "compose", help="rebuild a square from quotient/remainder grids"
    )
    p_com.add_argument("--q", required=True, help="quotient grid file")
    p_com.add_argument("--r", required=True, help="remainder grid file")
    p_com.add_argument("--out", help="write the square here (default stdout)")

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
        "--workers", type=int, default=1, help="parallel worker processes"
    )
    p_sea.add_argument(
        "--budget", type=int, help="stop after this many accepted placements"
    )
    p_sea.add_argument(
        "--no-prune",
        action="store_true",
        help="disable forcing and bound pruning (cross-check mode)",
    )

    p_fix = sub.add_parser("fixtures", help="inspect the bundled reference squares")
    fix_sub = p_fix.add_subparsers(dest="action", required=True)
    fix_sub.add_parser("list", help="list fixture names, kinds, and claims")
    p_show = fix_sub.add_parser("show", help="print one fixture with its grids")
    p_show.add_argument("name")

    return parser


_HANDLERS = {
    "verify": _cmd_verify,
    "decompose": _cmd_decompose,
    "compose": _cmd_compose,
    "generate": _cmd_generate,
    "search": _cmd_search,
    "fixtures": _cmd_fixtures,
}


def main(argv: list[str] | None = None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
        return _HANDLERS[args.command](args)
    except _CliError as exc:
        sys.stderr.write(f"error: code={exc.code} {exc.detail}\n")
        return exc.exit_code


if __name__ == "__main__":
    sys.exit(main())
