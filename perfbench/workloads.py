"""The four benchmark workloads: corpus, search, seeds and cli.

Each workload is one closed-loop client: a single operation at a time, no
threads, no worker processes.  Constructing a workload is its set-up: it
builds the inputs and runs a warm-up, so lazy set-up is done before timing.
``run_pass`` runs one fixed unit of work, records every output check, and
appends the wall time of each timed part of the pass to ``times[kind]``,
where a kind names the same work in every pass.  It returns the pass's
units of work.  ``is_op`` says which kinds are the workload's repeated
operation (for latency) and ``is_rate`` which kinds its work rate covers.

The seed only shuffles the order of operations within a pass; every check
holds for any seed.  All calls go through module attributes of the
``franklin_squares`` package so that the traced run can wrap them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
import shutil
import subprocess
import sys
from collections import defaultdict
from pathlib import Path
from time import perf_counter

import franklin_squares as fs
from franklin_squares import cli, fixtures, formats, patterns

REFERENCE = json.loads(Path(__file__).with_name("reference.json").read_text())

# Each seeded preset and the fixture it must reproduce byte for byte.  The
# order-24 square ships only as its quotient/remainder pair.
PRESET_FIXTURES = {
    "f8_1769": "f8_1769",
    "f16_1769": "f16_1769",
    "f24": "q24_r24",
    "f8_pandiagonal": "f8_pandiagonal",
    "f16_pandiagonal": "f16_pandiagonal",
}


def sha256(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()


def seed_digest(seeds) -> str:
    return sha256(repr([list(s) for s in seeds]))


class Checks:
    """Counts attempted operations and the ones whose output check failed."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def op(self, what: str, **conditions: bool) -> None:
        self.attempted += 1
        bad = [name for name, ok in conditions.items() if not ok]
        if bad:
            self.failed += 1
            self.problems.append(f"{what}: {', '.join(bad)}")


class Corpus:
    """Every bundled fixture, classified and reported, plus the five presets.

    Squares: load, classify, report_to_json, and for natural squares
    decompose then compose.  Pairs: classify and report both members,
    is_orthogonal, compose then decompose.  Presets: regenerate from seeds
    and compare with the stored CSV bytes.  Each fixture or preset is one
    operation.
    """

    name = "corpus"

    def __init__(self, seed: int, smoke: bool) -> None:
        self.rng = random.Random(seed)
        self.ops = [(self._fixture, n) for n in fixtures.names()]
        self.ops += [(self._preset, n) for n in PRESET_FIXTURES]
        self.preset_bytes = {
            name: [
                (fixtures.data_dir() / f).read_bytes()
                for f in fixtures.entry(fixture).files
            ]
            for name, fixture in PRESET_FIXTURES.items()
        }
        self.run_pass(Checks(), defaultdict(list))

    @staticmethod
    def is_op(kind: str) -> bool:
        return True

    is_rate = is_op

    @staticmethod
    def _classify(sq):
        outcome = fs.classify(sq)
        return outcome.labels, formats.report_to_json(
            outcome.report, target_inferred=outcome.target_inferred
        )

    def _fixture(self, name: str, checks: Checks, times) -> int:
        t = perf_counter()
        obj = fixtures.load(name)
        if isinstance(obj, fs.Square):
            labels, text = self._classify(obj)
            roundtrip = "natural" not in labels or fs.compose(fs.decompose(obj)) == obj
        else:
            q_labels, q_text = self._classify(obj.quotient)
            r_labels, r_text = self._classify(obj.remainder)
            labels = q_labels & r_labels
            if fs.is_orthogonal(obj):
                labels |= {"orthogonal"}
            text = q_text + "\n" + r_text
            roundtrip = fs.decompose(fs.compose(obj)) == obj
        times[name].append((perf_counter() - t) * 1e3)
        entry = fixtures.entry(name)
        known_false = set(entry.claims_known_false)
        checks.op(
            f"corpus {name}",
            claims_hold=set(entry.claims) - known_false <= labels,
            false_claims_absent=not labels & known_false,
            report_digest=sha256(text) == REFERENCE["report_sha256"][name],
            roundtrip=roundtrip,
        )
        return 1 if isinstance(obj, fs.Square) else 2

    def _preset(self, name: str, checks: Checks, times) -> int:
        t = perf_counter()
        sq = patterns.preset(name)
        if len(self.preset_bytes[name]) == 1:
            got = [formats.square_to_csv(sq)]
        else:
            pair = fs.decompose(sq)
            got = [formats.square_to_csv(pair.quotient), formats.square_to_csv(pair.remainder)]
        times[f"preset {name}"].append((perf_counter() - t) * 1e3)
        checks.op(
            f"preset {name}",
            byte_identical=[g.encode() for g in got] == self.preset_bytes[name],
        )
        return 1

    def run_pass(self, checks: Checks, times) -> int:
        """Returns the squares verified: 32 classified, 5 generated."""
        self.rng.shuffle(self.ops)
        return sum(op(name, checks, times) for op, name in self.ops)


class Search:
    """A budgeted order-8 COUNT (pruned, sequential) and repeated FIRST runs.

    The 2M-placement budget keeps leaf re-verification a small share of
    the wall time, so this workload moves with the DFS engine and not with
    ``verify``.  The count is timed in segments of 50k placements through
    the search's progress callback.  The operation is one FIRST run.
    """

    name = "search"
    SEGMENT = 50_000

    def __init__(self, seed: int, smoke: bool) -> None:
        self.rng = random.Random(seed)
        self.budget = 100_000 if smoke else 2_000_000
        self.expected_count = REFERENCE["search_count_at_budget"][str(self.budget)]
        self.ops = [self._count] + [self._first] * (2 if smoke else 40)
        self.last_count = self.last_first = None
        self._first(Checks(), defaultdict(list))

    @staticmethod
    def is_op(kind: str) -> bool:
        return kind == "first"

    @staticmethod
    def is_rate(kind: str) -> bool:
        return kind.startswith("count")

    def _first(self, checks: Checks, times) -> None:
        opts = fs.SearchOptions(order=8, mode=fs.SearchMode.FIRST)
        t = perf_counter()
        out = fs.search_natural_franklin(opts)
        times["first"].append((perf_counter() - t) * 1e3)
        self.last_first = out
        checks.op(
            "search first",
            placements=out.nodes_visited == REFERENCE["first_placements"],
            witness=len(out.witnesses) == 1
            and sha256(formats.square_to_csv(out.witnesses[0]))
            == REFERENCE["first_witness_sha256"],
        )

    def _count(self, checks: Checks, times) -> None:
        marks = [perf_counter()]
        opts = fs.SearchOptions(
            order=8,
            node_budget=self.budget,
            progress=lambda nodes, depth: marks.append(perf_counter()),
            progress_interval=self.SEGMENT,
        )
        out = fs.search_natural_franklin(opts)
        marks.append(perf_counter())
        for i, (a, b) in enumerate(zip(marks, marks[1:])):
            times[f"count {i:02d}"].append((b - a) * 1e3)
        self.last_count = out
        checks.op(
            "search count",
            count=out.count == self.expected_count,
            placements=out.nodes_visited == self.budget,
            budget_hit=not out.exhausted,
        )

    def run_pass(self, checks: Checks, times) -> int:
        """Returns the placements of the count."""
        self.rng.shuffle(self.ops)
        for op in self.ops:
            op(checks, times)
        return self.budget


class Seeds:
    """The paper's seed method: remainder seeds, then squares built from them.

    Order 8 is searched pruned and unpruned (the two lists must agree), a
    limited order-16 search gives the seed rate, and every order-8 seed is
    expanded, composed and verified.  The operation is one built square.
    """

    name = "seeds"

    def __init__(self, seed: int, smoke: bool) -> None:
        self.rng = random.Random(seed)
        self.limit16 = 50 if smoke else 1000
        self.builds = 16 if smoke else None
        self.q8 = patterns.expand_quotient(patterns.canonical_row_seed(8), 8)
        self.q16 = patterns.expand_quotient(patterns.canonical_row_seed(16), 16)
        self.qseed = patterns.SeedPattern(
            patterns.Archetype.ROW_ALTERNATE, 8, patterns.canonical_row_seed(8)
        )
        self.searches = ["pruned8", "unpruned8", "limited16"]
        warm = fs.find_remainder_seeds(8, self.q8, limit=1)
        fs.find_remainder_seeds(16, self.q16, limit=1)
        self._build(warm[0], Checks(), defaultdict(list))

    @staticmethod
    def is_op(kind: str) -> bool:
        return kind.startswith("build ")

    @staticmethod
    def is_rate(kind: str) -> bool:
        return kind == "limited16"

    def _build(self, seed, checks: Checks, times) -> None:
        rseed = patterns.SeedPattern(patterns.Archetype.COLUMN_ALTERNATE, 8, seed)
        t = perf_counter()
        built = patterns.generate(self.qseed, rseed)
        times[f"build {','.join(map(str, seed))}"].append((perf_counter() - t) * 1e3)
        checks.op(
            f"seeds build {seed}",
            natural=built.report.natural,
            franklin=built.report.franklin,
        )

    def _search(self, which: str, checks: Checks, times) -> list:
        t = perf_counter()
        if which == "limited16":
            seeds = fs.find_remainder_seeds(16, self.q16, limit=self.limit16)
        else:
            seeds = fs.find_remainder_seeds(8, self.q8, pruned=which == "pruned8")
        times[which].append((perf_counter() - t) * 1e3)
        if which == "limited16":
            want = (self.limit16, REFERENCE["seed_prefix_sha256"][str(self.limit16)])
        else:
            want = (384, REFERENCE["seeds8_sha256"])
        checks.op(
            f"seeds {which}",
            count=len(seeds) == want[0],
            digest=seed_digest(seeds) == want[1],
        )
        return seeds

    def run_pass(self, checks: Checks, times) -> int:
        """Returns the order-16 seeds found."""
        self.rng.shuffle(self.searches)
        found = {which: self._search(which, checks, times) for which in self.searches}
        self.seeds_found = sum(len(seeds) for seeds in found.values())
        pruned = found["pruned8"]
        checks.op("seeds pruned == unpruned", same=pruned == found["unpruned8"])
        order = list(pruned[: self.builds])
        self.rng.shuffle(order)
        for seed in order:
            self._build(seed, checks, times)
        return self.limit16


class Cli:
    """Serial subprocess runs of ``python -m franklin_squares.cli``.

    Each call's stdout, stderr, exit code and written files must equal
    those of the same argv run in-process through ``cli.main``.  The
    operation is one call, so interpreter start and package import
    dominate.
    """

    name = "cli"

    def __init__(self, seed: int, smoke: bool, root: Path) -> None:
        self.rng = random.Random(seed)
        self.root = root
        data = fixtures.data_dir()
        self.tmp = root / "perfbench" / "results" / f"cli-{os.getpid()}"
        self.tmp.mkdir(parents=True, exist_ok=True)
        (self.tmp / "bad.csv").write_text("1,2\n3,x\n")
        f8 = f"{data}/f8_1769.csv"
        q, r, m = "{dir}/q.csv", "{dir}/r.csv", "{dir}/m.csv"
        # Groups run in shuffled order; calls inside a group keep theirs,
        # because compose reads what decompose wrote.
        self.groups = [
            [("verify-json", ["verify", f"{data}/f40.csv", "--json"], [])],
            [("verify-text", ["verify", f"{data}/m6_franklin_1769.csv"], [])],
            [("generate", ["generate", "--preset", "f24"], [])],
            [("search", ["search", "--order", "8", "--mode", "first"], [])],
            [
                ("decompose", ["decompose", f8, "--out-q", q, "--out-r", r], [q, r]),
                ("compose", ["compose", "--q", q, "--r", r, "--out", m], [m]),
            ],
            [("malformed", ["verify", str(self.tmp / "bad.csv")], [])],
        ]
        self.f8_bytes = Path(f8).read_bytes()
        self.env = dict(os.environ, PYTHONPATH=str(root / "src"))
        self.ref_dir = self.tmp / "ref"
        self.run_dir = self.tmp / "run"
        self.ref_dir.mkdir(exist_ok=True)
        self.run_dir.mkdir(exist_ok=True)
        self.reference = {
            label: self._in_process(argv, self.ref_dir)
            for group in self.groups
            for label, argv, _ in group
        }
        self._subprocess(self.groups[1][0][1], self.run_dir)

    @staticmethod
    def is_op(kind: str) -> bool:
        return True

    is_rate = is_op

    def close(self) -> None:
        shutil.rmtree(self.tmp, ignore_errors=True)

    @staticmethod
    def _argv(argv: list[str], where: Path) -> list[str]:
        return [a.replace("{dir}", str(where)) for a in argv]

    def _files(self, outputs: list[str], where: Path) -> list[bytes]:
        return [Path(p).read_bytes() for p in self._argv(outputs, where)]

    def _in_process(self, argv, where: Path):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(self._argv(argv, where))
        return code, out.getvalue(), err.getvalue()

    def _subprocess(self, argv, where: Path):
        proc = subprocess.run(
            [sys.executable, "-m", "franklin_squares.cli", *self._argv(argv, where)],
            cwd=self.root,
            env=self.env,
            capture_output=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout.decode(), proc.stderr.decode()

    def run_pass(self, checks: Checks, times, in_process: bool = False) -> int:
        """One call of each command; ``in_process`` runs them through
        ``cli.main`` instead of a subprocess (the traced run uses it).
        Returns the calls made."""
        self.rng.shuffle(self.groups)
        run = self._in_process if in_process else self._subprocess
        calls = 0
        for group in self.groups:
            for label, argv, outputs in group:
                t = perf_counter()
                got = run(argv, self.run_dir)
                times[label].append((perf_counter() - t) * 1e3)
                calls += 1
                files = self._files(outputs, self.run_dir)
                want = self.reference[label]
                checks.op(
                    f"cli {label}",
                    exit_code=got[0] == want[0]
                    and (got[0] == 2) == (label == "malformed"),
                    stdout=got[1] == want[1],
                    stderr=got[2] == want[2],
                    files=files == self._files(outputs, self.ref_dir),
                    roundtrip=label != "compose" or files == [self.f8_bytes],
                )
        return calls


CLASSES = {"corpus": Corpus, "search": Search, "seeds": Seeds, "cli": Cli}


def make(name: str, seed: int, smoke: bool, root: Path):
    if name == "cli":
        return Cli(seed, smoke, root)
    return CLASSES[name](seed, smoke)
