"""Evaluate a square against every line-sum condition and classify it.

verify() produces a PropertyReport: one ConditionResult per condition
family (rows, columns, both main diagonals, wraparound diagonals, the four
bent families, half-lines, 2x2 subsquares) plus derived flags. It reads
lines.table(n), where each condition's lines pass at line sum m when
scale*sum == mult*m. One gather, built once per order, gives every line
sum of the table in one pass: an itemgetter over the cells of every line
in table order, its values summed a run of equal-width lines at a time,
and each condition takes its slice of the sums. A condition passes when
mult*m % scale == 0 and each of its sums is mult*m // scale; only one
that misses is scanned for its failing lines. Every failing line is
reported with its actual sum, sorted by (family, shift), so claims about
exactly which lines fail are checkable. check_lines sums its lines the
same way.

Reports share every part that depends only on the order, the line and the
target. A failing line's LineDescriptor is built once per line per
process, the first time the line fails, and kept with lines.table(n). A
result no line fails (PASSED, or NOT_APPLICABLE) is one value per
(order, condition, line sum), held in a bounded least-recently-used cache.

Status semantics:
  PASSED / FAILED     the condition was checked line by line.
  NOT_APPLICABLE      the geometry does not exist (odd order has no bent
                      diagonals, half-lines, or aligned subsquare grid).
  UNSATISFIABLE       the geometry exists but no square could pass:
                      mult*m % scale != 0, that is an odd m for the
                      half-lines (2*sum == m) or an m with 4m not divisible
                      by n for the subsquares (n*sum == 4m). Failing lines
                      are still listed with actual sums.

Half-lines are reported as a doubled comparison (target m, "doubled"
true); subsquares report the target 4m/n, or none when it is not an
integer. A square is Franklin when rows, columns, all four bent families,
all half-lines, and all subsquares pass; the flag is false whenever any
of those sections is not PASSED, including structurally unsatisfiable
sections.
"""

from __future__ import annotations

from collections.abc import Callable, Sequence
from enum import Enum
from functools import lru_cache
from itertools import accumulate, chain, groupby, islice
from operator import itemgetter

from .core import IndexTargets, Square, _require, _Value, is_balanced, is_natural
from .lines import Condition, LineDescriptor, LineFamily, table

# Labels a square can carry, in report order; each names the
# PropertyReport flag it reads, with "-" for "_".
LABELS = (
    "natural",
    "balanced",
    "semi-magic",
    "magic",
    "pandiagonal",
    "franklin",
    "pandiagonal-franklin",
)


class ConditionStatus(Enum):
    PASSED = "passed"
    FAILED = "failed"
    NOT_APPLICABLE = "not_applicable"
    UNSATISFIABLE = "unsatisfiable"


_FAMILY_ORDER = {family: i for i, family in enumerate(LineFamily)}


class ConditionResult(_Value):
    """Outcome of one condition: which lines were checked, which failed."""

    condition: str
    status: ConditionStatus
    target: int | None
    doubled: bool
    lines_checked: int
    failures: tuple[tuple[LineDescriptor, int], ...]

    @property
    def passed(self) -> bool:
        return self.status is ConditionStatus.PASSED


class PropertyReport(_Value):
    """Full verification report for one square at one target."""

    order: int
    targets: IndexTargets
    conditions: tuple[ConditionResult, ...]
    semi_magic: bool
    magic: bool
    pandiagonal: bool
    franklin: bool
    pandiagonal_franklin: bool
    natural: bool
    balanced: bool

    def condition(self, name: str) -> ConditionResult:
        for result in self.conditions:
            if result.condition == name:
                return result
        raise KeyError(name)

    @property
    def labels(self) -> tuple[str, ...]:
        """The labels whose flags hold, in LABELS order."""
        return tuple(
            label for label in LABELS if getattr(self, label.replace("-", "_"))
        )


def _summer(lines: list[tuple[int, ...]]) -> Callable[[Sequence[int]], list[int]]:
    """The function from a row-major cell sequence to the sum of each of
    lines (tuples of flat cell indexes), in order.

    One itemgetter gathers the cells of every line at once; each run of
    lines of one width w is then summed w gathered values at a time.
    """
    cells = list(chain.from_iterable(lines))
    runs = [(width, len(list(run))) for width, run in groupby(map(len, lines))]
    # A getter of one cell returns a bare value and one of none raises,
    # so those read a slice, which is a list either way.
    if len(cells) < 2:
        cells = [slice(cells[0], cells[0] + 1) if cells else slice(0)]
    get = itemgetter(*cells)

    def sums(flat: Sequence[int]) -> list[int]:
        values = iter(get(flat))
        out: list[int] = []
        for width, count in runs:
            # zip() of no iterables yields nothing: a line of no cells sums to 0.
            out += map(sum, islice(zip(*[values] * width), count)) if width else [0] * count
        return out

    return sums


@lru_cache(maxsize=None)
def _gather(n: int, first: int = 0):
    """The summer of every line of table(n)[first:], in table order, and
    each of those conditions' (start, end) among its sums; built once per
    order."""
    conds = table(n)[first:]
    ends = list(accumulate(len(cond.lines) for cond in conds))
    bounds = tuple(zip([0, *ends], ends))
    return _summer([cells for cond in conds for _f, _s, cells in cond.lines]), bounds


def _failures(
    sums: list[int],
    n: int,
    lines: tuple[tuple[LineFamily, int, tuple[int, ...]], ...],
    descriptors: list[LineDescriptor | None] | tuple[LineDescriptor, ...],
    scale: int,
    rhs: int,
) -> tuple[tuple[LineDescriptor, int], ...]:
    """Each line whose scale*sum differs from rhs, with its plain sum;
    sums[k] is the sum of lines[k].

    descriptors[k] describes lines[k]. A None entry is filled in the first
    time its line fails, so descriptors are built once per line per
    process and shared by every report that lists the line. (Two threads
    that fail a new line at once may each build it; the values are equal.)
    """
    failures = []
    for k, actual in enumerate(sums):
        if scale * actual != rhs:
            line = descriptors[k]
            if line is None:
                family, shift, cells = lines[k]
                pairs = [divmod(i, n) for i in cells]
                line = descriptors[k] = LineDescriptor(family, shift, pairs)
            failures.append((line, actual))
    return tuple(failures)


def _result(
    cond: Condition, m: int, failures: tuple[tuple[LineDescriptor, int], ...]
) -> ConditionResult:
    """One table condition at line sum m, given its failing lines."""
    if not cond.lines:
        return ConditionResult(
            condition=cond.name,
            status=ConditionStatus.NOT_APPLICABLE,
            target=None,
            doubled=False,
            lines_checked=0,
            failures=(),
        )
    rhs = cond.mult * m
    exact = cond.satisfiable(m)
    if not exact:
        status = ConditionStatus.UNSATISFIABLE
    elif failures:
        status = ConditionStatus.FAILED
    else:
        status = ConditionStatus.PASSED
    if cond.doubled:
        target = rhs
    else:
        target = rhs // cond.scale if exact else None
    return ConditionResult(
        condition=cond.name,
        status=status,
        target=target,
        doubled=cond.doubled,
        lines_checked=len(cond.lines),
        failures=failures,
    )


# Bound on the shared failure-free results, one per table condition (an
# order and section) and line sum, least recently used evicted first;
# one pass of the benchmark's corpus workload uses 71.
_SHARED_RESULTS = 256


@lru_cache(maxsize=_SHARED_RESULTS)
def _clean_result(cond: Condition, m: int) -> ConditionResult:
    """The shared result of a table condition no line fails: PASSED, or
    NOT_APPLICABLE where the condition has no lines at its order."""
    return _result(cond, m, ())


def _evaluate(n: int, cond: Condition, m: int, sums: list[int]) -> ConditionResult:
    """One table condition at line sum m, given its lines' sums. Only a
    condition some line misses is scanned for its failing lines."""
    rhs = cond.mult * m
    if rhs % cond.scale or sums.count(rhs // cond.scale) != len(sums):
        failures = _failures(sums, n, cond.lines, cond._descriptors, cond.scale, rhs)
        if failures:
            return _result(cond, m, failures)
    return _clean_result(cond, m)


def _flat(sq: Square) -> list[int]:
    return list(chain.from_iterable(sq.cells))


def check_lines(
    sq: Square,
    lines: tuple[LineDescriptor, ...],
    target: int,
    doubled: bool = False,
    condition: str = "lines",
) -> ConditionResult:
    """Sum each line over sq; a line fails when its (optionally doubled)
    sum differs from the target. A non-int target (a bool is not an int), a
    non-bool doubled, a non-str condition or a cell off the grid raises
    ValueError."""
    _require("target", target)
    _require("doubled", doubled, bool)
    _require("condition", condition, str)
    n = sq.order
    flat_lines = []
    for line in lines:
        flat = tuple([r * n + c for r, c in line.cells if 0 <= r < n and 0 <= c < n])
        if len(flat) != len(line.cells):
            raise ValueError(
                f"line {line.family.value} #{line.shift} does not fit order {n}"
            )
        flat_lines.append((line.family, line.shift, flat))
    sums = _summer([cells for _f, _s, cells in flat_lines])(_flat(sq))
    failures = sorted(
        _failures(sums, n, flat_lines, lines, 2 if doubled else 1, target),
        key=lambda f: (_FAMILY_ORDER[f[0].family], f[0].shift),
    )
    return ConditionResult(
        condition=condition,
        status=ConditionStatus.FAILED if failures else ConditionStatus.PASSED,
        target=target,
        doubled=doubled,
        lines_checked=len(lines),
        failures=tuple(failures),
    )


def _subsquare_result(sq: Square, targets: IndexTargets) -> ConditionResult:
    """The subsquares section of verify(sq, targets)."""
    n = sq.order
    sums, _bounds = _gather(n, -1)
    return _evaluate(n, table(n)[-1], targets.line_sum, sums(_flat(sq)))


def verify(sq: Square, targets: IndexTargets) -> PropertyReport:
    """Check every condition family of sq at targets.line_sum."""
    n = sq.order
    if targets.order != n:
        raise ValueError(f"targets are for order {targets.order}, square is {n}")
    m = targets.line_sum
    conds = table(n)
    sums, bounds = _gather(n)
    values = sums(_flat(sq))
    conditions = tuple(
        _evaluate(n, cond, m, values[start:end])
        for cond, (start, end) in zip(conds, bounds)
    )

    by_name = {c.condition: c for c in conditions}
    semi_magic = by_name["rows"].passed and by_name["columns"].passed
    magic = (
        semi_magic
        and by_name["main_diagonal"].passed
        and by_name["cross_diagonal"].passed
    )
    pandiagonal = by_name["pandiagonals"].passed
    franklin = all(
        result.passed for result, cond in zip(conditions, conds) if cond.franklin
    )
    return PropertyReport(
        order=n,
        targets=targets,
        conditions=conditions,
        semi_magic=semi_magic,
        magic=magic,
        pandiagonal=pandiagonal,
        franklin=franklin,
        pandiagonal_franklin=franklin and pandiagonal,
        natural=is_natural(sq),
        balanced=is_balanced(sq),
    )


class ClassifyOutcome(_Value):
    """Labels a square earns at its automatically chosen target."""

    labels: frozenset[str]
    target_inferred: bool
    report: PropertyReport


def classify(sq: Square) -> ClassifyOutcome:
    """Pick the target from the square itself and label it.

    Natural squares are checked at n(n^2+1)/2, balanced squares at
    n(n-1)/2; anything else is checked at its first row sum and flagged
    as an inferred target.
    """
    n = sq.order
    inferred = False
    if is_natural(sq):
        targets = IndexTargets.natural(n)
    elif is_balanced(sq):
        targets = IndexTargets.balanced(n)
    else:
        targets = IndexTargets(n, sum(sq.cells[0]))
        inferred = True
    report = verify(sq, targets)
    return ClassifyOutcome(
        labels=frozenset(report.labels), target_inferred=inferred, report=report
    )
