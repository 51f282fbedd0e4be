"""Evaluate a square against every line-sum condition and classify it.

verify() produces a PropertyReport: one ConditionResult per condition
family (rows, columns, both main diagonals, wraparound diagonals, the four
bent families, half-lines, 2x2 subsquares) plus derived flags. It walks
lines.table(n), where each condition's lines pass at line sum m when
scale*sum == mult*m. Every failing line is reported with its actual sum,
sorted by (family, shift), so claims about exactly which lines fail are
checkable.

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

from dataclasses import dataclass
from enum import Enum

from .core import IndexTargets, Square, is_balanced, is_natural
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


@dataclass(frozen=True)
class ConditionResult:
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


@dataclass(frozen=True)
class PropertyReport:
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


def _failures(
    flat: list[int],
    n: int,
    lines: tuple[tuple[LineFamily, int, tuple[int, ...]], ...],
    scale: int,
    rhs: int,
) -> tuple[tuple[LineDescriptor, int], ...]:
    """Each line whose scale*sum differs from rhs, with its plain sum.
    Descriptors are built only for failing lines."""
    failures = []
    for family, shift, cells in lines:
        actual = 0
        for i in cells:
            actual += flat[i]
        if scale * actual != rhs:
            line = LineDescriptor(family, shift, tuple(divmod(i, n) for i in cells))
            failures.append((line, actual))
    return tuple(failures)


def _evaluate(flat: list[int], n: int, cond: Condition, m: int) -> ConditionResult:
    """One table condition at line sum m."""
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
    failures = _failures(flat, n, cond.lines, cond.scale, rhs)
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


def _flat(sq: Square) -> list[int]:
    return [v for row in sq.cells for v in row]


def check_lines(
    sq: Square,
    lines: tuple[LineDescriptor, ...],
    target: int,
    doubled: bool = False,
    condition: str = "lines",
) -> ConditionResult:
    """Sum each line over sq; a line fails when its (optionally doubled)
    sum differs from the target."""
    n = sq.order
    flat_lines = []
    for line in lines:
        for r, c in line.cells:
            if not (0 <= r < n and 0 <= c < n):
                raise ValueError(
                    f"line {line.family.value} #{line.shift} does not fit order {n}"
                )
        flat_lines.append(
            (line.family, line.shift, tuple(r * n + c for r, c in line.cells))
        )
    failures = sorted(
        _failures(_flat(sq), n, flat_lines, 2 if doubled else 1, target),
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
    return _evaluate(_flat(sq), sq.order, table(sq.order)[-1], targets.line_sum)


def verify(sq: Square, targets: IndexTargets) -> PropertyReport:
    """Check every condition family of sq at targets.line_sum."""
    n = sq.order
    if targets.order != n:
        raise ValueError(f"targets are for order {targets.order}, square is {n}")
    m = targets.line_sum
    flat = _flat(sq)
    conds = table(n)
    conditions = tuple(_evaluate(flat, n, cond, m) for cond in conds)

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


@dataclass(frozen=True)
class ClassifyOutcome:
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
