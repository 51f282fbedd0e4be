"""In-memory spans around the package's public functions.

A span records a name, an optional tag (for example the line family a
``family_lines`` call built), its start and end, and the span that was open
when it began.  A span's self time is its duration minus that of its
children.  Wrappers are installed at every place a function is bound, not
only where it is defined: ``search.verify``, ``patterns.verify`` and the
package's re-export ``franklin_squares.verify`` are separate references to
the same function, and each call site must be seen.  Nothing that runs per
search placement is wrapped.
"""

from __future__ import annotations

import contextlib
import functools
import sys
from collections import defaultdict
from time import perf_counter

from franklin_squares import lines


# The condition groups of the line families, as verify reports them.
LINE_GROUPS = {
    "rows": (lines.LineFamily.ROW,),
    "columns": (lines.LineFamily.COLUMN,),
    "diagonals": (lines.LineFamily.MAIN_DIAGONAL, lines.LineFamily.CROSS_DIAGONAL),
    "pandiagonals": (lines.LineFamily.PANDIAG_DOWNRIGHT, lines.LineFamily.PANDIAG_DOWNLEFT),
    "bent": lines.BENT_FAMILIES,
    "half_lines": lines.HALF_LINE_FAMILIES,
    "subsquares": (lines.LineFamily.SUBSQUARE_2x2,),
}
_FAMILY_GROUP = {f: group for group, families in LINE_GROUPS.items() for f in families}


def _condition_group(condition: str) -> str:
    if condition.startswith("bent_"):
        return "bent"
    if condition.endswith("_diagonal"):
        return "diagonals"
    return condition


# module, function, and how to tag a call from its arguments
TARGETS = (
    ("core", "is_natural", None),
    ("core", "is_balanced", None),
    ("lines", "family_lines", lambda a, k: _FAMILY_GROUP[a[1]]),
    ("verify", "check_lines", lambda a, k: _condition_group(k.get("condition", "lines"))),
    ("verify", "verify", None),
    ("verify", "classify", None),
    ("composition", "compose", None),
    ("composition", "decompose", None),
    ("composition", "is_orthogonal", None),
    ("formats", "parse_square_csv", None),
    ("formats", "square_to_csv", None),
    ("formats", "report_to_json", None),
    ("formats", "outcome_to_dict", None),
    ("fixtures", "load", None),
    ("patterns", "expand_quotient", None),
    ("patterns", "expand_remainder", None),
    ("patterns", "generate", None),
    ("patterns", "preset", None),
    (
        "patterns",
        "find_remainder_seeds",
        lambda a, k: f"n{a[0]}.{'pruned' if k.get('pruned', True) else 'unpruned'}",
    ),
    ("search", "search_natural_franklin", lambda a, k: a[0].mode.value),
    ("cli", "main", None),
)


class Tracer:
    """Collects spans while installed; ``installed()`` restores on exit."""

    def __init__(self) -> None:
        # [name, tag, start, end, parent index]
        self.spans: list[list] = []
        self._stack: list[int] = []

    def _wrap(self, name: str, fn, tag_of):
        spans, stack, clock = self.spans, self._stack, perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            tag = tag_of(args, kwargs) if tag_of else ""
            spans.append([name, tag, clock(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                return fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][3] = clock()

        return traced

    @contextlib.contextmanager
    def installed(self):
        """Wrap every target in every loaded package module that holds a
        reference to it."""
        modules = [
            m for n, m in list(sys.modules.items())
            if n == "franklin_squares" or n.startswith("franklin_squares.")
        ]
        patched = []
        for mod_name, fn_name, tag_of in TARGETS:
            home = sys.modules[f"franklin_squares.{mod_name}"]
            original = getattr(home, fn_name, None)
            if original is None:
                continue
            wrapper = self._wrap(f"{mod_name}.{fn_name}", original, tag_of)
            for module in modules:
                for attr, value in list(vars(module).items()):
                    if value is original:
                        setattr(module, attr, wrapper)
                        patched.append((module, attr, original))
        try:
            yield self
        finally:
            for module, attr, original in patched:
                setattr(module, attr, original)

    def summary(self) -> "Summary":
        return Summary(self.spans)


class Summary:
    """Per-name and per-(name, tag) call counts, total and self times (ms)."""

    def __init__(self, spans: list[list]) -> None:
        child = [0.0] * len(spans)
        for name, tag, start, end, parent in spans:
            if parent >= 0:
                child[parent] += end - start
        self.calls = defaultdict(int)
        self.total_ms = defaultdict(float)
        self.self_ms = defaultdict(float)
        self.layer_self_ms = defaultdict(float)
        # span time keyed by (name, parent name, parent tag)
        self.under_ms = defaultdict(float)
        self.under_calls = defaultdict(int)
        for i, (name, tag, start, end, parent) in enumerate(spans):
            dur = (end - start) * 1e3
            own = dur - child[i] * 1e3
            for key in (name, (name, tag)):
                self.calls[key] += 1
                self.total_ms[key] += dur
                self.self_ms[key] += own
            self.layer_self_ms[name.split(".")[0]] += own
            if parent >= 0:
                p_name, p_tag = spans[parent][0], spans[parent][1]
                self.under_ms[(name, p_name, p_tag)] += dur
                self.under_calls[(name, p_name, p_tag)] += 1
