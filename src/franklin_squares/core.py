"""Fundamental value types and index-number arithmetic for square grids.

A Square is an immutable order-n grid of integers. An AuxPair bundles a
quotient and a remainder square whose values live in 0..n-1. IndexTargets
carries the line-sum target (m for natural squares, the auxiliary constant
for quotient/remainder squares); lines.table derives every condition's
target from it.

The public constructors check every value. A Square or AuxPair the
package builds itself, from ints it has just checked, is stored by the
private _Value._of with no second scan. is_natural and
is_balanced are decided once per square.

Cell values are plain Python integers, so arbitrarily large orders cannot
overflow. Indices are 0-based everywhere; reports meant for humans do
their own 1-based formatting.
"""

from __future__ import annotations

from collections.abc import Iterable, Sequence
from itertools import chain

# Stores a field past the frozen __setattr__, as a validating __init__ does.
_set = object.__setattr__


def _require(name: str, value, kind: type = int):
    """value, if it is a kind (an int is not a bool); else ValueError."""
    if isinstance(value, kind) and not (kind is int and isinstance(value, bool)):
        return value
    raise ValueError(f"{name} must be {kind.__name__}, got {value!r}")


class _Signature:
    """A _Value class's __signature__: for a class whose __init__ takes
    *args, as the shared one does, its fields as the parameters of a def
    that stores them, each with its annotation and class-level default;
    None for a class with its own parameters, so inspect reads its
    __init__. It is built only when inspect or help asks, so importing the
    package does not load inspect."""

    def __get__(self, obj, cls):
        import inspect

        if not cls.__init__.__code__.co_flags & inspect.CO_VARARGS:
            return None
        notes = cls.__annotations__
        P = inspect.Parameter
        kind = P.POSITIONAL_OR_KEYWORD
        params = [
            P(name, kind, default=getattr(cls, name, P.empty), annotation=notes[name])
            for name in cls.__match_args__
        ]
        return inspect.Signature(params, return_annotation="None")


class _Value:
    """Base of the immutable value types.

    A subclass declares each field once, as a class annotation; names
    that start with "_" are not fields. __match_args__ lists the fields
    in declaration order; a subclass that declares none keeps its base's.
    The shared __init__ binds its arguments to the fields as a def with
    those parameters would, a class-level value (``scale: int = 1``)
    being the field's default, and raises TypeError for a missing,
    unknown, repeated or surplus argument; __signature__ shows those
    parameters to inspect and help. A type that checks or converts its
    arguments writes its own __init__ and stores each field with _set;
    _of builds an instance of such a type without its checks, for values
    the package has just built from checked parts.

    repr shows the fields as a dataclass does; == holds between instances
    of one class whose fields compare equal, and hash is the hash of the
    fields' tuple; a subclass may compare fewer fields by its own _key, or
    compare by identity. Assigning or deleting an attribute raises
    AttributeError. These are plain classes rather than dataclasses
    because importing dataclasses and building each class by exec is a
    large share of the CLI's start-up time.
    """

    __match_args__: tuple[str, ...] = ()
    __signature__ = _Signature()

    def __init_subclass__(cls) -> None:
        """Lists the class's annotated fields in __match_args__, and as a
        set in _names."""
        fields = tuple(n for n in cls.__annotations__ if not n.startswith("_"))
        if fields:
            cls.__match_args__ = fields
            cls._names = frozenset(fields)

    def __init__(self, *args, **kwargs) -> None:
        # One value per field, all by name, is stored in one step; any
        # other call is bound field by field.
        if args or kwargs.keys() != self._names:
            kwargs = self._bind(args, kwargs)
        self.__dict__.update(kwargs)

    @classmethod
    def _of(cls, *values):
        """The instance whose fields, in order, hold values, stored with no
        check: the caller has proved all that the type's __init__ checks."""
        obj = object.__new__(cls)
        obj.__dict__.update(zip(cls.__match_args__, values))
        return obj

    def _bind(self, args: tuple, kwargs: dict) -> dict:
        """Each field's value, in field order, from any other call."""
        cls = type(self)
        fields, name = cls.__match_args__, cls.__qualname__
        if len(args) > len(fields):
            raise TypeError(f"{name}() takes {len(fields)} arguments, got {len(args)}")
        given = dict(zip(fields, args))
        for key, value in kwargs.items():
            if key not in cls._names:
                raise TypeError(f"{name}() got an unexpected argument {key!r}")
            if key in given:
                raise TypeError(f"{name}() got multiple values for {key!r}")
            given[key] = value
        for field in fields:
            if field not in given:
                if not hasattr(cls, field):
                    raise TypeError(f"{name}() missing argument {field!r}")
                given[field] = getattr(cls, field)
        return {field: given[field] for field in fields}

    def __setattr__(self, name: str, value) -> None:
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"cannot delete field {name!r}")

    def _key(self) -> tuple:
        """The values == and hash compare."""
        return tuple(getattr(self, name) for name in self.__match_args__)

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._key() == other._key()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._key())

    def __repr__(self) -> str:
        fields = ", ".join(
            f"{name}={getattr(self, name)!r}" for name in self.__match_args__
        )
        return f"{type(self).__qualname__}({fields})"


def magic_constant(n: int) -> int:
    """Line-sum target of a natural order-n square: n(n^2 + 1)/2."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    return n * (n * n + 1) // 2


def aux_constant(n: int) -> int:
    """Line-sum target of a balanced order-n square: n(n - 1)/2."""
    if n < 1:
        raise ValueError(f"order must be >= 1, got {n}")
    return n * (n - 1) // 2


class Square(_Value):
    """Immutable order-n grid, row-major, indexed cells[r][c]. Rows given
    as lists or other sequences are stored as tuples."""

    cells: tuple[tuple[int, ...], ...]

    def __init__(self, cells: tuple[tuple[int, ...], ...]) -> None:
        n = len(cells)
        if n < 1:
            raise ValueError("square must have at least one row")
        frozen = type(cells) is tuple
        for row in cells:
            if len(row) != n:
                raise ValueError(
                    f"ragged square: expected {n} columns, got {len(row)}"
                )
            if type(row) is not tuple:
                frozen = False
            for v in row:
                if type(v) is not int:
                    _require("cell value", v)
        _set(self, "cells", cells if frozen else tuple(map(tuple, cells)))

    @classmethod
    def from_rows(cls, rows: Iterable[Sequence[int]]) -> "Square":
        return cls(tuple(tuple(row) for row in rows))

    @property
    def order(self) -> int:
        return len(self.cells)

    def to_lists(self) -> list[list[int]]:
        return [list(row) for row in self.cells]


class AuxPair(_Value):
    """A quotient/remainder pair of equal order with values in 0..n-1."""

    quotient: Square
    remainder: Square

    def __init__(self, quotient: Square, remainder: Square) -> None:
        n = quotient.order
        if remainder.order != n:
            raise ValueError(
                f"order mismatch: quotient {n}, remainder {remainder.order}"
            )
        for name, sq in (("quotient", quotient), ("remainder", remainder)):
            for row in sq.cells:
                for v in row:
                    if not 0 <= v < n:
                        raise ValueError(
                            f"{name} value {v} outside 0..{n - 1}"
                        )
        _set(self, "quotient", quotient)
        _set(self, "remainder", remainder)

    @property
    def order(self) -> int:
        return self.quotient.order


class IndexTargets(_Value):
    """A line-sum target m for one order, both ints (a bool is not).

    The half-line and subsquare conditions compare 2*sum == m and
    n*sum == 4*m (see lines.table), so odd targets such as 111 stay in
    integer arithmetic.
    """

    order: int
    line_sum: int

    def __init__(self, order: int, line_sum: int) -> None:
        if _require("order", order) < 1:
            raise ValueError(f"order must be >= 1, got {order}")
        _set(self, "order", order)
        _set(self, "line_sum", _require("line_sum", line_sum))

    @classmethod
    def natural(cls, n: int) -> "IndexTargets":
        return cls(n, magic_constant(n))

    @classmethod
    def balanced(cls, n: int) -> "IndexTargets":
        return cls(n, aux_constant(n))


# is_natural and is_balanced keep their answer on the square, as _natural
# and _balanced: not fields, so ==, hash and repr do not see them.
def is_natural(sq: Square) -> bool:
    """True iff the cells are exactly the multiset {1, 2, ..., n^2};
    decided once per square."""
    known = sq.__dict__.get("_natural")
    if known is None:
        n = sq.order
        known = sorted(chain.from_iterable(sq.cells)) == list(range(1, n * n + 1))
        _set(sq, "_natural", known)
    return known


def is_balanced(sq: Square) -> bool:
    """True iff every value in 0..n-1 occurs exactly n times; decided
    once per square."""
    known = sq.__dict__.get("_balanced")
    if known is None:
        n = sq.order
        counts = [0] * n
        for v in chain.from_iterable(sq.cells):
            if not 0 <= v < n:
                known = False
                break
            counts[v] += 1
        else:
            known = counts.count(n) == n
        _set(sq, "_balanced", known)
    return known
