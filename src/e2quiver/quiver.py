"""Type-A quivers on integer vertex labels and their doubles.

The infinite linear quiver (vertices Z, arrows i -> i+1) is never
materialized: every finite-dimensional representation is supported on
finitely many vertices, so all operations take a finite ``Window`` [a, b]
whose vertices carry absolute integer labels.  Windows of the same ambient
quiver therefore compose consistently.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from types import MappingProxyType
from typing import Collection, Iterable, Iterator, Mapping

from .linalg import cut, shown

# The largest window width, number of End unknowns (the sum of d_v^2 over the
# weights, framing dimensions counted the same way) and number of partition
# boxes that a JSON input may describe.  It is four times the 512 unknowns of
# a sum of twelve thin indecomposables; the tests, demos and benchmark build
# at most 73 (the 28-box staircase with its framing).  On a 2-vCPU Xeon host
# `end-algebra` on one weight space of dimension 45 (2,025 unknowns) takes
# 6.4 s and 113 MB.
SIZE_LIMIT = 2048


def check_size(what: str, n: int) -> None:
    """Refuse an input read from JSON whose size n is over SIZE_LIMIT."""
    if n > SIZE_LIMIT:
        raise ValueError(f"{what} {cut(n)} is over the limit of {SIZE_LIMIT}")


def json_object(value: object, what: str) -> Mapping:
    """value when it is a JSON object, else ValueError naming what."""
    if not isinstance(value, Mapping):
        raise ValueError(f"{what} must be a JSON object, got {type(value).__name__}")
    return value


def json_fields(value: object, what: str, known: Collection[str]) -> Mapping:
    """value when it is a JSON object with no key outside known (so that a
    document of another kind is refused), else ValueError naming the keys."""
    unknown = sorted(set(json_object(value, what)) - set(known))
    if unknown:
        raise ValueError(f"unknown keys in {what}: {shown(unknown)}")
    return value


def json_int(value: object, what: str) -> int:
    """value when it is a JSON integer; a bool, float or string raises ValueError."""
    if type(value) is not int:
        raise ValueError(f"{what} must be an integer, got {shown(value)}")
    return value


# The only string form of a weight, the integer part of linalg's rational
# form: "+" signs, underscores, whitespace and non-ASCII digits are refused.
_WEIGHT = re.compile(r"-?[0-9]+")


def json_weight(key: object, what: str) -> int:
    """A weight written as a JSON object key, a string "-?digits", or given
    from Python as an int (not a bool); anything else raises ValueError
    naming what."""
    if type(key) is int:
        return key
    if not isinstance(key, str) or not _WEIGHT.fullmatch(key):
        raise ValueError(f"{what} must be a weight of the form -?digits, got {shown(key)}")
    return int(key)


def json_weight_object(value: object, what: str) -> dict[int, object]:
    """A JSON object keyed by weights, its keys read by json_weight.  Two
    spellings of one weight ("1", "01") raise ValueError."""
    out = {}
    for key, v in json_object(value, what).items():
        k = json_weight(key, f"{what} key")
        if k in out:
            raise ValueError(f"{what} names weight {cut(k)} twice")
        out[k] = v
    return out


class Frozen:
    """Base of the immutable values, and the one home of their value
    protocol.  Assigning or deleting an attribute raises AttributeError.
    Their own code sets attributes through _set, which stores a dict as a
    read-only mapping: the constructor does, and so does the first check
    that fills a cache slot with a result that depends only on the value
    (two threads that fill one slot store equal results, so a race only
    repeats the work).  A leading underscore marks a cache slot, which no
    value, comparison or pickle includes; the other slots, in the order of
    the constructor's arguments, are the value.  Objects of one type with
    equal values are equal, and no value is hashable.  Pickling and copying
    go through the constructor (__reduce__), so the value is checked again
    and the cache slots start empty."""

    __slots__ = ()

    def _set(self, **values: object) -> None:
        for name, value in values.items():
            object.__setattr__(self, name, MappingProxyType(value) if type(value) is dict else value)

    def _value(self) -> Iterator[object]:
        return (getattr(self, name) for name in type(self).__slots__ if name[0] != "_")

    def __eq__(self, other: object) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        return all(a == b for a, b in zip(self._value(), other._value()))

    def __reduce__(self):
        return type(self), tuple(dict(v) if type(v) is MappingProxyType else v for v in self._value())

    def __setattr__(self, name: str, value: object) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot set {name}")

    def __delattr__(self, name: str) -> None:
        raise AttributeError(f"{type(self).__name__} is immutable: cannot delete {name}")


class DimensionVector:
    """Finitely supported map from integer weights to multiplicities >= 0.

    Lookups outside the support return 0.  Values are canonical: zero entries
    are dropped, so equality and hashing see only the support.
    """

    __slots__ = ("_entries",)

    def __init__(self, entries: Mapping[int, int] | Iterable[tuple[int, int]] = ()):
        items = entries.items() if isinstance(entries, Mapping) else entries
        d: dict[int, int] = {}
        for k, n in items:
            k = int(k)
            n = int(n)
            if n < 0:
                raise ValueError(f"negative multiplicity {cut(n)} at weight {cut(k)}")
            if n > 0:
                d[k] = d.get(k, 0) + n
        self._entries = d

    @classmethod
    def unit(cls, k: int, n: int = 1) -> "DimensionVector":
        """The vector n * e^k."""
        return cls({k: n})

    def __getitem__(self, k: int) -> int:
        return self._entries.get(k, 0)

    def support(self) -> tuple[int, ...]:
        return tuple(sorted(self._entries))

    def items(self) -> Iterator[tuple[int, int]]:
        return iter(sorted(self._entries.items()))

    def total(self) -> int:
        return sum(self._entries.values())

    def is_zero(self) -> bool:
        return not self._entries

    def shift(self, n: int) -> "DimensionVector":
        """Weight k becomes k + n."""
        return DimensionVector({k + n: v for k, v in self._entries.items()})

    def __add__(self, other: "DimensionVector") -> "DimensionVector":
        return DimensionVector([*self._entries.items(), *other._entries.items()])

    def __eq__(self, other: object) -> bool:
        if not isinstance(other, DimensionVector):
            return NotImplemented
        return self._entries == other._entries

    def __hash__(self) -> int:
        return hash(tuple(sorted(self._entries.items())))

    def __repr__(self) -> str:
        if not self._entries:
            return "DimensionVector()"
        body = ", ".join(f"{k}: {v}" for k, v in sorted(self._entries.items()))
        return f"DimensionVector({{{body}}})"

    def to_json_dict(self) -> dict[str, int]:
        return {str(k): v for k, v in sorted(self._entries.items())}

    @classmethod
    def from_json_dict(cls, data: object) -> "DimensionVector":
        """Parse {"weight": multiplicity}.  Weights are read by json_weight,
        and multiplicities must be JSON integers: a float, a bool or a string
        is rejected, not converted."""
        data = json_weight_object(data, "dimension vector")
        return cls({k: json_int(v, f"multiplicity at weight {cut(k)}") for k, v in data.items()})


@dataclass(frozen=True)
class Window:
    """Vertex interval [a, b] of the linear quiver; arrows h_i for a <= i < b."""

    a: int
    b: int

    def __post_init__(self) -> None:
        if self.a > self.b:
            raise ValueError(f"empty window [{cut(self.a)}, {cut(self.b)}]")

    @property
    def width(self) -> int:
        return self.b - self.a

    def vertices(self) -> range:
        return range(self.a, self.b + 1)

    def arrow_indices(self) -> range:
        return range(self.a, self.b)

    def contains(self, k: int) -> bool:
        return self.a <= k <= self.b

    def union(self, other: "Window") -> "Window":
        return Window(min(self.a, other.a), max(self.b, other.b))


@dataclass(frozen=True)
class Arrow:
    """Arrow of the double quiver: h_i (i -> i+1) or its reverse hbar_i (i+1 -> i)."""

    index: int
    reverse: bool = False

    @property
    def source(self) -> int:
        return self.index + 1 if self.reverse else self.index

    @property
    def target(self) -> int:
        return self.index if self.reverse else self.index + 1

    @property
    def name(self) -> str:
        return f"hbar{self.index}" if self.reverse else f"h{self.index}"

    def __repr__(self) -> str:
        return self.name


def window_of_support(v: DimensionVector) -> Window:
    """Smallest window containing the support of a nonzero dimension vector.

    Interior weights of multiplicity zero are included: the support {2, 5}
    yields [2, 5].
    """
    support = v.support()
    if not support:
        raise ValueError("zero dimension vector has no support window")
    return Window(support[0], support[-1])


def double_arrows(w: Window) -> list[Arrow]:
    """Arrows of the double quiver on w, in the serialization order:
    forward arrows ascending by index, then reversed arrows ascending."""
    forward = [Arrow(i) for i in w.arrow_indices()]
    backward = [Arrow(i, reverse=True) for i in w.arrow_indices()]
    return forward + backward
