"""Exact-arithmetic data model: instances, bundles, partitions, allocations.

All valuation magnitudes are `fractions.Fraction`; no operation anywhere in
the toolkit rounds. Agent and good indices are 1-based, with good 1 the most
valuable good in an ordered instance. Three rules used across the toolkit
live here only: `ranking` (the order of goods in every ordered view),
`partitions` (the covers-exactly-once check) and `canonical_json` (the bytes
of every JSON file the toolkit writes).
"""

from __future__ import annotations

import json
import re
from dataclasses import dataclass
from fractions import Fraction
from typing import Iterable, Sequence

from .errors import BoundsError, DomainError

_RATIONAL_TERM = re.compile(r"^[+-]?\d+(/\d+)?$")


def rat(x: int | str | Fraction) -> Fraction:
    """Parse an exact rational from an int, Fraction, or text.

    Text may be an integer ("7"), a quotient ("3/4"), or a sum of such
    terms ("3/4+3/3836"). Floating-point inputs are rejected: every
    comparison in the pipeline must be exact.
    """
    if isinstance(x, Fraction):
        return x
    if isinstance(x, bool):
        raise DomainError(f"not a rational: {x!r}")
    if isinstance(x, int):
        return Fraction(x)
    if isinstance(x, float):
        raise DomainError("floating-point values are not accepted; use 'p/q' text")
    if isinstance(x, str):
        text = x.strip()
        terms = text.split("+")
        if not terms or any(not _RATIONAL_TERM.match(t) for t in terms):
            raise DomainError(f"cannot parse rational from {text!r}")
        try:
            return sum((Fraction(t) for t in terms), Fraction(0))
        except ZeroDivisionError:
            raise DomainError(f"zero denominator in {text!r}") from None
    raise DomainError(f"cannot parse rational from {x!r}")


def rat_to_jsonable(x: Fraction) -> int | str:
    """Encode a rational as a JSON int, or "p/q" text when non-integral."""
    if x.denominator == 1:
        return int(x)
    return f"{x.numerator}/{x.denominator}"


def rat_to_text(x: Fraction) -> str:
    return str(rat_to_jsonable(x))


def jsonable_to_rat(v) -> Fraction:
    """Decode the instance-format value encoding: int, or "p/q" with p >= 0, q >= 1."""
    if isinstance(v, bool) or isinstance(v, float):
        raise DomainError(f"instance values must be integers or 'p/q' strings, got {v!r}")
    if isinstance(v, int):
        if v < 0:
            raise DomainError(f"instance values must be nonnegative, got {v}")
        return Fraction(v)
    if isinstance(v, str):
        m = re.match(r"^(\d+)(?:/(\d+))?$", v.strip())
        if not m:
            raise DomainError(f"cannot parse value {v!r}: expected 'p' or 'p/q' with p >= 0, q >= 1")
        p = int(m.group(1))
        q = int(m.group(2)) if m.group(2) else 1
        if q < 1:
            raise DomainError(f"denominator must be >= 1 in {v!r}")
        return Fraction(p, q)
    raise DomainError(f"instance values must be integers or 'p/q' strings, got {v!r}")


def ranking(row: Sequence[Fraction], goods: Iterable[int]) -> list[int]:
    """`goods` by non-increasing value in `row`, ties toward the lower good id.

    Every ordered view in the toolkit is built from this one rule. The sort is
    stable under reverse=True, so equal values keep the ascending id order.
    """
    return sorted(sorted(goods), key=lambda g: row[g - 1], reverse=True)


def partitions(groups: Iterable[Iterable[int]], ground: Iterable[int]) -> bool:
    """True iff the groups cover `ground` exactly once: no good twice, none missing or extra."""
    held = [g for group in groups for g in group]
    distinct = set(held)
    return len(held) == len(distinct) and distinct == set(ground)


@dataclass(frozen=True)
class Bundle:
    """A set of good indices (1-based), stored sorted and duplicate-free."""

    goods: tuple[int, ...] = ()

    def __post_init__(self):
        g = self.goods
        if not isinstance(g, tuple):
            object.__setattr__(self, "goods", tuple(g))
            g = self.goods
        for k, x in enumerate(g):
            if not isinstance(x, int) or isinstance(x, bool) or x < 1:
                raise DomainError(f"good indices must be integers >= 1, got {x!r}")
            if k > 0 and g[k - 1] >= x:
                raise DomainError("bundle goods must be strictly increasing; use Bundle.of()")

    @staticmethod
    def of(goods: Iterable[int]) -> "Bundle":
        return Bundle(tuple(sorted(set(goods))))

    def __iter__(self):
        return iter(self.goods)

    def __len__(self):
        return len(self.goods)

    def __contains__(self, g):
        return g in self.goods

    def union(self, other: "Bundle | Iterable[int]") -> "Bundle":
        return Bundle.of([*self.goods, *other])


@dataclass(frozen=True)
class Partition:
    """A tuple of pairwise-disjoint bundles."""

    bundles: tuple[Bundle, ...]

    def __post_init__(self):
        if not isinstance(self.bundles, tuple):
            object.__setattr__(self, "bundles", tuple(self.bundles))

    def validate(self, ground: Bundle) -> None:
        """Raise unless the bundles partition exactly `ground`."""
        if not partitions(self.bundles, ground):
            raise DomainError("bundles do not partition the ground set")

    def __iter__(self):
        return iter(self.bundles)

    def __len__(self):
        return len(self.bundles)


@dataclass(frozen=True)
class Allocation:
    """Per-agent bundles plus an explicit pool of unassigned goods."""

    bundles: tuple[Bundle, ...]
    unassigned: Bundle = Bundle()

    def __post_init__(self):
        if not isinstance(self.bundles, tuple):
            object.__setattr__(self, "bundles", tuple(self.bundles))

    @property
    def n_agents(self) -> int:
        return len(self.bundles)

    def validate(self, m: int) -> None:
        """Raise unless bundles plus the pool cover [1, m] with no overlaps."""
        if not partitions((*self.bundles, self.unassigned), range(1, m + 1)):
            raise DomainError(f"allocation does not cover [1, {m}] exactly once")


def _identity(k: int) -> tuple[int, ...]:
    return tuple(range(1, k + 1))


@dataclass(frozen=True)
class Instance:
    """A fair-division instance: n agents, m goods, exact valuation matrix.

    `agent_labels` / `good_labels` track identities through sub-instance
    construction (reductions compact indices but remember where each row and
    column came from). Freshly built instances carry identity labels.
    """

    n: int
    m: int
    values: tuple[tuple[Fraction, ...], ...]
    agent_labels: tuple[int, ...] = None  # type: ignore[assignment]
    good_labels: tuple[int, ...] = None  # type: ignore[assignment]

    def __post_init__(self):
        if self.n < 0 or self.m < 0:
            raise DomainError("n and m must be nonnegative")
        vals = tuple(tuple(row) for row in self.values)
        object.__setattr__(self, "values", vals)
        if len(vals) != self.n or any(len(row) != self.m for row in vals):
            raise DomainError(f"value matrix shape does not match n={self.n}, m={self.m}")
        for row in vals:
            for v in row:
                if not isinstance(v, Fraction):
                    raise DomainError(f"values must be Fractions, got {type(v).__name__}")
                if v < 0:
                    raise DomainError(f"values must be nonnegative, got {v}")
        if self.agent_labels is None:
            object.__setattr__(self, "agent_labels", _identity(self.n))
        else:
            object.__setattr__(self, "agent_labels", tuple(self.agent_labels))
        if self.good_labels is None:
            object.__setattr__(self, "good_labels", _identity(self.m))
        else:
            object.__setattr__(self, "good_labels", tuple(self.good_labels))
        if len(self.agent_labels) != self.n or len(self.good_labels) != self.m:
            raise DomainError("label lengths do not match n, m")

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int | str | Fraction]]) -> "Instance":
        """Build an instance from per-agent value rows (ints, 'p/q' text, or Fractions)."""
        mat = tuple(tuple(rat(v) for v in row) for row in rows)
        n = len(mat)
        m = len(mat[0]) if n else 0
        return Instance(n=n, m=m, values=mat)

    def row(self, agent: int) -> tuple[Fraction, ...]:
        if not 1 <= agent <= self.n:
            raise BoundsError(f"agent {agent} out of range [1, {self.n}]")
        return self.values[agent - 1]

    def all_goods(self) -> Bundle:
        return Bundle(_identity(self.m))


def value(inst: Instance, agent: int, bundle: Bundle | Iterable[int]) -> Fraction:
    """Exact additive value of a bundle to an agent; the empty bundle is 0."""
    row = inst.row(agent)
    total = Fraction(0)
    for g in bundle:
        if not 1 <= g <= inst.m:
            raise BoundsError(f"good {g} out of range [1, {inst.m}]")
        total += row[g - 1]
    return total


def is_ordered(inst: Instance) -> bool:
    """True iff every agent's values are non-increasing in the good index."""
    for row in inst.values:
        for j in range(1, inst.m):
            if row[j - 1] < row[j]:
                return False
    return True


# --- JSON interchange -------------------------------------------------------
#
# Instance files: {"n": int, "m": int, "values": [[v, ...], ...]} where v is a
# nonnegative integer or "p/q" text. Allocation files: {"bundles": [[good,
# ...], ...], "unassigned": [good, ...]} with 1-based good ids.


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def instance_to_jsonable(inst: Instance) -> dict:
    return {
        "n": inst.n,
        "m": inst.m,
        "values": [[rat_to_jsonable(v) for v in row] for row in inst.values],
    }


def canonical_json(obj) -> str:
    """The one file encoding: sorted keys, no spaces, one trailing newline."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def instance_to_json(inst: Instance) -> str:
    return canonical_json(instance_to_jsonable(inst))


def instance_from_jsonable(obj) -> Instance:
    if not isinstance(obj, dict):
        raise DomainError("instance JSON must be an object")
    try:
        n, m, vals = obj["n"], obj["m"], obj["values"]
    except (KeyError, TypeError) as e:
        raise DomainError(f"instance JSON missing field: {e}") from e
    if not _is_int(n) or not _is_int(m):
        raise DomainError("n and m must be integers")
    if not isinstance(vals, list) or len(vals) != n:
        raise DomainError("values must be a list of n rows")
    mat = []
    for row in vals:
        if not isinstance(row, list) or len(row) != m:
            raise DomainError("each value row must be a list of m entries")
        mat.append(tuple(jsonable_to_rat(v) for v in row))
    return Instance(n=n, m=m, values=tuple(mat))


def instance_from_json(text: str) -> Instance:
    return instance_from_jsonable(json.loads(text))


def allocation_to_jsonable(alloc: Allocation) -> dict:
    return {
        "bundles": [list(b.goods) for b in alloc.bundles],
        "unassigned": list(alloc.unassigned.goods),
    }


def allocation_to_json(alloc: Allocation) -> str:
    return canonical_json(allocation_to_jsonable(alloc))


def _goods_from_jsonable(goods) -> Bundle:
    if not isinstance(goods, list) or not all(_is_int(g) for g in goods):
        raise DomainError(f"bundles and 'unassigned' must be lists of integer good ids, got {goods!r}")
    return Bundle.of(goods)


def allocation_from_jsonable(obj) -> Allocation:
    if not isinstance(obj, dict) or "bundles" not in obj or "unassigned" not in obj:
        raise DomainError("allocation JSON must have 'bundles' and 'unassigned'")
    if not isinstance(obj["bundles"], list):
        raise DomainError("allocation 'bundles' must be a list of bundles")
    bundles = tuple(_goods_from_jsonable(b) for b in obj["bundles"])
    return Allocation(bundles=bundles, unassigned=_goods_from_jsonable(obj["unassigned"]))


def allocation_from_json(text: str) -> Allocation:
    return allocation_from_jsonable(json.loads(text))
