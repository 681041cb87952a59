"""Exact-arithmetic data model: instances, bundles, allocations.

No operation anywhere in the toolkit rounds. An instance is stored as its
integer view, each row as its numerators over L, the lcm of its reduced
denominators; its `fractions.Fraction` values are derived on first read.
Agent and good indices are 1-based, with good 1 the most valuable good in an
ordered instance. Rules used across the toolkit live here only:

- `int_row`, the one place a row's lcm is computed: values p/q to the view
  (numerators, L) in lowest terms, so equal matrices have equal views.
- `scaled_ranking`, a row's goods by value: every ordered view and the
  order of the oracle's witnesses.
- `exact`, the one gate on thresholds (alpha, eps, delta): int or Fraction.
- `partitions` (the covers-exactly-once check) and `canonical_json` (the
  bytes of every JSON file the toolkit writes).
- `value_class`, the ==, hash, repr and frozenness of every value class.
"""

from __future__ import annotations

import json
import re
import sys
from collections.abc import Iterable, Sequence
from fractions import Fraction
from functools import cached_property
from math import gcd, lcm
from operator import attrgetter

from .errors import BoundsError, DomainError

_RATIONAL_TERM = re.compile(r"[+-]?[0-9]+(/[0-9]+)?")
_VALUE_TEXT = re.compile(r"([0-9]+)(?:/([0-9]+))?")


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
        if not terms or any(not _RATIONAL_TERM.fullmatch(t) for t in terms):
            raise DomainError(f"cannot parse rational from {text!r}")
        try:
            return sum((Fraction(t) for t in terms), Fraction(0))
        except ZeroDivisionError:
            raise DomainError(f"zero denominator in {text!r}") from None
    raise DomainError(f"cannot parse rational from {x!r}")


def rat_to_jsonable(x: Fraction) -> int | str:
    """Encode a rational as a JSON int, or "p/q" text when non-integral."""
    return _ratio_jsonable(x.numerator, x.denominator)


def _ratio_jsonable(a: int, den: int) -> int | str:
    g = gcd(a, den)
    if g == den:
        return a // g
    try:
        return f"{a // g}/{den // g}"
    except ValueError:  # past the conversion limit
        raise _too_many_digits() from None


def rat_to_text(x: Fraction) -> str:
    try:
        return str(rat_to_jsonable(x))
    except ValueError:  # an integer past the conversion limit
        raise _too_many_digits() from None


def _too_many_digits() -> DomainError:
    return DomainError(f"a number has more than {sys.get_int_max_str_digits()} digits, "
                       "Python's int-string conversion limit")


def _jsonable_to_pair(v) -> tuple[int, int]:
    """An instance-file value, an int or "p/q" text with p >= 0, q >= 1, as (p, q)."""
    if isinstance(v, int) and not isinstance(v, bool):
        if v < 0:
            raise DomainError(f"instance values must be nonnegative, got {v}")
        return v, 1
    if isinstance(v, str):
        m = _VALUE_TEXT.fullmatch(v.strip())
        if not m:
            raise DomainError(f"cannot parse value {v!r}: expected 'p' or 'p/q' with p >= 0, q >= 1")
        try:
            p, q = int(m.group(1)), int(m.group(2) or 1)
        except ValueError:
            raise _too_many_digits() from None
        if q < 1:
            raise DomainError(f"denominator must be >= 1 in {v!r}")
        return p, q
    raise DomainError(f"instance values must be integers or 'p/q' strings, got {v!r}")


def exact(x: int | Fraction, name: str) -> Fraction:
    """A threshold parameter as a Fraction. Only ints and Fractions pass: a
    float such as 0.7 is a different binary number, and every threshold
    comparison in the toolkit is exact."""
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int) and not isinstance(x, bool):
        return Fraction(x)
    raise DomainError(f"{name} must be an int or a Fraction, got {x!r}")


def int_row(pairs: Iterable[tuple[int, int]]) -> tuple[tuple[int, ...], int]:
    """A row of values p/q (ints, p >= 0, q >= 1) as its numerators over L,
    the lcm of the reduced denominators: over the lcm D of the q's, divided
    by g = gcd(D, *numerators), as every common denominator is a multiple of L."""
    pairs = list(pairs)
    den = lcm(*[q for _, q in pairs])
    nums = [p * (den // q) for p, q in pairs]
    g = gcd(den, *nums)
    return (tuple(nums), den) if g == 1 else (tuple(a // g for a in nums), den // g)


def scaled_ranking(ints: Sequence[int]) -> list[int]:
    """The goods (1-based ids) of one row of the integer view, numerators
    `ints`, by non-increasing value; the stable reverse=True sort keeps ties
    on the lower good id. It sorts the numerators: all share the row's L."""
    return [k + 1 for k in sorted(range(len(ints)), key=ints.__getitem__, reverse=True)]


def partitions(groups: Iterable[Iterable[int]], ground: Iterable[int]) -> bool:
    """True iff the groups cover `ground` exactly once: no good twice, none missing or extra."""
    held = [g for group in groups for g in group]
    distinct = set(held)
    return len(held) == len(distinct) and distinct == set(ground)


def _frozen(self, name, value=None):
    raise AttributeError(f"cannot assign to or delete field {name!r}")


def value_class(*fields: str, frozen: bool = True):
    """Class decorator for a value class whose `__init__` stores the listed
    fields, its parameters in order, in the instance `__dict__`. It adds
    field-wise `==` and a repr of those fields, and for a frozen class a hash
    of them and an `AttributeError` on assigning or deleting any attribute;
    an unfrozen class is unhashable. Methods the class defines itself stay;
    one that defines `__eq__` is unhashable. Pickling and deep copies restore
    the `__dict__` directly, with the lazy fields `cached_property` keeps
    there."""

    key = attrgetter(*fields)

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return key(self) == key(other)

    def __repr__(self):
        shown = ", ".join(f"{f}={getattr(self, f)!r}" for f in fields)
        return f"{self.__class__.__qualname__}({shown})"

    methods = {"__eq__": __eq__, "__repr__": __repr__, "__hash__": None}
    if frozen:
        methods.update(__hash__=lambda self: hash(key(self)), __setattr__=_frozen, __delattr__=_frozen)

    def decorate(cls):
        for name, method in methods.items():
            if name not in cls.__dict__:
                setattr(cls, name, method)
        return cls

    return decorate


@value_class("goods")
class Bundle:
    """A set of good indices (1-based), stored sorted and duplicate-free."""

    def __init__(self, goods: tuple[int, ...] = ()):
        if not isinstance(goods, tuple):
            goods = tuple(goods)
        for k, x in enumerate(goods):
            if not isinstance(x, int) or isinstance(x, bool) or x < 1:
                raise DomainError(f"good indices must be integers >= 1, got {x!r}")
            if k > 0 and goods[k - 1] >= x:
                raise DomainError("bundle goods must be strictly increasing; use Bundle.of()")
        self.__dict__["goods"] = goods

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


@value_class("bundles", "unassigned")
class Allocation:
    """Per-agent bundles plus an explicit pool of unassigned goods."""

    def __init__(self, bundles: tuple[Bundle, ...], unassigned: Bundle = Bundle()):
        if not isinstance(bundles, tuple):
            bundles = tuple(bundles)
        self.__dict__.update(bundles=bundles, unassigned=unassigned)

    @property
    def n_agents(self) -> int:
        return len(self.bundles)

    def validate(self, m: int) -> None:
        """Raise unless bundles plus the pool cover [1, m] with no overlaps."""
        if not partitions((*self.bundles, self.unassigned), range(1, m + 1)):
            raise DomainError(f"allocation does not cover [1, {m}] exactly once")


@value_class("n", "m", "int_rows")
class Instance:
    """n agents, m goods and the integer view of the valuation matrix: per
    agent, (numerators, L) in lowest terms, as `int_row` builds it. Equal
    matrices give equal views, hence equal instances with equal hashes."""

    def __init__(self, n: int, m: int, int_rows: tuple[tuple[tuple[int, ...], int], ...]):
        try:
            view = tuple((tuple(nums), den) for nums, den in int_rows)
        except (TypeError, ValueError):
            raise DomainError("int_rows must be (numerators, L) pairs") from None
        if min(n, m) < 0 or len(view) != n or any(len(a) != m for a, _ in view):
            raise DomainError(f"value matrix shape does not match n={n}, m={m}")
        for nums, den in view:
            if (type(den) is not int or not set(map(type, nums)) <= {int} or den < 1
                    or min(nums, default=0) < 0 or gcd(den, *nums) != 1):
                raise DomainError(f"values must be nonnegative ints over an int L >= 1 in "
                                  f"lowest terms, got {nums!r} over {den!r}")
        self.__dict__.update(n=n, m=m, int_rows=view)

    @staticmethod
    def from_rows(rows: Iterable[Iterable[int | str | Fraction]]) -> "Instance":
        """Build an instance from per-agent value rows (ints, 'p/q' text, or Fractions)."""
        view = tuple(int_row((v.numerator, v.denominator) for v in map(rat, row)) for row in rows)
        return Instance(n=len(view), m=len(view[0][0]) if view else 0, int_rows=view)

    @cached_property
    def values(self) -> tuple[tuple[Fraction, ...], ...]:
        """The valuation matrix in Fractions, derived from the view on first read."""
        return tuple(tuple(Fraction(a, den) for a in nums) for nums, den in self.int_rows)

    def all_goods(self) -> Bundle:
        return Bundle(tuple(range(1, self.m + 1)))


def value(inst: Instance, agent: int, bundle: Bundle | Iterable[int]) -> Fraction:
    """Exact additive value of a bundle to an agent: its numerators' sum over L."""
    if not 1 <= agent <= inst.n:
        raise BoundsError(f"agent {agent} out of range [1, {inst.n}]")
    nums, den = inst.int_rows[agent - 1]
    total = 0
    for g in bundle:
        if not 1 <= g <= inst.m:
            raise BoundsError(f"good {g} out of range [1, {inst.m}]")
        total += nums[g - 1]
    return Fraction(total, den)


def is_ordered(inst: Instance) -> bool:
    """True iff every agent's values are non-increasing in the good index."""
    return all(a >= b for nums, _ in inst.int_rows for a, b in zip(nums, nums[1:]))


# --- JSON interchange -------------------------------------------------------
#
# Instance files: {"n": int, "m": int, "values": [[v, ...], ...]} where v is a
# nonnegative integer or "p/q" text. Allocation files: {"bundles": [[good,
# ...], ...], "unassigned": [good, ...]} with 1-based good ids.


def _is_int(x) -> bool:
    return isinstance(x, int) and not isinstance(x, bool)


def instance_to_jsonable(inst: Instance) -> dict:
    rows = [list(nums) if den == 1 else [_ratio_jsonable(a, den) for a in nums]
            for nums, den in inst.int_rows]
    return {"n": inst.n, "m": inst.m, "values": rows}


def canonical_json(obj) -> str:
    """The one file encoding: sorted keys, no spaces, one trailing newline.
    An int past the int-string conversion limit is a `DomainError`: results
    can have longer numbers than the input they were computed from."""
    try:
        return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"
    except ValueError:
        raise _too_many_digits() from None


def instance_to_json(inst: Instance) -> str:
    return canonical_json(instance_to_jsonable(inst))


def _parse_json(text: str):
    try:
        return json.loads(text)
    except json.JSONDecodeError as e:
        raise DomainError(f"not valid JSON: {e}") from None
    except ValueError:  # an int literal past the conversion limit
        raise _too_many_digits() from None


def instance_from_json(text: str) -> Instance:
    obj = _parse_json(text)
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
    view = []
    for row in vals:
        if not isinstance(row, list) or len(row) != m:
            raise DomainError("each value row must be a list of m entries")
        if set(map(type, row)) <= {int} and min(row, default=0) >= 0:
            view.append((tuple(row), 1))  # plain ints are in lowest terms over L = 1
        else:
            view.append(int_row(_jsonable_to_pair(v) for v in row))
    return Instance(n=n, m=m, int_rows=tuple(view))


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
    if len(set(goods)) != len(goods):
        raise DomainError(f"a bundle or 'unassigned' lists a good id twice: {goods!r}")
    return Bundle.of(goods)


def allocation_from_json(text: str) -> Allocation:
    obj = _parse_json(text)
    if not isinstance(obj, dict) or "bundles" not in obj or "unassigned" not in obj:
        raise DomainError("allocation JSON must have 'bundles' and 'unassigned'")
    if not isinstance(obj["bundles"], list):
        raise DomainError("allocation 'bundles' must be a list of bundles")
    bundles = tuple(_goods_from_jsonable(b) for b in obj["bundles"])
    return Allocation(bundles=bundles, unassigned=_goods_from_jsonable(obj["unassigned"]))
