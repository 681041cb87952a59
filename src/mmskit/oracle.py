"""Exact maximin-share values by branch and bound, with a brute-force reference.

`mms` certifies the exact optimum of max-over-partitions min-bundle-value
with a depth-first search over bundle assignments; `mms_exhaustive` checks it
by enumeration: the leading goods run only over canonical labellings (one
per partition of them), each adding its loads as a column to an outer-sum
table of all assignments of the trailing goods (numpy, with int64 loads below
2^62 and Python integers above). Both are deterministic functions of their
inputs, and both are exact: they search Python-int weights, the values times
the lcm of the searched goods' denominators (the integer view's numerators
divided by their gcd with the row's lcm, as `core.scaled_weights` scales
them), and scale back. `mms` is value-first: it sorts the weights alone, and
its search returns the optimum with the bundle of each weight. The goods are
ranked and the witness partition built only when a result's `witness` is
read, so callers that need only the value pay for neither. Each covering
probe of `mms` also applies the waste bound of bin completion against a
table of the subset sums of the remaining goods, built once per search and
only when it probes (and not above `_SUBSET_SUM_CAP`); the bound cuts only
subtrees that hold no cover, so values and witnesses are those of the search
without it. `mms` memoizes its search on the key (the weights in decreasing
order, d, node budget), so a memoized share never depends on an earlier
call's budget; `clear_cache` empties the memo.
"""

from __future__ import annotations

from bisect import bisect_left, insort
from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from heapq import heapreplace
from typing import Callable, Iterator, Sequence

from .core import Bundle, Instance, scaled_ranking, scaled_weights
from .errors import BoundsError, DomainError, OracleBudgetExceeded

DEFAULT_NODE_BUDGET = 50_000_000
EXHAUSTIVE_SUBSET_CAP = 12
_EXHAUSTIVE_VECTOR_CAP = 50_000_000
# Outer-sum table columns: 1 << 12 was fastest over d 2-6, m 6-12.
_NUMPY_CHUNK = 1 << 12


@dataclass(frozen=True, eq=False)
class MmsResult:
    """Exact optimum plus one witness partition attaining it, kept as the
    search's choice (the bundle of each good, in the order `goods()` lists
    them) until first read; equal when value and witness are."""

    value: Fraction
    goods: Callable[[], Sequence[int]] = field(repr=False)
    choice: Sequence[int] = field(repr=False)
    d: int = field(repr=False)

    @cached_property
    def witness(self) -> tuple[Bundle, ...]:
        return _bundles(self.goods(), self.choice, self.d)

    def __eq__(self, other):
        same = isinstance(other, MmsResult) and self.value == other.value
        return same and self.witness == other.witness


def _bundles(goods: Sequence[int], choice: Sequence[int], d: int) -> tuple[Bundle, ...]:
    """The d bundles that put goods[t] in bundle choice[t]."""
    groups: list[list[int]] = [[] for _ in range(d)]
    for g, j in zip(goods, choice):
        groups[j].append(g)
    return tuple(Bundle.of(b) for b in groups)


def _row(inst: Instance, agent: int, subset: Bundle | None) -> tuple[Sequence[int], Sequence[int], int]:
    """The agent's goods in `subset` (all goods when None) in ascending id
    order, with agent and goods bounds-checked, and their weights and
    denominator from `core.scaled_weights`: (ids, weights, denom)."""
    if not 1 <= agent <= inst.n:
        raise BoundsError(f"agent {agent} out of range [1, {inst.n}]")
    ints, scale = inst.int_rows[agent - 1]
    if subset is None:
        return (range(1, inst.m + 1), *scaled_weights(ints, scale))
    ids = sorted(set(subset))
    for g in ids:
        if not 1 <= g <= inst.m:
            raise BoundsError(f"good {g} out of range [1, {inst.m}]")
    return (ids, *scaled_weights([ints[g - 1] for g in ids], scale))


def _lpt_choice(weights: Sequence[int], d: int) -> tuple[int, list[int]]:
    """Largest-first greedy seed: each good to the lightest bundle (lowest
    index), kept as a min-heap of load * d + index, which orders as
    (load, index) does."""
    heap = list(range(d))
    tops = [0] * len(weights)  # the heap entry each good joins
    for t, w in enumerate(weights):
        tops[t] = top = heap[0]
        heapreplace(heap, top + w * d)
    return heap[0] // d, [top % d for top in tops]


class _Budget:
    __slots__ = ("nodes", "limit")

    def __init__(self, limit: int):
        self.nodes = 0
        self.limit = limit

    def spend(self) -> None:
        self.nodes += 1
        if self.nodes > self.limit:
            raise OracleBudgetExceeded(self.nodes, self.limit)


_MEMO_CAP = 300_000
# Subset-sum tables hold one bit per load up to the total, and each waste
# test shifts them; above this total the shifts cost more than the bound
# saves, and the covering search runs without it.
_SUBSET_SUM_CAP = 1 << 20


def _subset_sums(nz: Sequence[int]) -> list[int] | None:
    """`reach[t]`, a bitset with bit k set iff some subset of nz[t:] sums to
    k, for t in 0..len(nz); None when the total exceeds `_SUBSET_SUM_CAP`."""
    if sum(nz) > _SUBSET_SUM_CAP:
        return None
    reach = [1] * (len(nz) + 1)
    for t in range(len(nz) - 1, -1, -1):
        reach[t] = reach[t + 1] | (reach[t + 1] << nz[t])
    return reach


def _cover_assignment(
    nz: Sequence[int], d: int, target: int, budget: _Budget, reach: list[int] | None = None
) -> list[int] | None:
    """Assignment giving every bundle load >= target, or None (proven impossible).

    Depth-first over the goods in the given (descending) order. A good may
    only enter a bundle still short of the target; once every bundle is
    covered the remaining goods are leftovers (marked -1). The loads of the
    short bundles are kept as a sorted list, updated as each good is placed
    and taken back, so a node reads only the short bundles, not all d.
    Pruning: the total shortfall must not exceed the remaining weight; every
    short bundle needs ceil(deficit / next-weight) more goods, which must fit
    in what remains; equal-load bundles and previously-failed load multisets
    (closed bundles capped at the target) repeat subtrees and are skipped.
    When a good can top a bundle up to exactly the target, that placement is
    tried alone: any completion routing the good elsewhere can be rerouted
    through the exact fill, so the branch is exhaustive. Among equal loads
    the lowest bundle index takes the good.

    Waste bound (bin completion; Korf, IJCAI 2009): with `reach` from
    `_subset_sums(nz)`, a short bundle with deficit k must receive at least
    the least subset sum of the remaining goods that is >= k, so it wastes
    at least that sum minus k; when the wastes of the short bundles add up
    to more than the remaining weight less the shortfall, no cover exists.
    The bound cuts only subtrees without a cover, so the first cover found,
    or the refutation, is the same with or without it.
    """
    s = len(nz)
    suffix = [0] * (s + 1)
    for t in range(s - 1, -1, -1):
        suffix[t] = suffix[t + 1] + nz[t]

    loads = [0] * d
    short = [l for l in loads if l < target]  # the loads below the target, ascending
    choice = [-1] * s
    failed: set[tuple[int, ...]] = set()

    def dfs(t: int) -> bool:
        if not short:
            return True
        shortfall = target * len(short) - sum(short)
        if t == s or shortfall > suffix[t]:
            return False
        w = nz[t]
        if sum([(target - l + w - 1) // w for l in short]) > s - t:
            return False
        key = (t, *short)
        if key in failed:
            return False
        waste = 0
        if reach is not None:
            sums = reach[t]
            last = -1
            for l in short:
                if l != last:  # equal loads are adjacent and waste alike
                    x = sums >> (target - l)
                    over = (x & -x).bit_length() - 1
                    last = l
                waste += over
        if waste > suffix[t] - shortfall:
            candidates = []  # the waste bound: no cover below this node
        elif target - w in short:
            candidates = [loads.index(target - w)]
        else:
            candidates = [loads.index(l) for l in sorted(set(short), reverse=True)]
        for j in candidates:
            budget.spend()
            l = loads[j]
            loads[j] = l + w
            del short[bisect_left(short, l)]
            if l + w < target:
                insort(short, l + w)
            choice[t] = j
            if dfs(t + 1):
                return True
            if l + w < target:
                del short[bisect_left(short, l + w)]
            insort(short, l)
            loads[j] = l
        choice[t] = -1
        if len(failed) < _MEMO_CAP:
            failed.add(key)
        return False

    return choice if dfs(0) else None


@lru_cache(maxsize=100_000)
def _search(weights: tuple[int, ...], d: int, node_budget: int) -> tuple[int, tuple[int, ...]]:
    """Certified max-min over partitions of `weights` (descending ints) into d parts.

    Returns the optimal scaled value and the bundle of each weight. Binary
    search over the answer: the largest-first greedy seed is a feasible lower
    bound, total//d an upper bound, and each probe runs the covering search
    to completion, so the final value is certified from both sides.

    Memoized on all three arguments: rows that rank to the same weights share
    one entry, and a memoized share is exactly what a fresh search with that
    budget returns (a search over budget raises and stores nothing).
    """
    s = len(weights) - weights.count(0)
    nz = weights[:s]  # descending, so the zero weights are the tail

    best_val, best_choice = _lpt_choice(nz, d)

    if s >= d and d > 1:
        budget = _Budget(node_budget)
        lo = best_val
        hi = sum(nz) // d
        reach = _subset_sums(nz) if lo < hi else None
        while lo < hi:
            mid = (lo + hi + 1) // 2
            found = _cover_assignment(nz, d, mid, budget, reach)
            if found is None:
                hi = mid - 1
            else:
                best_choice = [max(j, 0) for j in found]  # leftovers join bundle 0
                loads = [0] * d
                for w, j in zip(nz, best_choice):
                    loads[j] += w
                best_val = lo = min(loads)

    return best_val, (*best_choice, *[0] * (len(weights) - s))  # zero weights join bundle 0


clear_cache = _search.cache_clear


def mms(
    inst: Instance,
    agent: int,
    d: int,
    subset: Bundle | None = None,
    *,
    node_budget: int | None = None,
) -> MmsResult:
    """Exact d-bundle maximin share of `subset` for one agent, with witness.

    The search runs on the goods' weights sorted in decreasing order; the
    goods themselves are ranked only when the witness is read. The witness
    is deterministic: goods are considered in `scaled_ranking` order
    (non-increasing value, ties by good id), bundles are tried lowest index
    first, and the first partition attaining the optimum is kept. Raises
    OracleBudgetExceeded rather than ever returning an uncertified value.
    """
    if d <= 0:
        raise DomainError(f"d must be a positive integer, got {d}")
    budget = DEFAULT_NODE_BUDGET if node_budget is None else node_budget
    if budget < 0:
        raise DomainError(f"node budget must be nonnegative, got {budget}")
    ids, weights, denom = _row(inst, agent, subset)
    scaled_best, choice = _search(tuple(sorted(weights, reverse=True)), d, budget)
    ints, scale = inst.int_rows[agent - 1]
    return MmsResult(Fraction(scaled_best, denom),
                     lambda: scaled_ranking(ints, scale, ids)[0], choice, d)


def mms_exhaustive(
    inst: Instance,
    agent: int,
    d: int,
    subset: Bundle | None = None,
    *,
    cap: int = EXHAUSTIVE_SUBSET_CAP,
) -> MmsResult:
    """Reference oracle: enumerates every partition of `subset` into d bundles.

    Assignment vectors are ordered base-d, lowest good id most significant,
    and the first maximizing vector is the witness. The leading goods run
    only over canonical labellings (labels first used in the order 0, 1, ...);
    relabelling so never moves a vector later, so the first maximizer is
    canonical and still reached first. The cap counts all d^|subset| vectors.
    Shares no search code with `mms`.
    """
    if d <= 0:
        raise DomainError(f"d must be a positive integer, got {d}")
    ids, weights, denom = _row(inst, agent, subset)
    s = len(ids)
    if s > cap:
        raise DomainError(f"subset size {s} exceeds the exhaustive enumeration cap {cap}")
    total_vecs = d**s
    if total_vecs > _EXHAUSTIVE_VECTOR_CAP:
        raise DomainError(f"enumeration of {total_vecs} assignment vectors exceeds the cap")
    best, k = _enumerate(weights, d)

    choice = [0] * s
    for t in range(s - 1, -1, -1):
        k, choice[t] = divmod(k, d)
    return MmsResult(Fraction(best, denom), lambda: ids, choice, d)


def _canonical_prefixes(h: int, d: int) -> Iterator[tuple[int, ...]]:
    """Assignments of h goods to at most d bundles with labels first used in
    the order 0, 1, 2, ..., in lexicographic order: one per partition."""

    def extend(prefix: tuple[int, ...], used: int):
        if len(prefix) == h:
            yield prefix
            return
        for j in range(min(used + 1, d)):
            yield from extend(prefix + (j,), max(used, j + 1))

    return extend((), 0)


def _enumerate(weights: Sequence[int], d: int) -> tuple[int, int]:
    """Best min-bundle load over all d^s assignment vectors, and the base-d index
    of the first vector attaining it.

    The loads of every assignment of the last r goods form a (d, d^r) table,
    built as outer sums; each canonical prefix of the leading goods adds its
    loads as a column. int64 holds every load when the total is below 2^62,
    Python ints (object dtype) beyond that.
    """
    import numpy as np  # only this test reference needs numpy; solve and verify do not

    s = len(weights)
    dtype = np.int64 if sum(weights) < 2**62 else object
    r = s
    while d**r > _NUMPY_CHUNK:
        r -= 1
    eye = np.eye(d, dtype=dtype)
    tail = np.zeros((d, 1), dtype=dtype)
    for w in weights[s - r :]:
        tail = (tail[:, :, None] + w * eye[:, None, :]).reshape(d, -1)
    best, best_k = -1, 0
    for head in _canonical_prefixes(s - r, d):
        loads = [0] * d
        p = 0
        for w, j in zip(weights, head):
            loads[j] += w
            p = p * d + j
        mins = (tail + np.array(loads, dtype=dtype)[:, None]).min(axis=0)
        k = int(np.argmax(mins))
        if mins[k] > best:
            best, best_k = int(mins[k]), p * tail.shape[1] + k
    return best, best_k
