"""Exact maximin-share values by branch and bound, with a brute-force reference.

`mms` certifies the exact optimum of max-over-partitions min-bundle-value
with a depth-first search over bundle assignments; `mms_exhaustive` checks it
by enumeration: the leading goods run only over canonical labellings (one
per partition of them), each adding its loads as a column to an outer-sum
table of all assignments of the trailing goods (numpy, with int64 loads below
2^62 and Python integers above). Both are deterministic functions of their
inputs, and both are exact: they search the Python-int weights that
`core.scaled_ranking` derives from the instance's integer view (values times
the lcm of the searched goods' denominators, as the view's numerators divided
by their gcd with the row's lcm) and scale back. Each covering probe of
`mms` also applies the waste bound of bin completion against a table of the
subset sums of the remaining goods, built once per search and only when it
probes (and not above `_SUBSET_SUM_CAP`); the bound cuts only subtrees that
hold no cover, so values and witnesses are those of the search without it.
`mms` memoizes its search on the key (scaled weights in ranking order, d,
node budget), so a memoized share never depends on an earlier call's budget;
`clear_cache` empties the memo. A result builds its witness partition only
when the witness is read.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from functools import cached_property, lru_cache
from heapq import heapreplace
from typing import Iterator, Sequence

from .core import Bundle, Instance, scaled_ranking
from .errors import BoundsError, DomainError, OracleBudgetExceeded

DEFAULT_NODE_BUDGET = 50_000_000
EXHAUSTIVE_SUBSET_CAP = 12
_EXHAUSTIVE_VECTOR_CAP = 50_000_000
# Outer-sum table columns: 1 << 12 was fastest over d 2-6, m 6-12.
_NUMPY_CHUNK = 1 << 12


@dataclass(frozen=True, eq=False)
class MmsResult:
    """Exact optimum plus one witness partition attaining it, kept as bundles of
    positions in `goods` until first read; equal when value and witness are."""

    value: Fraction
    goods: Sequence[int] = field(repr=False)
    positions: Sequence[Sequence[int]] = field(repr=False)

    @cached_property
    def witness(self) -> tuple[Bundle, ...]:
        return tuple(Bundle.of(self.goods[p] for p in b) for b in self.positions)

    def __eq__(self, other):
        same = isinstance(other, MmsResult) and self.value == other.value
        return same and self.witness == other.witness


def _ranked(inst: Instance, agent: int, subset: Bundle | None) -> tuple[list[int], list[int], int]:
    """`core.scaled_ranking` of the agent's row of the integer view over
    `subset` (all goods when None), with agent and goods bounds-checked."""
    if not 1 <= agent <= inst.n:
        raise BoundsError(f"agent {agent} out of range [1, {inst.n}]")
    if subset is None:
        ids = range(1, inst.m + 1)
    else:
        ids = set(subset)
        for g in ids:
            if not 1 <= g <= inst.m:
                raise BoundsError(f"good {g} out of range [1, {inst.m}]")
    return scaled_ranking(*inst.int_rows[agent - 1], ids)


def _lpt_choice(weights: list[int], d: int) -> tuple[int, list[int]]:
    """Largest-first greedy seed: each good to the lightest bundle (lowest
    index), kept as a min-heap of (load, index)."""
    heap = [(0, j) for j in range(d)]
    choice = [0] * len(weights)
    for t, w in enumerate(weights):
        load, j = heap[0]
        heapreplace(heap, (load + w, j))
        choice[t] = j
    return heap[0][0], choice


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


def _subset_sums(nz: list[int]) -> list[int] | None:
    """`reach[t]`, a bitset with bit k set iff some subset of nz[t:] sums to
    k, for t in 0..len(nz); None when the total exceeds `_SUBSET_SUM_CAP`."""
    if sum(nz) > _SUBSET_SUM_CAP:
        return None
    reach = [1] * (len(nz) + 1)
    for t in range(len(nz) - 1, -1, -1):
        reach[t] = reach[t + 1] | (reach[t + 1] << nz[t])
    return reach


def _cover_assignment(
    nz: list[int], d: int, target: int, budget: _Budget, reach: list[int] | None = None
) -> list[int] | None:
    """Assignment giving every bundle load >= target, or None (proven impossible).

    Depth-first over the goods in the given (descending) order. A good may
    only enter a bundle still short of the target; once every bundle is
    covered the remaining goods are leftovers (marked -1). Pruning: the total
    shortfall must not exceed the remaining weight; every short bundle needs
    ceil(deficit / next-weight) more goods, which must fit in what remains;
    equal-load bundles and previously-failed load multisets (closed bundles
    capped at the target) repeat subtrees and are skipped. When a good can
    top a bundle up to exactly the target, that placement is tried alone: any
    completion routing the good elsewhere can be rerouted through the exact
    fill, so the branch is exhaustive.

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
    choice = [-1] * s
    failed: set[tuple[int, ...]] = set()

    def dfs(t: int) -> bool:
        shortfall = 0
        needed = 0
        w = nz[t] if t < s else 1
        short: list[int] = []
        first: dict[int, int] = {}  # each short load -> its lowest bundle index
        for j, l in enumerate(loads):
            if l < target:
                deficit = target - l
                shortfall += deficit
                needed += -(-deficit // w)
                short.append(l)
                first.setdefault(l, j)
        if shortfall == 0:
            return True
        if t == s or shortfall > suffix[t] or needed > s - t:
            return False
        short.sort()
        key = (t, *short)
        if key in failed:
            return False
        waste = 0
        if reach is not None:
            for l in short:
                x = reach[t] >> (target - l)
                waste += (x & -x).bit_length() - 1
        if waste > suffix[t] - shortfall:
            candidates = []  # the waste bound: no cover below this node
        elif target - w in first:
            candidates = [first[target - w]]
        else:
            candidates = [first[l] for l in sorted(first, reverse=True)]
        for j in candidates:
            budget.spend()
            loads[j] += w
            choice[t] = j
            if dfs(t + 1):
                return True
            loads[j] -= w
        choice[t] = -1
        if len(failed) < _MEMO_CAP:
            failed.add(key)
        return False

    return choice if dfs(0) else None


@lru_cache(maxsize=100_000)
def _search(
    weights: tuple[int, ...], d: int, node_budget: int
) -> tuple[int, tuple[tuple[int, ...], ...]]:
    """Certified max-min over partitions of `weights` (descending ints) into d parts.

    Returns the optimal scaled value and per-bundle position tuples. Binary
    search over the answer: the largest-first greedy seed is a feasible lower
    bound, total//d an upper bound, and each probe runs the covering search
    to completion, so the final value is certified from both sides.

    Memoized on all three arguments: rows that rank to the same weights share
    one entry, and a memoized share is exactly what a fresh search with that
    budget returns (a search over budget raises and stores nothing).
    """
    s = len(weights) - weights.count(0)
    nz = list(weights[:s])  # descending, so the zero weights are the tail

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

    bundles: list[list[int]] = [[] for _ in range(d)]
    for t, j in enumerate(best_choice):
        bundles[j].append(t)
    bundles[0].extend(range(s, len(weights)))
    return best_val, tuple(tuple(b) for b in bundles)


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

    The witness is deterministic: goods are considered in `scaled_ranking` order
    (non-increasing value, ties by good id), bundles are tried lowest index
    first, and the first partition attaining the optimum is kept. Raises
    OracleBudgetExceeded rather than ever returning an uncertified value.
    """
    if d <= 0:
        raise DomainError(f"d must be a positive integer, got {d}")
    budget = DEFAULT_NODE_BUDGET if node_budget is None else node_budget
    if budget < 0:
        raise DomainError(f"node budget must be nonnegative, got {budget}")
    ordered_ids, weights, denom = _ranked(inst, agent, subset)
    scaled_best, bundles = _search(tuple(weights), d, budget)
    return MmsResult(Fraction(scaled_best, denom), ordered_ids, bundles)


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
    ranked, ranked_weights, denom = _ranked(inst, agent, subset)
    s = len(ranked)
    if s > cap:
        raise DomainError(f"subset size {s} exceeds the exhaustive enumeration cap {cap}")
    ids = sorted(ranked)
    weights = [w for _, w in sorted(zip(ranked, ranked_weights))]  # back to id order

    total_vecs = d**s
    if total_vecs > _EXHAUSTIVE_VECTOR_CAP:
        raise DomainError(f"enumeration of {total_vecs} assignment vectors exceeds the cap")
    best, best_k = _enumerate(weights, d)

    bundles: list[list[int]] = [[] for _ in range(d)]
    k = best_k
    for t in range(s - 1, -1, -1):
        bundles[k % d].append(t)
        k //= d
    return MmsResult(Fraction(best, denom), ids, bundles)


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


def _enumerate(weights: list[int], d: int) -> tuple[int, int]:
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
