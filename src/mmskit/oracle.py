"""Exact maximin-share values by branch and bound, with a brute-force reference.

`mms` certifies the exact optimum of max-over-partitions min-bundle-value
with a depth-first search over bundle assignments; `mms_exhaustive` checks it
by enumerating every assignment vector. The enumeration builds the per-bundle
loads of all assignments of the trailing goods as one outer-sum table and
adds each assignment of the leading goods to it as a column (numpy, with
int64 loads below 2^62 and Python integers above). Both are deterministic
functions of their inputs, and both are exact: values are scaled to integers
through the least common denominator, searched in arbitrary-precision
arithmetic, and scaled back. `mms` memoizes its search on the key (scaled
weights in ranking order, d, node budget), so a memoized share never depends
on an earlier call's budget; `clear_cache` empties the memo.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache
from itertools import product
from math import lcm

from .core import Bundle, Instance, Partition, ranking
from .errors import BoundsError, DomainError, OracleBudgetExceeded

DEFAULT_NODE_BUDGET = 50_000_000
EXHAUSTIVE_SUBSET_CAP = 12
_EXHAUSTIVE_VECTOR_CAP = 50_000_000
_NUMPY_CHUNK = 1 << 17


@dataclass(frozen=True)
class MmsResult:
    """Exact optimum plus one witness partition attaining it."""

    value: Fraction
    witness: Partition


def _resolve_subset(inst: Instance, subset: Bundle | None) -> list[int]:
    if subset is None:
        return list(range(1, inst.m + 1))
    ids = sorted(set(subset))
    for g in ids:
        if not 1 <= g <= inst.m:
            raise BoundsError(f"good {g} out of range [1, {inst.m}]")
    return ids


def _scale_to_ints(vals: list[Fraction]) -> tuple[list[int], int]:
    denom = lcm(*(v.denominator for v in vals)) if vals else 1
    return [int(v * denom) for v in vals], denom


def _lpt_choice(weights: list[int], d: int) -> tuple[int, list[int]]:
    """Largest-first greedy seed: each good to the lightest bundle (lowest index)."""
    loads = [0] * d
    choice = [0] * len(weights)
    for t, w in enumerate(weights):
        j = loads.index(min(loads))
        loads[j] += w
        choice[t] = j
    return min(loads), choice


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


def _cover_assignment(nz: list[int], d: int, target: int, budget: _Budget) -> list[int] | None:
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
        for l in loads:
            if l < target:
                deficit = target - l
                shortfall += deficit
                needed += -(-deficit // w)
        if shortfall == 0:
            return True
        if t == s or shortfall > suffix[t] or needed > s - t:
            return False
        key = (t, *sorted(l for l in loads if l < target))
        if key in failed:
            return False

        order = sorted((j for j in range(d) if loads[j] < target), key=lambda j: (-loads[j], j))
        exact = next((j for j in order if loads[j] + w == target), -1)
        candidates: list[int]
        if exact >= 0:
            candidates = [exact]
        else:
            candidates = []
            tried: list[int] = []
            for j in order:
                if loads[j] in tried:
                    continue
                tried.append(loads[j])
                candidates.append(j)
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
    positions_nz = [t for t, w in enumerate(weights) if w > 0]
    positions_z = [t for t, w in enumerate(weights) if w == 0]
    nz = [weights[t] for t in positions_nz]
    s = len(nz)

    best_val, best_choice = _lpt_choice(nz, d)

    if s >= d and d > 1:
        budget = _Budget(node_budget)
        lo = best_val
        hi = sum(nz) // d
        while lo < hi:
            mid = (lo + hi + 1) // 2
            found = _cover_assignment(nz, d, mid, budget)
            if found is None:
                hi = mid - 1
            else:
                loads = [0] * d
                for t, j in enumerate(found):
                    if j >= 0:
                        loads[j] += nz[t]
                loads[0] += sum(nz[t] for t, j in enumerate(found) if j < 0)
                best_val = min(loads)
                best_choice = [j if j >= 0 else 0 for j in found]
                lo = best_val

    bundles: list[list[int]] = [[] for _ in range(d)]
    for t, j in enumerate(best_choice):
        bundles[j].append(positions_nz[t])
    bundles[0].extend(positions_z)
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

    The witness is deterministic: goods are considered in `ranking` order
    (non-increasing value, ties by good id), bundles are tried lowest index
    first, and the first partition attaining the optimum is kept. Raises
    OracleBudgetExceeded rather than ever returning an uncertified value.
    """
    if d <= 0:
        raise DomainError(f"d must be a positive integer, got {d}")
    budget = DEFAULT_NODE_BUDGET if node_budget is None else node_budget
    ids = _resolve_subset(inst, subset)
    row = inst.row(agent)

    ordered_ids = ranking(row, ids)
    weights, denom = _scale_to_ints([row[g - 1] for g in ordered_ids])
    scaled_best, bundles = _search(tuple(weights), d, budget)
    witness = Partition(tuple(Bundle.of(ordered_ids[p] for p in b) for b in bundles))
    return MmsResult(value=Fraction(scaled_best, denom), witness=witness)


def mms_exhaustive(
    inst: Instance,
    agent: int,
    d: int,
    subset: Bundle | None = None,
    *,
    cap: int = EXHAUSTIVE_SUBSET_CAP,
) -> MmsResult:
    """Reference oracle: full enumeration of all d^|subset| assignment vectors.

    Enumeration index k encodes the vector base-d with the lowest good id as
    the most significant digit; the first maximizing vector is the witness.
    Shares no search code with `mms`.
    """
    if d <= 0:
        raise DomainError(f"d must be a positive integer, got {d}")
    ids = _resolve_subset(inst, subset)
    s = len(ids)
    if s > cap:
        raise DomainError(f"subset size {s} exceeds the exhaustive enumeration cap {cap}")
    row = inst.row(agent)
    vals = [row[g - 1] for g in ids]
    weights, denom = _scale_to_ints(vals)

    total_vecs = d**s
    if total_vecs > _EXHAUSTIVE_VECTOR_CAP:
        raise DomainError(f"enumeration of {total_vecs} assignment vectors exceeds the cap")
    best, best_k = _enumerate(weights, d)

    bundles: list[list[int]] = [[] for _ in range(d)]
    k = best_k
    for t in range(s - 1, -1, -1):
        bundles[k % d].append(ids[t])
        k //= d
    witness = Partition(tuple(Bundle.of(b) for b in bundles))
    return MmsResult(value=Fraction(best, denom), witness=witness)


def _enumerate(weights: list[int], d: int) -> tuple[int, int]:
    """Best min-bundle load over all d^s assignment vectors, and its first index.

    The loads of every assignment of the last r goods form a (d, d^r) table,
    built as outer sums; each assignment of the leading goods adds its loads
    as a column. int64 holds every load when the total is below 2^62, Python
    ints (object dtype) beyond that.
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
    for p, head in enumerate(product(range(d), repeat=s - r)):
        loads = [0] * d
        for w, j in zip(weights, head):
            loads[j] += w
        mins = (tail + np.array(loads, dtype=dtype)[:, None]).min(axis=0)
        k = int(np.argmax(mins))
        if mins[k] > best:
            best, best_k = int(mins[k]), p * tail.shape[1] + k
    return best, best_k
