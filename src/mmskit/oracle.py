"""Exact maximin-share values by branch and bound, with a brute-force reference.

`mms` certifies the exact optimum of max-over-partitions min-bundle-value
with a depth-first search over bundle assignments; `mms_exhaustive` checks
it by enumeration: the leading goods run only over canonical labellings (one
per partition of them), in blocks that each add their loads to the loads of
all assignments of the trailing goods in one numpy pass, with loads in the
narrowest unsigned dtype that holds the total (Python integers past 2^64).
Both take one agent's whole row, are deterministic functions of their
inputs, and are exact: they search the row's integer view, its numerators
over L in lowest terms, and divide back by L. A sub-bundle's share is that of
the one-row instance `transforms.restrict` builds on it, whose row is over
the lcm of the sub-bundle's own denominators.

Every `mms` call runs its own search (`_search`) on the weights sorted
alone; no share outlives the call that computed it, so no result depends on
an earlier call. The search brackets the optimum between the largest-first
greedy seed, improved by a move/swap local search, and the top-k bound
snapped down to a subset sum; only when they differ does it run covering
probes, the first one just above the seed. The witness is the assignment
that certified the lower bound: the seed's, the local search's when no
probe finds a cover, else the first cover of the last feasible probe. It
comes with the value, and the goods are ranked and the partition built only
when a result's `witness` is read, which never searches. Each covering
probe applies the waste bound of bin completion against a table of the
subset sums of the remaining goods, built once per search and only when it
is needed (and not above `_SUBSET_SUM_CAP`); the bound cuts only subtrees
that hold no cover, so values and witnesses are those of the search without
it. `bracket`, the first step of that search, bounds a share from both
sides with no search (the greedy seed below, the top-k bound above), for
callers that only compare it with a bar.
"""

from __future__ import annotations

from bisect import bisect_right, insort
from collections.abc import Callable, Iterator, Sequence
from fractions import Fraction
from functools import cached_property, lru_cache
from heapq import heapreplace
from itertools import product, zip_longest

from .core import Bundle, Instance, scaled_ranking, value_class
from .errors import BoundsError, DomainError, OracleBudgetExceeded

DEFAULT_NODE_BUDGET = 50_000_000
EXHAUSTIVE_SUBSET_CAP = 12
_EXHAUSTIVE_VECTOR_CAP = 50_000_000
# The reference's blocks: at most this many canonical prefixes by this many
# assignments of the trailing goods. 1 << 8 was fastest on the rows of d 2-4,
# m 8-11.
_BLOCK = 1 << 8


@value_class("value")
class MmsResult:
    """Exact optimum plus one witness partition attaining it, built by
    `partition` on first read; equal when value and witness are."""

    def __init__(self, value: Fraction, partition: Callable[[], tuple[Bundle, ...]]):
        self.__dict__.update(value=value, partition=partition)

    @cached_property
    def witness(self) -> tuple[Bundle, ...]:
        return self.partition()

    def __eq__(self, other):
        same = isinstance(other, MmsResult) and self.value == other.value
        return same and self.witness == other.witness


def _bundles(goods: Sequence[int], choice: Sequence[int], d: int) -> tuple[Bundle, ...]:
    """The d bundles that put goods[t] in bundle choice[t], and the goods
    past the end of `choice` in bundle 0."""
    groups: list[list[int]] = [[] for _ in range(d)]
    for g, j in zip_longest(goods, choice, fillvalue=0):
        groups[j].append(g)
    return tuple(Bundle.of(b) for b in groups)


def _lpt_choice(weights: Sequence[int], d: int) -> tuple[int, list[int]]:
    """Largest-first greedy seed: each good to the lightest bundle (lowest
    index), kept as a min-heap of load * d + index, which orders as
    (load, index) does."""
    heap = list(range(d))
    # heapreplace returns the entry it pops: the bundle each good joins.
    tops = [heapreplace(heap, heap[0] + w * d) for w in weights]
    return heap[0] // d, [top % d for top in tops]


class _Budget:
    __slots__ = ("nodes", "limit")

    def __init__(self, limit: int):
        self.nodes = 0
        self.limit = limit


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

    Per node, the sum of the short loads is carried down the recursion, the
    distinct loads are read off the sorted list, the budget is charged
    inline, and a placement that closes a bundle past the target by more
    than the slack (remaining weight less shortfall) is charged without a
    call, since the child would fail its first test. The nodes, their order
    and the first cover are those of a search that recomputes all of it.

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
    limit = budget.limit

    # `have` is sum(short), carried down the recursion.
    # choice[t] is -1 on entry to dfs(t): a failed dfs resets it on leaving.
    def dfs(t: int, have: int) -> bool:
        k = len(short)
        if not k:
            return True
        shortfall = target * k - have
        rest = suffix[t]
        slack = rest - shortfall
        if slack < 0:  # also ends every branch at t == s, where rest is 0
            return False
        w = nz[t]
        left = s - t
        # The ceil-count prune, summed only when its bound from the shortfall,
        # (shortfall + k * (w - 1)) // w, exceeds the goods left.
        if shortfall + k * (w - 1) >= (left + 1) * w:
            need = 0
            for l in short:
                need += (target - l + w - 1) // w
            if need > left:
                return False
        key = (t, *short)
        if key in failed:
            return False
        if reach is not None:
            sums = reach[t]
            waste = 0
            last = -1
            for l in short:
                if l != last:  # equal loads are adjacent and waste alike
                    x = sums >> (target - l)
                    over = (x & -x).bit_length() - 1
                    last = l
                waste += over
            if waste > slack:  # the waste bound: no cover below this node
                if len(failed) < _MEMO_CAP:
                    failed.add(key)
                return False
        gap = target - w
        # An exact fill is tried alone; else each distinct load, heaviest first.
        tried = (gap,) if gap in short else short[::-1]
        last = -1
        for l in tried:
            if l == last:
                continue
            last = l
            nodes = budget.nodes + 1
            budget.nodes = nodes
            if nodes > limit:
                raise OracleBudgetExceeded(nodes, limit)
            if l < gap:
                j = loads.index(l)
                loads[j] = l + w
                short.remove(l)
                insort(short, l + w)
                choice[t] = j
                if dfs(t + 1, have + w):
                    return True
                short.remove(l + w)
                insort(short, l)
                loads[j] = l
            # A bundle that closes past the target by more than the slack
            # leaves the child a negative slack: its first test fails, so
            # the call is skipped (the node is still charged).
            elif l - gap <= slack:
                j = loads.index(l)
                loads[j] = l + w
                short.remove(l)
                choice[t] = j
                if dfs(t + 1, have - l):
                    return True
                insort(short, l)
                loads[j] = l
        choice[t] = -1
        if len(failed) < _MEMO_CAP:
            failed.add(key)
        return False

    return choice if dfs(0, 0) else None


def _top_k_bound(nz: Sequence[int], d: int) -> int:
    """Upper bound on the max-min of d bundles over `nz` (descending):
    the least of (total - v_1 - ... - v_k) // (d - k) for k = 0..d-1. The k
    largest goods lie in at most k bundles, so some d - k bundles share only
    the rest, and the weakest of them holds at most their mean."""
    rest = sum(nz)
    bound = rest // d
    for k in range(1, d):
        rest -= nz[k - 1]
        bound = min(bound, rest // (d - k))
    return bound


def bracket(weights: Sequence[int], d: int) -> tuple[int, int, list[int]]:
    """Bounds lo <= max-min <= hi over partitions of `weights` (descending
    ints) into d parts, with no search, and the largest-first greedy seed's
    bundle of each nonzero weight, whose weakest load is lo. hi is the top-k
    bound, or lo when the seed meets total // d, when d is 1 or when fewer
    than d weights are positive (then both are 0)."""
    nz = weights[: len(weights) - weights.count(0)]  # descending: zeros are the tail
    lo, choice = _lpt_choice(nz, d)
    hi = _top_k_bound(nz, d) if len(nz) >= d > 1 and lo < sum(nz) // d else lo
    return lo, hi, choice


# Above `_SUBSET_SUM_CAP` the subset sums are listed explicitly for rows of
# at most this many goods, as two lists of the sums of each half (2^12
# sums each at most).
_SNAP_GOODS = 24


def _listed_sums(ws: Sequence[int]) -> list[int]:
    """The distinct subset sums of ws, ascending."""
    seen = {0}
    for w in ws:
        seen |= {v + w for v in seen}
    return sorted(seen)


def _snapper(nz: Sequence[int], reach: list[int] | None) -> Callable[[int], int]:
    """x -> the largest subset sum of nz at most x (for x >= 0). Every
    bundle load is a subset sum, so a bound on the optimum snaps to one. Read
    off `reach[0]` when the table exists. Else, for rows of at most
    `_SNAP_GOODS` goods, meet in the middle: the largest a + b <= x over the
    sorted subset sums a of the first half and b of the second. Longer rows
    past the table cap keep x."""
    if reach is not None:
        sums = reach[0]
        return lambda x: (sums & ((2 << x) - 1)).bit_length() - 1
    if len(nz) > _SNAP_GOODS:
        return lambda x: x
    half = len(nz) // 2
    low, high = _listed_sums(nz[:half]), _listed_sums(nz[half:])

    def snap(x: int) -> int:
        best = 0
        for a in low[: bisect_right(low, x)]:
            best = max(best, a + high[bisect_right(high, x - a) - 1])
        return best

    return snap


def _improve(nz: Sequence[int], d: int, choice: list[int], hi: int) -> int:
    """Move/swap local search on the lightest bundle (lowest index among
    equal loads), from the assignment `choice`, which it changes in place;
    returns the weakest load reached, stopping once it reaches `hi`.

    Each step moves a good from another bundle into the lightest one, or
    swaps a good there for a heavier one from another bundle, choosing the
    step that leaves the lighter of the two bundles heaviest (the first such
    step on ties). Both end above the old minimum, so the sorted loads rise
    at every step and the search ends."""
    loads = [0] * d
    for w, j in zip(nz, choice):
        loads[j] += w
    while True:
        low = min(loads)
        if low >= hi:
            return low
        j = loads.index(low)
        mine = [(u, nz[u]) for u, k in enumerate(choice) if k == j]
        best, step = 0, None
        for t, k in enumerate(choice):
            room = loads[k] - low
            w = nz[t]
            if k == j or w <= best:  # no step with t raises the minimum by more
                continue
            for u, v in ((None, 0), *mine):  # u None: a move, else a swap
                delta = w - v
                if 0 < delta < room and min(delta, room - delta) > best:
                    best, step = min(delta, room - delta), (t, u, delta)
        if step is None:
            return low
        t, u, delta = step
        k = choice[t]
        choice[t] = j
        if u is not None:
            choice[u] = k
        loads[j] += delta
        loads[k] -= delta


# A seed that the probe just above it does not certify usually lies well
# below the optimum, and the optimum at or just below the upper bound; the
# value search probes the bound itself until this many refutations, then
# bisects.
_TOP_PROBES = 3


def _search(weights: tuple[int, ...], d: int, node_budget: int) -> tuple[int, list[int]]:
    """Certified max-min over partitions of `weights` (descending ints) into
    d parts, and a partition attaining it: the bundle of each nonzero weight;
    the zero weights, the tail, belong in bundle 0.

    It starts from `bracket`, the one seed of rule decisions and searches:
    the upper bound is its top-k bound snapped down to a subset sum; the
    lower bound is its largest-first greedy seed, improved by `_improve`
    when it falls short. When they meet, no probe runs. Otherwise the
    covering search probes one above the seed first (the seed is often
    optimal, and one refutation certifies it). If that probe finds a cover,
    it probes the upper bound itself, up to `_TOP_PROBES` refutations, then
    bisects; after each refutation the upper bound snaps down to a subset
    sum again. Every probe runs to completion, so the value is certified
    from both sides. The seed is that of Deuermeyer, Friesen & Langston
    (1982), bounded and then improved as in Haouari & Jemmali (4OR, 2008).

    The partition is the assignment that certified the lower bound: the
    greedy seed's, `_improve`'s when no probe finds a cover, else the first
    cover of the last feasible probe, whose leftovers join bundle 0.
    """
    lo, hi, choice = bracket(weights, d)
    # Most searches end at the seed, which meets total // d or the top-k bound.
    if lo < hi:
        nz = weights[: len(choice)]
        reach = _subset_sums(nz)
        snap = _snapper(nz, reach)
        hi = snap(hi)
        if lo < hi:
            lo = _improve(nz, d, choice, hi)
        budget = _Budget(node_budget)
        mid, refuted = lo + 1, 0
        while lo < hi:
            found = _cover_assignment(nz, d, mid, budget, reach)
            if found is None:
                hi = snap(mid - 1)
                refuted += 1
            else:
                choice = [max(j, 0) for j in found]
                lo = _weakest(nz, d, choice)
            mid = hi if refuted < _TOP_PROBES else (lo + hi + 1) // 2
    return lo, choice


def _weakest(nz: Sequence[int], d: int, choice: Sequence[int]) -> int:
    """Min load of the assignment that puts nz[t] in bundle choice[t]."""
    loads = [0] * d
    for w, j in zip(nz, choice):
        loads[j] += w
    return min(loads)


def clear_cache() -> None:
    """Does nothing: no share outlives its `mms` call. Kept only because
    `perfbench/run.py` calls it before each timed operation."""


def checked_budget(node_budget: int | None) -> int:
    """The node budget of a search: `DEFAULT_NODE_BUDGET` for None; a
    negative budget is a DomainError."""
    budget = DEFAULT_NODE_BUDGET if node_budget is None else node_budget
    if budget < 0:
        raise DomainError(f"node budget must be nonnegative, got {budget}")
    return budget


def mms(inst: Instance, agent: int, d: int, *, node_budget: int | None = None) -> MmsResult:
    """Exact d-bundle maximin share of all of one agent's goods, with witness;
    a sub-bundle's is `mms(restrict(inst, [agent], goods), 1, d)`.

    The search runs here, under `node_budget`, on the row's numerators sorted
    in decreasing order, and raises OracleBudgetExceeded rather than ever
    returning an uncertified result. The witness is the partition that
    certified the value (see `_search`). Only reading it ranks the goods, in
    `scaled_ranking` order (non-increasing value, ties by good id), and
    builds the bundles; it never searches or raises.
    """
    if d <= 0:
        raise DomainError(f"d must be a positive integer, got {d}")
    budget = checked_budget(node_budget)
    if not 1 <= agent <= inst.n:
        raise BoundsError(f"agent {agent} out of range [1, {inst.n}]")
    ints, scale = inst.int_rows[agent - 1]
    best, choice = _search(tuple(sorted(ints, reverse=True)), d, budget)
    return MmsResult(Fraction(best, scale), lambda: _bundles(scaled_ranking(ints), choice, d))


def mms_exhaustive(inst: Instance, agent: int, d: int) -> MmsResult:
    """Reference oracle: enumerates every partition of one agent's goods into
    d bundles, at most `EXHAUSTIVE_SUBSET_CAP` goods.

    Assignment vectors are ordered base-d, lowest good id most significant,
    and the first maximizing vector is the witness. The leading goods run
    only over canonical labellings (labels first used in the order 0, 1, ...);
    relabelling so never moves a vector later, so the first maximizer is
    canonical and still reached first. Blocks of them run in order and a
    later block wins only with a greater value, and the enumeration stops at
    the first vector reaching total // d (see `_enumerate`). A second cap
    counts all d^m vectors. Shares no search code with `mms`.
    """
    if d <= 0:
        raise DomainError(f"d must be a positive integer, got {d}")
    if not 1 <= agent <= inst.n:
        raise BoundsError(f"agent {agent} out of range [1, {inst.n}]")
    ints, scale = inst.int_rows[agent - 1]
    s = len(ints)
    if s > EXHAUSTIVE_SUBSET_CAP:
        raise DomainError(f"{s} goods exceed the exhaustive enumeration cap {EXHAUSTIVE_SUBSET_CAP}")
    total_vecs = d**s
    if total_vecs > _EXHAUSTIVE_VECTOR_CAP:
        raise DomainError(f"enumeration of {total_vecs} assignment vectors exceeds the cap")
    best, k = _enumerate(ints, d)

    choice = [0] * s
    for t in range(s - 1, -1, -1):
        k, choice[t] = divmod(k, d)
    return MmsResult(Fraction(best, scale), lambda: _bundles(range(1, s + 1), choice, d))


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


@lru_cache(maxsize=32)
def _one_hot(h: int, d: int, canonical: bool) -> tuple[object, tuple[int, ...]]:
    """Assignments of h goods to d bundles as a read-only one-hot (vector,
    bundle, good) uint8 array, with each vector's base-d index (its first
    good most significant): the canonical prefixes in `_canonical_prefixes`
    order, or else all d^h vectors in base-d order."""
    import numpy as np  # only the reference needs numpy; solve and verify do not

    vectors = list(_canonical_prefixes(h, d) if canonical else product(range(d), repeat=h))
    onehot = np.zeros((len(vectors), d, h), dtype=np.uint8)
    index = []
    for p, vector in enumerate(vectors):
        onehot[p, vector, range(h)] = 1
        k = 0
        for j in vector:
            k = k * d + j
        index.append(k)
    onehot.setflags(write=False)  # cached: every caller shares it
    return onehot, tuple(index)


def _enumerate(weights: Sequence[int], d: int) -> tuple[int, int]:
    """Best min-bundle load over all d^s assignment vectors, and the base-d index
    of the first vector attaining it.

    The loads of every assignment of the last r goods form a (d, d^r) table
    of at most `_BLOCK` columns, and those of the canonical prefixes of the
    leading goods a (prefix, d) table, each one contraction of a cached
    one-hot table (`_one_hot`) with the weights. The prefixes run in blocks
    of at most `_BLOCK`: each block forms the (prefix, bundle, column) sums,
    takes the min over bundles and the first argmax, which is the block's
    first maximiser because prefixes are in base-d order. A later block wins
    only with a strictly greater value, and the search stops at the first
    vector that reaches total // d, which no min load exceeds.

    Loads are held in the narrowest unsigned dtype that holds the total,
    which bounds every load, so uint8 to uint64 are exact; past 2^64 they
    are Python ints (object dtype). The weights enter numpy in that dtype.
    """
    import numpy as np  # only the reference needs numpy; solve and verify do not

    s = len(weights)
    total = sum(weights)
    dtype = np.min_scalar_type(total)
    w = np.array(weights, dtype=dtype)
    r = s
    while d**r > _BLOCK:
        r -= 1
    h = s - r
    tail = (_one_hot(r, d, False)[0].astype(dtype) @ w[h:]).T.copy()  # (bundle, column) loads
    width = tail.shape[1]
    onehot, index = _one_hot(h, d, True)
    heads = onehot.astype(dtype) @ w[:h]  # (prefix, bundle) loads
    goal = total // d
    best, best_k = -1, 0
    for start in range(0, len(index), _BLOCK):
        mins = (heads[start : start + _BLOCK, :, None] + tail).min(axis=1)
        k = int(mins.argmax())
        v = int(mins.flat[k])
        if v > best:
            p, col = divmod(k, width)
            best, best_k = v, index[start + p] * width + col
            if best == goal:
                break
    return best, best_k
