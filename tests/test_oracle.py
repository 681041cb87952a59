from __future__ import annotations

import os
import random
import subprocess
import sys
from bisect import bisect_left, bisect_right, insort
from fractions import Fraction
from itertools import product
from math import lcm
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import mmskit
from mmskit import (
    ALPHA_MAX,
    BoundsError,
    Bundle,
    DomainError,
    OracleBudgetExceeded,
    check_alpha_mms,
    mms,
    mms_exhaustive,
    reduce,
    solve,
    value,
)
from mmskit import oracle
from mmskit.gen import default_corpus, generate
from mmskit.oracle import (
    _MEMO_CAP,
    DEFAULT_NODE_BUDGET,
    _Budget,
    _canonical_prefixes,
    _cover_assignment,
    _improve,
    _lpt_choice,
    _search,
    _snapper,
    _subset_sums,
    _top_k_bound,
    bracket,
)
from mmskit.transforms import restrict

from conftest import make_instance, random_instance


def witness_values(inst, agent, result):
    return [value(inst, agent, b) for b in result.witness]


def assert_valid_witness(inst, agent, d, result):
    assert len(result.witness) == d
    seen = [g for b in result.witness for g in b]
    assert sorted(seen) == list(inst.all_goods())
    assert min(witness_values(inst, agent, result)) == result.value


class TestMmsExamples:
    def test_identical_goods(self):
        inst = make_instance([[1, 1, 1, 1]])
        res = mms(inst, 1, 2)
        assert res.value == 2
        assert_valid_witness(inst, 1, 2, res)

    def test_three_goods_two_bundles(self):
        # exhaustive enumeration over all 2^3 assignments confirms max-min = 3
        inst = make_instance([[3, 2, 1]])
        res = mms(inst, 1, 2)
        assert res.value == 3
        assert res.witness == (Bundle.of([1]), Bundle.of([2, 3]))

    def test_more_bundles_than_goods(self):
        inst = make_instance([[1, 1, 1]])
        res = mms(inst, 1, 4)
        assert res.value == 0
        assert len(res.witness) == 4

    def test_single_bundle_is_total(self):
        inst = make_instance([[5, 4, 3]])
        assert mms(inst, 1, 1).value == 12

    def test_d_zero_rejected(self):
        inst = make_instance([[1]])
        with pytest.raises(DomainError):
            mms(inst, 1, 0)
        with pytest.raises(DomainError):
            mms_exhaustive(inst, 1, 0)

    # The oracle takes whole rows, so a good id reaches it only through
    # `restrict`, which rejects a good past m before the search starts.
    @pytest.mark.parametrize("oracle", [mms, mms_exhaustive])
    @pytest.mark.parametrize("agent, goods", [(0, None), (2, None), (1, [1, 4])],
                             ids=["agent-0", "agent-past-n", "good-past-m"])
    def test_agent_or_good_out_of_range(self, oracle, agent, goods):
        inst = make_instance([[3, 2, 1]])
        with pytest.raises(BoundsError, match="out of range"):
            if goods is not None:
                inst, agent = restrict(inst, [agent], goods), 1
            oracle(inst, agent, 2)

    def test_subset_restriction(self):
        # A sub-bundle's share is the share of the instance `restrict` builds
        # on it; its goods 1-3 stand for goods 2-4 of the row.
        sub = restrict(make_instance([[5, 4, 3, 2, 1]]), [1], [2, 3, 4])
        res = mms(sub, 1, 2)
        assert res.value == 4  # {4} vs {3,2}
        assert res.witness == (Bundle.of([1]), Bundle.of([2, 3]))
        assert_valid_witness(sub, 1, 2, res)


class TestExhaustiveExamples:
    def test_matches_spec_trio(self):
        for rows, d, expected in [
            ([[1, 1, 1, 1]], 2, 2),
            ([[3, 2, 1]], 2, 3),
            ([[1, 1, 1]], 4, 0),
        ]:
            inst = make_instance(rows)
            res = mms_exhaustive(inst, 1, d)
            assert res.value == expected
            assert_valid_witness(inst, 1, d, res)

    def test_five_goods_three_bundles(self):
        # Enumeration over 3^5 assignments: a perfect split {1},{2,5},{3,4}
        # reaches min 5, so the optimum is 5 (= 15/3).
        inst = make_instance([[5, 4, 3, 2, 1]])
        res = mms_exhaustive(inst, 1, 3)
        assert res.value == 5
        assert_valid_witness(inst, 1, 3, res)
        assert mms(inst, 1, 3).value == 5

    def test_d_one_returns_total(self):
        inst = make_instance([[5, 4, 3, 2, 1]])
        res = mms_exhaustive(inst, 1, 1)
        assert res.value == 15
        assert res.witness == (Bundle.of([1, 2, 3, 4, 5]),)

    def test_cap_enforced(self):
        inst = make_instance([[1] * 13])
        with pytest.raises(DomainError):
            mms_exhaustive(inst, 1, 2)

    def test_deterministic_witness(self):
        inst = make_instance([[5, 4, 3, 2, 1]])
        a = mms_exhaustive(inst, 1, 3)
        b = mms_exhaustive(inst, 1, 3)
        assert a == b


class TestOracleEquivalence:
    def test_small_grid(self, rng):
        # Randomized slice of the exhaustive cross-check; the acceptance
        # suite runs the full-size version.
        for _ in range(400):
            n = rng.randint(1, 3)
            m = rng.randint(1, 7)
            inst = make_instance([[rng.randint(0, 3) for _ in range(m)] for _ in range(n)])
            d = rng.randint(1, 4)
            agent = rng.randint(1, n)
            a = mms(inst, agent, d)
            b = mms_exhaustive(inst, agent, d)
            assert a.value == b.value
            assert_valid_witness(inst, agent, d, a)

    def test_rational_values(self, rng):
        for _ in range(60):
            n, m = 1, rng.randint(1, 7)
            row = [Fraction(rng.randint(0, 12), rng.randint(1, 9)) for _ in range(m)]
            inst = make_instance([row])
            d = rng.randint(1, 3)
            assert mms(inst, 1, d).value == mms_exhaustive(inst, 1, d).value

    def test_restricted_subsets(self, rng):
        for _ in range(150):
            m = rng.randint(2, 12)
            row = [rng.randint(0, 9) for _ in range(m)]
            inst = make_instance([row])
            k = rng.randint(1, min(m, 10))
            goods = list(range(1, m + 1))
            rng.shuffle(goods)
            sub = restrict(inst, [1], sorted(goods[:k]))
            d = rng.randint(1, 4)
            a = mms(sub, 1, d)
            b = mms_exhaustive(sub, 1, d)
            assert a.value == b.value
            assert_valid_witness(sub, 1, d, a)


def first_maximiser(inst, agent, d, ids):
    """Brute force in the reference's documented order: the lowest good id is
    the most significant digit, and the first vector reaching the optimum wins.
    Loads are integers: the values times the lcm of their denominators."""
    vals = [inst.values[agent - 1][g - 1] for g in ids]
    scale = lcm(*(v.denominator for v in vals))
    weights = [v.numerator * (scale // v.denominator) for v in vals]
    best, best_vec = -1, None
    for vec in product(range(d), repeat=len(ids)):
        loads = [0] * d
        for w, j in zip(weights, vec):
            loads[j] += w
        if min(loads) > best:
            best, best_vec = min(loads), vec
    bundles = (Bundle.of(g for g, j in zip(ids, best_vec) if j == b) for b in range(d))
    return Fraction(best, scale), tuple(bundles)


class TestExhaustiveLoadDtypes:
    # The reference holds its loads in the narrowest unsigned dtype that holds
    # the row's total, which no load exceeds: uint8 to uint64, then Python
    # integers past 2^64. At every size it must pick the same value and witness.
    PRIMES = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549, 2147483543)

    @pytest.mark.parametrize(
        "total", [2**8 - 1, 2**8, 2**16 - 1, 2**16, 2**32 - 1, 2**32, 2**64 - 1, 2**64],
        ids=["2^8-1", "2^8", "2^16-1", "2^16", "2^32-1", "2^32", "2^64-1", "2^64"],
    )
    def test_totals_at_each_dtype_boundary(self, total):
        # At d = 1 the one bundle holds the total itself, so a dtype one size
        # too narrow at the boundary wraps it; at d = 2 and 3 the bundle
        # loads pass the next size down.
        draw = random.Random(total)
        for d in (1, 2, 3):
            cuts = sorted(draw.randint(0, total) for _ in range(7))
            row = [b - a for a, b in zip([0, *cuts], [*cuts, total])]
            inst = make_instance([row])
            ids = list(range(1, len(row) + 1))
            res = mms_exhaustive(inst, 1, d)
            assert (res.value, res.witness) == first_maximiser(inst, 1, d, ids), (d, row)
            assert res.value == mms(inst, 1, d).value

    def check(self, inst, d, ids):
        # `restrict` keeps the listed (ascending) order, so the sub-instance's
        # good t is ids[t - 1] and the enumeration order is the same.
        sub = restrict(inst, [1], ids)
        res = mms_exhaustive(sub, 1, d)
        assert res.value == mms(sub, 1, d).value
        value, witness = first_maximiser(inst, 1, d, ids)
        assert res.value == value
        assert tuple(Bundle.of(ids[g - 1] for g in b) for b in res.witness) == witness

    def totals(self, rng, rows):
        """Check each row, a random part of it and its empty part; return
        the scaled totals checked."""
        totals = []
        for k, row in enumerate(rows):
            inst = make_instance([row])
            m = len(row)
            goods = list(range(1, m + 1))
            rng.shuffle(goods)
            for ids in (goods, goods[: rng.randint(1, m - 1)], []):
                d = 1 if k % 4 == 0 else rng.randint(2, 4)
                self.check(inst, d, sorted(ids))
                vals = [row[g - 1] for g in ids]
                totals.append(sum(vals) * lcm(*(v.denominator for v in vals)))
        return totals

    def test_integers_near_two_to_the_61(self, rng):
        # Totals of 3-7 goods near 2^61 lie in [2^62, 2^64): uint64 loads.
        rows = [[2**61 - rng.below(2**40) for _ in range(rng.randint(3, 7))] for _ in range(12)]
        rows.append([2**61] * 5)  # all ties: the first vector in enumeration order wins
        assert sum(2**62 <= t < 2**64 for t in self.totals(rng, rows)) >= 13

    def test_fractions_with_large_lcm(self, rng):
        # Distinct prime denominators near 2^31: three or more goods scale
        # past 2^64, so their loads are Python integers.
        rows = []
        for m in (3, 4, 5, 6, 7, 7):
            primes = rng.shuffle(list(self.PRIMES))[:m]
            rows.append([Fraction(p - rng.below(2**20), p) for p in primes])
        assert sum(t >= 2**64 for t in self.totals(rng, rows)) >= 6


def first_reaching(weights, d, goal):
    """The first assignment vector in product order whose weakest bundle
    reaches `goal`, or None."""
    for vec in product(range(d), repeat=len(weights)):
        loads = [0] * d
        for w, j in zip(weights, vec):
            loads[j] += w
        if min(loads) >= goal:
            return vec
    return None


class TestExhaustiveBlocks:
    # With blocks of 4 prefixes by 3 columns, a 7-good row at d = 3 runs
    # its 122 canonical prefixes of 6 goods in 31 blocks.
    @staticmethod
    def block_of(vec, d):
        r = len(vec)
        while d**r > oracle._BLOCK:
            r -= 1
        h = len(vec) - r
        return list(_canonical_prefixes(h, d)).index(vec[:h]) // oracle._BLOCK

    @pytest.mark.parametrize("row", [[4, 10, 9, 3, 6, 10, 8], [8, 3, 6, 2, 1, 3, 8]])
    def test_stops_at_total_over_d_in_a_later_block(self, monkeypatch, row):
        # An earlier block reaches total // d - 1; the value is total // d,
        # first reached blocks later.
        monkeypatch.setattr(oracle, "_BLOCK", 4)
        goal = sum(row) // 3
        near, top = first_reaching(row, 3, goal - 1), first_reaching(row, 3, goal)
        assert self.block_of(near, 3) < self.block_of(top, 3)
        inst = make_instance([row])
        res = mms_exhaustive(inst, 1, 3)
        assert res.value == goal
        assert (res.value, res.witness) == first_maximiser(inst, 1, 3, range(1, 8))

    @pytest.mark.parametrize("row", [[9, 7, 12, 1, 11, 2, 3], [11, 10, 2, 10, 1, 8, 5]])
    def test_runs_in_full_below_total_over_d(self, monkeypatch, row):
        # No vector reaches total // d, so every block runs, and a later
        # block's equal value must not displace the first maximiser.
        monkeypatch.setattr(oracle, "_BLOCK", 4)
        assert first_reaching(row, 3, sum(row) // 3) is None
        inst = make_instance([row])
        res = mms_exhaustive(inst, 1, 3)
        assert res.value < sum(row) // 3
        assert (res.value, res.witness) == first_maximiser(inst, 1, 3, range(1, 8))


class TestExhaustiveWitnessPastTheTable:
    # Past the goods of the trailing table the leading goods run only over
    # canonical prefixes. On tie-heavy rows many vectors reach the optimum,
    # so the witness must still be the first of them in product order; with
    # the largest goods leading, it spreads them over several bundles.
    def test_tie_heavy_rows(self, rng):
        rows = [sorted((rng.randint(1, 3) for _ in range(m)), reverse=True)
                for m in (8, 9, 10, 11, 8, 9, 8)]
        rows.append([2] * 8)  # all ties: the first vector in enumeration order wins
        for d, row in zip((3, 3, 3, 3, 4, 4, 5, 4), rows):
            inst = make_instance([row])
            ids = list(range(1, len(row) + 1))
            res = mms_exhaustive(inst, 1, d)
            assert res.value == mms(inst, 1, d).value
            assert (res.value, res.witness) == first_maximiser(inst, 1, d, ids), (d, row)


class TestCanonicalPrefixes:
    def test_one_prefix_per_partition_in_lexicographic_order(self):
        def stirling2(h, k):
            if h == 0 or k == 0:
                return int(h == k)
            return k * stirling2(h - 1, k) + stirling2(h - 1, k - 1)

        def relabel(vec):
            labels = {}
            return tuple(labels.setdefault(j, len(labels)) for j in vec)

        for d in range(1, 7):
            for h in range(7):
                prefixes = list(_canonical_prefixes(h, d))
                assert all(a < b for a, b in zip(prefixes, prefixes[1:]))
                for p in prefixes:
                    assert len(p) == h and (h == 0 or p[0] == 0)
                    assert all(j <= max(p[:t], default=-1) + 1 for t, j in enumerate(p))
                    assert max(p, default=0) < d
                assert len(prefixes) == sum(stirling2(h, k) for k in range(d + 1))
                assert {relabel(v) for v in product(range(d), repeat=h)} == set(prefixes)


class TestPruningCrossCheck:
    def test_matches_reference_where_probes_are_refuted(self, rng):
        # d = 4-6 on grids 100 and 20: the optimum usually sits below
        # total // d, so the binary search must refute probes with the
        # covering search's pruning rules rather than stop at the first cover.
        below = cases = 0
        for d in (4, 5, 6):
            m_max = max(m for m in range(d + 2, 13) if d**m <= 10**7)
            for k in range(100):
                row = [rng.randint(0, 20 if k % 5 == 0 else 100) for _ in range(rng.randint(d + 2, m_max))]
                inst = make_instance([row])
                res = mms(inst, 1, d)
                assert res.value == mms_exhaustive(inst, 1, d).value, (d, row)
                assert_valid_witness(inst, 1, d, res)
                below += res.value < sum(row) // d
                cases += 1
        assert 2 * below >= cases, f"only {below} of {cases} optima sit below total // d"


class TestWasteBound:
    def test_same_assignment_and_no_more_nodes_with_the_table(self, rng):
        # The waste bound cuts only subtrees without a cover, so every probe
        # from the greedy seed to just past total // d must return the same
        # assignment (or None) with and without the subset-sum table.
        probes = fewer = 0
        for k in range(60):
            d = 2 + k % 5
            grid = (3, 10, 100, 1000)[k % 4]
            nz = sorted((rng.randint(1, grid) for _ in range(rng.randint(d, 14))), reverse=True)
            reach = _subset_sums(nz)
            for target in range(_lpt_choice(nz, d)[0], sum(nz) // d + 2):
                plain, pruned = _Budget(DEFAULT_NODE_BUDGET), _Budget(DEFAULT_NODE_BUDGET)
                expected = _cover_assignment(nz, d, target, plain)
                assert _cover_assignment(nz, d, target, pruned, reach) == expected, (nz, d, target)
                assert pruned.nodes <= plain.nodes, (nz, d, target)
                probes += 1
                fewer += pruned.nodes < plain.nodes
        assert 3 * fewer >= probes, f"the table saved nodes on only {fewer} of {probes} probes"

    def test_hard_row_is_certified_within_a_small_budget(self):
        # Six bundles of 22 goods on grid 1000: without the waste bound the
        # probes next to the optimum spend more than this budget.
        draw = random.Random(0)
        row = [draw.randint(1, 1000) for _ in range(22)]
        res = mms(make_instance([row]), 1, 6, node_budget=2_000_000)
        assert res.value == 2252
        assert [b.goods for b in res.witness] == [
            (6, 11, 13, 16), (3, 8, 17), (2, 12, 21), (7, 14, 20, 22), (4, 5, 15, 19), (1, 9, 10, 18),
        ]

    def test_total_above_the_table_cap_searches_without_it(self):
        row = [977, 953, 911, 877, 859, 823, 787, 757, 733, 701]
        c = 2**62 // sum(row)
        big = make_instance([[c * v for v in row]])
        assert _subset_sums([c * v for v in row]) is None
        res = mms(big, 1, 3)
        assert res.value == c * mms(make_instance([row]), 1, 3).value
        assert_valid_witness(big, 1, 3, res)


class SpendingBudget(_Budget):
    """The budget `spec_cover_assignment` charges: `spend` counts one node
    and raises past the limit."""

    __slots__ = ()

    def spend(self) -> None:
        self.nodes += 1
        if self.nodes > self.limit:
            raise OracleBudgetExceeded(self.nodes, self.limit)


def spec_cover_assignment(
    nz, d: int, target: int, budget: SpendingBudget, reach: list[int] | None = None
) -> list[int] | None:
    """The covering search as it was written before its per-node state was
    carried down the recursion: it re-sums the short loads and lists their
    distinct values at every node. The spec of the tree `_cover_assignment`
    walks: same nodes, same order, same first cover or refutation."""
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


class TestCoverKernel:
    def test_same_tree_as_the_spec(self, rng):
        # Every probe from the greedy seed to just past total // d, with and
        # without the subset-sum table, must return the spec's list (or
        # None) after the same number of nodes; a budget that runs out
        # halfway through the spec's tree must run out in the kernel too.
        covers = refutations = cut = 0
        for k in range(120):
            d = 2 + k % 6
            grid = (3, 20, 100, 1000)[k // 6 % 4]
            goods = rng.randint(d, 16)
            nz = sorted((rng.randint(1, grid) for _ in range(goods)), reverse=True)
            for reach in (_subset_sums(nz), None):
                for target in range(_lpt_choice(nz, d)[0], sum(nz) // d + 2):
                    spec, kernel = SpendingBudget(DEFAULT_NODE_BUDGET), _Budget(DEFAULT_NODE_BUDGET)
                    expected = spec_cover_assignment(nz, d, target, spec, reach)
                    assert _cover_assignment(nz, d, target, kernel, reach) == expected, (nz, d, target)
                    assert kernel.nodes == spec.nodes, (nz, d, target, reach is None)
                    covers += expected is not None
                    refutations += expected is None
                    if spec.nodes < 2:
                        continue
                    limit = spec.nodes // 2
                    spec, kernel = SpendingBudget(limit), _Budget(limit)
                    with pytest.raises(OracleBudgetExceeded) as spec_error:
                        spec_cover_assignment(nz, d, target, spec, reach)
                    with pytest.raises(OracleBudgetExceeded) as kernel_error:
                        _cover_assignment(nz, d, target, kernel, reach)
                    assert kernel.nodes == spec.nodes == limit + 1, (nz, d, target)
                    assert kernel_error.value.args == spec_error.value.args
                    cut += 1
        assert covers and refutations and cut, (covers, refutations, cut)


class TestValueSearch:
    def test_matches_reference_and_each_shortcut_decides_some_value(self, rng):
        # The bounds must hold on every row, and each shortcut must be the
        # one that spares the covering probes on some rows: the improved
        # seed meets the snapped bound; without the top-k bound, or without
        # the snap, or from the plain greedy seed, they would not meet.
        counts = dict.fromkeys(("no probe", "top-k", "snap", "local search"), 0)
        rows = 0
        for d in (2, 3, 4, 5):
            for k in range(150):
                grid = (3, 100, 1000)[k % 3]
                row = [rng.randint(0, grid) for _ in range(rng.randint(d, 10 if d < 5 else 9))]
                weights = tuple(sorted(row, reverse=True))
                best = mms_exhaustive(make_instance([row]), 1, d).value
                assert _search(weights, d, DEFAULT_NODE_BUDGET)[0] == best, (d, row)
                nz = weights[: len(weights) - weights.count(0)]
                if len(nz) < d:
                    continue
                rows += 1
                greedy, choice = _lpt_choice(nz, d)
                snap = _snapper(nz, _subset_sums(nz))
                top_k = _top_k_bound(nz, d)
                hi = snap(top_k)
                seed = _improve(nz, d, choice, hi) if greedy < hi else greedy
                assert greedy <= seed <= best <= hi <= top_k <= sum(nz) // d, (d, row)
                if seed == hi:
                    counts["no probe"] += 1
                    counts["top-k"] += snap(sum(nz) // d) > seed
                    counts["snap"] += top_k > seed
                    counts["local search"] += greedy < seed
        assert all(counts.values()), (counts, rows)

    def test_snap_is_the_largest_subset_sum_at_most_x(self, rng):
        for k in range(124):
            # The last four rows hold 13-16 goods.
            goods = rng.randint(1, 12) if k < 120 else k - 107
            nz = sorted((rng.randint(1, (3, 20, 100)[k % 3]) for _ in range(goods)), reverse=True)
            sums = sorted({sum(c for c, bit in zip(nz, bits) if bit) for bits in product((0, 1), repeat=len(nz))})
            table, listed = _snapper(nz, _subset_sums(nz)), _snapper(nz, None)
            for x in range(sum(nz) + 2):
                expected = sums[bisect_right(sums, x) - 1]
                assert table(x) == listed(x) == expected, (nz, x)
        # Past the table cap, rows of up to 24 goods snap, and longer rows keep the bound.
        assert _snapper([5] * 13, None)(31) == 30
        assert _snapper([5] * 24, None)(31) == 30
        assert _snapper([5] * 25, None)(31) == 31

    def test_probe_count_does_not_grow_with_the_digits(self, monkeypatch):
        probes = []
        cover = oracle._cover_assignment

        def counted(*args):
            probes.append(args[2])
            return cover(*args)

        monkeypatch.setattr(oracle, "_cover_assignment", counted)
        # Four goods of value 1/q, q = 10^2999 + {1, 3, 7, 9}: weights of
        # about 9000 digits. The split {1/q1, 1/q4} | {1/q2, 1/q3} is the
        # largest subset sum under half the total, so neither solve nor
        # verify probes (the binary search over the value range ran 9,966
        # probes here).
        values = [Fraction(1, 10**2999 + k) for k in (1, 3, 7, 9)]
        inst = make_instance([values, values])
        alloc, _ = solve(inst, ALPHA_MAX)
        assert check_alpha_mms(inst, alloc, ALPHA_MAX).passed
        assert probes == []
        # Past the table cap, a row of at most 24 goods snaps its bounds to
        # subset sums listed from its two halves, so a row whose seed misses
        # the optimum probes as often at 3000 digits as at two.
        c = 10**3000 + 7
        for row, d, best, count in [
            ((72, 55, 48, 42, 34, 17, 16, 4), 3, 93, 4),
            ((97, 96, 96, 83, 82, 78, 65, 63, 56, 40, 34, 29, 15, 12, 2), 4, 211, 3),
        ]:
            probes.clear()
            assert _search(row, d, DEFAULT_NODE_BUDGET)[0] == best
            small = len(probes)
            assert _search(tuple(w * c for w in row), d, DEFAULT_NODE_BUDGET)[0] == best * c
            assert small == len(probes) - small == count, row


# Descending rows of at most 11 goods, tie-heavy or generic, zeros included.
_DESCENDING_ROWS = st.lists(st.one_of(st.integers(0, 4), st.integers(0, 1000)), max_size=11).map(
    lambda row: tuple(sorted(row, reverse=True)))


class TestBracket:
    # `bracket` is the seed of every share search and of every rule decision
    # `reduce` makes without one; a bound off by one unit moves a decision.
    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_DESCENDING_ROWS, st.integers(1, 5))
    def test_bounds_the_exact_share_and_returns_the_seed(self, weights, d):
        lo, hi, choice = bracket(weights, d)
        inst = make_instance([weights])
        best = mms_exhaustive(inst, 1, d).value * inst.int_rows[0][1]
        assert lo <= best <= hi  # so lo = hi is the exact share
        positive = len(weights) - weights.count(0)
        assert ((lo, hi) == (0, 0)) == (positive < d)
        loads = [0] * d
        for w, j in zip(weights, choice):
            loads[j] += w
        assert len(choice) == positive and min(loads) == lo


def hard_rows_at_d_6():
    """Six rows of 22 goods on grid 1000."""
    draws = [random.Random(seed) for seed in range(6)]
    return [[draw.randint(1, 1000) for _ in range(22)] for draw in draws]


def grid_5_rows_at_d_17():
    """The first 40 rows of 50 goods on grid 5 whose greedy seed falls below
    total // 17."""
    rows = []
    seed = 0
    while len(rows) < 40:
        draw = random.Random(seed)
        row = [draw.randint(0, 5) for _ in range(50)]
        nz = sorted((v for v in row if v), reverse=True)
        if _lpt_choice(nz, 17)[0] < sum(nz) // 17:
            rows.append(row)
        seed += 1
    return rows


def record_budgets(monkeypatch):
    """Make every search budget record itself in the returned list, so a
    test can add up the nodes its searches spent."""
    made = []

    class Counted(_Budget):
        def __init__(self, limit):
            super().__init__(limit)
            made.append(self)

    monkeypatch.setattr(oracle, "_Budget", Counted)
    return made


class TestSearchTree:
    # Total search nodes on fixed rows. Values and witnesses alone would not
    # notice a pruning test that stopped cutting, a branching order that
    # moved or a bound that stopped tightening; these counts change with
    # any of them.
    @staticmethod
    def search_nodes(monkeypatch, rows, d):
        budgets = record_budgets(monkeypatch)
        for row in rows:
            _search(tuple(sorted(row, reverse=True)), d, DEFAULT_NODE_BUDGET)
        return sum(b.nodes for b in budgets)

    def test_hard_rows_at_d_6(self, monkeypatch):
        assert self.search_nodes(monkeypatch, hard_rows_at_d_6(), 6) == 145_652

    def test_grid_5_rows_at_d_17(self, monkeypatch):
        assert self.search_nodes(monkeypatch, grid_5_rows_at_d_17(), 17) == 972


def test_witness_read_is_free_and_valid_on_rows_that_probe(monkeypatch, rng):
    # The witness is the assignment that certified the value: the greedy
    # seed's, the local search's when no probe finds a cover, else the first
    # cover of the last feasible probe. It comes with the value, so reading
    # it spends no node, and a budget that certifies the value suffices.
    covers, improved = [], []
    cover, improve = oracle._cover_assignment, oracle._improve

    def recorded_cover(*args):
        found = cover(*args)
        if found is not None:
            covers.append([max(j, 0) for j in found])
        return found

    def recorded_improve(nz, d, choice, hi):
        low = improve(nz, d, choice, hi)
        improved.append(list(choice))
        return low

    monkeypatch.setattr(oracle, "_cover_assignment", recorded_cover)
    monkeypatch.setattr(oracle, "_improve", recorded_improve)
    budgets = record_budgets(monkeypatch)
    cases = [(row, 6) for row in hard_rows_at_d_6()] + [(row, 17) for row in grid_5_rows_at_d_17()]
    for k in range(300):
        d = 2 + k % 5
        cases.append(([rng.randint(0, (3, 20, 100)[k % 3]) for _ in range(rng.randint(d, 14))], d))
    sources = dict.fromkeys(("seed", "improve", "cover"), 0)
    for row, d in cases:
        inst = make_instance([row])
        for log in (covers, improved, budgets):
            log.clear()
        mms(inst, 1, d)
        nodes = sum(b.nodes for b in budgets)
        nz = sorted((v for v in row if v), reverse=True)
        seed = _lpt_choice(nz, d)[1]
        certifier = covers[-1] if covers else improved[-1] if improved else seed
        sources["cover" if covers else "seed" if certifier == seed else "improve"] += 1
        ranked = sorted(range(1, len(row) + 1), key=lambda g: (-row[g - 1], g))
        expected = [sorted(g for g, j in zip(ranked, certifier + [0] * len(row)) if j == b) for b in range(d)]
        res = mms(inst, 1, d, node_budget=nodes)
        spent = [b.nodes for b in budgets]
        assert [list(b.goods) for b in res.witness] == expected, (d, row)
        assert [b.nodes for b in budgets] == spent, (d, row)
        assert_valid_witness(inst, 1, d, res)
    assert all(sources.values()), sources


def test_value_only_callers_build_no_witness(monkeypatch):
    # `reduce` and `check_alpha_mms` read only `.value`: neither may rank the
    # goods or build a bundle, while reading `.witness` does both.
    class Built(Exception):
        pass

    def refuse(*args):
        raise Built

    cases = []
    for spec in default_corpus(50):
        inst = generate(spec)
        cases.append((inst, solve(inst, ALPHA_MAX)[0]))
    monkeypatch.setattr(oracle, "_bundles", refuse)
    monkeypatch.setattr(oracle, "scaled_ranking", refuse)
    for inst, alloc in cases:
        reduce(inst, Fraction(3, 3836))
        assert check_alpha_mms(inst, alloc, ALPHA_MAX).passed
        with pytest.raises(Built):
            mms(inst, 1, inst.n).witness


class TestOracleProperties:
    def test_scale_equivariance(self, rng):
        for _ in range(40):
            inst = random_instance(rng, n_max=3, m_max=7)
            agent = rng.randint(1, inst.n)
            c = Fraction(rng.randint(1, 10), rng.randint(1, 10))
            scaled = make_instance(
                [
                    [v * c if i == agent - 1 else v for v in row]
                    for i, row in enumerate(inst.values)
                ]
            )
            d = rng.randint(1, inst.n + 1)
            assert mms(scaled, agent, d).value == c * mms(inst, agent, d).value

    def test_removing_cheap_pair_keeps_share(self, rng):
        # Removing any set S of at most 2 goods worth at most the agent's
        # share, with one fewer bundle, never lowers that agent's share.
        checked = 0
        for _ in range(60):
            inst = random_instance(rng, n_max=3, m_max=7)
            if inst.n < 2:
                continue
            agent = rng.randint(1, inst.n)
            base = mms(inst, agent, inst.n).value
            g1 = rng.randint(1, inst.m)
            g2 = rng.randint(1, inst.m)
            s = Bundle.of({g1, g2})
            if value(inst, agent, s) > base:
                continue
            rest = Bundle.of(g for g in range(1, inst.m + 1) if g not in s)
            assert mms(restrict(inst, [agent], rest), 1, inst.n - 1).value >= base
            checked += 1
        assert checked > 10

    def test_removing_deep_triple_keeps_share(self, rng):
        # In an ordered instance, dropping goods ranked >= 2n-1, >= 2n,
        # >= 2n+1 together with one bundle never lowers any share; same for
        # the four-good variant at ranks 3n-2..3n+1.
        checked = 0
        for _ in range(80):
            n = rng.randint(2, 3)
            m = rng.randint(2 * n + 1, 8)
            row = sorted((rng.randint(0, 9) for _ in range(m)), reverse=True)
            inst = make_instance([row])
            base = mms(inst, 1, n).value
            g1 = rng.randint(2 * n - 1, m - 2)
            g2 = rng.randint(max(2 * n, g1 + 1), m - 1)
            g3 = rng.randint(max(2 * n + 1, g2 + 1), m)
            rest = Bundle.of(g for g in range(1, m + 1) if g not in {g1, g2, g3})
            assert mms(restrict(inst, [1], rest), 1, n - 1).value >= base
            checked += 1
            if m >= 3 * n + 1:
                quad = (3 * n - 2, 3 * n - 1, 3 * n, 3 * n + 1)
                rest4 = Bundle.of(g for g in range(1, m + 1) if g not in quad)
                assert mms(restrict(inst, [1], rest4), 1, n - 1).value >= base
        assert checked > 20

    def test_half_bounded_pairs_removal(self, rng):
        # Removing 2k goods each worth at most share/2 + x with k fewer
        # bundles keeps the share above share - 2x.
        checked = 0
        for _ in range(60):
            inst = random_instance(rng, n_max=4, m_max=8, grid=9)
            n, m = inst.n, inst.m
            if n < 2:
                continue
            agent = rng.randint(1, n)
            base = mms(inst, agent, n).value
            k = rng.randint(1, n - 1)
            if 2 * k > m:
                continue
            goods = list(range(1, m + 1))
            rng.shuffle(goods)
            s = Bundle.of(goods[: 2 * k])
            x = max(
                [value(inst, agent, Bundle.of([g])) - base / 2 for g in s] + [Fraction(0)]
            )
            rest = Bundle.of(g for g in range(1, m + 1) if g not in s)
            assert mms(restrict(inst, [agent], rest), 1, n - k).value >= base - 2 * x
            checked += 1
        assert checked > 15


def test_solve_and_verify_leave_numpy_unimported():
    # numpy is imported inside the reference enumerator only: importing the
    # package, solving and verifying must not pay its import time or memory.
    code = (
        "import sys, mmskit\n"
        "from mmskit.gen import default_corpus, generate\n"
        "for spec in default_corpus(5):\n"
        "    inst = generate(spec)\n"
        "    alloc, _ = mmskit.solve(inst, mmskit.ALPHA_MAX)\n"
        "    assert mmskit.check_alpha_mms(inst, alloc, mmskit.ALPHA_MAX).passed\n"
        "sys.exit('numpy was imported' if 'numpy' in sys.modules else 0)\n"
    )
    env = {**os.environ, "PYTHONPATH": str(Path(mmskit.__file__).parents[1])}
    proc = subprocess.run([sys.executable, "-c", code], env=env)
    assert proc.returncode == 0


class TestBudget:
    def test_budget_exceeded_is_an_error(self):
        # Neither the improved seed nor the snapped bound reaches the optimum
        # 2743, so the value search must probe; its probes take 25 nodes.
        row = [937, 929, 919, 911, 907, 887, 883, 881, 877, 863]
        inst = make_instance([row])
        with pytest.raises(OracleBudgetExceeded):
            mms(inst, 1, 3, node_budget=5)
        assert mms(inst, 1, 3, node_budget=25).value == 2743

    def test_budget_error_carries_counts(self):
        inst = make_instance([[977, 953, 911, 877, 859, 823, 787]])
        with pytest.raises(OracleBudgetExceeded) as exc:
            mms(inst, 1, 3, node_budget=2)
        assert exc.value.budget == 2 and exc.value.nodes > 2

    def test_negative_budget_is_a_domain_error(self):
        inst = make_instance([[977, 953, 911, 877, 859, 823, 787]])
        with pytest.raises(DomainError, match="nonnegative"):
            mms(inst, 1, 3, node_budget=-5)
        # Budget 0 is legal: it allows no search nodes.
        assert mms(inst, 1, 1, node_budget=0).value == 6187
        with pytest.raises(OracleBudgetExceeded):
            mms(inst, 1, 3, node_budget=0)

    def test_each_call_is_held_to_its_own_budget(self):
        # A share certified under the default budget must not answer a later
        # call whose own budget is too small to certify it.
        inst = make_instance([[9, 8, 7, 6, 5, 4, 3, 2, 1]])
        assert mms(inst, 1, 3).value == 15
        with pytest.raises(OracleBudgetExceeded) as exc:
            mms(inst, 1, 3, node_budget=1)
        assert (exc.value.nodes, exc.value.budget) == (2, 1)

    def test_every_call_searches(self, monkeypatch):
        # No share outlives its call: rows with one multiset of values, and a
        # repeated call, each run their own search, whose first step is the
        # bracket.
        calls = []
        real = oracle.bracket

        def counted(weights, d):
            calls.append(weights)
            return real(weights, d)

        monkeypatch.setattr(oracle, "bracket", counted)
        inst = make_instance([[5, 3, 8, 1, 4], [8, 1, 3, 5, 4], [4, 1, 5, 8, 3]])
        shares = [mms(inst, i, 2).value for i in (1, 2, 3, 1)]
        assert shares == [10, 10, 10, 10]
        assert len(calls) == 4
