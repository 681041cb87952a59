from __future__ import annotations

from fractions import Fraction
from itertools import product
from math import lcm

import pytest

from mmskit import (
    Bundle,
    DomainError,
    OracleBudgetExceeded,
    Partition,
    mms,
    mms_exhaustive,
    value,
)
from mmskit.oracle import _search, clear_cache

from conftest import make_instance, random_instance


def witness_values(inst, agent, result):
    return [value(inst, agent, b) for b in result.witness]


def assert_valid_witness(inst, agent, d, subset, result):
    ground = Bundle.of(subset) if subset is not None else inst.all_goods()
    assert len(result.witness) == d
    seen = [g for b in result.witness for g in b]
    assert sorted(seen) == sorted(ground.goods)
    assert min(witness_values(inst, agent, result)) == result.value


class TestMmsExamples:
    def test_identical_goods(self):
        inst = make_instance([[1, 1, 1, 1]])
        res = mms(inst, 1, 2)
        assert res.value == 2
        assert_valid_witness(inst, 1, 2, None, res)

    def test_three_goods_two_bundles(self):
        # exhaustive enumeration over all 2^3 assignments confirms max-min = 3
        inst = make_instance([[3, 2, 1]])
        res = mms(inst, 1, 2)
        assert res.value == 3
        assert res.witness.bundles == (Bundle.of([1]), Bundle.of([2, 3]))

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

    def test_subset_restriction(self):
        inst = make_instance([[5, 4, 3, 2, 1]])
        res = mms(inst, 1, 2, Bundle.of([2, 3, 4]))
        assert res.value == 4  # {4} vs {3,2}
        assert_valid_witness(inst, 1, 2, [2, 3, 4], res)


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
            assert_valid_witness(inst, 1, d, None, res)

    def test_five_goods_three_bundles(self):
        # Enumeration over 3^5 assignments: a perfect split {1},{2,5},{3,4}
        # reaches min 5, so the optimum is 5 (= 15/3).
        inst = make_instance([[5, 4, 3, 2, 1]])
        res = mms_exhaustive(inst, 1, 3)
        assert res.value == 5
        assert_valid_witness(inst, 1, 3, None, res)
        assert mms(inst, 1, 3).value == 5

    def test_d_one_returns_total(self):
        inst = make_instance([[5, 4, 3, 2, 1]])
        res = mms_exhaustive(inst, 1, 1)
        assert res.value == 15
        assert res.witness.bundles == (Bundle.of([1, 2, 3, 4, 5]),)

    def test_cap_enforced(self):
        inst = make_instance([[1] * 13])
        with pytest.raises(DomainError):
            mms_exhaustive(inst, 1, 2)
        assert mms_exhaustive(inst, 1, 2, cap=13).value == 6

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
            clear_cache()
            a = mms(inst, agent, d)
            b = mms_exhaustive(inst, agent, d)
            assert a.value == b.value
            assert_valid_witness(inst, agent, d, None, a)

    def test_rational_values(self, rng):
        for _ in range(60):
            n, m = 1, rng.randint(1, 7)
            row = [Fraction(rng.randint(0, 12), rng.randint(1, 9)) for _ in range(m)]
            inst = make_instance([row])
            d = rng.randint(1, 3)
            clear_cache()
            assert mms(inst, 1, d).value == mms_exhaustive(inst, 1, d).value

    def test_restricted_subsets(self, rng):
        for _ in range(150):
            m = rng.randint(2, 12)
            row = [rng.randint(0, 9) for _ in range(m)]
            inst = make_instance([row])
            k = rng.randint(1, min(m, 10))
            goods = list(range(1, m + 1))
            rng.shuffle(goods)
            subset = Bundle.of(goods[:k])
            d = rng.randint(1, 4)
            clear_cache()
            a = mms(inst, 1, d, subset)
            b = mms_exhaustive(inst, 1, d, subset)
            assert a.value == b.value
            assert_valid_witness(inst, 1, d, subset.goods, a)


def first_maximiser(inst, agent, d, ids):
    """Brute force in the reference's documented order: the lowest good id is
    the most significant digit, and the first vector reaching the optimum wins."""
    row = inst.row(agent)
    best, best_vec = None, None
    for vec in product(range(d), repeat=len(ids)):
        loads = [Fraction(0)] * d
        for g, j in zip(ids, vec):
            loads[j] += row[g - 1]
        if best is None or min(loads) > best:
            best, best_vec = min(loads), vec
    bundles = (Bundle.of(g for g, j in zip(ids, best_vec) if j == b) for b in range(d))
    return best, Partition(tuple(bundles))


class TestExhaustiveBeyondInt64:
    # Scaled weights summing to 2^62 or more overflow int64 loads, so the
    # reference must switch to Python integers and still pick the same witness.
    PRIMES = (2147483647, 2147483629, 2147483587, 2147483579, 2147483563, 2147483549, 2147483543)

    def check(self, inst, d, ids):
        subset = Bundle.of(ids)
        clear_cache()
        res = mms_exhaustive(inst, 1, d, subset)
        assert res.value == mms(inst, 1, d, subset).value
        assert (res.value, res.witness) == first_maximiser(inst, 1, d, ids)

    def cases(self, rng, rows):
        big = 0
        for k, row in enumerate(rows):
            inst = make_instance([row])
            m = len(row)
            goods = list(range(1, m + 1))
            rng.shuffle(goods)
            for ids in (goods, goods[: rng.randint(1, m - 1)], []):
                d = 1 if k % 4 == 0 else rng.randint(2, 4)
                self.check(inst, d, sorted(ids))
                vals = [row[g - 1] for g in ids]
                scale = lcm(*(v.denominator for v in vals)) if vals else 1
                big += sum(vals) * scale >= 2**62
        return big

    def test_integers_near_two_to_the_61(self, rng):
        rows = [[2**61 - rng.below(2**40) for _ in range(rng.randint(3, 7))] for _ in range(12)]
        rows.append([2**61] * 5)  # all ties: the first vector in enumeration order wins
        assert self.cases(rng, rows) >= 13

    def test_fractions_with_large_lcm(self, rng):
        # Distinct prime denominators near 2^31: any two goods scale past 2^62.
        rows = []
        for m in (3, 4, 5, 6, 7, 7):
            primes = rng.shuffle(list(self.PRIMES))[:m]
            rows.append([Fraction(p - rng.below(2**20), p) for p in primes])
        assert self.cases(rng, rows) >= 6


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
                clear_cache()
                res = mms(inst, 1, d)
                assert res.value == mms_exhaustive(inst, 1, d).value, (d, row)
                assert_valid_witness(inst, 1, d, None, res)
                below += res.value < sum(row) // d
                cases += 1
        assert 2 * below >= cases, f"only {below} of {cases} optima sit below total // d"


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
            assert mms(inst, agent, inst.n - 1, rest).value >= base
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
            assert mms(inst, 1, n - 1, rest).value >= base
            checked += 1
            if m >= 3 * n + 1:
                quad = (3 * n - 2, 3 * n - 1, 3 * n, 3 * n + 1)
                rest4 = Bundle.of(g for g in range(1, m + 1) if g not in quad)
                assert mms(inst, 1, n - 1, rest4).value >= base
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
            assert mms(inst, agent, n - k, rest).value >= base - 2 * x
            checked += 1
        assert checked > 15


class TestBudget:
    def test_budget_exceeded_is_an_error(self):
        row = [977, 953, 911, 877, 859, 823, 787, 757, 733, 701, 683, 659]
        inst = make_instance([row])
        clear_cache()
        with pytest.raises(OracleBudgetExceeded):
            mms(inst, 1, 3, node_budget=5)

    def test_budget_error_carries_counts(self):
        inst = make_instance([[977, 953, 911, 877, 859, 823, 787]])
        clear_cache()
        with pytest.raises(OracleBudgetExceeded) as exc:
            mms(inst, 1, 3, node_budget=2)
        assert exc.value.budget == 2 and exc.value.nodes > 2

    def test_budget_is_part_of_the_memo_key(self):
        # A share memoized under the default budget must not answer a call
        # whose own budget is too small to certify it.
        inst = make_instance([[9, 8, 7, 6, 5, 4, 3, 2, 1]])
        clear_cache()
        assert mms(inst, 1, 3).value == 15
        with pytest.raises(OracleBudgetExceeded) as exc:
            mms(inst, 1, 3, node_budget=1)
        assert (exc.value.nodes, exc.value.budget) == (2, 1)

    def test_same_value_multiset_is_searched_once(self):
        inst = make_instance([[5, 3, 8, 1, 4], [8, 1, 3, 5, 4], [4, 1, 5, 8, 3]])
        clear_cache()
        shares = [mms(inst, i, 2).value for i in (1, 2, 3)]
        assert shares == [10, 10, 10]
        assert _search.cache_info().misses == 1
