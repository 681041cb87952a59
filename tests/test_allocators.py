from __future__ import annotations

from fractions import Fraction

import pytest

from mmskit import (
    ALPHA_MAX,
    Bundle,
    ContractViolation,
    DELTA_DEFAULT,
    DomainError,
    GuaranteeViolation,
    Instance,
    approx_mms1,
    approx_mms2,
    bag_fill,
    check_alpha_mms,
    classify_agents,
    complete_allocation,
    mms,
    solve,
    to_delta_oni,
    value,
)
from mmskit.allocators import (
    BagState,
    _fill_b_bags,
    _small_n1_1,
    b_bag_ids,
    c_bag_ids,
)
from conftest import make_instance

DELTA = DELTA_DEFAULT
ALPHA34 = Fraction(3, 4)
HALF = Fraction(1, 2)


def oni_of(inst, eps=Fraction(3, 3836)):
    return to_delta_oni(inst, eps)[0]


class TestBagIds:
    def test_pair_bags(self):
        assert [b_bag_ids(k, 3) for k in (1, 2, 3)] == [(1, 6), (2, 5), (3, 4)]

    def test_triple_bags_match_published_layout(self):
        assert [c_bag_ids(k, 3) for k in (1, 2, 3)] == [(1, 6, 7), (2, 5, 8), (3, 4, 9)]


class TestClassifyAgents:
    def test_uniform_halves(self):
        inst = make_instance([[HALF] * 4] * 2)
        cls = classify_agents(inst, DELTA)
        assert cls.n1 == {1, 2} and cls.n2 == frozenset()
        # good 5 is a zero dummy, below the 1/4 - 5*delta line
        assert cls.n1_1 == frozenset() and cls.n1_2 == {1, 2}

    def test_strict_threshold_for_big_bags(self):
        row_hot = [Fraction(1, 2) + Fraction(1, 100), HALF, HALF, HALF]
        row_cool = [HALF] * 4
        cls = classify_agents(make_instance([row_hot, row_cool]), DELTA)
        assert cls.n2 == {1} and cls.n1 == {2}

    def test_quarter_tail_lands_in_n1_1(self):
        inst = make_instance([[HALF] * 4 + [Fraction(1, 4)]] * 2)
        cls = classify_agents(inst, DELTA)
        assert cls.n1_1 == {1, 2}

    def test_requires_enough_goods(self):
        with pytest.raises(ContractViolation):
            classify_agents(make_instance([[1, 1, 1]] * 2), DELTA)

    def test_requires_ordered(self):
        with pytest.raises(ContractViolation):
            classify_agents(make_instance([[1, 2, 2, 2]] * 2), DELTA)


class TestBagFill:
    def test_single_agent_gets_enough(self):
        inst = oni_of(make_instance([[1] * 12]), Fraction(0))
        assert inst.n == 1
        alloc = bag_fill(inst, ALPHA34)
        assert value(inst, 1, alloc.bundles[0]) >= ALPHA34

    def test_uniform_halves_awarded_immediately(self):
        inst = make_instance([[HALF] * 4] * 2)
        alloc = bag_fill(inst, ALPHA34)
        assert alloc.bundles == (Bundle.of([1, 4]), Bundle.of([2, 3]))
        assert len(alloc.unassigned) == 0

    def test_random_zero_oni_instances_reach_three_quarters(self, rng):
        checked = 0
        for _ in range(40):
            n, m = rng.randint(2, 4), rng.randint(12, 16)
            raw = make_instance([[rng.randint(8, 11) for _ in range(m)] for _ in range(n)])
            inst = oni_of(raw, Fraction(0))
            if inst.n == 0:
                continue
            alloc = bag_fill(inst, ALPHA34)
            report = check_alpha_mms(inst, alloc, ALPHA34)
            assert report.passed
            checked += 1
        assert checked > 3

    def test_alpha_above_three_quarters_rejected(self):
        inst = make_instance([[HALF] * 4] * 2)
        with pytest.raises(DomainError):
            bag_fill(inst, ALPHA34 + Fraction(1, 100))

    def test_exhaustion_raises_with_state(self):
        # all-zero values break the allocator's preconditions on purpose
        inst = Instance.from_rows([[0, 0, 0, 0], [0, 0, 0, 0]])
        with pytest.raises(GuaranteeViolation) as exc:
            _fill_b_bags(inst, ALPHA34, frozenset())
        state = exc.value.state
        assert set(state) == {"alpha", "bags", "pool", "waiting", "satisfied"}
        assert state["pool"] == []

    def test_triple_bag_exhaustion_state_in_input_ids(self):
        # agent 1 takes starting bag {1, 6}; the triple bags left for agents 2
        # and 3 stay below the threshold with no good left to add
        inst = Instance.from_rows([[Fraction(3, 5)] + [Fraction(1, 4)] * 7] * 3)
        with pytest.raises(GuaranteeViolation) as exc:
            approx_mms2(inst, DELTA)
        state = exc.value.state
        assert state["bags"] == {"1": [2, 5, 7], "2": [3, 4, 8]}
        assert state["pool"] == []
        assert state["waiting"] == [2, 3]
        assert state["satisfied"] == {"1": [1, 6]}

    def test_awards_meet_threshold_exactly(self, rng):
        for _ in range(25):
            n, m = rng.randint(2, 4), rng.randint(12, 16)
            raw = make_instance([[rng.randint(8, 11) for _ in range(m)] for _ in range(n)])
            inst = oni_of(raw, Fraction(0))
            if inst.n == 0:
                continue
            audit = []
            _fill_b_bags(inst, ALPHA34, frozenset(), audit)
            for event in audit:
                assert value(inst, event["recipient"], event["bag"]) >= ALPHA34


class TestBagState:
    def test_partition_checker_fires_on_corruption(self):
        state = BagState(bags={1: [1, 2]}, pool=[3], satisfied={})
        state.check_partition({1, 2, 3})
        state.pool.append(2)  # duplicate
        with pytest.raises(ContractViolation):
            state.check_partition({1, 2, 3})


class TestPriority:
    def test_priority_agent_preferred_on_ties(self):
        # both agents value every bag the same; priority class wins the first bag
        inst = make_instance([[HALF] * 4] * 2)
        audit = []
        _fill_b_bags(inst, ALPHA34, frozenset({2}), audit)
        assert audit[0]["recipient"] == 2

    def test_priority_sound_on_replay(self, rng):
        # whenever a bag goes to an agent outside the priority class, no
        # priority agent valued it at the threshold at that moment
        for _ in range(30):
            n, m = rng.randint(2, 4), rng.randint(12, 16)
            raw = make_instance([[rng.randint(8, 11) for _ in range(m)] for _ in range(n)])
            inst = oni_of(raw, Fraction(0))
            if inst.n == 0:
                continue
            priority = frozenset(i for i in range(1, inst.n + 1) if rng.below(2) == 0)
            audit = []
            _fill_b_bags(inst, ALPHA34, priority, audit)
            for event in audit:
                if event["recipient"] not in priority:
                    assert not event["eligible_priority"]


class TestApproxMms1:
    def test_empty_priority_class_is_plain_fill(self):
        inst = make_instance([[HALF] * 4] * 2)  # n1_1 empty here
        cls = classify_agents(inst, DELTA)
        assert cls.n1_1 == frozenset()
        alloc = approx_mms1(inst, DELTA, cls)
        assert alloc == _fill_b_bags(inst, ALPHA34 + DELTA, frozenset())

    def test_single_agent(self):
        inst = oni_of(make_instance([[1] * 12]))
        assert inst.n == 1
        alloc = approx_mms1(inst, DELTA)
        assert value(inst, 1, alloc.bundles[0]) >= ALPHA34 + DELTA

    def test_delta_cap(self):
        inst = make_instance([[HALF] * 4] * 2)
        with pytest.raises(ContractViolation):
            approx_mms1(inst, Fraction(12, 1000))

    def test_case_split_contract(self):
        # every agent in n1_1 violates the small-class precondition
        inst = make_instance([[HALF] * 4 + [Fraction(1, 4)] * 2] * 2)
        with pytest.raises(ContractViolation):
            approx_mms1(inst, DELTA)


class TestApproxMms2:
    def test_pair_rule_fires_on_leftover_halves(self):
        # halves-and-quarters shape: {H,Q,Q} x2 bundles
        inst = oni_of(make_instance([[30, 30, 15, 15, 15, 15]] * 2))
        cls = classify_agents(inst, DELTA)
        assert cls.n1_1 == {1, 2}
        alloc, counts = approx_mms2(inst, DELTA, cls)
        assert counts["R5"] == 1
        report = check_alpha_mms(inst, alloc, ALPHA34 + DELTA)
        assert report.passed

    def test_triple_bags_grown_from_tail(self):
        # shape that reaches the bag-growing phase: one half, quarters
        # through rank 2n+1, small tail
        inst = oni_of(make_instance([[30, 15, 15, 15, 15, 8, 7, 4, 4, 4, 3]] * 2))
        cls = classify_agents(inst, DELTA)
        alloc, counts = approx_mms2(inst, DELTA, cls)
        assert counts == {"R2": 0, "R3": 0, "R5": 0}
        # first bag is awarded as seeded; the second grew past its seed
        assert len(alloc.bundles[0]) == 3 or len(alloc.bundles[1]) == 3
        assert check_alpha_mms(inst, alloc, ALPHA34 + DELTA).passed

    def test_case_split_contract(self):
        inst = make_instance([[HALF] * 4] * 2)  # n1_1 empty: small case
        with pytest.raises(ContractViolation):
            approx_mms2(inst, DELTA)

    def test_delta_cap(self):
        inst = make_instance([[HALF] * 4 + [Fraction(1, 4)] * 2] * 2)
        with pytest.raises(ContractViolation):
            approx_mms2(inst, DELTA + Fraction(1, 10000))


class TestMainDriver:
    def test_single_agent_gets_everything_worthwhile(self):
        inst = make_instance([[5, 4, 3]])
        alloc = solve(inst, ALPHA_MAX)[0]
        share = mms(inst, 1, 1).value
        assert value(inst, 1, alloc.bundles[0]) >= ALPHA_MAX * share

    def test_alpha_constant_identity(self):
        # (1 - 4*eps) * (3/4 + delta) at eps = 3/3836, delta = 3/956 is the
        # driver's guarantee and equals its alpha cap
        eps = Fraction(3, 3836)
        assert (1 - 4 * eps) * (ALPHA34 + DELTA) == ALPHA34 + eps == ALPHA_MAX

    def test_alpha_out_of_range(self):
        inst = make_instance([[1]])
        with pytest.raises(DomainError) as exc:
            solve(inst, Fraction(9, 10))[0]
        assert "3/4 + 3/3836" in str(exc.value)
        with pytest.raises(DomainError):
            solve(inst, Fraction(0))[0]

    def test_low_alpha_routes_to_plain_fill(self):
        inst = make_instance([[9, 7, 5, 4, 3, 2, 2, 1], [8, 8, 6, 5, 3, 3, 2, 1]])
        alloc, info = solve(inst, Fraction(2, 3))
        assert info.branch == "bagfill"
        assert check_alpha_mms(inst, alloc, Fraction(2, 3)).passed

    def test_delta_validation(self):
        inst = make_instance([[1, 1]])
        with pytest.raises(DomainError):
            solve(inst, ALPHA_MAX, delta=Fraction(1, 100))  # above 3/956
        with pytest.raises(DomainError):
            solve(inst, ALPHA_MAX, delta=Fraction(0))
        with pytest.raises(DomainError, match="too small"):
            solve(inst, ALPHA_MAX, delta=Fraction(3, 1000))  # below 4*eps/(1-4*eps) = 3/956

    def test_branches_dispatch_and_verify(self, rng):
        seen = set()
        for _ in range(25):
            n, m = rng.randint(2, 4), rng.randint(8, 14)
            inst = make_instance(
                [[rng.randint(0, 20) for _ in range(m)] for _ in range(n)]
            )
            alloc, info = solve(inst, ALPHA_MAX)
            seen.add(info.branch)
            assert check_alpha_mms(inst, alloc, ALPHA_MAX).passed
        halves = make_instance([[30, 30, 15, 15, 15, 15]] * 2)
        alloc, info = solve(halves, ALPHA_MAX)
        assert info.branch == "mms2"
        assert check_alpha_mms(halves, alloc, ALPHA_MAX).passed
        seen.add(info.branch)
        assert {"mms1", "mms2"} <= seen

    def test_empty_instances(self):
        empty = Instance(n=0, m=0, values=())
        assert solve(empty, ALPHA_MAX)[0] == type(solve(empty, ALPHA_MAX)[0])(
            bundles=(), unassigned=Bundle()
        )
        goods_only = Instance(n=0, m=3, values=())
        alloc = solve(goods_only, ALPHA_MAX)[0]
        assert alloc.unassigned == Bundle.of([1, 2, 3])

    def test_zero_share_agent_is_fine(self):
        inst = make_instance([[0, 0, 0], [1, 2, 3]])
        alloc, info = solve(inst, ALPHA_MAX)
        assert check_alpha_mms(inst, alloc, ALPHA_MAX).passed


class TestCompleteAllocation:
    def test_pool_folds_into_first_bundle(self):
        from mmskit import Allocation

        alloc = Allocation(bundles=(Bundle.of([2]), Bundle.of([3])), unassigned=Bundle.of([1, 4]))
        done = complete_allocation(alloc)
        assert done.bundles[0] == Bundle.of([1, 2, 4])
        assert len(done.unassigned) == 0

    def test_noop_without_agents(self):
        from mmskit import Allocation

        alloc = Allocation(bundles=(), unassigned=Bundle.of([1]))
        assert complete_allocation(alloc) == alloc
