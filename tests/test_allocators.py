from __future__ import annotations

from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mmskit import (
    ALPHA_MAX,
    Bundle,
    RuleId,
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
from mmskit import allocators
from mmskit.allocators import (
    AgentClassification,
    BagState,
    _fill_b_bags,
    _small_n1_1,
    b_bag_ids,
    c_bag_ids,
)
from mmskit.gen import default_corpus, generate
from mmskit.transforms import restrict
from conftest import make_instance

DELTA = DELTA_DEFAULT
ALPHA34 = Fraction(3, 4)
HALF = Fraction(1, 2)


def oni_of(inst, eps=Fraction(3, 3836)):
    return to_delta_oni(inst, eps)[0]


@st.composite
def _ordered_rows(draw):
    """Non-increasing rows of "p/q" values in [0, 1] with denominators 1, 4
    and 12, at n 1-5 and m 2n to 2n + 10."""
    n = draw(st.integers(1, 5))
    m = draw(st.integers(2 * n, 2 * n + 10))
    value = st.sampled_from([f"{p}/{q}" for q in (1, 4, 12) for p in range(q + 1)])
    return [sorted(draw(st.lists(value, min_size=m, max_size=m)), key=Fraction, reverse=True)
            for _ in range(n)]


def reference_fill(values, alpha, priority):
    """The bag-filling policy as `_award_or_grow` states it, in Fractions:
    the lowest-index open bag some waiting agent values at alpha or more goes
    to a priority member among them first, else to the lowest id; otherwise
    the first pool good joins the lowest-index open bag. Returns the awards
    as (bag, recipient, eligible)."""
    n, m = len(values), len(values[0])
    bags = {k: list(b_bag_ids(k, n)) for k in range(1, n + 1)}
    pool = list(range(2 * n + 1, m + 1))
    waiting = set(range(1, n + 1))
    awards = []
    while waiting and bags:
        for k in sorted(bags):
            eligible = tuple(
                i for i in sorted(waiting) if sum(values[i - 1][g - 1] for g in bags[k]) >= alpha
            )
            if eligible:
                agent = next((i for i in eligible if i in priority), eligible[0])
                awards.append((Bundle.of(bags.pop(k)), agent, eligible))
                waiting.remove(agent)
                break
        else:
            if not pool:
                break
            bags[min(bags)].append(pool.pop(0))
    return awards


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


SPLIT_DELTAS = (Fraction(0), Fraction(1, 1000), DELTA, Fraction(11, 1000))


def classes_with_n1_1(k: int) -> AgentClassification:
    return AgentClassification(
        n1=frozenset(range(1, k + 1)), n2=frozenset(), n1_1=frozenset(range(1, k + 1)),
        n1_2=frozenset(),
    )


class TestIntegerThresholds:
    """`solve`'s thresholds compared in integers say exactly what their
    Fraction definitions say."""

    @pytest.mark.parametrize("delta", SPLIT_DELTAS)
    def test_case_split_matches_fraction_definition(self, delta):
        for n in range(1, 81):
            for k in range(n + 1):
                expected = k * (Fraction(1, 4) + delta / 3) <= n * (Fraction(1, 4) - delta)
                assert _small_n1_1(classes_with_n1_1(k), n, delta) is expected, (n, k)

    def test_case_split_equality_point(self):
        # 59 * (1/4 + 1/956) == 60 * (1/4 - 3/956): 59 * 240 == 60 * 236.
        assert 59 * (Fraction(1, 4) + DELTA / 3) == 60 * (Fraction(1, 4) - DELTA)
        assert _small_n1_1(classes_with_n1_1(59), 60, DELTA)
        assert not _small_n1_1(classes_with_n1_1(60), 60, DELTA)

    @pytest.mark.parametrize("delta", SPLIT_DELTAS)
    def test_heavy_tail_at_equality(self, delta):
        # One n1 agent (its pair bag {1, 2} is worth exactly 1) whose good
        # 2n + 1 = 3 sits one step below, at, or one step above 1/4 - 5 delta.
        bound = Fraction(1, 4) - 5 * delta
        step = Fraction(1, 7 * bound.denominator)
        for tail in (bound - step, bound, bound + step):
            cls = classify_agents(Instance.from_rows([[HALF, HALF, tail]]), delta)
            assert cls.n1 == {1}
            assert (cls.n1_1 == {1}) is (tail >= bound), tail

    def test_invalid_parameters_raise_on_every_call(self):
        inst = make_instance([[1, 1]])
        solve(inst, ALPHA34)  # a valid pair first
        solve(inst, ALPHA_MAX)
        for _ in range(3):
            with pytest.raises(DomainError, match="alpha must be positive"):
                solve(inst, Fraction(0))
            with pytest.raises(DomainError, match="at most"):
                solve(inst, Fraction(9, 10))
            with pytest.raises(DomainError, match="int or a Fraction"):
                solve(inst, 0.75)  # equal to, and hashing like, 3/4
            with pytest.raises(DomainError, match="delta must be in"):
                solve(inst, ALPHA_MAX, delta=Fraction(1, 100))
            with pytest.raises(DomainError, match="too small"):
                solve(inst, ALPHA_MAX, delta=Fraction(3, 1000))
            with pytest.raises(DomainError, match="int or a Fraction"):
                solve(inst, ALPHA_MAX, delta=float(DELTA))
            with pytest.raises(ContractViolation, match="11/1000"):
                approx_mms1(inst, Fraction(12, 1000))
            with pytest.raises(ContractViolation, match="3/956"):
                approx_mms2(inst, Fraction(-1, 1000))


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

    @pytest.mark.parametrize("rows, message", [([[1, 2, 2, 2]] * 2, "ordered"),
                                               ([[1, 1, 1]] * 2, "m >= 2n")],
                             ids=["unordered", "m-below-2n"])
    def test_requires_ordered_and_enough_goods(self, rows, message):
        with pytest.raises(ContractViolation, match=message):
            bag_fill(make_instance(rows), ALPHA34)

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

    @settings(max_examples=400, deadline=None, derandomize=True, database=None)
    @given(_ordered_rows(), st.integers(0, 16), st.data())
    def test_engine_matches_policy_definition(self, rows, eighths, data):
        # Any ordered rows, priority set and threshold in eighths up to 2 (so
        # that bags grow past their pairs and pools run out), preconditions
        # or not: every award, with the agents eligible for it, is the policy's.
        inst = make_instance(rows)
        alpha = Fraction(eighths, 8)
        priority = frozenset(data.draw(st.sets(st.integers(1, inst.n))))
        audit = []
        try:
            _fill_b_bags(inst, alpha, priority, audit)
        except GuaranteeViolation:
            pass
        got = [(e["bag"], e["recipient"], e["eligible"]) for e in audit]
        assert got == reference_fill(inst.values, alpha, priority)


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

    def test_skipped_pair_rule_is_a_contract_violation(self, monkeypatch):
        # Stage 3 needs R5 off. An engine that misses an applicable R5 once
        # must fail loudly, as a ContractViolation that `python -O` keeps.
        real, missed = allocators.first_rule, []

        def miss_pair_rule_once(*args, **kwargs):
            if (RuleId.R5,) in args and not missed:
                missed.append(args)
                return None
            return real(*args, **kwargs)

        monkeypatch.setattr(allocators, "first_rule", miss_pair_rule_once)
        inst = oni_of(make_instance([[30, 30, 15, 15, 15, 15]] * 2))
        with pytest.raises(ContractViolation, match="R5"):
            approx_mms2(inst, DELTA)

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
        empty = Instance(n=0, m=0, int_rows=())
        assert solve(empty, ALPHA_MAX)[0] == type(solve(empty, ALPHA_MAX)[0])(
            bundles=(), unassigned=Bundle()
        )
        goods_only = Instance(n=0, m=3, int_rows=())
        alloc = solve(goods_only, ALPHA_MAX)[0]
        assert alloc.unassigned == Bundle.of([1, 2, 3])

    def test_sub_instance_solves_like_its_rows_built_fresh(self):
        # An instance is only its value matrix: solving the corpus instances
        # with their agents reversed by `restrict` must pass and give what the
        # same rows built fresh give.
        for spec in default_corpus(400):
            inst = generate(spec)
            flipped = restrict(inst, range(inst.n, 0, -1), range(1, inst.m + 1))
            alloc = solve(flipped, ALPHA_MAX)[0]
            assert check_alpha_mms(flipped, alloc, ALPHA_MAX).passed
            assert alloc == solve(make_instance(flipped.values), ALPHA_MAX)[0]

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
