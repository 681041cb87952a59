from __future__ import annotations

from fractions import Fraction
from math import ceil, lcm

import pytest
from hypothesis import given, settings, strategies as st

from mmskit import (
    Allocation,
    BoundsError,
    Bundle,
    ContractViolation,
    DomainError,
    Instance,
    RuleId,
    apply_rule,
    check_oni,
    is_ordered,
    lift_allocation,
    lift_ordered_allocation,
    mms,
    normalize,
    order,
    reduce,
    solve,
    to_delta_oni,
    value,
)
from mmskit import oracle, transforms
from mmskit.core import int_row
from mmskit.gen import GenSpec, default_corpus, generate
from mmskit.transforms import (
    REDUCTION_RULES,
    _rule_goods,
    first_rule,
    meets_bar,
    reaching,
    restrict,
    rule_good_ids,
    rule_rows,
)

from conftest import make_instance, random_instance

EPS0 = Fraction(0)
ALPHA34 = Fraction(3, 4)


# Small values with many zeros and ties, as integers or "p/q" text; rows of
# fewer positive goods than agents have a zero share.
_PQ_VALUES = st.one_of(
    st.integers(0, 9), st.builds("{}/{}".format, st.integers(0, 12), st.sampled_from([1, 2, 3, 4, 6]))
)
_PQ_INSTANCES = st.integers(1, 5).flatmap(lambda n: st.integers(0, 11).flatmap(
    lambda m: st.lists(st.lists(_PQ_VALUES, min_size=m, max_size=m), min_size=n, max_size=n)))


def applicable(inst, rule, alpha, priority=None):
    """The agent the rule engine picks for one rule, or None."""
    rows, bars = rule_rows(inst, alpha)
    fired = first_rule(rows, bars, bars, (rule,), priority)
    return fired and fired[1]


def share_rows(inst, alpha, shares):
    """Rows of `inst` over their own L, each with the bar of the definition,
    ceil(alpha * share * L): the numerator sum that reaches alpha * share."""
    rows = [list(ints) for ints, _ in inst.int_rows]
    return rows, [ceil(alpha * s * den) for s, (_, den) in zip(shares, inst.int_rows)]


class TestOrder:
    def test_single_row_sort(self):
        ordered, omap = order(make_instance([[1, 5, 3]]))
        assert ordered.values == ((Fraction(5), Fraction(3), Fraction(1)),)
        assert omap == ((2, 3, 1),)

    def test_idempotent_on_ordered_input(self):
        inst = make_instance([[5, 3, 1], [2, 2, 0]])
        ordered, omap = order(inst)
        assert ordered.values == inst.values
        assert omap == ((1, 2, 3), (1, 2, 3))

    def test_per_agent_independent_sort(self):
        ordered, omap = order(make_instance([[1, 2], [2, 1]]))
        assert ordered.values == ((Fraction(2), Fraction(1)),) * 2
        assert omap == ((2, 1), (1, 2))

    def test_preserves_value_multisets(self, rng):
        for _ in range(30):
            inst = random_instance(rng)
            ordered, _ = order(inst)
            assert is_ordered(ordered)
            for i in range(inst.n):
                assert sorted(ordered.values[i]) == sorted(inst.values[i])


class TestLiftOrderedAllocation:
    def test_identity_lift_of_complete_allocation(self):
        inst = make_instance([[5, 3, 1], [4, 2, 2]])
        ordered, omap = order(inst)
        alloc = Allocation(bundles=(Bundle.of([1, 3]), Bundle.of([2])))
        assert lift_ordered_allocation(inst, omap, alloc) == alloc

    def test_pool_gaps_may_upgrade_picks(self):
        # slots are scanned ascending, so the owner of a later slot may take
        # a better leftover good freed by an unassigned slot
        inst = make_instance([[5, 3, 1]])
        _, omap = order(inst)
        alloc = Allocation(bundles=(Bundle.of([1, 3]),), unassigned=Bundle.of([2]))
        lifted = lift_ordered_allocation(inst, omap, alloc)
        assert lifted.bundles[0] == Bundle.of([1, 2])
        assert value(inst, 1, lifted.bundles[0]) >= value(inst, 1, alloc.bundles[0])

    def test_greedy_pick_of_best_remaining(self):
        inst = make_instance([[1, 5, 3]])
        _, omap = order(inst)
        alloc = Allocation(bundles=(Bundle.of([1]),), unassigned=Bundle.of([2, 3]))
        lifted = lift_ordered_allocation(inst, omap, alloc)
        assert lifted.bundles[0] == Bundle.of([2])  # the value-5 good
        assert lifted.unassigned == Bundle.of([1, 3])

    def test_per_agent_value_never_drops(self, rng):
        for _ in range(60):
            inst = random_instance(rng)
            ordered, omap = order(inst)
            owners = [rng.below(inst.n + 1) for _ in range(inst.m)]
            bundles = [[] for _ in range(inst.n)]
            pool = []
            for g, who in enumerate(owners, start=1):
                (pool if who == 0 else bundles[who - 1]).append(g)
            alloc = Allocation(
                bundles=tuple(Bundle.of(b) for b in bundles), unassigned=Bundle.of(pool)
            )
            lifted = lift_ordered_allocation(inst, omap, alloc)
            for i in range(1, inst.n + 1):
                assert value(inst, i, lifted.bundles[i - 1]) >= value(
                    ordered, i, alloc.bundles[i - 1]
                )

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_lift_never_lowers_a_value(self, data):
        # Any allocation of the ordered instance, leftovers included, on
        # tie-heavy "p/q" rows: the lift gives every agent at least her
        # ordered value.
        inst = make_instance(data.draw(_PQ_INSTANCES))
        ordered, omap = order(inst)
        owners = data.draw(st.lists(st.integers(0, inst.n), min_size=inst.m, max_size=inst.m))
        alloc = Allocation(
            bundles=tuple(Bundle.of(g for g, o in enumerate(owners, 1) if o == i) for i in range(1, inst.n + 1)),
            unassigned=Bundle.of(g for g, o in enumerate(owners, 1) if o == 0),
        )
        lifted = lift_ordered_allocation(inst, omap, alloc)
        for i in range(1, inst.n + 1):
            assert value(inst, i, lifted.bundles[i - 1]) >= value(ordered, i, alloc.bundles[i - 1])

    def test_malformed_allocation_rejected(self):
        inst = make_instance([[1, 2]])
        _, omap = order(inst)
        bad = Allocation(bundles=(Bundle.of([1]),), unassigned=Bundle())
        with pytest.raises(DomainError):
            lift_ordered_allocation(inst, omap, bad)
        two_agents = Allocation(bundles=(Bundle.of([1]), Bundle.of([2])))
        with pytest.raises(DomainError, match="wrong number of agents"):
            lift_ordered_allocation(inst, omap, two_agents)

    def test_malformed_map_rejected(self):
        inst = make_instance([[3, 2, 1]])
        alloc = Allocation(bundles=(Bundle.of([1, 2, 3]),))
        with pytest.raises(DomainError, match="bijection"):
            lift_ordered_allocation(inst, ((1, 1, 3),), alloc)
        with pytest.raises(ContractViolation, match="order map has 2 agents"):
            lift_ordered_allocation(inst, ((1, 2, 3),) * 2, alloc)


class TestNormalize:
    def test_single_agent(self):
        norm = normalize(make_instance([[1, 1, 1, 1]]))
        assert norm.values == ((Fraction(1, 4),) * 4,)

    def test_two_agents_identical(self):
        norm = normalize(make_instance([[2, 2, 2, 2], [2, 2, 2, 2]]))
        assert norm.values == ((Fraction(1, 2),) * 4,) * 2

    def test_share_becomes_exactly_one(self, rng):
        for _ in range(25):
            inst = random_instance(rng, n_max=3, m_max=7)
            if any(mms(inst, i, inst.n).value == 0 for i in range(1, inst.n + 1)):
                continue
            norm = normalize(inst)
            for i in range(1, inst.n + 1):
                assert mms(norm, i, norm.n).value == 1
                # witness bundles partition all goods at value 1 each, so the
                # whole-instance value is exactly n
                assert sum(norm.values[i - 1], Fraction(0)) == norm.n

    def test_normalized_instance_stays_normalized(self):
        inst = normalize(make_instance([[4, 3, 2, 2], [3, 3, 3, 3]]))
        again = normalize(inst)
        for i in (1, 2):
            assert mms(again, i, 2).value == 1

    def test_zero_share_agent_rejected(self):
        with pytest.raises(DomainError):
            normalize(make_instance([[1, 1], [1, 1], [1, 1]]))


class TestRuleApplicability:
    def test_rule_good_ids(self):
        assert rule_good_ids(RuleId.R1, 3) == (1,)
        assert rule_good_ids(RuleId.R2, 3) == (5, 6, 7)
        assert rule_good_ids(RuleId.R3, 3) == (7, 8, 9, 10)
        assert rule_good_ids(RuleId.R4, 3) == (1, 7)
        assert rule_good_ids(RuleId.R5, 3) == (1, 2)

    def test_threshold_met_exactly(self):
        inst = make_instance([["3/4", "1/10"]])
        assert applicable(inst, RuleId.R1, ALPHA34) == 1

    def test_three_small_goods_not_enough(self):
        # all goods worth alpha/4: the triple at ranks {3,4,5} sums 3*alpha/4
        alpha = Fraction(3, 4)
        inst = make_instance([[alpha / 4] * 5, [alpha / 4] * 5])
        assert applicable(inst, RuleId.R2, alpha) is None

    def test_dummy_pad_makes_pair_rule_match_top_rule(self):
        # n=2, m=4: good 5 is a zero dummy, so the pair rule reduces to the
        # top-good test
        inst = make_instance([["3/4", "1/10", "1/10", "1/10"]] * 2)
        assert applicable(inst, RuleId.R4, ALPHA34) == 1
        inst2 = make_instance([["7/10", "1/10", "1/10", "1/10"]] * 2)
        assert applicable(inst2, RuleId.R4, ALPHA34) is None

    def test_lowest_index_agent_wins(self):
        inst = make_instance([["1/2", 0], ["3/4", 0], ["3/4", 0]])
        assert applicable(inst, RuleId.R1, ALPHA34) == 2

    def test_priority_filter(self):
        inst = make_instance([[1, 1], [1, 1]])
        assert applicable(inst, RuleId.R5, ALPHA34, priority={2}) == 2
        assert applicable(inst, RuleId.R5, ALPHA34) == 1


_DENOMINATORS = st.one_of(
    st.integers(1, 12),
    st.sampled_from([2147483549, 2147483563, 2147483587, 2147483629, 2147483647]),
)
_VALUES = st.builds(Fraction, st.one_of(st.integers(0, 12), st.integers(0, 2**70)), _DENOMINATORS)
_EPSILONS = st.builds(Fraction, st.integers(0, 4), st.sampled_from([1, 100, 956, 3836]))


def _lcm_of(values):
    return lcm(*[v.denominator for v in values])


@st.composite
def _engine_cases(draw):
    """Rows with one share each (a multiple of 1/lcm of the row's
    denominators, near a fraction of the row's total), a threshold 3/4 + eps,
    a rule order and a priority set. One row may have a rule sum set to meet
    the threshold exactly, or to fall one numerator short of its bar."""
    n, m = draw(st.integers(1, 4)), draw(st.integers(0, 13))
    alpha = Fraction(3, 4) + draw(_EPSILONS)
    rows = [draw(st.lists(_VALUES, min_size=m, max_size=m)) for _ in range(n)]
    rules = tuple(draw(st.lists(st.sampled_from(list(RuleId)), min_size=1, max_size=5, unique=True)))
    priority = draw(st.sets(st.integers(1, n)))

    def share(row, den):
        k = sum(row, Fraction(0)) * den // draw(st.integers(1, 5)) + draw(st.integers(0, 3))
        return Fraction(max(k, 1), den)

    shares = [share(row, _lcm_of(row)) for row in rows]
    i = draw(st.integers(0, n - 1))
    goods = [g for g in rule_good_ids(draw(st.sampled_from(rules)), n) if g <= m]
    mode = draw(st.sampled_from(["exact", "short", "free"]))
    if goods and mode != "free":
        row, last = rows[i], goods[-1] - 1
        den = _lcm_of(row[:last] + row[last + 1:])
        shares[i] = share(row, den)
        if mode == "exact":
            target = alpha * shares[i]
        else:  # the numerator sum ends one below ceil(alpha * share * den)
            target = Fraction(ceil(alpha * shares[i] * den) - 1, den)
        rest = sum((row[g - 1] for g in goods[:-1]), Fraction(0))
        if target >= rest:
            row[last] = target - rest
    return rows, shares, alpha, rules, priority


def _fraction_first_rule(scaled, rules, alpha, priority):
    """The definition, on Fractions: a rule fires for agent i when the scaled
    row's goods at the rule's indices (dummies past m count 0) reach alpha."""
    n, m = len(scaled), len(scaled[0])
    for rule in rules:
        ids = rule_good_ids(rule, n)
        eligible = [
            i for i in range(1, n + 1)
            if sum((scaled[i - 1][g - 1] for g in ids if g <= m), Fraction(0)) >= alpha
        ]
        if eligible:
            return rule, next((i for i in eligible if i in priority), eligible[0])
    return None


@st.composite
def _bag_cases(draw):
    """A row with zeros and mixed denominators, a share on its grid (or none,
    read as 1), a threshold 3/4 + eps and any good set of the row; the last
    good may be set so the bag meets the threshold exactly or misses by the
    smallest step of the row's grid."""
    m = draw(st.integers(0, 12))
    row = draw(st.lists(st.one_of(st.just(Fraction(0)), _VALUES), min_size=m, max_size=m))
    alpha = Fraction(3, 4) + draw(_EPSILONS)
    bag = draw(st.lists(st.integers(1, m), unique=True)) if m else []
    share = None
    if draw(st.booleans()):
        den = _lcm_of(row)
        share = Fraction(max(sum(row, Fraction(0)) * den // draw(st.integers(1, 5)), 1), den)
    mode = draw(st.sampled_from(["exact", "short", "free"]))
    if bag and mode != "free":
        last = bag[-1] - 1
        den = _lcm_of(row[:last] + row[last + 1:])
        if share is not None:
            share = Fraction(max(sum(row, Fraction(0)) * den // draw(st.integers(1, 5)), 1), den)
        target = alpha * (1 if share is None else share)
        if mode == "short":
            target = Fraction(ceil(target * den) - 1, den)
        rest = sum((row[g - 1] for g in bag[:-1]), Fraction(0))
        if target >= rest:
            row[last] = target - rest
    return row, share, alpha, bag


class TestIntegerTrigger:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_engine_cases(), st.booleans())
    def test_engine_matches_fraction_definition(self, case, divide_first):
        rows, shares, alpha, rules, priority = case
        scaled = [[v / s for v in row] for row, s in zip(rows, shares)]
        expected = _fraction_first_rule(scaled, rules, alpha, priority)
        if divide_first:  # the rows arrive scaled, read over their own lcm
            ints, bars = rule_rows(Instance.from_rows(scaled), alpha)
        else:  # the shares divide through the bars
            ints, bars = share_rows(Instance.from_rows(rows), alpha, shares)
        assert first_rule(ints, bars, bars, rules, priority) == expected

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(st.data())
    def test_bracket_scan_matches_exact_bars(self, data):
        # Bars known only up to a bracket, with `settle` handing out the exact
        # bar and closing the bracket, pick what the exact bars pick,
        # priority members first, and settle each agent at most once.
        n, m = data.draw(st.integers(1, 4)), data.draw(st.integers(0, 13))
        rows = [data.draw(st.lists(st.integers(0, 9), min_size=m, max_size=m)) for _ in range(n)]
        bars = data.draw(st.lists(st.integers(0, 20), min_size=n, max_size=n))
        lows = [b - data.draw(st.integers(0, 6)) for b in bars]
        highs = [b + data.draw(st.integers(0, 6)) for b in bars]
        rules = data.draw(st.lists(st.sampled_from(list(RuleId)), min_size=1, max_size=5, unique=True))
        priority = data.draw(st.sets(st.integers(1, n)))
        settled = []

        def settle(i):
            settled.append(i)
            lows[i - 1] = highs[i - 1] = bars[i - 1]
            return bars[i - 1]

        expected = first_rule(rows, bars, bars, rules, priority)
        assert first_rule(rows, lows, highs, rules, priority, settle) == expected
        assert len(settled) == len(set(settled))

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_bag_cases())
    def test_bag_test_matches_fraction_definition(self, case):
        # The bag-filling question, on any good set of the row: the integer
        # test must say exactly what value(bag) >= alpha * share says.
        row, share, alpha, bag = case
        inst = Instance.from_rows([row])
        rows, bars = rule_rows(inst, alpha) if share is None else share_rows(inst, alpha, [share])
        expected = value(inst, 1, bag) >= alpha * (1 if share is None else share)
        assert meets_bar(rows[0], bars[0], bag) is expected

    @settings(max_examples=100, deadline=None, derandomize=True, database=None)
    @given(_engine_cases(), st.data())
    def test_one_pass_matches_per_agent_scan(self, case, data):
        # Every rule, dummies past m included (n up to 4 and m down to 0, so
        # some rules have only dummies), and any good set of the rows, as bag
        # filling asks, against one `meets_bar` per agent.
        rows, shares, alpha, _, _ = case
        ints, bars = share_rows(Instance.from_rows(rows), alpha, shares)
        m = len(ints[0])
        bag = tuple(data.draw(st.lists(st.integers(1, m), unique=True))) if m else ()
        rule_goods = [tuple(g for g in rule_good_ids(rule, len(ints)) if g <= m) for rule in RuleId]
        assert [_rule_goods(ints, rule) for rule in RuleId] == rule_goods
        for goods in rule_goods + [bag]:
            naive = [i for i in range(1, len(ints) + 1) if meets_bar(ints[i - 1], bars[i - 1], goods)]
            assert reaching(ints, bars, goods) == naive

    def test_one_pass_edge_rows(self):
        # m = 0, and rows whose rule goods are partly or wholly dummies: a
        # dummy counts 0, so only a bar of 0 is met by dummies alone.
        for rows, bars in (([[], [], []], [0, 1, 0]), ([[3, 2, 1]] * 3, [0, 4, 7])):
            for rule in RuleId:
                goods = tuple(g for g in rule_good_ids(rule, 3) if g <= len(rows[0]))
                assert _rule_goods(rows, rule) == goods
                naive = [i for i in (1, 2, 3) if meets_bar(rows[i - 1], bars[i - 1], goods)]
                assert reaching(rows, bars, goods) == naive
        assert reaching([[3, 2, 1]] * 3, [0, 4, 7], ()) == [1]
        assert reaching([[3, 2, 1]] * 3, [0, 4, 7], (1,)) == [1]
        assert reaching([[3, 2, 1]] * 3, [0, 4, 7], (1, 2)) == [1, 2]

    def test_non_triggering_recipient_leaves_rows_untouched(self):
        # Agent 1 triggers R1 and agent 2 does not: awarding to agent 2 must
        # raise before anything is dropped.
        inst = make_instance([[1, "1/2", "1/2"], ["1/2", "1/2", "1/2"]])
        rows, bars = rule_rows(inst, ALPHA34)
        before = ([list(row) for row in rows], list(bars))
        assert reaching(rows, bars, _rule_goods(rows, RuleId.R1)) == [1]
        with pytest.raises(ContractViolation, match="not applicable to agent 2"):
            apply_rule(rows, bars, RuleId.R1, 2)
        assert (rows, bars) == before


class TestApplyRule:
    def test_top_rule_bookkeeping(self):
        inst = make_instance([[1, "1/2", "1/2"], ["1/2", "1/2", "1/2"]])
        rows, bars = rule_rows(inst, ALPHA34)
        awarded = apply_rule(rows, bars, RuleId.R1, 1)
        assert (len(rows), len(bars), len(rows[0])) == (1, 1, 2)
        assert awarded == (1,)

    def test_triple_rule_removes_three_goods(self):
        inst = make_instance([["1/2", "1/2", "1/4", "1/4", "1/4"]] * 2)
        rows, bars = rule_rows(inst, ALPHA34)
        awarded = apply_rule(rows, bars, RuleId.R2, 1)
        assert (len(rows), len(rows[0])) == (1, 2)
        assert awarded == (3, 4, 5)

    def test_pair_rule_reindexes(self):
        row = ["2/5"] * 7
        inst = make_instance([row] * 3)
        rows, bars = rule_rows(inst, ALPHA34)
        awarded = apply_rule(rows, bars, RuleId.R4, 2)
        assert awarded == (1, 7)
        assert (rows, bars) == rule_rows(restrict(inst, (1, 3), range(2, 7)), ALPHA34)
        assert all(row == sorted(row, reverse=True) for row in rows)

    def test_inapplicable_rule_rejected(self):
        inst = make_instance([["1/2", "1/2"]])
        rows, bars = rule_rows(inst, ALPHA34)
        with pytest.raises(ContractViolation, match="not applicable"):
            apply_rule(rows, bars, RuleId.R1, 1)
        with pytest.raises(ContractViolation, match="out of range"):
            apply_rule(rows, bars, RuleId.R5, 2)
        assert (rows, bars) == rule_rows(inst, ALPHA34)


class TestRestrict:
    INST = make_instance([[5, 4, 3], [1, 2, 3]])

    def test_listed_order_and_rows_in_lowest_terms(self):
        sub = restrict(make_instance([["1/2", "1/3", "1/4"], [6, 2, 4]]), [2, 1], [3, 1])
        assert sub.int_rows == (((4, 6), 1), ((1, 2), 4))

    # Without the checks, good 0 read good 3 (index -1), agent 0 read agent
    # 2's row, and an id past n or m was a bare IndexError.
    @pytest.mark.parametrize("agents, goods, message", [
        ([1], [0], "good 0 out of range"),
        ([0], [1], "agent 0 out of range"),
        ([3], [1], "agent 3 out of range"),
        ([1], [1, 4], "good 4 out of range"),
    ], ids=["good-0", "agent-0", "agent-past-n", "good-past-m"])
    def test_id_out_of_range(self, agents, goods, message):
        with pytest.raises(BoundsError, match=message):
            restrict(self.INST, agents, goods)

    def test_repeated_good_is_a_domain_error(self):
        # Without the check, good 2 counted twice in the sub-instance.
        with pytest.raises(DomainError, match="good 2 is listed twice"):
            restrict(self.INST, [1], [2, 2])


class TestReduce:
    def test_full_share_singletons_empty_everything(self):
        inst = make_instance([[7, 7, 7]] * 3)
        red, trace = reduce(inst, EPS0)
        assert red.n == 0 and red.m == 0
        assert [s.rule for s in trace.steps] == [RuleId.R1] * 3
        assert trace.scaling == {1: 7, 2: 7, 3: 7}

    def test_irreducible_input_unchanged(self):
        inst = make_instance([["1/6"] * 12] * 2)
        red, trace = reduce(inst, EPS0)
        assert red.values == inst.values
        assert trace.steps == []

    def test_scaled_top_rule_example(self):
        inst = make_instance([[4, 1, 1, 1, 1], [1, 1, 1, 1, 1]])
        red, trace = reduce(inst, EPS0)
        assert trace.scaling == {1: 4, 2: 2}
        first = trace.steps[0]
        assert first.rule is RuleId.R1 and first.agent == 1 and first.goods == Bundle.of([1])
        for step in trace.steps:
            assert step.agent in (1, 2)

    def test_zero_share_agents_stripped_with_empty_award(self):
        inst = make_instance([[1, 1], [1, 1], [1, 1]])
        red, trace = reduce(inst, EPS0)
        awards = {s.agent: s for s in trace.steps if s.rule == "BagAward"}
        assert set(awards) == {1, 2, 3}
        assert all(len(s.goods) == 0 for s in awards.values())

    def test_negative_eps_rejected(self):
        with pytest.raises(DomainError):
            reduce(make_instance([[1]]), Fraction(-1, 10))

    def test_survivor_share_bound(self, rng):
        # After reduction at slack eps, every survivor's share in the scaled
        # residual instance stays at or above 1 - 4*eps. Integer rows have
        # shares of at least 1 scaled or not, so the same rows also run as
        # thousandths, whose shares are far below 1 until scaled.
        checked = 0
        for eps in (EPS0, Fraction(1, 100), Fraction(3, 3836)):
            for _ in range(25):
                n, m = rng.randint(2, 4), rng.randint(10, 14)
                # mid-weight profiles: generic small draws tend to reduce to empty
                rows = [[rng.randint(5, 10) for _ in range(m)] for _ in range(n)]
                thousandths = [[f"{v}/1000" for v in row] for row in rows]
                for inst in (make_instance(rows), make_instance(thousandths)):
                    red, _ = reduce(inst, eps)
                    for i in range(1, red.n + 1):
                        assert mms(red, i, red.n).value >= 1 - 4 * eps
                        checked += 1
        assert checked > 20

    def test_rules_inapplicable_after_reduce(self, rng):
        for _ in range(20):
            inst = random_instance(rng, n_max=4, m_max=9)
            red, _ = reduce(inst, EPS0)
            for rule in (RuleId.R1, RuleId.R2, RuleId.R3, RuleId.R4):
                assert applicable(red, rule, ALPHA34) is None


def reference_reduce(inst, eps):
    """`reduce` as the definition reads: every agent's exact share by `mms`
    first, bars ceil((3/4 + eps) * share * L) (`share_rows`) and the rule
    picked by `first_rule`. Returns the steps as (rule, agent, goods), the
    residual instance and the scaling."""
    cur, omap = order(inst)
    agents, goods = list(range(1, inst.n + 1)), list(range(1, inst.m + 1))
    shares = [mms(cur, i, cur.n).value for i in range(1, cur.n + 1)]
    steps = [("BagAward", a, ()) for a, s in zip(agents, shares) if s == 0]
    if steps:
        agents = [a for a, s in zip(agents, shares) if s]
        cur = restrict(cur, agents, range(1, cur.m + 1))
        shares = [mms(cur, i, cur.n).value for i in range(1, cur.n + 1)]
    scaling = dict(zip(agents, shares))
    rows, bars = share_rows(cur, Fraction(3, 4) + eps, shares)
    scales = [(s * den).numerator for s, (_, den) in zip(shares, cur.int_rows)]
    while (fired := first_rule(rows, bars, bars, REDUCTION_RULES)) is not None:
        rule, agent = fired
        awarded = apply_rule(rows, bars, rule, agent)
        del scales[agent - 1]
        award = sorted(goods.pop(g - 1) for g in reversed(awarded))
        steps.append((rule, agents.pop(agent - 1), tuple(award)))
    view = tuple(int_row((a, s) for a in row) for row, s in zip(rows, scales))
    return steps, Instance(n=len(rows), m=len(goods), int_rows=view), scaling


def assert_reduce_matches_reference(inst, eps):
    red, trace = reduce(inst, eps)
    steps, residual, scaling = reference_reduce(inst, eps)
    assert [(s.rule, s.agent, s.goods.goods) for s in trace.steps] == steps
    assert (red.n, red.m, red.int_rows) == (residual.n, residual.m, residual.int_rows)
    assert trace.scaling == scaling


class TestReduceDecisions:
    """`reduce` decides rules from share brackets and searches only where a
    comparison is open or an agent survives; its steps, residual instance
    and scaling must be those of the exact shares."""

    @pytest.mark.parametrize("eps", [Fraction(3, 3836), EPS0], ids=["3/4+3/3836", "3/4"])
    def test_corpus_matches_exact_shares(self, eps):
        for spec in default_corpus(200):
            assert_reduce_matches_reference(generate(spec), eps)

    @pytest.mark.parametrize(
        "eps, calls, total",
        [(Fraction(3, 3836), 100, 380), (EPS0, 73, 380)],
        ids=["3/4+3/3836", "3/4"],
    )
    def test_corpus_search_count(self, monkeypatch, eps, calls, total):
        # The `mms` calls `reduce` makes, for open comparisons and survivors,
        # as TestSearchTree pins nodes: any change in the strength of
        # `oracle.bracket` moves this count (a share for every agent takes 786).
        # Reading `scaling` then searches only for the removed agents no
        # decision settled, so each share whose bracket is open is searched
        # for once, whatever the threshold.
        made = []

        def counted(*args, **kwargs):
            made.append(1)
            return search(*args, **kwargs)

        search = transforms.mms
        monkeypatch.setattr(transforms, "mms", counted)
        traces = [reduce(generate(spec), eps)[1] for spec in default_corpus(200)]
        assert len(made) == calls
        for trace in traces:
            trace.scaling
        assert len(made) == total

    def test_zero_share_agent_is_stripped_unbracketed(self, monkeypatch):
        # Agent 1 has fewer positive goods than there are agents, so her
        # share is 0 with no bound computed: only the two survivors are
        # bracketed, once each.
        made = []

        def counted(*args, **kwargs):
            made.append(1)
            return bounds(*args, **kwargs)

        bounds = transforms.bracket
        monkeypatch.setattr(transforms, "bracket", counted)
        inst = make_instance([[5, 0, 0, 0], [3, 2, 2, 1], [4, 4, 1, 1]])
        _, trace = reduce(inst, Fraction(3, 3836))
        assert len(made) == 2
        first = trace.steps[0]
        assert (first.rule, first.agent, first.goods) == ("BagAward", 1, Bundle())

    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_PQ_INSTANCES, st.sampled_from([EPS0, Fraction(3, 3836), Fraction(1, 100)]))
    def test_drawn_instances_match_exact_shares(self, rows, eps):
        assert_reduce_matches_reference(make_instance(rows), eps)

    def test_negative_budget_rejected_before_any_decision(self):
        # Every agent here leaves through R1 with no search, so only the
        # up-front check can see the budget.
        with pytest.raises(DomainError, match="node budget must be nonnegative"):
            reduce(make_instance([[7, 7, 7]] * 3), EPS0, node_budget=-1)

    def test_frontier_solve_runs_no_covering_probe(self, monkeypatch):
        # Grid-1000 frontier rows at n = 6, m = 24: R1/R2 remove every agent
        # on the brackets alone. Exact shares took 85 covering probes here.
        probes = []

        def counted(*args, **kwargs):
            probes.append(1)
            return cover(*args, **kwargs)

        cover = oracle._cover_assignment
        monkeypatch.setattr(oracle, "_cover_assignment", counted)
        for seed in range(5):
            spec = GenSpec(seed=seed, n_range=(6, 6), m_range=(24, 24), family="uniform", grid=1000)
            solve(generate(spec), Fraction(3, 4) + Fraction(3, 3836))
        assert probes == []


class TestToDeltaOni:
    def test_empty_after_reduce(self):
        inst = make_instance([[7, 7, 7]] * 3)
        oni, omap, trace = to_delta_oni(inst, EPS0)
        assert oni.n == 0
        assert len(trace.steps) == 3

    def test_zero_eps_gives_zero_oni(self):
        inst = make_instance([[9, 7, 5, 4, 3, 2, 2, 1], [8, 8, 6, 5, 3, 3, 2, 1]])
        oni, _, _ = to_delta_oni(inst, EPS0)
        rep = check_oni(oni, EPS0)
        assert rep.ok, rep.failure

    def test_random_instances_pass_oni_check(self, rng):
        delta = Fraction(3, 956)
        eps = Fraction(3, 3836)
        for _ in range(12):
            inst = random_instance(rng, n_max=4, m_max=12, grid=20)
            oni, _, _ = to_delta_oni(inst, eps)
            rep = check_oni(oni, delta)
            assert rep.ok, rep.failure
            assert oni.m >= 2 * oni.n

    def test_upper_bounds_after_reduction(self, rng):
        # With the top/triple/quad rules off at alpha, good values are below
        # alpha, below alpha/3 beyond rank 2n, below alpha/4 beyond rank 3n.
        alpha = ALPHA34 + Fraction(3, 956)
        eps = Fraction(3, 3836)
        for _ in range(12):
            inst = random_instance(rng, n_max=4, m_max=12, grid=20)
            oni, _, _ = to_delta_oni(inst, eps)
            n = oni.n
            for i in range(1, n + 1):
                row = oni.values[i - 1]
                for k in range(1, oni.m + 1):
                    assert row[k - 1] < alpha
                    if k > 2 * n:
                        assert row[k - 1] < alpha / 3
                    if k > 3 * n:
                        assert row[k - 1] < alpha / 4


class TestLiftAllocation:
    def test_empty_trace_identity_map(self):
        inst = make_instance([["1/6"] * 12] * 2)
        oni, omap, trace = to_delta_oni(inst, EPS0)
        assert len(trace.steps) == 0 and oni.n == 2
        inner = Allocation(
            bundles=(Bundle.of(range(1, 7)), Bundle.of(range(7, 13))), unassigned=Bundle()
        )
        lifted = lift_allocation(trace, omap, inst, inner)
        lifted.validate(inst.m)
        assert lifted == inner

    def test_single_award_trace(self):
        inst = make_instance([[4, 1, 1, 1, 1], [1, 1, 1, 1, 1]])
        oni, omap, trace = to_delta_oni(inst, EPS0)
        lifted = lift_allocation(
            trace, omap, inst, Allocation(bundles=tuple(Bundle() for _ in range(oni.n)),
                                          unassigned=oni.all_goods())
        )
        lifted.validate(inst.m)
        # the top-rule award hands agent 1 her single most valuable good
        assert value(inst, 1, lifted.bundles[0]) == 4

    def test_dimension_mismatch_rejected(self):
        inst = make_instance([[5, 3, 1], [4, 4, 2]])
        oni, omap, trace = to_delta_oni(inst, EPS0)
        with pytest.raises(ContractViolation):
            lift_allocation(trace, omap, make_instance([[1]]), Allocation(bundles=()))
        with pytest.raises(ContractViolation, match="trace dimensions"):
            lift_allocation(trace, omap, make_instance([[5, 3], [4, 4]]), Allocation(bundles=()))
        extra_agent = Allocation(bundles=(Bundle(),) * (oni.n + 1), unassigned=oni.all_goods())
        with pytest.raises(ContractViolation, match="inner allocation has"):
            lift_allocation(trace, omap, inst, extra_agent)

    def test_end_to_end_ratio_bound(self, rng):
        # Lifting an allocation that is alpha-fair for the residual instance
        # yields min(3/4 + eps, (1-4*eps)*alpha) of each original share.
        from mmskit.allocators import approx_mms1, classify_agents, _small_n1_1
        eps = Fraction(3, 3836)
        delta = Fraction(3, 956)
        alpha_inner = ALPHA34 + delta
        target = min(ALPHA34 + eps, (1 - 4 * eps) * alpha_inner)
        checked = 0
        for _ in range(15):
            inst = random_instance(rng, n_max=4, m_max=10, grid=15)
            oni, omap, trace = to_delta_oni(inst, eps)
            cls = classify_agents(oni, delta)
            if not _small_n1_1(cls, oni.n, delta):
                continue
            inner = approx_mms1(oni, delta, cls)
            lifted = lift_allocation(trace, omap, inst, inner)
            for i in range(1, inst.n + 1):
                share = mms(inst, i, inst.n).value
                assert value(inst, i, lifted.bundles[i - 1]) >= target * share
            checked += 1
        assert checked > 5
