from __future__ import annotations

import json
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from mmskit import (
    ALPHA_MAX,
    Allocation,
    Bundle,
    ContractViolation,
    DomainError,
    Instance,
    check_alpha_mms,
    check_oni,
    check_reduction_validity,
    check_structural_lemmas,
    mms,
    solve,
    to_delta_oni,
    value,
)
from mmskit import oracle
from mmskit.verify import _pair_bound_violations

from conftest import make_instance

DELTA = Fraction(3, 956)
HALF = Fraction(1, 2)


# "p/q" text as in a residual instance fed back as input; the default corpus
# is integer-valued.
_PQ_ROWS = st.integers(1, 4).flatmap(lambda n: st.integers(0, 10).flatmap(lambda m: st.lists(
    st.lists(st.builds("{}/{}".format, st.integers(0, 30), st.integers(1, 12)), min_size=m, max_size=m),
    min_size=n, max_size=n)))


class TestSolveThenVerify:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_PQ_ROWS)
    def test_passes_on_fractional_instances(self, rows):
        inst = Instance.from_rows(rows)
        for alpha in (ALPHA_MAX, Fraction(3, 4)):
            alloc, _ = solve(inst, alpha)
            assert check_alpha_mms(inst, alloc, alpha).passed, (alpha, rows)


class TestCheckAlphaMms:
    def test_single_agent_everything_passes(self):
        inst = make_instance([[3, 2, 1]])
        alloc = Allocation(bundles=(Bundle.of([1, 2, 3]),))
        assert check_alpha_mms(inst, alloc, Fraction(1)).passed

    def test_shares_are_searched_afresh_after_solve(self, monkeypatch):
        # Both agents survive `reduce` here, so solve searches their shares
        # first; verify must still run a search, which starts with the
        # bracket, for each agent rather than read a share solve left behind.
        inst = make_instance([[3, 6, 5, 8], [5, 8, 3, 6]])
        real = oracle.bracket
        brackets = []

        def counted(weights, d):
            brackets.append(weights)
            return real(weights, d)

        monkeypatch.setattr(oracle, "bracket", counted)
        alloc, _ = solve(inst, Fraction(3, 4))
        assert brackets
        brackets.clear()
        assert check_alpha_mms(inst, alloc, Fraction(3, 4)).passed
        assert len(brackets) == inst.n

    def test_starved_agent_fails(self):
        inst = make_instance([[1, 1], [1, 1]])
        alloc = Allocation(bundles=(Bundle.of([1, 2]), Bundle()))
        report = check_alpha_mms(inst, alloc, Fraction(1))
        assert not report.passed
        assert report.agents[0].ok and not report.agents[1].ok
        assert report.agents[1].mms == 1 and report.agents[1].received == 0

    def test_malformed_allocation_rejected(self):
        inst = make_instance([[1, 1]])
        with pytest.raises(DomainError):
            check_alpha_mms(inst, Allocation(bundles=(Bundle.of([1]),)), Fraction(1))
        with pytest.raises(DomainError):
            check_alpha_mms(
                inst,
                Allocation(bundles=(Bundle.of([1]), Bundle.of([2]))),
                Fraction(1),
            )

    def test_report_json_schema(self):
        inst = make_instance([[1, 3]])
        alloc = Allocation(bundles=(Bundle.of([2]),), unassigned=Bundle.of([1]))
        report = check_alpha_mms(inst, alloc, Fraction(3, 4))
        obj = json.loads(report.to_json())
        assert obj == {
            "alpha": "3/4",
            "agents": [{"mms": "4", "received": "3", "ok": True}],
            "pass": True,
        }


# An allocation of each drawn instance: every good to an agent 1..n or, as 0,
# to the pool.
_PQ_ALLOCATIONS = _PQ_ROWS.flatmap(lambda rows: st.tuples(
    st.just(rows), st.lists(st.integers(0, len(rows)), min_size=len(rows[0]), max_size=len(rows[0]))))


def allocation(owners, n: int) -> Allocation:
    bundles = [Bundle.of(g for g, k in enumerate(owners, 1) if k == i) for i in range(n + 1)]
    return Allocation(bundles=tuple(bundles[1:]), unassigned=bundles[0])


class TestIntegerVerdict:
    # `check_alpha_mms` cross-multiplies numerators and denominators; each
    # verdict must be that of the Fraction formula received >= alpha * share.
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_PQ_ALLOCATIONS, st.one_of(st.fractions(0, 2, max_denominator=50),
                                      st.fractions(0, 2, max_denominator=10**30)))
    def test_matches_the_fraction_formula(self, drawn, alpha):
        rows, owners = drawn
        inst = Instance.from_rows(rows)
        alloc = allocation(owners, inst.n)
        report = check_alpha_mms(inst, alloc, alpha)
        for i, check in enumerate(report.agents, 1):
            assert check.mms == mms(inst, i, inst.n).value
            assert check.received == value(inst, i, alloc.bundles[i - 1])
            assert check.ok == (check.received >= alpha * check.mms), (rows, owners, alpha, i)
        assert report.passed == all(check.ok for check in report.agents)

    def test_boundaries(self):
        inst = Instance.from_rows([["1/3", "1/2", "1/6", "2/3", "1/4"], ["1/5", "1/5", "2/5", "1/10", "1/10"]])
        alloc = Allocation(bundles=(Bundle.of([1, 5]), Bundle.of([2, 3, 4])))
        share, received = mms(inst, 1, 2).value, value(inst, 1, alloc.bundles[0])
        unit = Fraction(1, inst.int_rows[0][1])  # one unit of 1/L
        assert (share, received, unit) == (Fraction(11, 12), Fraction(7, 12), Fraction(1, 12))

        def verdict(alpha):
            return check_alpha_mms(inst, alloc, alpha).agents[0].ok

        # received exactly alpha * share passes; one unit of 1/L below it fails.
        assert verdict(received / share)
        assert not verdict((received + unit) / share)
        # alphas with many-digit denominators, just below and just above.
        tiny = Fraction(1, 10**40 + 7)
        assert verdict(received / share - tiny)
        assert not verdict(received / share + tiny)
        assert verdict(Fraction(10**39, 10**39 + 1) * received / share)

    def test_zero_share_passes_at_any_alpha(self):
        # Agent 1 values fewer goods than there are agents: her share is 0,
        # so even an empty bundle clears any alpha.
        inst = make_instance([[5, 0, 0], [1, 1, 1]])
        alloc = Allocation(bundles=(Bundle(), Bundle.of([1, 2, 3])))
        for alpha in (ALPHA_MAX, Fraction(10**30, 7)):
            report = check_alpha_mms(inst, alloc, alpha)
            assert report.agents[0].mms == 0 and report.agents[0].received == 0
            assert report.agents[0].ok
            assert report.agents[1].ok == (3 >= alpha)


class TestCheckOni:
    def test_accepts_pipeline_output(self):
        inst = make_instance([[9, 8, 7, 7, 6, 6, 5, 5, 5, 4, 4, 4]] * 2)
        oni, _, _ = to_delta_oni(inst, Fraction(3, 3836))
        report = check_oni(oni, DELTA)
        assert report.ok and report.failure is None

    def test_unordered_named(self):
        report = check_oni(make_instance([[1, 2]]), DELTA)
        assert not report.ok and report.failure == "not ordered"

    def test_unnormalized_named(self):
        report = check_oni(make_instance([["1/2", "1/2", "1/2"]]), DELTA)
        assert not report.ok and "maximin share" in report.failure

    def test_top_rule_boundary_is_inclusive(self):
        top = Fraction(3, 4) + DELTA
        inst = make_instance([[top, 1 - top]])
        report = check_oni(inst, DELTA)
        assert not report.ok and report.failure == "R1 applicable to agent 1"

    def test_empty_instance_is_oni(self):
        from mmskit import Instance

        assert check_oni(Instance(n=0, m=0, int_rows=()), DELTA).ok


class TestStructuralChecks:
    def test_uniform_instance_vacuous_pass(self):
        inst = make_instance([[HALF] * 4] * 2)
        report = check_structural_lemmas(inst, DELTA)
        assert report.pair_bound_ok and report.ok

    def test_pipeline_outputs_pass(self):
        inst = make_instance([[9, 8, 7, 7, 6, 6, 5, 5, 5, 4, 4, 4]] * 3)
        oni, _, _ = to_delta_oni(inst, Fraction(3, 3836))
        report = check_structural_lemmas(oni, DELTA)
        assert report.ok and report.irreducible
        assert report.min_goods_ok and report.big_bag_tail_ok in (True, None)

    def test_uncertified_input_rejected(self):
        with pytest.raises(ContractViolation):
            check_structural_lemmas(make_instance([[1, 2]]), DELTA)  # unordered
        with pytest.raises(ContractViolation):
            check_structural_lemmas(make_instance([[HALF, HALF, HALF]]), DELTA)

    def test_pair_detector_fires_on_wrong_normalization(self):
        # a purportedly normalized profile with a rank pair over 1 but the
        # light side at 1/2: the detector must flag it
        fake = make_instance(
            [[Fraction(3, 5), Fraction(11, 20), HALF, Fraction(9, 20)]] * 2
        )
        hits = list(_pair_bound_violations(fake))
        assert hits and "agent 1" in hits[0]

    def test_big_bag_agents_have_small_tails(self):
        # structured big-bag shape: two 41-bundles and two 20-triples
        row = [41, 41] + [20] * 6 + [4, 4, 4, 4, 4, 4, 4, 4, 3, 3]
        inst = make_instance([row] * 4)
        oni, _, _ = to_delta_oni(inst, Fraction(3, 3836))
        assert oni.n == 4
        report = check_structural_lemmas(oni, DELTA)
        assert report.ok and report.big_bag_tail_ok


class TestReductionValidity:
    def test_removing_only_an_agent_is_valid(self):
        before = make_instance([[3, 2, 1], [3, 2, 1]])
        after = make_instance([[3, 2, 1]])
        assert check_reduction_validity(before, after, removed_agent=2)

    def test_top_rule_is_valid_for_survivors(self):
        before = make_instance([[4, 1, 1, 1, 1], [1, 1, 1, 1, 1]])
        after = make_instance([[1, 1, 1, 1]])  # agent 1 took good 1
        assert check_reduction_validity(before, after, removed_agent=1)

    def test_pair_rule_can_decrease_shares(self):
        # frozen by oracle search: removing ranks {1, 7} with one fewer
        # bundle drops this profile's share from 11 to 10
        row = [9, 4, 3, 3, 3, 3, 3, 2, 2, 1]
        before = make_instance([row] * 3)
        after_row = row[1:6] + row[7:]
        after = make_instance([after_row] * 2)
        assert not check_reduction_validity(before, after, removed_agent=3)

    def test_dimension_contract(self):
        before = make_instance([[1], [1]])
        with pytest.raises(ContractViolation):
            check_reduction_validity(before, before, removed_agent=1)
        for agent in (0, 3):
            with pytest.raises(ContractViolation, match="out of range"):
                check_reduction_validity(before, make_instance([[1]]), removed_agent=agent)
