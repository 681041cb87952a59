from __future__ import annotations

import copy
import inspect
import json
import pickle
import re
from fractions import Fraction
from math import lcm

import pytest
from hypothesis import given, settings, strategies as st

from mmskit import (
    Allocation,
    Bundle,
    DomainError,
    BoundsError,
    GuaranteeViolation,
    Instance,
    OracleBudgetExceeded,
    instance_from_json,
    instance_to_json,
    allocation_from_json,
    allocation_to_json,
    is_ordered,
    rat,
    value,
)
from mmskit import oracle, transforms
from mmskit.core import _jsonable_to_pair, int_row, partitions, scaled_ranking
from mmskit.gen import GenSpec
from mmskit.oracle import mms
from mmskit.transforms import RuleId, TraceStep, restrict
from mmskit.verify import AgentCheck, OniReport
from conftest import HALF, make_instance, random_instance


class TestRationalParsing:
    def test_integer_and_quotient_text(self):
        assert rat("7") == 7
        assert rat("3/4") == Fraction(3, 4)
        assert rat("3/4+3/3836") == Fraction(3, 4) + Fraction(3, 3836)
        assert rat(5) == 5
        assert rat(Fraction(2, 3)) == Fraction(2, 3)

    def test_floats_rejected(self):
        with pytest.raises(DomainError):
            rat(0.75)
        with pytest.raises(DomainError):
            rat("0.75")
        with pytest.raises(DomainError):
            rat("3e-1")

    def test_zero_denominator_is_domain_error(self):
        for text in ("1/0", "0/0", "3/4+1/00", "-2/0"):
            with pytest.raises(DomainError):
                rat(text)

    def test_only_ascii_digits(self):
        # Arabic-Indic three-quarters, fullwidth twelve, Devanagari seven.
        for text in ("\u0663/\u0664", "\uff11\uff12", "3/4+\u0967", "3\n+4"):
            with pytest.raises(DomainError):
                rat(text)


class TestErrors:
    def test_budget_error_pickles_with_attributes(self):
        err = pickle.loads(pickle.dumps(OracleBudgetExceeded(7, 3)))
        assert type(err) is OracleBudgetExceeded
        assert (err.nodes, err.budget) == (7, 3)
        assert str(err) == str(OracleBudgetExceeded(7, 3))

    def test_guarantee_violation_pickles_with_state(self):
        state = {"alpha": "3/4", "bags": {"1": [1, 4]}, "waiting": [2]}
        err = pickle.loads(pickle.dumps(GuaranteeViolation("ran out", state)))
        assert type(err) is GuaranteeViolation
        assert str(err) == "ran out" and err.state == state


class TestValue:
    def test_simple_sum(self):
        inst = make_instance([[3, 2, 1]])
        assert value(inst, 1, Bundle.of([1, 3])) == 4

    def test_empty_bundle_is_zero(self):
        inst = make_instance([[3, 2, 1]])
        assert value(inst, 1, Bundle()) == 0

    def test_exact_rational_sum(self):
        inst = make_instance([["1/2", "1/3", "1/6"]])
        assert value(inst, 1, Bundle.of([1, 2, 3])) == 1

    def test_out_of_range(self):
        inst = make_instance([[3, 2, 1]])
        with pytest.raises(BoundsError):
            value(inst, 2, Bundle.of([1]))
        with pytest.raises(BoundsError):
            value(inst, 1, Bundle.of([4]))

    def test_additivity_on_random_instances(self, rng):
        for _ in range(50):
            inst = random_instance(rng)
            goods = list(range(1, inst.m + 1))
            rng.shuffle(goods)
            cut = rng.below(inst.m + 1)
            s, t = Bundle.of(goods[:cut]), Bundle.of(goods[cut:])
            for i in range(1, inst.n + 1):
                assert value(inst, i, s.union(t)) == value(inst, i, s) + value(inst, i, t)


class TestIsOrdered:
    def test_both_rows_non_increasing(self):
        assert is_ordered(make_instance([[3, 2, 1], [9, 9, 0]]))

    def test_increasing_row(self):
        assert not is_ordered(make_instance([[3, 2, 1], [1, 2, 3]]))

    def test_tiny_instances_vacuously_ordered(self):
        assert is_ordered(Instance(n=0, m=0, int_rows=()))
        assert is_ordered(make_instance([[5]]))


class TestBundlesAndAllocations:
    def test_bundle_of_sorts_and_dedupes(self):
        assert Bundle.of([3, 1, 3, 2]).goods == (1, 2, 3)

    def test_bundle_rejects_bad_indices(self):
        with pytest.raises(DomainError):
            Bundle.of([0, 1])

    def test_partition_validate(self):
        p = (Bundle.of([1]), Bundle.of([2, 3]))
        assert partitions(p, Bundle.of([1, 2, 3]))
        assert not partitions(p, Bundle.of([1, 2, 3, 4]))
        overlapping = (Bundle.of([1, 2]), Bundle.of([2, 3]))
        assert not partitions(overlapping, Bundle.of([1, 2, 3]))

    def test_allocation_validate_covers_exactly(self):
        alloc = Allocation(bundles=(Bundle.of([2]), Bundle.of([1])), unassigned=Bundle.of([3]))
        alloc.validate(3)
        with pytest.raises(DomainError):
            alloc.validate(4)
        dup = Allocation(bundles=(Bundle.of([1]), Bundle.of([1])), unassigned=Bundle.of([2]))
        with pytest.raises(DomainError):
            dup.validate(2)


class TestInstanceConstruction:
    def test_rejects_negative_values(self):
        # The second row is checked too, and a non-integer negative is caught.
        for bad in (-1, Fraction(1), 0.5, "1", True):
            with pytest.raises(DomainError):
                Instance(n=2, m=1, int_rows=(((1,), 1), ((bad,), 1)))
        for bad in (-1, Fraction(-1, 3), "-1/3"):
            with pytest.raises(DomainError):
                Instance.from_rows([[1], [bad]])
        assert Instance(n=1, m=1, int_rows=(((0,), 1),)).values == ((Fraction(0),),)

    def test_rejects_bad_shape(self):
        with pytest.raises(DomainError):
            Instance(n=2, m=2, int_rows=(((1, 1), 1),))
        with pytest.raises(DomainError):
            Instance(n=1, m=2, int_rows=((1, 1),))

    def test_empty_instances_legal(self):
        assert Instance(n=0, m=0, int_rows=()).m == 0
        assert Instance(n=0, m=3, int_rows=()).m == 3


# Each value class, a factory that builds one of it afresh (two calls give
# equal objects), and one of its fields.
VALUE_OBJECTS = {
    "Bundle": (lambda: Bundle((1, 3)), "goods"),
    "Allocation": (lambda: Allocation((Bundle((2,)), Bundle((1, 3))), Bundle((4,))), "unassigned"),
    "Instance": (lambda: Instance.from_rows([[1, "1/2"], [3, 4]]), "int_rows"),
    "GenSpec": (lambda: GenSpec(seed=1, n_range=(2, 3), m_range=(4, 6), family="uniform", grid=10),
                "grid"),
    "TraceStep": (lambda: TraceStep(RuleId.R2, 2, Bundle((3, 4, 5)), Fraction(3, 4)), "agent"),
    "AgentCheck": (lambda: AgentCheck(agent=1, mms=HALF, received=Fraction(3, 4), ok=True), "ok"),
    "OniReport": (lambda: OniReport(False, "not ordered"), "failure"),
}


class TestValueObjects:
    @pytest.mark.parametrize("name", list(VALUE_OBJECTS))
    def test_semantics(self, name):
        make, field = VALUE_OBJECTS[name]
        a, b = make(), make()
        assert a is not b and a == b and hash(a) == hash(b)
        with pytest.raises(AttributeError):
            setattr(a, field, getattr(b, field))
        with pytest.raises(AttributeError):
            delattr(a, field)
        assert a == b
        for twin in (pickle.loads(pickle.dumps(a)), copy.deepcopy(a)):
            assert twin == a and hash(twin) == hash(a)
            with pytest.raises(AttributeError):
                setattr(twin, field, getattr(b, field))

    def test_instance_values_built_once(self):
        inst = VALUE_OBJECTS["Instance"][0]()
        assert inst.values is inst.values == ((Fraction(1), HALF), (Fraction(3), Fraction(4)))

    def test_witness_built_once(self, monkeypatch):
        res = mms(Instance.from_rows([[3, 2, 2, 1]]), 1, 2)
        first = res.witness
        monkeypatch.setattr(oracle, "_bundles", _no_call)
        assert res.witness is first

    def test_scaling_built_once(self, monkeypatch):
        # Reading `scaling` first searches for the shares of the two agents
        # that rules removed without needing them; the second read searches
        # for nothing.
        made = []

        def counted(*args, **kwargs):
            made.append(1)
            return search(*args, **kwargs)

        search = transforms.mms
        monkeypatch.setattr(transforms, "mms", counted)
        inst = Instance.from_rows([[36, 29, 35, 0, 8, 0, 9], [31, 29, 36, 5, 7, 6, 10]])
        _, trace = transforms.reduce(inst, Fraction(3, 3836))
        before = len(made)
        first = trace.scaling
        assert len(made) == before + 2
        monkeypatch.setattr(transforms, "mms", _no_call)
        assert trace.scaling is first


def _no_call(*args, **kwargs):
    raise AssertionError("a lazy field was built twice")


_DENOMINATORS = st.one_of(
    st.sampled_from([1, 2, 3, 4, 6, 12]),
    st.sampled_from([2147483549, 2147483563, 2147483587, 2147483629, 2147483647]),
)
_NUMERATORS = st.one_of(st.integers(0, 6), st.integers(2**62, 2**70))
_VALUES = st.builds(Fraction, _NUMERATORS, _DENOMINATORS)


class TestIntegerView:
    def test_rows_over_their_own_lcm(self):
        inst = make_instance([["1/2", "1/3", 0], [4, 0, "5/4"], [0, 0, 0]])
        assert inst.int_rows == (((3, 2, 0), 6), ((16, 0, 5), 4), ((0, 0, 0), 1))
        assert make_instance([[], []]).int_rows == (((), 1), ((), 1))
        assert int_row([(2, 4), (6, 8), (0, 5)]) == ((2, 3, 0), 4)

    def test_equal_values_give_equal_instances(self):
        # One value written three ways, and the lowest-terms view either way.
        a = make_instance([["2/4", 3]])
        b = make_instance([[Fraction(1, 2), "6/2"]])
        c = instance_from_json('{"n":1,"m":2,"values":[["2/4","3/1"]]}')
        assert a == b == c and hash(a) == hash(b) == hash(c)
        assert {a: 1}[c] == 1 and a.int_rows == (((1, 6), 2),)
        assert a.values == ((Fraction(1, 2), Fraction(3)),)

    def test_rejects_a_view_not_in_lowest_terms(self):
        for view in ((((2, 4), 8),), (((0, 0), 2),), (((3, 2), 0),), (((3, 2), -6),),
                     (((3, 2), True),), (((3, 2), 6.0),), (((-1, 2), 3),)):
            with pytest.raises(DomainError):
                Instance(n=1, m=2, int_rows=view)
        assert Instance(n=1, m=2, int_rows=(((3, 2), 6),)).values == ((HALF, Fraction(1, 3)),)

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(st.integers(0, 6).flatmap(
        lambda m: st.lists(st.lists(_VALUES, min_size=m, max_size=m), min_size=1, max_size=4)))
    def test_view_round_trips_values_and_json(self, rows):
        inst = Instance.from_rows(rows)
        assert inst.values == tuple(map(tuple, rows))
        assert instance_from_json(instance_to_json(inst)) == inst


def _threshold_calls():
    """Each public entry point that takes alpha, eps or delta, called with a
    bad value in that parameter and good values elsewhere."""
    from mmskit import (
        approx_mms1, approx_mms2, bag_fill, check_alpha_mms, check_oni,
        check_structural_lemmas, classify_agents, reduce, solve, to_delta_oni,
    )

    inst = make_instance([[1, 1], [1, 1]])
    alloc = Allocation(bundles=(Bundle.of([1]), Bundle.of([2])))
    return {
        ("solve", "alpha"): lambda x: solve(inst, x),
        ("solve", "delta"): lambda x: solve(inst, Fraction(3, 4), delta=x),
        ("reduce", "eps"): lambda x: reduce(inst, x),
        ("to_delta_oni", "eps"): lambda x: to_delta_oni(inst, x),
        ("bag_fill", "alpha"): lambda x: bag_fill(inst, x),
        ("approx_mms1", "delta"): lambda x: approx_mms1(inst, x),
        ("approx_mms2", "delta"): lambda x: approx_mms2(inst, x),
        ("classify_agents", "delta"): lambda x: classify_agents(inst, x),
        ("check_alpha_mms", "alpha"): lambda x: check_alpha_mms(inst, alloc, x),
        ("check_oni", "delta"): lambda x: check_oni(inst, x),
        ("check_structural_lemmas", "delta"): lambda x: check_structural_lemmas(inst, x),
    }


class TestExactThresholds:
    def test_every_threshold_parameter_is_listed(self):
        import mmskit

        public = {
            (name, param)
            for name in mmskit.__all__
            if inspect.isfunction(fn := getattr(mmskit, name))
            for param in inspect.signature(fn).parameters
            if param in ("alpha", "eps", "delta")
        }
        assert public == set(_threshold_calls())

    @pytest.mark.parametrize("entry", sorted(_threshold_calls()), ids="-".join)
    def test_rejects_all_but_int_and_fraction_before_any_search(self, entry, monkeypatch):
        import mmskit.oracle

        def no_search(*args):
            raise AssertionError("searched before checking the threshold")

        monkeypatch.setattr(mmskit.oracle, "_search", no_search)
        call = _threshold_calls()[entry]
        for bad in (0.75, 0.7, "3/4", True, None):
            with pytest.raises(DomainError, match=f"^{entry[1]} must be an int or a Fraction"):
                call(bad)


class TestJson:
    def test_round_trip_bit_exact(self):
        inst = make_instance([[1, "2/3"], [0, 4]])
        assert instance_from_json(instance_to_json(inst)) == inst

    def test_rejects_negative_and_float_values(self):
        with pytest.raises(DomainError):
            instance_from_json('{"n":1,"m":1,"values":[[-1]]}')
        with pytest.raises(DomainError):
            instance_from_json('{"n":1,"m":1,"values":[[0.5]]}')
        with pytest.raises(DomainError):
            instance_from_json('{"n":1,"m":1,"values":[["-1/2"]]}')
        with pytest.raises(DomainError, match="denominator"):
            instance_from_json('{"n":1,"m":1,"values":[["1/0"]]}')

    def test_numbers_past_the_conversion_limit_are_domain_errors(self):
        # Python reads at most 4300 digits per int by default; past that,
        # a JSON int or either side of "p/q" text fails as a DomainError.
        digits = "9" * 5000
        for v in (digits, json.dumps(digits), json.dumps(f"{digits}/7"), json.dumps(f"7/{digits}")):
            with pytest.raises(DomainError, match="digits"):
                instance_from_json(f'{{"n":1,"m":1,"values":[[{v}]]}}')

    def test_rows_of_plain_ints_parse_like_pairs(self):
        # A row of plain nonnegative ints is taken as (row, 1); every other
        # row goes through (p, q) pairs. Both give the same instance or error.
        rows = ([0, 0], [4, 6], [2**70, 3], [4, "6"], [1, "2/4"], [1, -2], [1, True], [False, 1], [1, "p/q"], [1, 0.5])
        for row in rows:
            text = json.dumps({"n": 1, "m": 2, "values": [row]})
            try:
                expected = Instance(n=1, m=2, int_rows=(int_row(_jsonable_to_pair(v) for v in row),))
            except DomainError as e:
                with pytest.raises(DomainError, match=f"^{re.escape(str(e))}$"):
                    instance_from_json(text)
            else:
                assert instance_from_json(text) == expected, row

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DomainError):
            instance_from_json('{"n":2,"m":1,"values":[[1]]}')
        for text, message in (('[1]', "must be an object"), ('{"n":1,"m":1}', "missing field"),
                              ('{"n":1,"m":2,"values":[[1]]}', "list of m entries")):
            with pytest.raises(DomainError, match=message):
                instance_from_json(text)

    def test_values_take_only_ascii_digits(self):
        for v in ("\uff11\uff12", "\u0663/\u0664", "1/\u0664"):
            with pytest.raises(DomainError):
                instance_from_json(f'{{"n":1,"m":1,"values":[[{json.dumps(v)}]]}}')
        assert instance_from_json('{"n":1,"m":1,"values":[[" 3/4 "]]}').values == ((Fraction(3, 4),),)

    def test_allocation_rejects_repeated_ids(self):
        for text in (
            '{"bundles":[[2,1,1]],"unassigned":[3]}',
            '{"bundles":[[2,1]],"unassigned":[3,3]}',
        ):
            with pytest.raises(DomainError, match="twice"):
                allocation_from_json(text)

    def test_rejects_boolean_counts(self):
        with pytest.raises(DomainError):
            instance_from_json('{"n":true,"m":1,"values":[[1]]}')
        with pytest.raises(DomainError):
            instance_from_json('{"n":1,"m":false,"values":[[]]}')

    def test_allocation_rejects_wrongly_typed_fields(self):
        for text in (
            '{"bundles":5,"unassigned":[]}',
            '{"bundles":[[1]],"unassigned":7}',
            '{"bundles":[5],"unassigned":[]}',
            '{"bundles":[["a",1]],"unassigned":[]}',
            '{"bundles":[[1]]}',
        ):
            with pytest.raises(DomainError):
                allocation_from_json(text)

    def test_allocation_round_trip(self):
        alloc = Allocation(bundles=(Bundle.of([3, 1]), Bundle()), unassigned=Bundle.of([2]))
        again = allocation_from_json(allocation_to_json(alloc))
        assert again == alloc

    def test_serialization_deterministic(self):
        inst = make_instance([["1/3", 2], [7, "5/9"]])
        assert instance_to_json(inst) == instance_to_json(make_instance([["1/3", 2], [7, "5/9"]]))


@st.composite
def _row_and_goods(draw):
    """A row mixing ties, zeros and small and large terms, and a good set in
    any order: the whole row, a proper subset or the empty set."""
    pool = draw(st.lists(_VALUES, min_size=1, max_size=4))
    row = draw(st.lists(st.one_of(st.sampled_from(pool), _VALUES), max_size=12))
    every = list(range(1, len(row) + 1))
    goods = draw(st.one_of(st.permutations(every), st.lists(st.sampled_from(every), unique=True)
                           if row else st.just([])))
    return row, goods


class TestScaledRanking:
    @settings(max_examples=300, deadline=None, derandomize=True, database=None)
    @given(_row_and_goods())
    def test_matches_fraction_sort_and_exact_scaling(self, case):
        row, goods = case
        inst = Instance.from_rows([row])
        (ints, scale), = inst.int_rows
        assert scale == lcm(*(v.denominator for v in row))
        assert scaled_ranking(ints) == sorted(range(1, len(row) + 1), key=lambda g: row[g - 1], reverse=True)
        # A sub-bundle's row is over its own lcm, not the row's: the oracle
        # searches these numerators.
        (nums, denom), = restrict(inst, [1], goods).int_rows
        assert denom == lcm(*(row[g - 1].denominator for g in goods))
        assert [Fraction(a, denom) for a in nums] == [row[g - 1] for g in goods]


@st.composite
def _instances(draw):
    """Instances of 0-4 agents and 0-6 goods, empty matrices included."""
    n, m = draw(st.integers(0, 4)), draw(st.integers(0, 6))
    rows = draw(st.lists(st.lists(_VALUES, min_size=m, max_size=m), min_size=n, max_size=n))
    view = tuple(int_row((v.numerator, v.denominator) for v in row) for row in rows)
    return Instance(n=n, m=m, int_rows=view)


@st.composite
def _allocations(draw):
    """Valid allocations: each of m goods goes to one of n agents or the pool (owner 0)."""
    n, m = draw(st.integers(0, 4)), draw(st.integers(0, 10))
    owners = draw(st.lists(st.integers(0, n), min_size=m, max_size=m))
    held = [Bundle.of(g for g, o in enumerate(owners, start=1) if o == a) for a in range(n + 1)]
    alloc = Allocation(bundles=tuple(held[1:]), unassigned=held[0])
    alloc.validate(m)
    return alloc


class TestJsonRoundTrip:
    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_instances())
    def test_instance(self, inst):
        assert instance_from_json(instance_to_json(inst)) == inst

    @settings(max_examples=200, deadline=None, derandomize=True, database=None)
    @given(_allocations())
    def test_allocation(self, alloc):
        assert allocation_from_json(allocation_to_json(alloc)) == alloc
