from __future__ import annotations

from fractions import Fraction

import pytest

from mmskit import (
    Allocation,
    Bundle,
    DomainError,
    BoundsError,
    Instance,
    Partition,
    instance_from_json,
    instance_to_json,
    allocation_from_json,
    allocation_to_json,
    is_ordered,
    rat,
    value,
)
from conftest import make_instance, random_instance


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
        assert is_ordered(Instance(n=0, m=0, values=()))
        assert is_ordered(make_instance([[5]]))


class TestBundlesAndAllocations:
    def test_bundle_of_sorts_and_dedupes(self):
        assert Bundle.of([3, 1, 3, 2]).goods == (1, 2, 3)

    def test_bundle_rejects_bad_indices(self):
        with pytest.raises(DomainError):
            Bundle.of([0, 1])

    def test_partition_validate(self):
        p = Partition((Bundle.of([1]), Bundle.of([2, 3])))
        p.validate(Bundle.of([1, 2, 3]))
        with pytest.raises(DomainError):
            p.validate(Bundle.of([1, 2, 3, 4]))
        overlapping = Partition((Bundle.of([1, 2]), Bundle.of([2, 3])))
        with pytest.raises(DomainError):
            overlapping.validate(Bundle.of([1, 2, 3]))

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
        with pytest.raises(DomainError):
            Instance(n=1, m=1, values=((Fraction(-1),),))

    def test_rejects_bad_shape(self):
        with pytest.raises(DomainError):
            Instance(n=2, m=2, values=((Fraction(1), Fraction(1)),))

    def test_empty_instances_legal(self):
        assert Instance(n=0, m=0, values=()).m == 0
        assert Instance(n=0, m=3, values=()).m == 3


class TestJson:
    def test_round_trip_bit_exact(self):
        inst = make_instance([[1, "2/3"], [0, 4]])
        again = instance_from_json(instance_to_json(inst))
        assert again.values == inst.values and (again.n, again.m) == (inst.n, inst.m)

    def test_rejects_negative_and_float_values(self):
        with pytest.raises(DomainError):
            instance_from_json('{"n":1,"m":1,"values":[[-1]]}')
        with pytest.raises(DomainError):
            instance_from_json('{"n":1,"m":1,"values":[[0.5]]}')
        with pytest.raises(DomainError):
            instance_from_json('{"n":1,"m":1,"values":[["-1/2"]]}')

    def test_rejects_shape_mismatch(self):
        with pytest.raises(DomainError):
            instance_from_json('{"n":2,"m":1,"values":[[1]]}')

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
