from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import pytest

from mmskit import (
    DomainError,
    classify_agents,
    instance_from_json,
    instance_to_json,
    solve,
    to_delta_oni,
)
from mmskit.allocators import ALPHA_MAX, DELTA_DEFAULT
from mmskit.gen import (
    FAMILIES,
    GenSpec,
    SplitMix64,
    _compose,
    default_corpus,
    generate,
    write_corpus,
)

EPS = Fraction(3, 3836)
GENERATED_SHA256 = "058a17c85b8c6db35897465a5da36d751cbe236b6ccfd3c07deff5d68f272563"


def spec_for(family, seed=42, n=(2, 4), m=(2, 18), grid=100):
    return GenSpec(seed=seed, n_range=n, m_range=m, family=family, grid=grid)


class TestSplitMix:
    def test_known_stream(self):
        # reference values for splitmix64 seeded with 1234567
        rng = SplitMix64(1234567)
        assert rng.next_u64() == 6457827717110365317
        assert rng.next_u64() == 3203168211198807973

    def test_bounded_draws_in_range(self):
        rng = SplitMix64(9)
        draws = [rng.randint(3, 7) for _ in range(200)]
        assert set(draws) <= set(range(3, 8))
        assert len(set(draws)) == 5

    def test_draw_bound_at_most_two_to_the_64(self):
        # Past 2^64 the rejection limit would be 0 and no draw would ever
        # pass; the draws are capped so that such a loop fails, not hangs.
        rng = SplitMix64(1)
        assert 0 <= rng.below(2**64) < 2**64
        capped = iter(range(1000))
        rng.next_u64 = lambda: next(capped)
        with pytest.raises(DomainError, match="2\\^64"):
            rng.below(2**64 + 1)

    @pytest.mark.parametrize("k", [1, 6, 10**9 + 1, 2**63 + 1, 2**64])
    def test_block_draws_equal_scalar_draws(self, k):
        # Block draws run 2048 words per pass; about half the words are
        # rejected at k = 2^63 + 1, none at k = 2^64.
        rnd = random.Random(k)
        for count in (0, 1, 2047, 2048, 2049, 5000):
            seed, lo = rnd.getrandbits(64), rnd.randint(-(2**70), 2**70)
            block, scalar = SplitMix64(seed), SplitMix64(seed)
            drawn = block.randints(lo, lo + k - 1, count)
            assert drawn == [scalar.randint(lo, lo + k - 1) for _ in range(count)], (k, count)
            assert block.state == scalar.state, (k, count)

    def test_shuffle_equals_fisher_yates_over_below(self):
        rnd = random.Random(28)
        for length in range(41):
            seed = rnd.getrandbits(64)
            xs, ref = SplitMix64(seed), SplitMix64(seed)
            expected = list(range(length))
            for i in range(length - 1, 0, -1):
                j = ref.below(i + 1)
                expected[i], expected[j] = expected[j], expected[i]
            assert xs.shuffle(list(range(length))) == expected, length
            assert xs.state == ref.state, length


class TestCompose:
    def test_parts_in_range_and_sum(self):
        rng = SplitMix64(5)
        for total in (19, 30, 60):
            parts = _compose(rng, total, 2, 4)
            assert sum(parts) == total and all(2 <= p <= 4 for p in parts)

    def test_unrepresentable_rejected(self):
        with pytest.raises(DomainError):
            _compose(SplitMix64(1), 1, 2, 4)


class TestGenerate:
    def test_deterministic(self):
        for family in FAMILIES:
            spec = spec_for(family)
            a, b = generate(spec), generate(spec)
            assert a.values == b.values and (a.n, a.m) == (b.n, b.m)

    def test_uniform_range_contract(self):
        spec = GenSpec(seed=42, n_range=(3, 3), m_range=(9, 9), family="uniform", grid=100)
        inst = generate(spec)
        assert (inst.n, inst.m) == (3, 9)
        assert all(0 <= v <= 100 for row in inst.values for v in row)
        assert generate(spec).values == inst.values

    def test_values_capped_by_grid(self):
        for family in FAMILIES:
            for grid in (1, 5, 50, 100):
                for seed in range(12):
                    inst = generate(spec_for(family, seed=seed, grid=grid))
                    assert all(
                        0 <= v <= grid for row in inst.values for v in row
                    ), (family, grid, seed)

    def test_m_at_least_n(self):
        for family in FAMILIES:
            for seed in range(20):
                inst = generate(spec_for(family, seed=seed))
                assert inst.m >= inst.n

    def test_bad_spec_rejected(self):
        with pytest.raises(DomainError):
            GenSpec(seed=1, n_range=(2, 1), m_range=(2, 4), family="uniform", grid=10)
        with pytest.raises(DomainError):
            GenSpec(seed=1, n_range=(1, 2), m_range=(2, 4), family="nope", grid=10)
        with pytest.raises(DomainError):
            GenSpec(seed=1, n_range=(1, 2), m_range=(2, 4), family="uniform", grid=0)

    def test_zero_agents_keep_good_count(self):
        for family in FAMILIES:
            inst = generate(spec_for(family, seed=1, n=(0, 0), m=(3, 3)))
            assert (inst.n, inst.m, inst.values) == (0, 3, ()), family

    def test_no_agents_and_no_goods(self):
        for family in FAMILIES:
            inst = generate(spec_for(family, seed=1, n=(0, 0), m=(0, 0)))
            assert (inst.n, inst.m, inst.values) == (0, 0, ()), family

    def test_generated_bytes_match_golden_digest(self):
        # Past the default corpus: every family at coarse, fine and 64-bit
        # grids with n 10-20, m 30-80, one uniform spec of 3200 draws (more
        # than one block pass), and one spec with no agents.
        specs = [
            GenSpec(seed=s, n_range=(10, 20), m_range=(30, 80), family=f, grid=g)
            for f in FAMILIES
            for g in (1, 2, 5, 100, 10**9, 2**63, 2**64 - 1)
            for s in range(3)
        ]
        specs.append(GenSpec(seed=5, n_range=(40, 40), m_range=(80, 80), family="uniform", grid=100))
        specs.append(GenSpec(seed=6, n_range=(0, 0), m_range=(3, 3), family="uniform", grid=100))
        digest = hashlib.sha256()
        for spec in specs:
            digest.update(instance_to_json(generate(spec)).encode())
        assert digest.hexdigest() == GENERATED_SHA256

    def test_spec_json_round_trip(self):
        spec = spec_for("correlated", seed=7)
        assert GenSpec.from_jsonable(spec.to_jsonable()) == spec


class TestFamilyTargets:
    def test_heavy_pairs_reach_big_bag_class(self):
        # calibrated: structured shapes survive the pipeline into the
        # big-bag class for well over half of seeds at grid 100
        hits = 0
        total = 200
        for seed in range(total):
            inst = generate(spec_for("heavy-pairs", seed=6000 + seed, n=(2, 6)))
            oni, _, _ = to_delta_oni(inst, EPS)
            if oni.n and classify_agents(oni, DELTA_DEFAULT).n2:
                hits += 1
        assert hits >= total // 2, f"only {hits}/{total} seeds reached the big-bag class"

    def test_heavy_singles_exercise_both_branches(self):
        branches = set()
        for seed in range(200):
            inst = generate(spec_for("heavy-singles", seed=7000 + seed, n=(2, 6)))
            _, info = solve(inst, ALPHA_MAX)
            branches.add(info.branch)
            if len(branches) == 2:
                break
        assert branches == {"mms1", "mms2"}


class TestCorpus:
    def test_default_corpus_shape(self):
        specs = default_corpus(16)
        assert len(specs) == 16
        assert [s.family for s in specs[:4]] == list(FAMILIES)
        assert len({s.seed for s in specs}) == 16
        assert all(s.n_range == (2, 6) and s.m_range == (2, 18) for s in specs)

    def test_write_corpus_manifest(self, tmp_path):
        manifest = write_corpus(default_corpus(6), tmp_path)
        obj = json.loads(manifest.read_text())
        assert len(obj["entries"]) == 6
        for idx, entry in enumerate(obj["entries"]):
            assert entry["id"] == f"g{idx:04d}"
            inst = instance_from_json((tmp_path / entry["path"]).read_text())
            spec = GenSpec.from_jsonable(entry["spec"])
            assert generate(spec).values == inst.values
