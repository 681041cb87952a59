"""Acceptance suite: one test per criterion, each printing a PASS line.

The heavyweight corpus run (solve + verify over the full default corpus) is
computed once per session and shared by the criteria that consume it.
"""

from __future__ import annotations

import json
import time
from dataclasses import dataclass, field
from fractions import Fraction

import pytest

from mmskit import (
    ALPHA_MAX,
    Allocation,
    Bundle,
    DELTA_DEFAULT,
    Instance,
    SolveInfo,
    VerificationReport,
    bag_fill,
    check_alpha_mms,
    check_oni,
    check_structural_lemmas,
    lift_ordered_allocation,
    mms,
    mms_exhaustive,
    order,
    reduce,
    solve,
    to_delta_oni,
    value,
)
from mmskit.gen import GenSpec, SplitMix64, default_corpus, generate
from mmskit.transforms import restrict

from conftest import make_instance

EPS_MAIN = Fraction(3, 3836)
ALPHA34 = Fraction(3, 4)


def announce(criterion: int, text: str) -> None:
    print(f"\nACCEPTANCE {criterion} PASS: {text}")


@dataclass
class CorpusRecord:
    spec: GenSpec
    inst: Instance
    alloc: Allocation
    info: SolveInfo
    report: VerificationReport


@dataclass
class CorpusRun:
    records: list[CorpusRecord] = field(default_factory=list)
    elapsed: float = 0.0


@pytest.fixture(scope="session")
def corpus_run() -> CorpusRun:
    run = CorpusRun()
    t0 = time.perf_counter()
    for spec in default_corpus(1000):
        inst = generate(spec)
        alloc, info = solve(inst, ALPHA_MAX)
        report = check_alpha_mms(inst, alloc, ALPHA_MAX)
        run.records.append(CorpusRecord(spec, inst, alloc, info, report))
    run.elapsed = time.perf_counter() - t0
    return run


def test_criterion_1_oracle_soundness():
    # Exact agreement between the search oracle and the brute-force
    # enumerator on a full-grid sample plus larger random instances.
    t0 = time.perf_counter()
    rng = SplitMix64(0x5EED0001)
    compared = 0
    for _ in range(10_000):
        n = rng.randint(1, 3)
        m = rng.randint(1, 7)
        inst = make_instance([[rng.randint(0, 3) for _ in range(m)] for _ in range(n)])
        for agent in range(1, n + 1):
            a = mms(inst, agent, n)
            b = mms_exhaustive(inst, agent, n)
            assert a.value == b.value, (inst.values, agent)
            compared += 1
    larger = []
    for _ in range(1_000):
        n = rng.randint(1, 3)
        m = rng.randint(8, 12)
        larger.append([[rng.randint(0, 3) for _ in range(m)] for _ in range(n)])
    # Four agents on values 0..20, and Fraction rows, at m 8-11.
    for _ in range(150):
        m = rng.randint(8, 11)
        larger.append([[rng.randint(0, 20) for _ in range(m)] for _ in range(4)])
    for _ in range(150):
        n, m = rng.randint(1, 3), rng.randint(8, 11)
        larger.append([[Fraction(rng.randint(0, 12), rng.randint(1, 9)) for _ in range(m)]
                       for _ in range(n)])
    for rows in larger:
        inst = make_instance(rows)
        for agent in range(1, inst.n + 1):
            assert mms(inst, agent, inst.n).value == mms_exhaustive(inst, agent, inst.n).value
            compared += 1
    elapsed = time.perf_counter() - t0
    assert elapsed < 300, f"runtime target missed: {elapsed:.1f}s"
    announce(1, f"search oracle == exhaustive on {compared} agent checks "
                f"across {10_000 + len(larger)} instances in {elapsed:.1f}s (< 5 min)")


def test_criterion_2_main_theorem(corpus_run):
    # Every corpus instance solved at alpha = 3/4 + 3/3836 verifies exactly.
    failures = [r.spec.seed for r in corpus_run.records if not r.report.passed]
    assert not failures, f"verification failed for seeds {failures[:10]}"
    assert len(corpus_run.records) == 1000
    assert corpus_run.elapsed < 1800, f"runtime target missed: {corpus_run.elapsed:.0f}s"
    announce(2, f"1000/1000 corpus instances verify at alpha = 3/4+3/3836 "
                f"(exact, zero tolerance) in {corpus_run.elapsed:.0f}s (< 30 min)")


def test_criterion_3_reduction_share_floor(corpus_run):
    # After reduce at slack eps, every survivor's oracle share is >= 1-4*eps.
    checked = 0
    survivors = 0
    for eps in (Fraction(0), Fraction(1, 100), EPS_MAIN):
        floor = 1 - 4 * eps
        for record in corpus_run.records:
            red, _ = reduce(record.inst, eps)
            checked += 1
            for i in range(1, red.n + 1):
                survivors += 1
                share = mms(red, i, red.n).value
                assert share >= floor, (record.spec.seed, eps, i, share)
    announce(3, f"post-reduction share floor 1-4*eps holds for {survivors} survivors "
                f"over {checked} reductions at eps in {{0, 1/100, 3/3836}}")


def test_criterion_4_oni_outputs(corpus_run):
    # The pipeline output is ordered, normalized, irreducible, with m >= 2n.
    nonempty = 0
    for record in corpus_run.records:
        oni = record.info.oni
        report = check_oni(oni, DELTA_DEFAULT)
        assert report.ok, (record.spec.seed, report.failure)
        assert oni.m >= 2 * oni.n, record.spec.seed
        nonempty += oni.n > 0
    announce(4, f"all 1000 pipeline outputs pass the ordered/normalized/irreducible "
                f"check with m >= 2n ({nonempty} with surviving agents)")


def test_criterion_5_baseline_bag_fill(corpus_run):
    # Plain bag filling at 3/4 on zero-slack pipeline outputs: every agent
    # reaches 3/4 of her (exactly 1) share. Half the batch comes from the
    # default corpus, half from tighter mid-weight draws that survive the
    # zero-slack reduction far more often.
    rng = SplitMix64(0x5EED0005)
    batch = [record.inst for record in corpus_run.records[:250]]
    while len(batch) < 375:
        # near-equal values at about six goods per bundle survive zero slack
        n = rng.randint(2, 3)
        m = rng.randint(6 * n, min(6 * n + 2, 18))
        batch.append(
            make_instance([[rng.randint(59, 62) for _ in range(m)] for _ in range(n)])
        )
    while len(batch) < 500:
        n = rng.randint(2, 5)
        m = rng.randint(2 * n + 1, 16)
        batch.append(
            make_instance([[rng.randint(8, 11) for _ in range(m)] for _ in range(n)])
        )
    nonvacuous = 0
    for inst in batch:
        oni, _, _ = to_delta_oni(inst, Fraction(0))
        alloc = bag_fill(oni, ALPHA34)
        report = check_alpha_mms(oni, alloc, ALPHA34)
        assert report.passed
        nonvacuous += oni.n > 0
    announce(5, f"baseline bag filling verified at ratio >= 3/4 exactly on 500 "
                f"zero-slack instances ({nonvacuous} with surviving agents)")


def test_criterion_6_structural_lemmas(corpus_run):
    # Pair bound, big-bag tails, post-reduction value caps, and the
    # half-bounded pair-removal floor, each over 500 applicable instances.
    structural = 0
    for record in corpus_run.records:
        if structural >= 500:
            break
        oni = record.info.oni
        report = check_structural_lemmas(oni, DELTA_DEFAULT)
        assert report.ok, (record.spec.seed, report.violations)
        assert report.irreducible
        if oni.n > 0:
            alpha = ALPHA34 + DELTA_DEFAULT
            for i in range(1, oni.n + 1):
                row = oni.values[i - 1]
                for k in range(1, oni.m + 1):
                    assert row[k - 1] < alpha
                    if k > 2 * oni.n:
                        assert row[k - 1] < alpha / 3
                    if k > 3 * oni.n:
                        assert row[k - 1] < alpha / 4
        structural += 1

    rng = SplitMix64(0x5EED0006)
    pair_checks = 0
    while pair_checks < 500:
        n = rng.randint(2, 4)
        m = rng.randint(2 * n, 10)
        inst = make_instance([[rng.randint(0, 9) for _ in range(m)] for _ in range(n)])
        agent = rng.randint(1, n)
        base = mms(inst, agent, n).value
        k = rng.randint(1, n - 1)
        if 2 * k > m:
            continue
        goods = list(range(1, m + 1))
        rng.shuffle(goods)
        removed = Bundle.of(goods[: 2 * k])
        x = max(
            [value(inst, agent, Bundle.of([g])) - base / 2 for g in removed] + [Fraction(0)]
        )
        rest = Bundle.of(g for g in range(1, m + 1) if g not in removed)
        assert mms(restrict(inst, [agent], rest), 1, n - k).value >= base - 2 * x
        pair_checks += 1
    announce(6, f"structural suite: {structural} pipeline outputs pass the pair-bound, "
                f"tail and value-cap checks; {pair_checks} pair-removal floors hold")


def test_criterion_7_branch_and_rule_coverage(corpus_run, tmp_path, capsys):
    # The in-process corpus results and the bench command must agree, and
    # bench's reported counters must cover both branches and every rule.
    branches: dict[str, int] = {}
    rules = {f"R{k}": 0 for k in range(1, 6)}
    for record in corpus_run.records:
        branches[record.info.branch] = branches.get(record.info.branch, 0) + 1
        for rule, count in record.info.rule_counts.items():
            rules[rule] += count

    from mmskit.cli import main as cli_main
    from mmskit.gen import write_corpus

    manifest = write_corpus(default_corpus(1000), tmp_path / "corpus")
    rc = cli_main(["bench", "-i", str(manifest), "-o", str(tmp_path / "bench.csv"),
                   "--jobs", "4"])
    assert rc == 0
    summary = json.loads(capsys.readouterr().out.strip().splitlines()[-1])
    assert summary["instances"] == 1000 and summary["all_pass"] is True
    assert summary["branches"] == branches
    assert summary["rules"] == rules
    assert summary["branches"].get("mms1", 0) > 0 and summary["branches"].get("mms2", 0) > 0
    missing = [r for r, c in summary["rules"].items() if c == 0]
    assert not missing, f"rules never fired: {missing}"
    announce(7, f"bench reports both dispatch branches (mms1={branches['mms1']}, "
                f"mms2={branches['mms2']}) and every rule fired: {rules}")


def test_criterion_8_lifting_soundness():
    # Lifted bundles are worth at least the pre-lift ordered bundles, agent
    # by agent, exactly.
    rng = SplitMix64(0x5EED0008)
    for _ in range(500):
        n = rng.randint(1, 5)
        m = rng.randint(n, 12)
        inst = make_instance([[rng.randint(0, 50) for _ in range(m)] for _ in range(n)])
        ordered, omap = order(inst)
        owners = [rng.below(n + 1) for _ in range(m)]
        bundles = [[] for _ in range(n)]
        pool = []
        for g, who in enumerate(owners, start=1):
            (pool if who == 0 else bundles[who - 1]).append(g)
        alloc = Allocation(
            bundles=tuple(Bundle.of(b) for b in bundles), unassigned=Bundle.of(pool)
        )
        lifted = lift_ordered_allocation(inst, omap, alloc)
        for i in range(1, n + 1):
            assert value(inst, i, lifted.bundles[i - 1]) >= value(
                ordered, i, alloc.bundles[i - 1]
            )
    announce(8, "lifting soundness holds on 500 seeded instances "
                "(original value >= ordered value per agent, exact)")


def test_criterion_9_determinism(tmp_path):
    from mmskit.cli import main as cli_main

    outputs = []
    for attempt in ("x", "y"):
        blobs = []
        for seed in (3, 17, 1234, 20260801):
            inst = tmp_path / f"i-{attempt}-{seed}.json"
            alloc = tmp_path / f"a-{attempt}-{seed}.json"
            report = tmp_path / f"r-{attempt}-{seed}.json"
            reduced = tmp_path / f"d-{attempt}-{seed}.json"
            shares = tmp_path / f"m-{attempt}-{seed}.json"
            assert cli_main(["gen", "--seed", str(seed), "--family",
                             "heavy-singles" if seed % 2 else "uniform",
                             "--n", "2:5", "--m", "4:14", "--grid", "60",
                             "-o", str(inst)]) == 0
            assert cli_main(["solve", "--alpha", "3/4+3/3836", "-i", str(inst),
                             "-o", str(alloc)]) == 0
            assert cli_main(["verify", "-i", str(inst), "-a", str(alloc),
                             "--alpha", "3/4+3/3836", "-o", str(report)]) == 0
            assert cli_main(["reduce", "-i", str(inst), "--epsilon", "3/3836",
                             "-o", str(reduced)]) == 0
            assert cli_main(["mms", "-i", str(inst), "--agent", "1",
                             "-o", str(shares)]) == 0
            blobs.append(tuple(p.read_bytes() for p in (inst, alloc, report, reduced, shares)))
        outputs.append(blobs)
    assert outputs[0] == outputs[1]
    announce(9, "repeated gen/solve/verify/reduce/mms runs are byte-identical "
                "across 4 seeds")
