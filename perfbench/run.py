#!/usr/bin/env python3
"""mmskit benchmark: one workload per run, in one process, stdlib only.

Run from the repository root (mmskit is imported from ./src; nothing needs
installing):

    python3 perfbench/run.py --workload many-agents --seed 1 --seconds 50 --trace 0

The run builds the workload's instances from the seed (workloads.py) and
serialises them to instance JSON. Then, until --seconds of measuring have
passed and a round of shapes is complete, it takes each instance through
what a user of the CLI does: parse the instance JSON, solve at
alpha = 3/4 + 3/3836 with the default delta and node budget, write and
re-read the allocation JSON, verify it and, on the crosscheck workload,
compare `mms` with `mms_exhaustive` for one agent. The oracle cache is
cleared before every timed solve, verify and crosscheck, so each one does its
own searches.

Every output is checked: the allocation is valid and round-trips through
JSON, verification passes at alpha, and crosscheck values are equal. An
exception (OracleBudgetExceeded included) or a failed check on one instance
is recorded with the instance id and the run goes on; `correct` is false if
any operation failed.

Set-up is timed in SETUP_PROBES fresh processes (setup_probe.py), spread
evenly over the measuring with its clock stopped, so that they sample the
machine across the whole run.

Stdout: one "#" line of run details (outputs digest, branch and rule mix,
oracle call counts, failures), then one JSON line
{"correct", "attempted", "failed", "metrics"}. With --trace 0 the metrics are
the end-to-end ones, measured without tracing:

  setup_s          median set-up time over the probes: `import mmskit` plus
                   building the inputs
  instances_per_s  instances per second of whole-pipeline time
  solve_per_s      instances solved per second of solve time
  solve_p50_ms     median solve latency
  solve_tail_ms    90th-percentile solve latency (the "#" line also gives the
                   highest percentile with 10 samples beyond it)
  verify_per_s     verifications per second of verify time
  verify_p50_ms    median verify latency
  peak_rss_mb      peak resident memory of the run process

With --trace 1 each instance runs twice, untraced then traced, and the
metrics are the per-layer ones (see `layer_metrics`).

Runs are time-bound, so a faster program handles more instances in a run.
Throughputs and latencies are therefore the comparable numbers; per-layer
times and counts are given per instance.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import resource
import statistics
import subprocess
import sys
import traceback
from collections import Counter
from pathlib import Path
from time import perf_counter

from setup_probe import build_inputs, import_program
from tracing import LAYERS, ORACLE_LAYERS, Tracer
from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ALPHA_TEXT = "3/4+3/3836"
SETUP_PROBES = 9
TAIL_QUANTILE = 0.9
MAX_LISTED_FAILURES = 20


class CheckFailed(Exception):
    """The program returned a wrong output."""


def probe_setup(workload: str, seed: int) -> tuple[float, float, float]:
    """Import, input build and gen.generate times of a fresh process."""
    cmd = [sys.executable, str(HERE / "setup_probe.py"), workload, str(seed)]
    done = subprocess.run(cmd, capture_output=True, text=True, timeout=120, check=True)
    import_s, build_s, gen_s = (float(x) for x in done.stdout.split())
    return import_s, build_s, gen_s


def quantile(xs: list[float], q: float) -> float:
    """Nearest-rank quantile; 0.0 for no samples."""
    if not xs:
        return 0.0
    ordered = sorted(xs)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def ratio(a: float, b: float) -> float:
    return a / b if b else 0.0


class OpTimes:
    """Latencies of successful calls, and the time of every attempt."""

    def __init__(self) -> None:
        self.ok: list[float] = []
        self.total = 0.0

    def call(self, fn, *args):
        start = perf_counter()
        try:
            result = fn(*args)
        finally:
            took = perf_counter() - start
            self.total += took
        self.ok.append(took)
        return result

    def per_s(self) -> float:
        return ratio(len(self.ok), self.total)

    def summary(self) -> dict:
        """Sample count, median, the fixed tail quantile, and the highest
        percentile that has at least 10 samples beyond it."""
        n = len(self.ok)
        out = {"samples": n, "p50_ms": quantile(self.ok, 0.5) * 1e3,
               f"p{round(TAIL_QUANTILE * 100)}_ms": quantile(self.ok, TAIL_QUANTILE) * 1e3}
        if n > 10:
            out["tail"] = {"percentile": 100 * (n - 10) / n,
                           "ms": sorted(self.ok)[n - 11] * 1e3}
        return out


class Pipeline:
    """Runs instances through parse, solve, JSON, verify and crosscheck, and
    keeps what one pass of the measurement loop needs to report."""

    def __init__(self, workload, seed: int, traced: bool) -> None:
        from mmskit import allocators, core, errors, oracle, verify

        self.core, self.oracle, self.allocators, self.verify = core, oracle, allocators, verify
        self.errors = errors
        self.alpha = core.rat(ALPHA_TEXT)
        self.workload = workload
        self.seed = seed
        self.traced = traced
        self.instances = 0
        self.total = 0.0  # whole-pipeline time
        self.solve = OpTimes()
        self.verify_times = OpTimes()
        self.crosscheck = OpTimes()
        self.attempted = 0
        self.failures: list[dict] = []
        self.branches: Counter = Counter()
        self.rules: Counter = Counter()
        self.digest = hashlib.sha256()
        self.digest_at: tuple[int, str] = (0, self.digest.hexdigest())

    def attempt(self, op: str, item: str, fn, *args):
        """Run one operation; a failure is recorded and never ends the run."""
        self.attempted += 1
        try:
            return fn(*args)
        except CheckFailed as exc:
            message = str(exc)
        except Exception as exc:  # one bad instance must not abort the batch
            traceback.print_exc(file=sys.stderr)
            message = f"{type(exc).__name__}: {exc}"
        self.failures.append({"op": op, "id": item, "error": message})
        return None

    def _solve(self, inst):
        self.oracle.clear_cache()
        alloc, info = self.solve.call(self.allocators.solve, inst, self.alpha)
        try:
            alloc.validate(inst.m)
        except self.errors.MmsKitError as exc:
            raise CheckFailed(f"invalid allocation: {exc}") from exc
        if alloc.n_agents != inst.n:
            raise CheckFailed(f"allocation has {alloc.n_agents} bundles for {inst.n} agents")
        text = self.core.allocation_to_json(alloc)
        back = self.core.allocation_from_json(text)
        if back != alloc:
            raise CheckFailed("allocation JSON does not round-trip")
        return back, info, text

    def _verify(self, inst, alloc) -> None:
        self.oracle.clear_cache()
        report = self.verify_times.call(self.verify.check_alpha_mms, inst, alloc, self.alpha)
        if not report.passed or len(report.agents) != inst.n:
            raise CheckFailed(f"verification failed at alpha = {ALPHA_TEXT}")

    def _crosscheck(self, inst, agent: int) -> None:
        def both():
            return (self.oracle.mms(inst, agent, inst.n),
                    self.oracle.mms_exhaustive(inst, agent, inst.n))

        self.oracle.clear_cache()
        fast, reference = self.crosscheck.call(both)
        if fast.value != reference.value:
            raise CheckFailed(f"mms {fast.value} != mms_exhaustive {reference.value}")

    def run(self, idx: int, text: str) -> None:
        item = f"{self.workload.name}/{self.seed}/{idx % self.workload.pool_size}"
        start = perf_counter()
        inst = self.attempt("parse", item, self.core.instance_from_json, text)
        if inst is not None:
            solved = self.attempt("solve", item, self._solve, inst)
            if solved is not None:
                alloc, info, out = solved
                self.record(item, info, out)
                self.attempt("verify", item, self._verify, inst, alloc)
            if self.workload.crosscheck:
                self.attempt("crosscheck", item, self._crosscheck, inst, 1 + idx % inst.n)
        self.total += perf_counter() - start
        self.instances += 1

    def record(self, item: str, info, out: str) -> None:
        self.branches[info.branch] += 1
        self.rules.update(info.rule_counts)
        self.digest.update(f"{item}\n{out}".encode())
        done = sum(self.branches.values())
        if done & (done - 1) == 0:  # keep the digest at each power of two
            self.digest_at = (done, self.digest.hexdigest())


def measure(workload, texts: list[str], seconds: float, pipelines: list[Pipeline],
            tracer: Tracer | None, probe) -> tuple[float, list]:
    """Feed each instance to every pipeline in turn until `seconds` of
    measuring have passed and a round is complete. With a tracer, its
    wrappers are in place for the traced pipeline only. Between rounds, at
    SETUP_PROBES evenly spaced points of the measured time, `probe` runs with
    the clock stopped. Returns the measured time and the probe results."""
    probes = []
    measured = 0.0
    idx = 0
    while idx == 0 or idx % workload.round_size or measured < seconds:
        if (idx % workload.round_size == 0 and len(probes) < SETUP_PROBES
                and measured >= len(probes) * seconds / SETUP_PROBES):
            probes.append(probe())
        start = perf_counter()
        text = texts[idx % len(texts)]
        for pipeline in pipelines:
            if tracer is not None:
                tracer.enable(pipeline.traced)
            pipeline.run(idx, text)
        measured += perf_counter() - start
        idx += 1
    while len(probes) < SETUP_PROBES:  # rounds longer than a probe interval
        probes.append(probe())
    return measured, probes


def end_to_end_metrics(p: Pipeline, setup_s: float) -> dict:
    return {
        "setup_s": (setup_s, "s"),
        "instances_per_s": (ratio(p.instances, p.total), "1/s"),
        "solve_per_s": (p.solve.per_s(), "1/s"),
        "solve_p50_ms": (quantile(p.solve.ok, 0.5) * 1e3, "ms"),
        "solve_tail_ms": (quantile(p.solve.ok, TAIL_QUANTILE) * 1e3, "ms"),
        "verify_per_s": (p.verify_times.per_s(), "1/s"),
        "verify_p50_ms": (quantile(p.verify_times.ok, 0.5) * 1e3, "ms"),
        "peak_rss_mb": (peak_rss_mb(), "MB"),
    }


def layer_metrics(t: Tracer, traced: Pipeline, plain: Pipeline, import_s: float, gen_s: float) -> dict:
    """Per-layer metrics from the traced half of a --trace 1 run.

    busy_s is inclusive span time and self_s span time minus the spans it
    directly caused, both per traced instance; calls are per instance too.
    oracle.mms.share is the share of solve time spent in mms, and
    oracle.mms_exhaustive.share its share of all traced layer time. The
    branch metrics are the share of solved instances that took each
    allocator. setup.import_s and gen.generate.busy_s are medians over the
    set-up probes. trace.overhead is traced over untraced pipeline time on
    the same instances, the untraced pipeline running without wrappers.
    """
    n = traced.instances
    solved = sum(traced.branches.values())
    per_instance = {
        "oracle.mms.calls": t.calls["oracle.mms"],
        "oracle.mms.busy_s": t.busy["oracle.mms"],
        "oracle.mms_exhaustive.calls": t.calls["oracle.mms_exhaustive"],
        "oracle.mms_exhaustive.busy_s": t.busy["oracle.mms_exhaustive"],
        "transforms.order.busy_s": t.busy["transforms.order"],
        "transforms.reduce.self_s": t.self_s["transforms.reduce"],
        "transforms.normalize.self_s": t.self_s["transforms.normalize"],
        "transforms.apply_rule.calls": t.calls["transforms.apply_rule"],
        "transforms.lift_allocation.busy_s": t.busy["transforms.lift_allocation"],
        "allocators.solve.self_s": t.self_s["allocators.solve"],
        "allocators.classify_agents.busy_s": t.busy["allocators.classify_agents"],
        "allocators.rule.R5": traced.rules["R5"],
        "verify.check_alpha_mms.self_s": t.self_s["verify.check_alpha_mms"],
        "core.json.busy_s": t.busy["core.json"],
    }
    metrics = {
        name: (ratio(total, n), "s/instance" if name.endswith("_s") else "count/instance")
        for name, total in per_instance.items()
    }
    metrics.update({
        "oracle.mms.share": (ratio(t.root_busy["oracle.mms", "allocators.solve"], t.busy["allocators.solve"]), "ratio"),
        "oracle.mms.p50_us": (quantile(t.durations["oracle.mms"], 0.5) * 1e6, "us"),
        "oracle.mms.budget_fail": (t.raised["oracle.mms", "OracleBudgetExceeded"], "count"),
        "oracle.mms_exhaustive.share": (ratio(t.busy["oracle.mms_exhaustive"], t.roots_busy()), "ratio"),
        "allocators.branch.mms1": (ratio(traced.branches["mms1"], solved), "ratio"),
        "allocators.branch.mms2": (ratio(traced.branches["mms2"], solved), "ratio"),
        "setup.import_s": (import_s, "s"),
        "gen.generate.busy_s": (gen_s, "s"),
        "trace.overhead": (ratio(traced.total, plain.total), "ratio"),
    })
    return metrics


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def details(pipelines: list[Pipeline], tracer: Tracer, elapsed: float, probes: list) -> dict:
    """What the run exercised: outputs digest, branch and rule mix, oracle
    calls, memory and failures. Reported, not counted as failures."""
    plain = pipelines[0]
    workload = plain.workload
    attempted = sum(p.attempted for p in pipelines)
    failures = [f for p in pipelines for f in p.failures]
    out = {
        "workload": workload.name,
        "seed": plain.seed,
        "traced": len(pipelines) > 1,
        "measured_s": elapsed,
        "instances": plain.instances,
        "distinct_instances": min(plain.instances, workload.pool_size),
        "setup_probes_s": [{"import": i, "build": b} for i, b, _ in probes],
        "peak_rss_mb": peak_rss_mb(),
        "solve": plain.solve.summary(),
        "verify": plain.verify_times.summary(),
        "branches": dict(sorted(plain.branches.items())),
        "rules": dict(sorted(plain.rules.items())),
        "oracle_calls": {name: tracer.calls[f"oracle.{name}"] for name in ("mms", "mms_exhaustive")},
        "outputs_sha256": {"first": plain.digest_at[0], "digest": plain.digest_at[1]},
        "fail_ratio": ratio(len(failures), attempted),
        "failures": failures[:MAX_LISTED_FAILURES],
    }
    if workload.crosscheck:
        out["crosscheck_per_s"] = plain.crosscheck.per_s()
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, help="workload seed (default: the workload's own)")
    parser.add_argument("--seconds", type=float, default=50.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    workload = WORKLOADS[args.workload]
    seed = workload.default_seed if args.seed is None else args.seed
    if seed < 0:
        parser.error("--seed must be nonnegative")

    import_program()
    texts, _, _ = build_inputs(workload, seed)

    plain = Pipeline(workload, seed, traced=False)
    pipelines = [plain]
    if args.trace:
        # Wrappers go in place around the traced pipeline's calls only.
        tracer = Tracer(LAYERS)
        traced = Pipeline(workload, seed, traced=True)
        pipelines.append(traced)
        switch = tracer
    else:
        # Only the two oracle entry points are wrapped, to count calls.
        tracer = Tracer(ORACLE_LAYERS, spans=False)
        tracer.enable(True)
        switch = None
    elapsed, probes = measure(workload, texts, args.seconds, pipelines, switch,
                              lambda: probe_setup(workload.name, seed))
    import_s = statistics.median(i for i, _, _ in probes)
    setup_s = statistics.median(i + b for i, b, _ in probes)
    gen_s = statistics.median(g for _, _, g in probes)

    if args.trace:
        metrics = layer_metrics(tracer, traced, plain, import_s, gen_s)
    else:
        metrics = end_to_end_metrics(plain, setup_s)
    print("# " + json.dumps(details(pipelines, tracer, elapsed, probes), sort_keys=True))
    failed = sum(len(p.failures) for p in pipelines)
    result = {
        "correct": failed == 0,
        "attempted": sum(p.attempted for p in pipelines),
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
