"""Command-line front end.

Subcommands: gen, mms, reduce, solve, verify, bench. Thresholds are accepted
only as exact rational text ("3/4", "3/4+3/3836"); float syntax is rejected
so file outputs stay bit-reproducible. Exit codes: 0 success (and, for
verify, a passing report), 1 failed verification (for bench: some row did
not pass), 2 usage error, 3 oracle budget exceeded, 4 internal guarantee
violation (state dump written).
"""

from __future__ import annotations

import argparse
import csv
import json
import sys
import time
from fractions import Fraction
from multiprocessing import Pool
from pathlib import Path

from . import __version__
from .allocators import ALPHA_MAX, DELTA_DEFAULT, complete_allocation, solve
from .core import (
    Instance,
    allocation_from_json,
    allocation_to_json,
    canonical_json,
    instance_from_json,
    instance_to_json,
    instance_to_jsonable,
    rat,
    rat_to_text,
)
from .errors import GuaranteeViolation, MmsKitError, OracleBudgetExceeded
from .gen import FAMILIES, GenSpec, generate
from .oracle import DEFAULT_NODE_BUDGET, mms
from .transforms import to_delta_oni
from .verify import check_alpha_mms


def _parse_range(text: str) -> tuple[int, int]:
    """Accept "5" or "2:6"."""
    if ":" in text:
        lo, hi = text.split(":", 1)
        return int(lo), int(hi)
    k = int(text)
    return k, k


def _read_instance(path: str):
    return instance_from_json(Path(path).read_text(encoding="utf-8"))


def _emit(text: str, output: str | None) -> None:
    if output:
        Path(output).write_text(text, encoding="utf-8")
    else:
        sys.stdout.write(text)


def _cmd_gen(args) -> int:
    spec = GenSpec(
        seed=args.seed,
        n_range=_parse_range(args.n),
        m_range=_parse_range(args.m),
        family=args.family,
        grid=args.grid,
    )
    inst = generate(spec)
    _emit(instance_to_json(inst), args.output)
    return 0


def _cmd_mms(args) -> int:
    inst = _read_instance(args.input)
    d = args.d if args.d is not None else inst.n
    res = mms(inst, args.agent, d, node_budget=args.budget)
    out = {
        "agent": args.agent,
        "d": d,
        "value": rat_to_text(res.value),
        "witness": [list(b.goods) for b in res.witness],
    }
    _emit(canonical_json(out), args.output)
    return 0


def _cmd_reduce(args) -> int:
    inst = _read_instance(args.input)
    eps = rat(args.epsilon)
    oni, omap, trace = to_delta_oni(inst, eps, node_budget=args.budget)
    out = {
        "instance": instance_to_jsonable(oni),
        "order_map": [list(p) for p in omap.perms],
        "trace": trace.to_jsonable(),
    }
    _emit(canonical_json(out), args.output)
    return 0


def _cmd_solve(args) -> int:
    inst = _read_instance(args.input)
    alpha = rat(args.alpha)
    alloc, _info = solve(inst, alpha, delta=rat(args.delta), node_budget=args.budget)
    if args.complete:
        alloc = complete_allocation(alloc)
    _emit(allocation_to_json(alloc), args.output)
    return 0


def _cmd_verify(args) -> int:
    inst = _read_instance(args.input)
    alloc = allocation_from_json(Path(args.allocation).read_text(encoding="utf-8"))
    alpha = rat(args.alpha)
    report = check_alpha_mms(inst, alloc, alpha, node_budget=args.budget)
    _emit(report.to_json(), args.output)
    return 0 if report.passed else 1


def _bench_entry(payload) -> dict:
    """One CSV row. A toolkit error on this instance fails the row, not the run:
    the status names the error, pass is false, and fields not reached stay empty."""
    base, entry, alpha, delta, budget = payload
    spec = entry.get("spec", {})
    row = dict.fromkeys(_BENCH_FIELDS, "")
    row.update({"id": entry["id"], "family": spec.get("family", ""), "seed": spec.get("seed", ""),
                "pass": False})
    try:
        inst = instance_from_json((Path(base) / entry["path"]).read_text(encoding="utf-8"))
        row.update(n=inst.n, m=inst.m)
        start = time.perf_counter()
        alloc, info = solve(inst, alpha, delta=delta, node_budget=budget)
        row["runtime_s"] = f"{time.perf_counter() - start:.6f}"
        row["branch"] = info.branch
        row.update({f"r{k}": info.rule_counts.get(f"R{k}", 0) for k in range(1, 6)})
        report = check_alpha_mms(inst, alloc, alpha, node_budget=budget)
    except MmsKitError as e:
        row["status"] = type(e).__name__
        return row
    ratios = [a.received / a.mms if a.mms else Fraction(1) for a in report.agents]
    row["min_ratio"] = rat_to_text(min(ratios)) if ratios else ""
    row["agent_ratios"] = ";".join(rat_to_text(r) for r in ratios)
    row["pass"] = report.passed
    row["status"] = "ok"
    return row


_BENCH_FIELDS = [
    "id", "family", "seed", "n", "m", "status", "branch",
    "r1", "r2", "r3", "r4", "r5",
    "min_ratio", "agent_ratios", "pass", "runtime_s",
]


def _cmd_bench(args) -> int:
    manifest_path = Path(args.input)
    manifest = json.loads(manifest_path.read_text(encoding="utf-8"))
    entries = manifest["entries"]
    alpha, delta = rat(args.alpha), rat(args.delta)
    # Bad thresholds are a usage error once, not a failure on every row.
    solve(Instance(n=0, m=0, values=()), alpha, delta=delta)
    payloads = [(str(manifest_path.parent), e, alpha, delta, args.budget) for e in entries]
    if args.jobs > 1:
        with Pool(args.jobs) as pool:
            rows = pool.map(_bench_entry, payloads)
    else:
        rows = [_bench_entry(p) for p in payloads]

    out = sys.stdout if not args.output else open(args.output, "w", encoding="utf-8", newline="")
    try:
        writer = csv.DictWriter(out, fieldnames=_BENCH_FIELDS)
        writer.writeheader()
        writer.writerows(rows)
    finally:
        if args.output:
            out.close()

    branches: dict[str, int] = {}
    rules = {f"R{k}": 0 for k in range(1, 6)}
    for row in rows:
        if row["status"] != "ok":
            continue
        branches[row["branch"]] = branches.get(row["branch"], 0) + 1
        for k in range(1, 6):
            rules[f"R{k}"] += row[f"r{k}"]
    summary = {
        "instances": len(rows),
        "failed": sum(row["status"] != "ok" for row in rows),
        "all_pass": all(row["pass"] for row in rows),
        "branches": branches,
        "rules": rules,
    }
    print(json.dumps(summary, sort_keys=True))
    return 0 if summary["all_pass"] else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mmskit",
        description="Exact maximin-share allocation toolkit",
    )
    parser.add_argument("--version", action="version", version=f"mmskit {__version__}")
    sub = parser.add_subparsers(dest="command", required=True)

    def add_common(p, budget=True, output=True):
        if output:
            p.add_argument("-o", "--output", help="output path (default: stdout)")
        if budget:
            p.add_argument(
                "--budget",
                type=int,
                help=f"oracle node budget (default {DEFAULT_NODE_BUDGET})",
            )

    p = sub.add_parser("gen", help="generate a seeded instance file")
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--family", choices=FAMILIES, default="uniform")
    p.add_argument("--n", required=True, help="agent count or range lo:hi")
    p.add_argument("--m", required=True, help="good count or range lo:hi")
    p.add_argument("--grid", type=int, default=100, help="max integer value (default 100)")
    add_common(p, budget=False)
    p.set_defaults(func=_cmd_gen)

    p = sub.add_parser("mms", help="exact maximin share of one agent, with witness")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--agent", type=int, default=1)
    p.add_argument("-d", type=int, default=None, help="bundle count (default: n)")
    add_common(p)
    p.set_defaults(func=_cmd_mms)

    p = sub.add_parser("reduce", help="ordered normalized irreducible instance + trace")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--epsilon", default="0", help="reduction slack, exact rational text")
    add_common(p)
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("solve", help="compute an alpha-MMS allocation")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("--alpha", required=True, help="exact rational text, at most 3/4+3/3836")
    p.add_argument("--delta", default=rat_to_text(DELTA_DEFAULT))
    p.add_argument(
        "--complete", action="store_true", help="fold leftover goods into agent 1's bundle"
    )
    add_common(p)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("verify", help="check an allocation against exact shares")
    p.add_argument("-i", "--input", required=True)
    p.add_argument("-a", "--allocation", required=True, help="allocation JSON path")
    p.add_argument("--alpha", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("bench", help="run a corpus manifest; CSV rows + coverage summary")
    p.add_argument("-i", "--input", required=True, help="corpus manifest path")
    p.add_argument("--alpha", default=rat_to_text(ALPHA_MAX))
    p.add_argument("--delta", default=rat_to_text(DELTA_DEFAULT))
    p.add_argument("--jobs", type=int, default=1)
    add_common(p)
    p.set_defaults(func=_cmd_bench)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except OracleBudgetExceeded as e:
        print(f"error: {e}", file=sys.stderr)
        return 3
    except GuaranteeViolation as e:
        dump_path = Path(args.output).with_suffix(".state.json") if getattr(
            args, "output", None
        ) else Path("mmskit-state-dump.json")
        dump_path.write_text(
            json.dumps(e.state, sort_keys=True, indent=2) + "\n", encoding="utf-8"
        )
        print(f"error: {e} (state dump: {dump_path})", file=sys.stderr)
        return 4
    except (MmsKitError, OSError, KeyError, ValueError) as e:
        print(f"error: {e}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
