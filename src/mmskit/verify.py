"""Oracle-backed verification of allocations and instance predicates.

Every check here recomputes what it needs from scratch with the exact
oracle; nothing is trusted from the pipeline that produced the input. Each
check starts by emptying the oracle's memo, so no share it reads was computed
by an earlier solve in the same process. Reports are written with
`core.canonical_json`, the encoding of every toolkit file.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import Allocation, Instance, canonical_json, is_ordered, rat_to_text, value
from .errors import ContractViolation, DomainError
from .oracle import clear_cache, mms
from .allocators import classify_agents
from .transforms import REDUCTION_RULES, first_rule


@dataclass(frozen=True)
class AgentCheck:
    agent: int
    mms: Fraction
    received: Fraction
    ok: bool


@dataclass(frozen=True)
class VerificationReport:
    """Per-agent exact ratios against a threshold; passes iff everyone clears it."""

    alpha: Fraction
    agents: tuple[AgentCheck, ...]
    passed: bool

    def to_jsonable(self) -> dict:
        return {
            "alpha": rat_to_text(self.alpha),
            "agents": [
                {"mms": rat_to_text(a.mms), "received": rat_to_text(a.received), "ok": a.ok}
                for a in self.agents
            ],
            "pass": self.passed,
        }

    def to_json(self) -> str:
        return canonical_json(self.to_jsonable())


def check_alpha_mms(
    inst: Instance,
    alloc: Allocation,
    alpha: Fraction,
    *,
    node_budget: int | None = None,
) -> VerificationReport:
    """Exactly compare each agent's received value against alpha times her
    maximin share. The allocation must be well-formed over the instance."""
    clear_cache()
    if alloc.n_agents != inst.n:
        raise DomainError(f"allocation has {alloc.n_agents} agents, instance has {inst.n}")
    alloc.validate(inst.m)
    checks = []
    passed = True
    for i in range(1, inst.n + 1):
        share = mms(inst, i, inst.n, node_budget=node_budget).value
        received = value(inst, i, alloc.bundles[i - 1])
        ok = received >= alpha * share
        passed = passed and ok
        checks.append(AgentCheck(agent=i, mms=share, received=received, ok=ok))
    return VerificationReport(alpha=alpha, agents=tuple(checks), passed=passed)


@dataclass(frozen=True)
class OniReport:
    ok: bool
    failure: str | None = None


def check_oni(inst: Instance, delta: Fraction, *, node_budget: int | None = None) -> OniReport:
    """Is the instance ordered, normalized (oracle-certified maximin share
    exactly 1 per agent), and (3/4 + delta)-irreducible? The first failing
    predicate is named."""
    clear_cache()
    if not is_ordered(inst):
        return OniReport(False, "not ordered")
    for i in range(1, inst.n + 1):
        share = mms(inst, i, inst.n, node_budget=node_budget).value
        if share != 1:
            return OniReport(
                False, f"agent {i} has maximin share {rat_to_text(share)}, expected 1"
            )
    fired = first_rule(inst, REDUCTION_RULES, Fraction(3, 4) + delta)
    if fired is not None:
        rule, agent = fired
        return OniReport(False, f"{rule.value} applicable to agent {agent}")
    return OniReport(True, None)


@dataclass(frozen=True)
class StructuralReport:
    """Outcome of the structural checks on an ordered normalized instance.

    `pair_bound_ok`: whenever an agent values goods k and 2n-k+1 together
    above 1, the lighter is at most 1/3 and the heavier above 2/3.
    `irreducible`: no rule fires at 3/4 + delta. When irreducible,
    `min_goods_ok` asserts m >= 2n and `big_bag_tail_ok` asserts every agent
    with a starting bag above 1 values good 2n+1 below 1/12 + delta.
    """

    pair_bound_ok: bool
    irreducible: bool
    min_goods_ok: bool | None
    big_bag_tail_ok: bool | None
    violations: tuple[str, ...]

    @property
    def ok(self) -> bool:
        return self.pair_bound_ok and self.min_goods_ok is not False and self.big_bag_tail_ok is not False


def _pair_bound_violations(inst: Instance):
    """Rank pairs (k, 2n-k+1) whose sum beats 1 without the forced shape
    (light at most 1/3, heavy above 2/3). Empty on genuinely ordered
    normalized instances; non-empty detects botched normalization."""
    n, m = inst.n, inst.m
    one = Fraction(1)
    for i in range(1, n + 1):
        row = inst.values[i - 1]
        for k in range(1, n + 1):
            heavy = row[k - 1]
            mirror = 2 * n - k + 1
            light = row[mirror - 1] if mirror <= m else Fraction(0)
            if heavy + light > one and not (light <= Fraction(1, 3) and heavy > Fraction(2, 3)):
                yield f"pair bound fails for agent {i} at rank {k}"


def check_structural_lemmas(
    inst: Instance,
    delta: Fraction,
    *,
    node_budget: int | None = None,
) -> StructuralReport:
    """Run the structural checks; preconditions are certified, not trusted."""
    clear_cache()
    if not is_ordered(inst):
        raise ContractViolation("structural checks require an ordered instance")
    for i in range(1, inst.n + 1):
        share = mms(inst, i, inst.n, node_budget=node_budget).value
        if share != 1:
            raise ContractViolation(
                f"structural checks require a normalized instance; agent {i} has share {share}"
            )

    n, m = inst.n, inst.m
    violations = list(_pair_bound_violations(inst))
    pair_ok = not violations

    irreducible = first_rule(inst, REDUCTION_RULES, Fraction(3, 4) + delta) is None
    min_goods_ok: bool | None = None
    tail_ok: bool | None = None
    if irreducible:
        min_goods_ok = m >= 2 * n
        if not min_goods_ok:
            violations.append(f"irreducible instance with m={m} < 2n={2 * n}")
            tail_ok = None
        else:
            tail_ok = True
            cls = classify_agents(inst, delta)
            cap = Fraction(1, 12) + delta
            for i in sorted(cls.n2):
                tail = inst.values[i - 1][2 * n] if m >= 2 * n + 1 else Fraction(0)
                if tail >= cap:
                    tail_ok = False
                    violations.append(f"agent {i} above-bag tail {tail} >= 1/12 + delta")
    return StructuralReport(
        pair_bound_ok=pair_ok,
        irreducible=irreducible,
        min_goods_ok=min_goods_ok,
        big_bag_tail_ok=tail_ok,
        violations=tuple(violations),
    )


def check_reduction_validity(
    before: Instance,
    after: Instance,
    removed_agent: int,
    *,
    node_budget: int | None = None,
) -> bool:
    """True iff no surviving agent's maximin share decreased when one agent
    and a set of goods were removed (bundle count drops by one).

    Surviving rows of `after` must appear in the same order as in `before`.
    """
    clear_cache()
    if after.n != before.n - 1:
        raise ContractViolation("after-instance must have exactly one fewer agent")
    if not 1 <= removed_agent <= before.n:
        raise ContractViolation(f"removed agent {removed_agent} out of range")
    for j in range(1, after.n + 1):
        j_before = j if j < removed_agent else j + 1
        share_after = mms(after, j, after.n, node_budget=node_budget).value
        share_before = mms(before, j_before, before.n, node_budget=node_budget).value
        if share_after < share_before:
            return False
    return True
