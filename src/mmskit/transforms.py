"""Ratio-preserving instance transformations.

The pipeline to an ordered, normalized, irreducible instance is:

    order -> scale each agent to maximin share 1 -> reduction rules ->
    normalize -> order again

Reductions award a small set of goods to one agent and drop both from the
instance; the trace records every award so a solution of the residual
instance can be lifted back. Good identities do not survive ordering (an
ordered slot has no single source good when agents disagree), so trace steps
are recorded in ordered-view coordinates and lifting re-picks concrete goods
slot by slot, most valuable first.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from enum import Enum
from fractions import Fraction
from typing import Collection, Iterable

from .core import Allocation, Bundle, Instance, ranking, rat_to_jsonable, value
from .errors import ContractViolation, DomainError
from .oracle import mms


class RuleId(Enum):
    """Reduction rule identifiers; R5 is used only inside the second allocator."""

    R1 = "R1"
    R2 = "R2"
    R3 = "R3"
    R4 = "R4"
    R5 = "R5"


REDUCTION_RULES = (RuleId.R1, RuleId.R2, RuleId.R3, RuleId.R4)

BAG_AWARD = "BagAward"


@dataclass(frozen=True)
class OrderMap:
    """Per-agent ranking: perms[i][j] is the source good holding agent i+1's
    (j+1)-th largest value, ties broken toward the lower good id."""

    perms: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        object.__setattr__(self, "perms", tuple(tuple(p) for p in self.perms))
        for p in self.perms:
            if sorted(p) != list(range(1, len(p) + 1)):
                raise DomainError("each ordering permutation must be a bijection on [1, m]")


@dataclass(frozen=True)
class TraceStep:
    rule: RuleId | str
    agent: int  # original agent id
    goods: Bundle  # ordered-view good ids awarded with the step
    threshold: Fraction

    def rule_name(self) -> str:
        return self.rule.value if isinstance(self.rule, RuleId) else self.rule


@dataclass
class ReductionTrace:
    """Everything needed to lift an allocation of the residual instance back.

    `steps` accumulate in application order; goods across steps are disjoint
    and an agent appears in at most one step. `scaling` maps each surviving
    agent's original id to the maximin-share divisor applied to her row.
    """

    order_map: OrderMap
    n_original: int
    m_original: int
    steps: list[TraceStep] = field(default_factory=list)
    scaling: dict[int, Fraction] = field(default_factory=dict)

    def to_jsonable(self) -> dict:
        return {
            "n_original": self.n_original,
            "m_original": self.m_original,
            "order_map": [list(p) for p in self.order_map.perms],
            "scaling": {str(a): rat_to_jsonable(f) for a, f in sorted(self.scaling.items())},
            "steps": [
                {
                    "rule": s.rule_name(),
                    "agent": s.agent,
                    "goods": list(s.goods.goods),
                    "threshold": rat_to_jsonable(s.threshold),
                }
                for s in self.steps
            ],
        }


def rule_counts_from_trace(trace: ReductionTrace) -> dict[str, int]:
    """How many times each reduction rule fired in a trace (awards excluded)."""
    counts: dict[str, int] = {}
    for step in trace.steps:
        if isinstance(step.rule, RuleId):
            counts[step.rule.value] = counts.get(step.rule.value, 0) + 1
    return counts


def order(inst: Instance) -> tuple[Instance, OrderMap]:
    """Sort each agent's row by `ranking`; the map records which source good
    landed in each slot."""
    perms = []
    rows = []
    for i in range(inst.n):
        row = inst.values[i]
        idx = ranking(row, range(1, inst.m + 1))
        perms.append(tuple(idx))
        rows.append(tuple(row[g - 1] for g in idx))
    ordered = Instance(n=inst.n, m=inst.m, values=tuple(rows), agent_labels=inst.agent_labels)
    return ordered, OrderMap(tuple(perms))


def _greedy_lift(omap: OrderMap, m: int, alloc: Allocation) -> Allocation:
    """Convert an ordered-slot allocation to source-good ids.

    Slots are scanned in ascending index; the owner of slot j takes her most
    valuable source good not yet taken. When slot j is reached at most j-1
    goods are gone, so the pick is worth at least her j-th largest value.
    Unowned slots leave their share to the leftover pool.
    """
    n = len(omap.perms)
    owner = [0] * (m + 1)
    for a, b in enumerate(alloc.bundles, start=1):
        for g in b:
            owner[g] = a
    taken = [False] * (m + 1)
    ptr = [0] * (n + 1)
    picks: list[list[int]] = [[] for _ in range(n + 1)]
    for slot in range(1, m + 1):
        a = owner[slot]
        if a == 0:
            continue
        perm = omap.perms[a - 1]
        p = ptr[a]
        while taken[perm[p]]:
            p += 1
        g = perm[p]
        taken[g] = True
        ptr[a] = p + 1
        picks[a].append(g)
    leftovers = [g for g in range(1, m + 1) if not taken[g]]
    return Allocation(
        bundles=tuple(Bundle.of(picks[a]) for a in range(1, n + 1)),
        unassigned=Bundle.of(leftovers),
    )


def lift_ordered_allocation(original: Instance, omap: OrderMap, ordered_alloc: Allocation) -> Allocation:
    """Lift an allocation of order(original) back onto original's goods.

    Every agent's value for her lifted bundle (under the original values) is
    at least her value for the ordered bundle (under the ordered values).
    """
    if len(omap.perms) != original.n:
        raise ContractViolation("order map does not match the instance's agent count")
    if ordered_alloc.n_agents != original.n:
        raise DomainError("allocation has the wrong number of agents")
    ordered_alloc.validate(original.m)
    return _greedy_lift(omap, original.m, ordered_alloc)


def normalize(inst: Instance, *, node_budget: int | None = None) -> Instance:
    """Rescale each agent so that all bundles of one of her maximin-share
    partitions are worth exactly 1 (and hence her maximin share is exactly 1).

    Every agent must have a positive maximin share; goods in witness bundle B
    are divided by the agent's value of B.
    """
    if inst.n == 0:
        return inst
    rows = []
    for i in range(1, inst.n + 1):
        res = mms(inst, i, inst.n, node_budget=node_budget)
        if res.value == 0:
            raise DomainError(
                f"agent {i} has zero maximin share; strip zero-share agents before normalizing"
            )
        row = inst.values[i - 1]
        new_row = list(row)
        for b in res.witness:
            bv = value(inst, i, b)
            for g in b:
                new_row[g - 1] = row[g - 1] / bv
        rows.append(tuple(new_row))
    return replace(inst, values=tuple(rows))


def rule_good_ids(rule: RuleId, n: int) -> tuple[int, ...]:
    """Good indices a rule awards in an n-agent ordered instance. Indices past
    the last real good stand for zero-value dummies."""
    if n < 1:
        raise DomainError("rules are defined only for instances with agents")
    if rule is RuleId.R1:
        return (1,)
    if rule is RuleId.R2:
        return (2 * n - 1, 2 * n, 2 * n + 1)
    if rule is RuleId.R3:
        return (3 * n - 2, 3 * n - 1, 3 * n, 3 * n + 1)
    if rule is RuleId.R4:
        return (1, 2 * n + 1)
    if rule is RuleId.R5:
        return (1, 2)
    raise DomainError(f"unknown rule {rule!r}")


def _padded_value(inst: Instance, agent: int, ids: tuple[int, ...]) -> Fraction:
    row = inst.values[agent - 1]
    return sum((row[g - 1] for g in ids if g <= inst.m), Fraction(0))


def pick_recipient(eligible: list[int], priority: Collection[int]) -> int:
    """The first agent of `eligible` (ascending) in `priority`, else its first agent."""
    for i in eligible:
        if i in priority:
            return i
    return eligible[0]


def rule_applicable(
    inst: Instance,
    rule: RuleId,
    alpha: Fraction,
    priority: frozenset[int] | set[int] | None = None,
) -> int | None:
    """Lowest-index agent whose rule trigger meets `alpha`, or None.

    The instance must be ordered. When a priority set is given, eligible
    agents inside it are preferred (lowest index within the set first).
    """
    if inst.n == 0:
        return None
    ids = rule_good_ids(rule, inst.n)
    eligible = [i for i in range(1, inst.n + 1) if _padded_value(inst, i, ids) >= alpha]
    if not eligible:
        return None
    return pick_recipient(eligible, priority or ())


def first_rule(
    inst: Instance,
    rules: Iterable[RuleId],
    alpha: Fraction,
    priority: frozenset[int] | set[int] | None = None,
) -> tuple[RuleId, int] | None:
    """The first of `rules` that some agent triggers at `alpha`, with the agent
    `rule_applicable` picks for it; None when no rule applies."""
    for rule in rules:
        agent = rule_applicable(inst, rule, alpha, priority)
        if agent is not None:
            return rule, agent
    return None


def restrict(inst: Instance, agents: Iterable[int], goods: Iterable[int]) -> Instance:
    """Sub-instance on the listed agent and good indices; rows and columns keep their labels."""
    agents, goods = list(agents), list(goods)
    return Instance(
        n=len(agents),
        m=len(goods),
        values=tuple(tuple(inst.values[a - 1][g - 1] for g in goods) for a in agents),
        agent_labels=tuple(inst.agent_labels[a - 1] for a in agents),
        good_labels=tuple(inst.good_labels[g - 1] for g in goods),
    )


def take_rule_award(
    inst: Instance,
    rule: RuleId,
    agent: int,
    alpha: Fraction,
) -> tuple[Instance, Bundle, int]:
    """Apply one rule: drop the agent and the rule's goods (dummies vanish)
    and compact indices.

    The agent must actually satisfy the rule's trigger; the residual instance
    stays ordered. Returns the residual instance plus the removed goods and
    agent in the parent instance's label space.
    """
    if not 1 <= agent <= inst.n:
        raise ContractViolation(f"agent {agent} out of range")
    ids = rule_good_ids(rule, inst.n)
    if _padded_value(inst, agent, ids) < alpha:
        raise ContractViolation(f"rule {rule.value} is not applicable to agent {agent} at {alpha}")
    real = [g for g in ids if g <= inst.m]
    sub = restrict(
        inst,
        (i for i in range(1, inst.n + 1) if i != agent),
        (g for g in range(1, inst.m + 1) if g not in real),
    )
    return sub, Bundle.of(inst.good_labels[g - 1] for g in real), inst.agent_labels[agent - 1]


def apply_rule(
    inst: Instance,
    rule: RuleId,
    agent: int,
    alpha: Fraction,
    trace: ReductionTrace | None = None,
) -> Instance:
    """Award the rule's goods to `agent` and drop both from the instance.

    The trace (when given) gains one step recorded in the instance's label
    space.
    """
    sub, removed, agent_label = take_rule_award(inst, rule, agent, alpha)
    if trace is not None:
        trace.steps.append(TraceStep(rule=rule, agent=agent_label, goods=removed, threshold=alpha))
    return sub


def reduce(
    inst: Instance,
    eps: Fraction,
    *,
    node_budget: int | None = None,
) -> tuple[Instance, ReductionTrace]:
    """Order, scale every agent to maximin share 1, then exhaust the rules.

    Rules fire at threshold 3/4 + eps, always the lowest-numbered applicable
    one, until none applies. Agents whose maximin share is zero are stripped
    up front with an empty award (any bundle meets any ratio for them); the
    survivors' scale factors are recorded in the trace. Every surviving
    agent's maximin share in the result is at least 1 - 4*eps.
    """
    if eps < 0:
        raise DomainError("eps must be nonnegative")
    ordered, omap = order(inst)
    trace = ReductionTrace(order_map=omap, n_original=inst.n, m_original=inst.m)
    cur = ordered

    if cur.n > 0:
        shares = [mms(cur, i, cur.n, node_budget=node_budget).value for i in range(1, cur.n + 1)]
        zero_rows = [i for i, s in zip(range(1, cur.n + 1), shares) if s == 0]
        if zero_rows:
            for i in zero_rows:
                trace.steps.append(
                    TraceStep(
                        rule=BAG_AWARD,
                        agent=cur.agent_labels[i - 1],
                        goods=Bundle(),
                        threshold=Fraction(0),
                    )
                )
            keep = [i for i in range(1, cur.n + 1) if i not in zero_rows]
            cur = restrict(cur, keep, range(1, cur.m + 1))
            # Fewer agents can only raise a share, so one stripping pass suffices;
            # rescale against the shares at the new agent count.
            shares = [mms(cur, i, cur.n, node_budget=node_budget).value for i in range(1, cur.n + 1)]
        if cur.n > 0:
            rows = []
            for i in range(1, cur.n + 1):
                trace.scaling[cur.agent_labels[i - 1]] = shares[i - 1]
                rows.append(tuple(v / shares[i - 1] for v in cur.values[i - 1]))
            cur = replace(cur, values=tuple(rows))

    threshold = Fraction(3, 4) + eps
    while (fired := first_rule(cur, REDUCTION_RULES, threshold)) is not None:
        rule, agent = fired
        cur = apply_rule(cur, rule, agent, threshold, trace)
    return cur, trace


def to_delta_oni(
    inst: Instance,
    eps: Fraction,
    *,
    node_budget: int | None = None,
) -> tuple[Instance, OrderMap, ReductionTrace]:
    """Full pipeline to an ordered, normalized, (3/4 + 4eps/(1-4eps))-irreducible
    instance: reduce, normalize, order. Returns the residual instance, the map
    of the final ordering, and the reduction trace."""
    reduced, trace = reduce(inst, eps, node_budget=node_budget)
    normalized = normalize(reduced, node_budget=node_budget)
    oni, omap = order(normalized)
    return oni, omap, trace


def lift_allocation(
    trace: ReductionTrace,
    omap: OrderMap,
    original: Instance,
    inner_alloc: Allocation,
) -> Allocation:
    """Lift an allocation of the residual instance back to the original goods.

    Composition: undo the final ordering (greedy slot-by-slot picks), rename
    residual goods to ordered-view ids, merge the trace awards, then undo the
    initial ordering the same way. Every reduced agent ends up holding her
    trace award (realized through the initial-ordering lift) and survivors
    keep at least their residual-instance value at every stage.
    """
    if original.n != trace.n_original or original.m != trace.m_original:
        raise ContractViolation("original instance does not match the trace dimensions")
    gone_agents = {step.agent for step in trace.steps}
    gone_goods = {g for step in trace.steps for g in step.goods}
    survivors = [a for a in range(1, trace.n_original + 1) if a not in gone_agents]
    surviving_goods = [g for g in range(1, trace.m_original + 1) if g not in gone_goods]
    n_in, m_in = len(survivors), len(surviving_goods)
    if inner_alloc.n_agents != n_in:
        raise ContractViolation(
            f"inner allocation has {inner_alloc.n_agents} agents, trace expects {n_in}"
        )
    if len(omap.perms) != n_in:
        raise ContractViolation("order map does not match the trace's surviving agents")
    inner_alloc.validate(m_in)

    mid = _greedy_lift(omap, m_in, inner_alloc)

    by_agent: dict[int, Bundle] = {}
    for k, a in enumerate(survivors):
        by_agent[a] = Bundle.of(surviving_goods[g - 1] for g in mid.bundles[k])
    for step in trace.steps:
        by_agent[step.agent] = step.goods
    ordered_view = Allocation(
        bundles=tuple(by_agent[a] for a in range(1, trace.n_original + 1)),
        unassigned=Bundle.of(surviving_goods[g - 1] for g in mid.unassigned),
    )
    ordered_view.validate(trace.m_original)
    return _greedy_lift(trace.order_map, trace.m_original, ordered_view)
