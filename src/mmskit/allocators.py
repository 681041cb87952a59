"""Bag-filling allocators and the case-split driver.

All allocators operate on an ordered, normalized, irreducible instance and
hand every agent a bundle she values at least `alpha` (exactly, in rational
arithmetic). One engine, `_award_or_grow`, holds the bag-filling policy: a
bag some waiting agent values at the threshold is awarded at once (priority
class first, then the lowest index); otherwise the next unbagged good joins
the lowest-index open bag. `bag_fill` and `approx_mms1` run it on bags seeded
with pairs {k, 2n-k+1} of one high- and one low-ranked good. `approx_mms2`
runs it on the pair bags with nothing to add, so it only awards, applies
reductions to the rest, and then runs it on triple-seeded bags
{k, 2n-k+1, 2n+k} one bag at a time: bag k grows until it is awarded before
bag k+1 is looked at; it returns its allocation with the R2/R3/R5 counts.

`solve` is the one driver: reduce, run one of the three allocators, lift.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from .core import Allocation, Bundle, Instance, is_ordered, partitions, rat_to_text, value
from .errors import ContractViolation, DomainError, GuaranteeViolation
from .transforms import (
    OrderMap,
    ReductionTrace,
    RuleId,
    first_rule,
    lift_allocation,
    pick_recipient,
    restrict,
    rule_applicable,
    rule_counts_from_trace,
    take_rule_award,
    to_delta_oni,
)

DELTA_DEFAULT = Fraction(3, 956)
EPS_MAX = Fraction(3, 3836)
ALPHA_MAX = Fraction(3, 4) + EPS_MAX


@dataclass(frozen=True)
class AgentClassification:
    """Frozen agent classes of an ordered normalized instance.

    `n2` holds agents that value some starting bag above 1, `n1` the rest;
    `n1_1` are the n1 agents that still value good 2n+1 at least 1/4 - 5*delta,
    `n1_2` the others. Membership is computed once and never updated.
    """

    n1: frozenset[int]
    n2: frozenset[int]
    n1_1: frozenset[int]
    n1_2: frozenset[int]


@dataclass
class BagState:
    """Working state of a bag-filling run: open bags, the pool of unbagged
    goods, and the bundles awarded so far."""

    bags: dict[int, list[int]]
    pool: list[int]
    satisfied: dict[int, Bundle]

    def groups(self) -> tuple:
        """The bags, the pool and the awarded bundles, which must partition the goods."""
        return (*self.bags.values(), self.pool, *self.satisfied.values())

    def check_partition(self, goods: set[int]) -> None:
        if not partitions(self.groups(), goods):
            raise ContractViolation("bag state does not partition the good set")

    def dump(self, alpha: Fraction, waiting: set[int]) -> dict:
        return {
            "alpha": rat_to_text(alpha),
            "bags": {str(k): list(b) for k, b in sorted(self.bags.items())},
            "pool": list(self.pool),
            "waiting": sorted(waiting),
            "satisfied": {str(a): list(b.goods) for a, b in sorted(self.satisfied.items())},
        }


def b_bag_ids(k: int, n: int) -> tuple[int, int]:
    return (k, 2 * n - k + 1)


def c_bag_ids(k: int, n: int) -> tuple[int, int, int]:
    return (k, 2 * n - k + 1, 2 * n + k)


def classify_agents(inst: Instance, delta: Fraction) -> AgentClassification:
    """Classify agents of an ordered normalized instance by their starting bags."""
    if not is_ordered(inst):
        raise ContractViolation("classification requires an ordered instance")
    n, m = inst.n, inst.m
    if m < 2 * n:
        raise ContractViolation(f"classification requires m >= 2n, got n={n}, m={m}")
    one = Fraction(1)
    heavy_tail = Fraction(1, 4) - 5 * delta
    n1, n2, n1_1, n1_2 = set(), set(), set(), set()
    for i in range(1, n + 1):
        row = inst.values[i - 1]
        if any(row[k - 1] + row[2 * n - k] > one for k in range(1, n + 1)):
            n2.add(i)
            continue
        n1.add(i)
        tail = row[2 * n] if m >= 2 * n + 1 else Fraction(0)
        (n1_1 if tail >= heavy_tail else n1_2).add(i)
    return AgentClassification(
        n1=frozenset(n1), n2=frozenset(n2), n1_1=frozenset(n1_1), n1_2=frozenset(n1_2)
    )


def _award_or_grow(
    inst: Instance,
    alpha: Fraction,
    state: BagState,
    waiting: set[int],
    priority: frozenset[int],
    audit: list | None,
) -> None:
    """Run the bag-filling policy until every waiting agent is served or no
    move is left.

    Awards win over growth: the lowest-index open bag some waiting agent
    values at least alpha goes to the lowest-index such agent, priority
    members first. Otherwise the first pool good joins the lowest-index open
    bag. With neither move possible the loop stops, and the caller decides
    whether that is a failure. Every move must keep the goods the state
    started with partitioned.
    """
    goods = set().union(*state.groups())
    while waiting and state.bags:
        award = None
        for k in sorted(state.bags):
            eligible = [i for i in sorted(waiting) if value(inst, i, state.bags[k]) >= alpha]
            if eligible:
                award = (k, eligible)
                break
        if award is not None:
            k, eligible = award
            agent = pick_recipient(eligible, priority)
            bundle = Bundle.of(state.bags.pop(k))
            state.satisfied[agent] = bundle
            waiting.discard(agent)
            if audit is not None:
                audit.append(
                    {
                        "bag": bundle,
                        "recipient": agent,
                        "eligible": tuple(eligible),
                        "eligible_priority": tuple(i for i in eligible if i in priority),
                    }
                )
        elif state.pool:
            state.bags[min(state.bags)].append(state.pool.pop(0))
        else:
            return
        state.check_partition(goods)


def _fill_b_bags(
    inst: Instance,
    alpha: Fraction,
    priority: frozenset[int],
    audit: list | None = None,
) -> Allocation:
    """Bag filling over the pair-seeded bags, grown from the goods past 2n.

    Runs out of pool goods only on inputs breaking the allocator's
    preconditions, and then fails loudly with its state attached.
    """
    n, m = inst.n, inst.m
    if n == 0:
        return Allocation(bundles=(), unassigned=Bundle.of(range(1, m + 1)))
    if not is_ordered(inst):
        raise ContractViolation("bag filling requires an ordered instance")
    if m < 2 * n:
        raise ContractViolation(f"bag filling requires m >= 2n, got n={n}, m={m}")

    state = BagState(
        bags={k: list(b_bag_ids(k, n)) for k in range(1, n + 1)},
        pool=list(range(2 * n + 1, m + 1)),
        satisfied={},
    )
    waiting = set(range(1, n + 1))
    _award_or_grow(inst, alpha, state, waiting, priority, audit)
    if waiting:
        raise GuaranteeViolation(
            "bag filling ran out of goods with agents unsatisfied",
            state.dump(alpha, waiting),
        )
    bundles = tuple(state.satisfied[i] for i in range(1, n + 1))
    return Allocation(bundles=bundles, unassigned=Bundle.of(state.pool))


def bag_fill(inst: Instance, alpha: Fraction, *, audit: list | None = None) -> Allocation:
    """Baseline allocator: every agent receives a bag worth at least alpha.

    Sound for ordered normalized irreducible instances with alpha <= 3/4.
    """
    if alpha > Fraction(3, 4):
        raise DomainError("plain bag filling is only guaranteed for alpha <= 3/4")
    return _fill_b_bags(inst, alpha, frozenset(), audit)


def _small_n1_1(cls: AgentClassification, n: int, delta: Fraction) -> bool:
    # Exact comparison of |N11| / n against (1/4 - delta) / (1/4 + delta/3),
    # written multiplicatively.
    return len(cls.n1_1) * (Fraction(1, 4) + delta / 3) <= n * (Fraction(1, 4) - delta)


def approx_mms1(
    inst: Instance,
    delta: Fraction,
    classification: AgentClassification | None = None,
    *,
    audit: list | None = None,
) -> Allocation:
    """Pair-bag filling at threshold 3/4 + delta, priority to the n1_1 class.

    Applicable when the n1_1 class is small: |n1_1| * (1/4 + delta/3) must
    not exceed n * (1/4 - delta), and delta <= 0.011.
    """
    if not Fraction(0) <= delta <= Fraction(11, 1000):
        raise ContractViolation("approx_mms1 requires 0 <= delta <= 11/1000")
    cls = classification if classification is not None else classify_agents(inst, delta)
    if not _small_n1_1(cls, inst.n, delta):
        raise ContractViolation("approx_mms1 requires the small-n1_1 case split")
    return _fill_b_bags(inst, Fraction(3, 4) + delta, cls.n1_1, audit)


def approx_mms2(
    inst: Instance,
    delta: Fraction,
    classification: AgentClassification | None = None,
    *,
    audit: list | None = None,
) -> tuple[Allocation, dict[str, int]]:
    """Allocator for the large-n1_1 case: award starting bags with priority to
    n1_2 and n2 agents, reduce with the pair rule then the triple/quad rules,
    and finish by filling triple-seeded bags. Requires delta <= 3/956.

    Returns the allocation and how often each of R2, R3 and R5 fired.
    """
    if not Fraction(0) <= delta <= DELTA_DEFAULT:
        raise ContractViolation("approx_mms2 requires 0 <= delta <= 3/956")
    cls = classification if classification is not None else classify_agents(inst, delta)
    n, m = inst.n, inst.m
    if _small_n1_1(cls, n, delta):
        raise ContractViolation("approx_mms2 requires the large-n1_1 case split")
    alpha = Fraction(3, 4) + delta
    priority = frozenset(cls.n1_2 | cls.n2)
    counts = {"R2": 0, "R3": 0, "R5": 0}

    # Stage 1: hand out starting bags already clearing the threshold, whole.
    state = BagState(
        bags={k: list(b_bag_ids(k, n)) for k in range(1, n + 1)}, pool=[], satisfied={}
    )
    waiting = set(range(1, n + 1))
    _award_or_grow(inst, alpha, state, waiting, priority, audit)

    # Stage 2: reductions on the residual instance. Its labels are positions
    # of the allocator input, so awards land straight in the allocation.
    awarded_goods = {g for b in state.satisfied.values() for g in b}
    work = restrict(
        Instance(n=n, m=m, values=inst.values),
        sorted(waiting),
        (g for g in range(1, m + 1) if g not in awarded_goods),
    )

    while True:
        work_priority = {p for p in range(1, work.n + 1) if work.agent_labels[p - 1] in priority}
        fired = first_rule(work, (RuleId.R5,), alpha, work_priority)
        if fired is None:
            break
        rule, agent = fired
        work, removed, label = take_rule_award(work, rule, agent, alpha)
        state.satisfied[label] = removed
        counts[rule.value] += 1

    while (fired := first_rule(work, (RuleId.R2, RuleId.R3), alpha)) is not None:
        rule, agent = fired
        work, removed, label = take_rule_award(work, rule, agent, alpha)
        state.satisfied[label] = removed
        counts[rule.value] += 1
        # The two top goods only ever shrink here, so the pair rule must stay off.
        assert rule_applicable(work, RuleId.R5, alpha) is None

    # Stage 3: triple-seeded bags over what is left, filled one at a time from
    # beyond 3n. The residual good labels increase with position, so bags and
    # pool translated to the input's goods keep their order and tie-breaks.
    assert work.n == 0 or rule_applicable(work, RuleId.R5, alpha) is None
    n3, m3 = work.n, work.m
    labels = work.good_labels
    cbags = {k: [labels[g - 1] for g in c_bag_ids(k, n3) if g <= m3] for k in range(1, n3 + 1)}
    state.pool = [labels[g - 1] for g in range(3 * n3 + 1, m3 + 1)]
    waiting = set(work.agent_labels)
    for k in range(1, n3 + 1):
        state.bags = {k: cbags.pop(k)}
        _award_or_grow(inst, alpha, state, waiting, priority, audit)
        if state.bags:
            state.bags.update(cbags)
            raise GuaranteeViolation(
                "triple-bag filling ran out of goods with agents unsatisfied",
                state.dump(alpha, waiting),
            )

    bundles = tuple(state.satisfied[i] for i in range(1, n + 1))
    alloc = Allocation(bundles=bundles, unassigned=Bundle.of(state.pool))
    alloc.validate(m)
    return alloc, counts


@dataclass(frozen=True)
class SolveInfo:
    """Diagnostics of one driver run: which allocator ran, how often each
    rule fired, and the residual instance the allocator saw."""

    branch: str  # "bagfill" | "mms1" | "mms2"
    rule_counts: dict[str, int]
    oni: Instance
    oni_map: OrderMap
    trace: ReductionTrace
    alpha_inner: Fraction


def solve(
    inst: Instance,
    alpha: Fraction,
    *,
    delta: Fraction = DELTA_DEFAULT,
    node_budget: int | None = None,
    audit: list | None = None,
) -> tuple[Allocation, SolveInfo]:
    """Compute an allocation giving every agent at least alpha times her
    maximin share, for any 0 < alpha <= 3/4 + 3/3836, with diagnostics.

    Above 3/4 the driver builds the irreducible residual instance at
    eps = alpha - 3/4, classifies agents against `delta`, dispatches on the
    size of the n1_1 class, and lifts the result; at or below 3/4 it runs
    plain bag filling on the residual instance at threshold alpha.
    """
    if alpha <= 0:
        raise DomainError("alpha must be positive")
    if alpha > ALPHA_MAX:
        raise DomainError(
            f"alpha must be at most 3/4 + 3/3836 = {rat_to_text(ALPHA_MAX)}, got {rat_to_text(alpha)}"
        )
    eps = max(alpha - Fraction(3, 4), Fraction(0))
    if eps > 0:
        if not Fraction(0) < delta <= DELTA_DEFAULT:
            raise DomainError("delta must be in (0, 3/956]")
        if 4 * eps / (1 - 4 * eps) > delta:
            raise DomainError("delta too small for this alpha: need 4*eps/(1-4*eps) <= delta")

    oni, omap, trace = to_delta_oni(inst, eps, node_budget=node_budget)
    counts: dict[str, int] = {}
    if eps == 0:
        inner = bag_fill(oni, alpha, audit=audit)
        branch = "bagfill"
        alpha_inner = alpha
    else:
        cls = classify_agents(oni, delta)
        alpha_inner = Fraction(3, 4) + delta
        if _small_n1_1(cls, oni.n, delta):
            inner = approx_mms1(oni, delta, cls, audit=audit)
            branch = "mms1"
        else:
            inner, counts = approx_mms2(oni, delta, cls, audit=audit)
            branch = "mms2"

    rule_counts = rule_counts_from_trace(trace)
    for key, c in counts.items():
        rule_counts[key] = rule_counts.get(key, 0) + c
    final = lift_allocation(trace, omap, inst, inner)
    final.validate(inst.m)
    info = SolveInfo(
        branch=branch,
        rule_counts=rule_counts,
        oni=oni,
        oni_map=omap,
        trace=trace,
        alpha_inner=alpha_inner,
    )
    return final, info


def complete_allocation(alloc: Allocation) -> Allocation:
    """Fold the unassigned pool into agent 1's bundle (values are nonnegative,
    so any per-agent guarantee is preserved). No-op without agents."""
    if alloc.n_agents == 0 or len(alloc.unassigned) == 0:
        return alloc
    bundles = (alloc.bundles[0].union(alloc.unassigned),) + alloc.bundles[1:]
    return Allocation(bundles=bundles, unassigned=Bundle())
