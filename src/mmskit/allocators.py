"""Bag-filling allocators and the case-split driver.

All allocators operate on an ordered, normalized, irreducible instance and
hand every agent a bundle she values at least `alpha` (exactly, in integer
arithmetic). One engine, `_award_or_grow`, holds the bag-filling policy: a
bag some waiting agent values at the threshold is awarded at once (priority
class first, then the lowest index); otherwise the next unbagged good joins
the lowest-index open bag. It decides on the rule engine's integer rows and
bars (`transforms.rule_rows`) with the rules' own all-agents test,
`reaching`.
`bag_fill` and `approx_mms1` run it on bags seeded with pairs {k, 2n-k+1} of
one high- and one low-ranked good. `approx_mms2` runs it on the pair bags
with nothing to add, so it only awards, applies reductions to slices of the
same rows, and then runs it on triple-seeded bags {k, 2n-k+1, 2n+k} one bag
at a time: bag k grows until it is awarded before bag k+1 is looked at; it
returns its allocation with the R2/R3/R5 counts.

`solve` is the one driver: reduce, run one of the three allocators, lift.
Its thresholds depend only on (alpha, delta): the parameter checks and eps
are derived once per distinct pair, 3/4 + eps and 3/4 + delta once per
value (`transforms.three_quarters_plus`), and the heavy-tail bound and the
case split are compared in integers, so once a pair has been seen a solve
does no `Fraction` arithmetic of its own.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache

from .core import (
    Allocation, Bundle, Instance, exact, is_ordered, partitions, rat_to_text, value_class,
)
from .errors import ContractViolation, DomainError, GuaranteeViolation
from .transforms import (
    OrderMap,
    ReductionTrace,
    RuleId,
    apply_rule,
    first_rule,
    lift_allocation,
    pick_recipient,
    reaching,
    rule_rows,
    three_quarters_plus,
    to_delta_oni,
)

DELTA_DEFAULT = Fraction(3, 956)
EPS_MAX = Fraction(3, 3836)
ALPHA_MAX = Fraction(3, 4) + EPS_MAX
DELTA_MMS1_MAX = Fraction(11, 1000)


@value_class("n1", "n2", "n1_1", "n1_2")
class AgentClassification:
    """Frozen agent classes of an ordered normalized instance.

    `n2` holds agents that value some starting bag above 1, `n1` the rest;
    `n1_1` are the n1 agents that still value good 2n+1 at least 1/4 - 5*delta,
    `n1_2` the others. Membership is computed once and never updated.
    """

    def __init__(
        self, n1: frozenset[int], n2: frozenset[int], n1_1: frozenset[int], n1_2: frozenset[int]
    ):
        self.__dict__.update(n1=n1, n2=n2, n1_1=n1_1, n1_2=n1_2)


@value_class("bags", "pool", "satisfied", frozen=False)
class BagState:
    """Working state of a bag-filling run: open bags, the pool of unbagged
    goods, and the bundles awarded so far."""

    def __init__(self, bags: dict[int, list[int]], pool: list[int], satisfied: dict[int, Bundle]):
        self.bags = bags
        self.pool = pool
        self.satisfied = satisfied

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
    delta = exact(delta, "delta")
    if not is_ordered(inst):
        raise ContractViolation("classification requires an ordered instance")
    n, m = inst.n, inst.m
    if m < 2 * n:
        raise ContractViolation(f"classification requires m >= 2n, got n={n}, m={m}")
    # A tail is heavy when tail >= (1/4 - 5 delta) * L; times 4q for delta = p/q.
    tail_scale, bound_scale = 4 * delta.denominator, delta.denominator - 20 * delta.numerator
    n1, n2, n1_1, n1_2 = set(), set(), set(), set()
    for i, (nums, den) in enumerate(inst.int_rows, start=1):
        # Over L = den: a pair beats 1 when its numerators beat L.
        if any(nums[k - 1] + nums[2 * n - k] > den for k in range(1, n + 1)):
            n2.add(i)
            continue
        n1.add(i)
        tail = nums[2 * n] if m >= 2 * n + 1 else 0
        heavy = tail * tail_scale >= bound_scale * den
        (n1_1 if heavy else n1_2).add(i)
    return AgentClassification(
        n1=frozenset(n1), n2=frozenset(n2), n1_1=frozenset(n1_1), n1_2=frozenset(n1_2)
    )


def _award_or_grow(
    rows: list[list[int]],
    bars: list[int],
    state: BagState,
    waiting: set[int],
    priority: frozenset[int],
    audit: list | None,
) -> None:
    """Run the bag-filling policy until every waiting agent is served or no
    move is left.

    Agent i values a bag at the threshold when her numerators on it reach
    her bar (`reaching`). Awards win over growth: the lowest-index open bag
    some waiting agent values at the threshold goes to the lowest-index such
    agent, priority members first. Otherwise the first pool good joins the
    lowest-index open bag. With neither move possible the loop stops, and the
    caller decides whether that is a failure. Every move must keep the goods
    the state started with partitioned.

    Each open bag keeps the list of waiting agents that value it at the
    threshold, tested once per bag. A move changes only what it touches: an
    award drops its bag and removes its agent from the other lists; a growth
    re-tests only the bag that grew.
    """
    goods = set().union(*state.groups())

    def eligible_for(bag: list[int]) -> list[int]:
        return [i for i in reaching(rows, bars, bag) if i in waiting]

    eligible = {k: eligible_for(bag) for k, bag in state.bags.items()}
    while waiting and state.bags:
        k = next((k for k in sorted(state.bags) if eligible[k]), None)
        if k is not None:
            won = eligible.pop(k)
            agent = pick_recipient(won, priority)
            bundle = Bundle.of(state.bags.pop(k))
            state.satisfied[agent] = bundle
            waiting.discard(agent)
            if audit is not None:
                audit.append(
                    {
                        "bag": bundle,
                        "recipient": agent,
                        "eligible": tuple(won),
                        "eligible_priority": tuple(i for i in won if i in priority),
                    }
                )
            for others in eligible.values():
                if agent in others:
                    others.remove(agent)
        elif state.pool:
            k = min(state.bags)
            state.bags[k].append(state.pool.pop(0))
            eligible[k] = eligible_for(state.bags[k])
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
    rows, bars = rule_rows(inst, alpha)
    _award_or_grow(rows, bars, state, waiting, priority, audit)
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
    alpha = exact(alpha, "alpha")
    if alpha > Fraction(3, 4):
        raise DomainError("plain bag filling is only guaranteed for alpha <= 3/4")
    return _fill_b_bags(inst, alpha, frozenset(), audit)


def _small_n1_1(cls: AgentClassification, n: int, delta: Fraction) -> bool:
    # Exact comparison of |N11| / n against (1/4 - delta) / (1/4 + delta/3),
    # written multiplicatively: |N11| (1/4 + delta/3) <= n (1/4 - delta),
    # times 12q for delta = p/q.
    p, q = delta.numerator, delta.denominator
    return len(cls.n1_1) * (3 * q + 4 * p) <= n * (3 * q - 12 * p)


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
    delta = exact(delta, "delta")
    if not 0 <= delta <= DELTA_MMS1_MAX:
        raise ContractViolation("approx_mms1 requires 0 <= delta <= 11/1000")
    cls = classification if classification is not None else classify_agents(inst, delta)
    if not _small_n1_1(cls, inst.n, delta):
        raise ContractViolation("approx_mms1 requires the small-n1_1 case split")
    return _fill_b_bags(inst, three_quarters_plus(delta), cls.n1_1, audit)


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
    delta = exact(delta, "delta")
    if not 0 <= delta <= DELTA_DEFAULT:
        raise ContractViolation("approx_mms2 requires 0 <= delta <= 3/956")
    cls = classification if classification is not None else classify_agents(inst, delta)
    n, m = inst.n, inst.m
    if _small_n1_1(cls, n, delta):
        raise ContractViolation("approx_mms2 requires the large-n1_1 case split")
    alpha = three_quarters_plus(delta)
    priority = frozenset(cls.n1_2 | cls.n2)
    counts = {"R2": 0, "R3": 0, "R5": 0}

    # Stage 1: hand out starting bags already clearing the threshold, whole.
    state = BagState(
        bags={k: list(b_bag_ids(k, n)) for k in range(1, n + 1)}, pool=[], satisfied={}
    )
    waiting = set(range(1, n + 1))
    rows_in, bars_in = rule_rows(inst, alpha)
    _award_or_grow(rows_in, bars_in, state, waiting, priority, audit)

    # Stage 2: reductions on the residual rows, sliced from the input's
    # integer rows (a bar is per row, so a slice keeps it). They stand for the
    # allocator-input ids in `agents` and `goods`, so each award maps straight
    # into the allocation. R5 prefers the priority classes; R2/R3 do not.
    awarded_goods = {g for b in state.satisfied.values() for g in b}
    agents = sorted(waiting)
    goods = [g for g in range(1, m + 1) if g not in awarded_goods]
    rows = [[rows_in[a - 1][g - 1] for g in goods] for a in agents]
    bars = [bars_in[a - 1] for a in agents]
    for rules, preferred in (((RuleId.R5,), priority), ((RuleId.R2, RuleId.R3), frozenset())):
        while True:
            # R2/R3 only ever shrink the two top goods, so R5 stays off for stage 3.
            if rules[0] is not RuleId.R5 and first_rule(rows, bars, bars, (RuleId.R5,)) is not None:
                raise ContractViolation("the pair rule R5 applies after its stage-2 loop")
            work_priority = {p for p, a in enumerate(agents, start=1) if a in preferred}
            fired = first_rule(rows, bars, bars, rules, work_priority)
            if fired is None:
                break
            rule, agent = fired
            awarded = apply_rule(rows, bars, rule, agent)
            who = agents.pop(agent - 1)
            state.satisfied[who] = Bundle.of(goods.pop(g - 1) for g in reversed(awarded))
            counts[rule.value] += 1

    # Stage 3: triple-seeded bags over what is left, filled one at a time from
    # beyond 3n. `goods` increases with position, so bags and pool translated
    # to the input's goods keep their order and tie-breaks.
    n3, m3 = len(agents), len(goods)
    cbags = {k: [goods[g - 1] for g in c_bag_ids(k, n3) if g <= m3] for k in range(1, n3 + 1)}
    state.pool = goods[3 * n3:]
    waiting = set(agents)
    for k in range(1, n3 + 1):
        state.bags = {k: cbags.pop(k)}
        _award_or_grow(rows_in, bars_in, state, waiting, priority, audit)
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


@value_class("branch", "rule_counts", "oni", "oni_map", "trace", "alpha_inner")
class SolveInfo:
    """Diagnostics of one driver run: which allocator ran ("bagfill", "mms1"
    or "mms2"), how often each rule fired, and the residual instance the
    allocator saw."""

    def __init__(
        self,
        branch: str,
        rule_counts: dict[str, int],
        oni: Instance,
        oni_map: OrderMap,
        trace: ReductionTrace,
        alpha_inner: Fraction,
    ):
        self.__dict__.update(branch=branch, rule_counts=rule_counts, oni=oni, oni_map=oni_map,
                             trace=trace, alpha_inner=alpha_inner)


@lru_cache(maxsize=64)
def _checked_eps(alpha: Fraction, delta: Fraction) -> Fraction:
    """The reduction slack eps = max(alpha - 3/4, 0) of `solve`, after its
    parameter checks. It depends on (alpha, delta) alone, so it is derived
    once per distinct pair; an invalid pair raises on every call, as
    `lru_cache` keeps no exceptions."""
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
    return eps


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
    alpha, delta = exact(alpha, "alpha"), exact(delta, "delta")
    eps = _checked_eps(alpha, delta)
    oni, omap, trace = to_delta_oni(inst, eps, node_budget=node_budget)
    counts: dict[str, int] = {}
    if eps == 0:
        inner = bag_fill(oni, alpha, audit=audit)
        branch = "bagfill"
        alpha_inner = alpha
    else:
        cls = classify_agents(oni, delta)
        alpha_inner = three_quarters_plus(delta)
        if _small_n1_1(cls, oni.n, delta):
            inner = approx_mms1(oni, delta, cls, audit=audit)
            branch = "mms1"
        else:
            inner, counts = approx_mms2(oni, delta, cls, audit=audit)
            branch = "mms2"

    rule_counts = dict(Counter(s.rule.value for s in trace.steps if isinstance(s.rule, RuleId)))
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
