"""Ratio-preserving instance transformations.

The pipeline to an ordered, normalized, irreducible instance is:

    order -> scale each agent to maximin share 1 -> reduction rules ->
    normalize -> order again

Reductions award a small set of goods to one agent and drop both from the
instance. An instance is only its value matrix, so each reduction keeps its
own lists of the ids its rows and columns stand for and pops every award
from them; the trace records every award so a solution of the residual
instance can be lifted back. Good identities do not survive
ordering (an ordered slot has no single source good when agents disagree),
so trace steps are recorded in ordered-view coordinates and lifting re-picks
concrete goods slot by slot, most valuable first. An ordering map is a
plain tuple of per-agent permutations, checked to be bijections by the lift
that uses it. Transformations permute, slice or rescale the stored integer
view (`Instance.int_rows`), with `core.int_row` to put new rows in lowest
terms. `rule_rows` turns it into numerators and bars, one bar ceil(alpha * L)
per row. `reduce` is the one place where shares become bars (`_bar`), so it
builds its residual instance once, at the end. The bar test, shared with
bag filling, has two forms: `meets_bar` for one agent, and `reaching` for
every agent at once, in one pass of C-level iterators (`itemgetter` over
the goods' columns, `map` and `compress`). `first_rule` runs `reaching` on
a rule's goods and bag filling on a bag's; `apply_rule` runs `meets_bar`
only for the recipient.

A rule decision needs only the side of the bar a share lies on, so `reduce`
scales by exact shares only where it must. It strips zero-share agents in
closed form, holds each other agent's share between two bars, from
`oracle.bracket` (the greedy seed and the top-k bound every share search
starts from), which searches nothing, and searches for her exact share only
when a bundle sum falls between them or she survives into the residual
instance. `first_rule` is the one rule scanner, over such brackets; exact
callers pass one bar list as both ends. Each exact share `reduce` finds is
kept for `ReductionTrace.scaling`, so reading it searches only for the
removed agents whose shares no decision needed.
"""

from __future__ import annotations

from collections.abc import Callable, Collection, Iterable, Sequence
from enum import Enum
from fractions import Fraction
from functools import cached_property, lru_cache
from itertools import compress, repeat
from operator import ge, itemgetter

from .core import (
    Allocation, Bundle, Instance, exact, int_row, rat_to_jsonable, scaled_ranking, value_class,
)
from .errors import BoundsError, ContractViolation, DomainError
from .oracle import bracket, checked_budget, mms


class RuleId(Enum):
    """Reduction rule identifiers; R5 is used only inside the second allocator."""

    R1 = "R1"
    R2 = "R2"
    R3 = "R3"
    R4 = "R4"
    R5 = "R5"


REDUCTION_RULES = (RuleId.R1, RuleId.R2, RuleId.R3, RuleId.R4)

BAG_AWARD = "BagAward"


# omap[i][j] is the source good holding agent i+1's (j+1)-th largest value
# under `scaled_ranking`; `_greedy_lift` checks the map where it consumes one.
OrderMap = tuple[tuple[int, ...], ...]


@value_class("rule", "agent", "goods", "threshold")
class TraceStep:
    """One award: `agent` is an original agent id, `goods` ordered-view good ids."""

    def __init__(self, rule: RuleId | str, agent: int, goods: Bundle, threshold: Fraction):
        self.__dict__.update(rule=rule, agent=agent, goods=goods, threshold=threshold)


@value_class("order_map", "n_original", "m_original", "steps", frozen=False)
class ReductionTrace:
    """Everything needed to lift an allocation of the residual instance back.

    `steps` accumulate in application order; goods across steps are disjoint
    and an agent appears in at most one step. `scaling` maps the original id
    of each agent with a positive maximin share, whether a rule removed her
    or not, to that share, the divisor of her row. `reduce` decides most
    rules without those shares, so `scaling` is computed by `shares` the
    first time it is read, as `MmsResult.witness` is. It reuses the exact
    shares `reduce` found and searches only for the rest (under the budget
    `reduce` was given, so it may raise OracleBudgetExceeded).
    """

    def __init__(
        self,
        order_map: OrderMap,
        n_original: int,
        m_original: int,
        steps: list[TraceStep] | None = None,
        shares: Callable[[], dict[int, Fraction]] = dict,
    ):
        self.order_map = order_map
        self.n_original = n_original
        self.m_original = m_original
        self.steps = [] if steps is None else steps
        self.shares = shares

    @cached_property
    def scaling(self) -> dict[int, Fraction]:
        return self.shares()

    def to_jsonable(self) -> dict:
        return {
            "n_original": self.n_original,
            "m_original": self.m_original,
            "order_map": [list(p) for p in self.order_map],
            "scaling": {str(a): rat_to_jsonable(f) for a, f in sorted(self.scaling.items())},
            "steps": [
                {
                    "rule": s.rule.value if isinstance(s.rule, RuleId) else s.rule,
                    "agent": s.agent,
                    "goods": list(s.goods.goods),
                    "threshold": rat_to_jsonable(s.threshold),
                }
                for s in self.steps
            ],
        }


def order(inst: Instance) -> tuple[Instance, OrderMap]:
    """Sort each agent's row by `scaled_ranking`; the map records which source
    good landed in each slot. A permuted row keeps its L and stays in lowest
    terms."""
    perms = []
    rows = []
    for ints, scale in inst.int_rows:
        ids = scaled_ranking(ints)
        perms.append(tuple(ids))
        rows.append((tuple([ints[g - 1] for g in ids]), scale))
    return Instance(n=inst.n, m=inst.m, int_rows=tuple(rows)), tuple(perms)


def _greedy_lift(omap: OrderMap, m: int, alloc: Allocation) -> Allocation:
    """Convert an ordered-slot allocation to source-good ids.

    Slots are scanned in ascending index; the owner of slot j takes her most
    valuable source good not yet taken. When slot j is reached at most j-1
    goods are gone, so the pick is worth at least her j-th largest value.
    Unowned slots leave their share to the leftover pool.
    """
    n = len(omap)
    if n != alloc.n_agents:
        raise ContractViolation(f"order map has {n} agents, allocation has {alloc.n_agents}")
    ids = list(range(1, m + 1))
    for p in omap:
        if sorted(p) != ids:
            raise DomainError("each ordering permutation must be a bijection on [1, m]")
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
        perm = omap[a - 1]
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
    if ordered_alloc.n_agents != original.n:
        raise DomainError("allocation has the wrong number of agents")
    ordered_alloc.validate(original.m)
    return _greedy_lift(omap, original.m, ordered_alloc)


def normalize(inst: Instance, *, node_budget: int | None = None) -> Instance:
    """Rescale each agent so that all bundles of one of her maximin-share
    partitions are worth exactly 1 (and hence her maximin share is exactly 1).

    Every agent must have a positive maximin share; goods in witness bundle B
    are divided by the agent's value of B: on the integer view, good g becomes
    its numerator over the sum of B's numerators.
    """
    if inst.n == 0:
        return inst
    rows = []
    for i, (ints, _) in enumerate(inst.int_rows, start=1):
        res = mms(inst, i, inst.n, node_budget=node_budget)
        if res.value == 0:
            raise DomainError(
                f"agent {i} has zero maximin share; strip zero-share agents before normalizing"
            )
        pairs = [(0, 1)] * inst.m
        for b in res.witness:
            total = sum(ints[g - 1] for g in b)
            for g in b:
                pairs[g - 1] = (ints[g - 1], total)
        rows.append(int_row(pairs))
    return Instance(n=inst.n, m=inst.m, int_rows=tuple(rows))


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


@lru_cache(maxsize=64)
def three_quarters_plus(x: Fraction) -> Fraction:
    """3/4 + x, the threshold of the reduction rules (x = eps) and of the
    allocators (x = delta). Every solve asks for the same few values, so each
    is built once; callers pass `exact` values, never a float that hashes
    like one."""
    return Fraction(3, 4) + x


def rule_rows(inst: Instance, alpha: Fraction) -> tuple[list[list[int]], list[int]]:
    """The rule engine's view of `inst`: per row, its numerators over the lcm
    L of its denominators (the instance's integer view), and the bar
    ceil(alpha * L) their sum on a set of goods must reach (`meets_bar`,
    `reaching`). Returns (rows, bars)."""
    rows = [list(ints) for ints, _ in inst.int_rows]
    return rows, [_bar(alpha, den) for _, den in inst.int_rows]


def _bar(alpha: Fraction, scale: int) -> int:
    """ceil(alpha * scale): the least integer sum that reaches alpha * scale."""
    return -(-alpha.numerator * scale // alpha.denominator)


def meets_bar(row: Sequence[int], bar: int, goods: Iterable[int]) -> bool:
    """The bar test for one agent: the row's numerators on `goods` (1-based)
    sum to at least its bar; `reaching` asks it of every agent at once."""
    return sum(row[g - 1] for g in goods) >= bar


def _rule_goods(rows: list[list[int]], rule: RuleId) -> tuple[int, ...]:
    """The rule's goods in integer rows; dummies past the last good drop out."""
    ids = rule_good_ids(rule, len(rows))  # raises first when there are no rows
    return tuple(filter(len(rows[0]).__ge__, ids))


def reaching(rows: list[list[int]], bars: list[int], goods: Sequence[int]) -> list[int]:
    """The agents, ascending, whose numerators on `goods` (1-based) reach
    their bars: `meets_bar` for every agent at once, as sums of the goods'
    columns compared with the bars."""
    if not goods:  # every sum is 0
        sums = repeat(0)
    elif len(goods) == 1:
        sums = map(itemgetter(goods[0] - 1), rows)
    else:
        sums = map(sum, map(itemgetter(*[g - 1 for g in goods]), rows))
    return list(compress(range(1, len(rows) + 1), map(ge, sums, bars)))


def pick_recipient(eligible: list[int], priority: Collection[int]) -> int:
    """The first agent of `eligible` (ascending) in `priority`, else its first agent."""
    for i in eligible:
        if i in priority:
            return i
    return eligible[0]


def first_rule(
    rows: list[list[int]],
    lows: list[int],
    highs: list[int],
    rules: Iterable[RuleId],
    priority: Collection[int] | None = None,
    settle: Callable[[int], int] | None = None,
) -> tuple[RuleId, int] | None:
    """The first of `rules` that some agent triggers, with the agent
    `pick_recipient` takes among those that do; None when no rule applies.
    `rows` come from `rule_rows` of an ordered instance, and each agent's
    exact bar lies in [lows[i], highs[i]]; exact callers pass one bar list
    as both. The agents that reach their lower bars are the candidates,
    tried members of `priority` first, then by index: one that reaches her
    upper bar fires outright, and any other gets her exact bar from
    `settle(agent)`, which also closes her bracket, and is tested against
    it. So the (rule, agent) returned is the one exact bars would give."""
    for rule in rules if rows else ():
        goods = _rule_goods(rows, rule)
        candidates = reaching(rows, lows, goods)
        if priority:
            candidates.sort(key=lambda i: i not in priority)
        for i in candidates:
            row = rows[i - 1]
            if meets_bar(row, highs[i - 1], goods) or meets_bar(row, settle(i), goods):
                return rule, i
    return None


def restrict(inst: Instance, agents: Iterable[int], goods: Iterable[int]) -> Instance:
    """Sub-instance on the listed agent and good indices, in the listed order,
    each row over the lcm of its listed goods' denominators (`int_row`): so
    `mms(restrict(inst, [a], goods), 1, d)` is agent a's share of the goods.
    An index out of range is a BoundsError and a good listed twice a
    DomainError."""
    agents, goods = list(agents), list(goods)
    for a in agents:
        if not 1 <= a <= inst.n:
            raise BoundsError(f"agent {a} out of range [1, {inst.n}]")
    seen = set()
    for g in goods:
        if not 1 <= g <= inst.m:
            raise BoundsError(f"good {g} out of range [1, {inst.m}]")
        if g in seen:
            raise DomainError(f"good {g} is listed twice")
        seen.add(g)
    view = [inst.int_rows[a - 1] for a in agents]
    rows = tuple(int_row((nums[g - 1], den) for g in goods) for nums, den in view)
    return Instance(n=len(agents), m=len(goods), int_rows=rows)


def apply_rule(
    rows: list[list[int]], bars: list[int], rule: RuleId, agent: int
) -> tuple[int, ...]:
    """Award the rule's goods to `agent`: drop her row and bar and the goods'
    columns from the lists in place (dummies vanish), compacting indices.

    The agent must actually satisfy the rule's trigger; the rows stay
    ordered. Returns the awarded goods' indices before the drop, ascending.
    """
    if not 1 <= agent <= len(rows):
        raise ContractViolation(f"agent {agent} out of range")
    goods = _rule_goods(rows, rule)
    if not meets_bar(rows[agent - 1], bars[agent - 1], goods):
        raise ContractViolation(f"rule {rule.value} is not applicable to agent {agent}")
    del rows[agent - 1], bars[agent - 1]
    for row in rows:
        for g in reversed(goods):
            del row[g - 1]
    return goods


def reduce(
    inst: Instance,
    eps: Fraction,
    *,
    node_budget: int | None = None,
) -> tuple[Instance, ReductionTrace]:
    """Order, scale every agent to maximin share 1, then exhaust the rules.

    Rules fire at threshold 3/4 + eps, always the lowest-numbered applicable
    one, until none applies. Agents whose maximin share is zero (fewer
    positive goods than agents) are stripped up front with an empty award
    (any bundle meets any ratio for them). Every surviving agent's maximin
    share in the result is at least 1 - 4*eps.

    `first_rule` decides each rule trigger from a bracket lo <= share * L <= hi
    (`oracle.bracket`, no search); an agent's exact share is searched for
    only when her bracket leaves a comparison open, or when she survives,
    since her share is the scale of her residual row. Each exact share is
    searched for at most once and kept by original id, and `trace.scaling`
    reuses those: reading it searches only for removed agents whose share no
    decision needed. A negative `node_budget` is rejected up front.
    """
    eps = exact(eps, "eps")
    if eps < 0:
        raise DomainError("eps must be nonnegative")
    checked_budget(node_budget)
    cur, omap = order(inst)
    # The original agent id of each row of `cur` and the ordered-view id of
    # each of its goods.
    agents = list(range(1, inst.n + 1))
    goods = list(range(1, inst.m + 1))
    # A share is positive exactly when at least as many goods as agents are
    # positive in its row.
    kept = [cur.m - ints.count(0) >= cur.n for ints, _ in cur.int_rows]
    steps = [
        TraceStep(rule=BAG_AWARD, agent=a, goods=Bundle(), threshold=Fraction(0))
        for a, keep in zip(agents, kept)
        if not keep
    ]
    if steps:
        agents = list(compress(agents, kept))
        # `cur` is still the ordered input, so the surviving ids are its rows.
        # Each keeps more positive goods than agents are left, so one
        # stripping pass suffices.
        cur = restrict(cur, agents, range(1, cur.m + 1))
    ids = tuple(agents)  # the original id of each row of `cur`
    # Ordered rows are descending, as `bracket` takes them.
    brackets = [bracket(ints, cur.n)[:2] for ints, _ in cur.int_rows]
    # Each agent's exact share * L by original id, searched for when a
    # decision, her residual row or `trace.scaling` first needs it.
    scales = {a: lo for a, (lo, hi) in zip(ids, brackets) if lo == hi}

    def scale_of(a: int) -> int:
        if a not in scales:
            k = ids.index(a) + 1
            share = mms(cur, k, cur.n, node_budget=node_budget).value
            scales[a] = (share * cur.int_rows[k - 1][1]).numerator
        return scales[a]

    trace = ReductionTrace(
        order_map=omap,
        n_original=inst.n,
        m_original=inst.m,
        steps=steps,
        shares=lambda: {a: Fraction(scale_of(a), den) for a, (_, den) in zip(ids, cur.int_rows)},
    )

    threshold = three_quarters_plus(eps)
    rows = [list(ints) for ints, _ in cur.int_rows]
    lows = [_bar(threshold, lo) for lo, _ in brackets]
    highs = [_bar(threshold, hi) for _, hi in brackets]

    def settle(i: int) -> int:
        lows[i - 1] = highs[i - 1] = _bar(threshold, scale_of(agents[i - 1]))
        return highs[i - 1]

    while (fired := first_rule(rows, lows, highs, REDUCTION_RULES, settle=settle)) is not None:
        rule, agent = fired
        # The recipient meets her upper or exact bar, so her exact one.
        awarded = apply_rule(rows, highs, rule, agent)
        del lows[agent - 1]
        who = agents.pop(agent - 1)
        award = Bundle.of(goods.pop(g - 1) for g in reversed(awarded))
        trace.steps.append(TraceStep(rule=rule, agent=who, goods=award, threshold=threshold))
    view = tuple(int_row((x, scale_of(a)) for x in row) for row, a in zip(rows, agents))
    return Instance(n=len(rows), m=len(goods), int_rows=view), trace


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
