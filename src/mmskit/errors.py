"""Exception types shared across the toolkit."""

from __future__ import annotations


class MmsKitError(Exception):
    """Base class for all mmskit errors."""


class BoundsError(MmsKitError):
    """An agent or good index is outside the instance's valid range."""


class DomainError(MmsKitError):
    """A parameter is outside the domain an operation is defined for."""


class ContractViolation(MmsKitError):
    """A documented precondition was broken by the caller."""


class OracleBudgetExceeded(MmsKitError):
    """The exact search hit its node budget before certifying an answer.

    Raised instead of returning a possibly-wrong value.
    """

    def __init__(self, nodes: int, budget: int):
        super().__init__(f"oracle budget exceeded: {nodes} nodes > budget {budget}")
        self.nodes = nodes
        self.budget = budget

    def __reduce__(self):
        return type(self), (self.nodes, self.budget)


class GuaranteeViolation(MmsKitError):
    """Bag filling ran out of goods with agents still unsatisfied.

    Unreachable for inputs meeting the allocators' preconditions; any
    occurrence is a bug or a precondition breach, so the full solver state
    is attached for post-mortem inspection.
    """

    def __init__(self, message: str, state: dict):
        super().__init__(message)
        self.state = state

    def __reduce__(self):
        return type(self), (self.args[0], self.state)
