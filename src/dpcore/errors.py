"""Exception types shared across the engine.

Error text on user-facing paths is deliberately generic: the same class of
failure always produces the same message object, so nothing about the data
or how far a request overshot its budget leaks through error detail.
"""


class ContractViolation(ValueError):
    """A caller broke a stated precondition (schema mismatch, bad arity, ...)."""


class UnknownColumnError(ContractViolation):
    """A referenced column does not exist in the schema."""


class UnknownScopeError(ContractViolation):
    """A budget scope id is not registered with the accountant."""


class ParameterError(ValueError):
    """A numeric parameter is out of its allowed range."""


class RejectedOperationError(ContractViolation):
    """The requested relational operator is not offered, by design."""


# One shared message for every budget denial, regardless of scope, amount,
# or how far over the request was.
BUDGET_EXCEEDED_MESSAGE = "budget exceeded"


class BudgetExceededError(RuntimeError):
    """Raised when a charge would push a scope past its budget."""

    def __init__(self) -> None:
        super().__init__(BUDGET_EXCEEDED_MESSAGE)
