"""Exception and warning types shared across the package."""


class ContractMatchError(Exception):
    """Base class for all library errors."""


class FormatError(ContractMatchError):
    """Malformed input data (files, dicts, money literals)."""


class InstanceError(ContractMatchError):
    """An instance violates a structural invariant."""


class DuplicateMenuError(InstanceError):
    """Two menus were given for the same pair of agents."""


class SameSideMenuError(InstanceError):
    """A menu joins two firms or two workers."""


class UnknownAgentError(InstanceError):
    """A menu or partition references an agent not in the instance."""


class EmptyContractSetError(InstanceError):
    """A menu is present but has no contracts."""


class MalformedMenuError(InstanceError):
    """A menu pair or contract domain is structurally invalid."""


class InvalidPartitionError(InstanceError):
    """Firms and workers do not partition the agent set."""


class BudgetExceededError(ContractMatchError):
    """Enumeration grew past the configured budget."""


class InfeasibleOutcomeError(ContractMatchError):
    """An outcome does not satisfy the feasibility invariants."""


class NotTwoSidedError(ContractMatchError):
    """The operation requires a firm/worker partition."""


class UnstableInputError(ContractMatchError):
    """An outcome that must be stable admits a blocking pair."""


class PreconditionViolatedError(ContractMatchError):
    """A checker's hypothesis does not hold for the given input."""

    def __init__(self, precondition: str, message: str = ""):
        self.precondition = precondition
        super().__init__(message or f"precondition not met: {precondition}")

    def __reduce__(self):
        # args holds the message alone, so copy and pickle pass both.
        return type(self), (self.precondition, str(self)), self.__dict__


class UnknownNameError(ContractMatchError):
    """No builtin instance with the requested name."""


class InfeasibleParamsError(ContractMatchError):
    """Generator parameters cannot be satisfied."""


class NegativeContractWarning(UserWarning):
    """A menu contains contracts with negative amounts; outcomes can never use them."""
