"""Exception types, and the positive-integer check, shared across the package."""


class DomainError(ValueError):
    """An argument lies outside the mathematical domain of an operation."""


class SetSpecError(ValueError):
    """A set-specification string does not conform to the grammar."""


class OverlapError(ValueError):
    """Progressions passed as a disjoint union actually intersect."""

    def __init__(self, first, second, witness):
        self.first = first
        self.second = second
        self.witness = witness
        super().__init__(
            f"progressions {first} and {second} both contain {witness}"
        )


class BudgetExceededError(RuntimeError):
    """An enumeration or a result would exceed its budget or size limit."""


def check_positive(**params):
    """Raise DomainError for the first keyword whose value is below 1."""
    for name, value in params.items():
        if value < 1:
            raise DomainError(f"{name} must be a positive integer, got {value}")
