"""Exception types shared across the toolkit."""


class NondimError(Exception):
    """Base class for all toolkit errors."""


class DomainError(NondimError):
    """An argument is outside the mathematical domain of an operation."""


class DegenerateExponentsError(NondimError):
    """The exponent table does not determine the scaling factors.

    Carries the numerical rank of the exponent matrix and its column count;
    ``reason`` replaces the message where the rank is full but the factors
    are still not determined.
    """

    def __init__(self, rank: int, size: int, reason: str | None = None):
        self.rank = rank
        self.size = size
        super().__init__(reason or f"degenerate exponent structure: rank {rank} < {size}")


class UnsolvableSubsetError(NondimError):
    """The chosen coefficient subset leads to a singular linear system."""

    def __init__(self, subset, determinant: float):
        self.subset = tuple(subset)
        self.determinant = determinant
        super().__init__(
            f"unsolvable combination {self.subset}: |det| = {abs(determinant):.3e}"
        )


class EnumerationCapError(NondimError):
    """The subset count exceeds the configured cap."""

    def __init__(self, count: int, cap: int):
        self.count = count
        self.cap = cap
        super().__init__(f"subset count {count} exceeds cap {cap}")


class NonFiniteEvaluationError(NondimError):
    """A right-hand side or solver state stopped being finite."""

    def __init__(self, message: str, step: int | None = None, state=None):
        self.step = step
        self.state = state
        super().__init__(message)


class ConfigError(NondimError):
    """A configuration file is malformed or inconsistent."""
