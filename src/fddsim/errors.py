class FddsimError(Exception):
    """Base class for all library errors."""


class InvalidArgumentError(FddsimError):
    """An argument violates a documented precondition."""


class NumericalError(FddsimError):
    """An iterative routine failed to converge or hit a singularity, or a
    solver's result failed its certificate."""
