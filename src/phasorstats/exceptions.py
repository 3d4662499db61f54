"""Typed exceptions for statistical preconditions and input validation.

Each class declares the CLI's exit status for it as ``exit_code``: 2 for an
input the program cannot read, 3 (the default) for a statistical
precondition the input does not meet.
"""


class PhasorStatsError(Exception):
    """Base class for all errors raised by this package."""

    exit_code = 3


class DomainError(PhasorStatsError, ValueError):
    """Argument outside the mathematical domain of a function."""


class TooFewObservations(PhasorStatsError, ValueError):
    """Sample size below the minimum required by an operation."""


class TooFewGroups(PhasorStatsError, ValueError):
    """Fewer groups than the design requires."""


class DegenerateCovariance(PhasorStatsError, ValueError):
    """Sample covariance is (numerically) rank deficient."""


class ZeroResidualVariance(PhasorStatsError, ValueError):
    """All observations coincide; residual power is zero."""


class SingularWithinScatter(PhasorStatsError, ValueError):
    """Within-group scatter matrix is singular."""


class LabelMismatch(PhasorStatsError, ValueError):
    """Unit labels cannot be aligned across samples."""


class EmptyUnit(PhasorStatsError, ValueError):
    """A unit contributed no observations."""


class DesignMismatch(PhasorStatsError, ValueError):
    """Datasets do not share the design required by an operation."""


class InvalidGraph(PhasorStatsError, ValueError):
    """Adjacency graph is malformed."""

    exit_code = 2


class InvalidSpec(PhasorStatsError, ValueError):
    """Simulation specification violates its parameter constraints."""


class NonIntegerCycles(PhasorStatsError, ValueError):
    """Time series does not span a whole number of stimulation cycles."""

    exit_code = 2


class FrequencyNotResolvable(PhasorStatsError, ValueError):
    """Target frequency is not a resolvable DFT bin of the series."""

    exit_code = 2


class MalformedInput(PhasorStatsError, ValueError):
    """Input file cannot be parsed; message carries the offending line."""

    exit_code = 2
