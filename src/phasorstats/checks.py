"""The one rule for scalar arguments, shared by every public entry point.

- A *count* (a size, a node index, a number of draws) is whatever
  ``operator.index`` takes: ints, bools and numpy integers, not 2.0 or "2".
  A number of draws is at most ``MAX_DRAWS``, 2^32 - 1.
- A *seed* is a count >= 0, which is what ``SeedSequence`` accepts.
- A *real parameter* is a ``numbers.Real`` that the caller's range accepts,
  e.g. a probability in (0, 1); nan fails every range, inf only those that
  admit it. Degrees of freedom and the condition-index sample size are real
  parameters that must be ``whole``, so 2.0 passes where a count needs 2.
- *Arrays of reals* are whatever ``np.asarray(..., dtype=float)`` reads.

A value that breaks the rule raises the caller's typed error, never a raw
``TypeError`` or ``ValueError``: ``InvalidSpec`` in ``simulate``,
``InvalidGraph`` for graphs, ``MalformedInput`` for observations and series,
``FrequencyNotResolvable`` for rates, ``DomainError`` everywhere else.
"""

from __future__ import annotations

import numbers
import operator

import numpy as np

from .exceptions import DomainError


#: The largest number of permutations, bootstrap resamples or Monte Carlo
#: replicates one call may ask for. Each keeps at least one float, so a
#: count far past this cannot be allocated, and a loop over it would not
#: end in any useful time.
MAX_DRAWS = 2**32 - 1


def integer(name: str, value, minimum=None, error=DomainError,
            maximum=None) -> int:
    """value as a Python int, where it is a count in [minimum, maximum]."""
    try:
        number = operator.index(value)
    except TypeError:
        raise error(f"{name} must be an integer, got {value!r}") from None
    if minimum is not None and number < minimum:
        raise error(f"{name} must be >= {minimum}, got {value!r}")
    if maximum is not None and number > maximum:
        raise error(f"{name} must be <= {maximum}, got {value!r}")
    return number


def seed(value, error=DomainError) -> int:
    """value as a Python int, where it is a non-negative integer."""
    try:
        number = operator.index(value)
    except TypeError:
        number = -1
    if number < 0:
        raise error(f"seed must be a non-negative integer, got {value!r}")
    return number


def seeds(value):
    """value as an int or a list of ints, where it is a seed or a list or
    tuple of seeds; not a Generator or SeedSequence, which ``default_rng``
    would take and advance."""
    try:
        many = isinstance(value, (list, tuple))
        return [seed(v) for v in value] if many else seed(value)
    except DomainError:
        raise DomainError(f"seed must be a non-negative integer or a list or "
                          f"tuple of them, got {value!r}") from None


def real(name: str, value, valid, what: str, error=DomainError):
    """value, unchanged, where it is a real number that valid accepts."""
    try:
        ok = isinstance(value, numbers.Real) and valid(value)
    except OverflowError:  # float() of an int past the float range
        ok = False
    if not ok:
        raise error(f"{name} must be {what}, got {value!r}")
    return value


def probability(name: str, value, error=DomainError):
    """value, unchanged, where it is a real number in (0, 1)."""
    return real(name, value, lambda v: 0.0 < v < 1.0, "in (0, 1)", error)


def whole(value) -> bool:
    """Whether a real number is a whole float: 2 and 2.0, not 2.5, nan or
    inf; an int past the float range raises the OverflowError that ``real``
    turns into a refusal."""
    return float(value).is_integer()


def floats(name: str, value, error=DomainError) -> np.ndarray:
    """value as a float array, where numpy reads it as one."""
    try:
        return np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise error(f"{name} must be real numbers ({exc})") from None


def as_complex(name: str, value) -> complex:
    """value as a Python complex, where ``complex`` accepts it and both its
    parts are finite."""
    try:
        number = complex(value)
    except (TypeError, ValueError) as exc:
        raise DomainError(str(exc)) from None
    if not np.isfinite(number):
        raise DomainError(f"{name} must be finite, got {value!r}")
    return number
