"""Exception types shared across the library.

Every domain error has a stable class name; the CLI reports that name in its
JSON error payload, so renaming one is a breaking interface change.
"""


class QuasicircError(Exception):
    """Base class for all domain errors raised by this library."""


# weight-vector validation


class NonPositiveWeight(QuasicircError):
    """A weight entry is zero or negative; weights must be positive integers."""


class Unsorted(QuasicircError):
    """Weight entries are not nondecreasing."""


class NotCoprime(QuasicircError):
    """The weight entries share a common factor greater than one."""


class IndexOutOfRange(QuasicircError):
    """A component or variable index lies outside 1..n."""


# polynomials and polynomial maps


class DimensionMismatch(QuasicircError):
    """Operands live in different ambient dimensions."""


class DoesNotFixOrigin(QuasicircError):
    """A polynomial map has a constant term, so it does not fix the origin."""


# triangular resonant maps


class NotResonant(QuasicircError):
    """A supplied exponent is not resonant for its component."""


class NotNonlinear(QuasicircError):
    """A supplied exponent has total degree at most one."""


class EmptyPool(QuasicircError):
    """The coefficient pool for random sampling is empty."""


class WeightMismatch(QuasicircError):
    """Two objects were built over different weight vectors."""


# conjugation

class SingularLinearMap(QuasicircError):
    """The linear map is not invertible (zero determinant)."""


class SingularLinearPart(QuasicircError):
    """The linear part of the map is not invertible."""


class BlockDiagonalInput(QuasicircError):
    """A violation search was asked for a block-diagonal linear map, where the
    degree bound always holds."""


class NoResonantConjugacy(QuasicircError):
    """No triangular resonant change of coordinates linearizes the given map."""


class ParseError(QuasicircError):
    """Malformed textual input (polynomial syntax or serialized object)."""


# resource limits


class BudgetExceeded(QuasicircError):
    """A result is too large to produce, such as an integer with more digits
    than `sys.get_int_max_str_digits()` allows in its decimal output, or a
    search ran past its cap, such as a conjugacy solve's line count."""
