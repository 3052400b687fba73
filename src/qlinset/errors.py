"""Exception types shared across the package."""


class QlinsetError(Exception):
    """Base class for all package errors."""


class NotPrime(QlinsetError):
    pass


class TooLarge(QlinsetError):
    pass


class DivisionByZero(QlinsetError):
    pass


class NotADivisor(QlinsetError):
    pass


class InvalidModulus(QlinsetError):
    pass


class NotInvertible(QlinsetError):
    pass


class ZeroPolynomial(QlinsetError):
    pass


class ZeroScalar(QlinsetError):
    pass


class SingularMatrix(QlinsetError):
    pass


class NotAdmissible(QlinsetError):
    pass


class DegenerateSet(QlinsetError):
    pass


class TooLargeForExhaustive(QlinsetError):
    pass


class WrongDegree(QlinsetError):
    pass


class ImagesDiffer(QlinsetError):
    pass


class NotMonomial(QlinsetError):
    pass


class NotStrictlyLinear(QlinsetError):
    pass


class PreconditionViolated(QlinsetError):
    pass


class InconsistentStructure(QlinsetError):
    """A structural certification failed on inputs where it provably cannot.

    Raised (or converted into an ``inconsistent`` classification outcome) when
    a witness reconstruction or monomial certification fails; surfacing these
    as data is the whole point of the falsification harness.
    """


class InvalidParameters(QlinsetError):
    pass
