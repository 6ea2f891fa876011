"""Exception types shared across the package.

Everything user-triggerable derives from NegarrError so the command line
layer can map any of it to a single input-error exit code.
InternalInconsistency is the one exception that is not user-triggerable.
"""

from __future__ import annotations


class NegarrError(Exception):
    """Base class for all library errors."""


class InternalInconsistency(Exception):
    """Two exact routes to the same value disagree: a defect in negarr.

    Deliberately not a NegarrError or ValueError, so it is never reported as
    an input error.  Raised explicitly rather than by assert, so the checks
    also run under python -O.
    """


# ---- field construction and arithmetic ----

class NotPrime(NegarrError):
    pass


class ReducibleModulus(NegarrError):
    pass


class DivisionByZero(NegarrError, ZeroDivisionError):
    pass


class FieldMismatch(NegarrError):
    pass


class NegativeDiscriminantInput(NegarrError):
    pass


class UnvalidatedModulusWarning(UserWarning):
    """Irreducibility of an extension modulus was asserted, not verified."""


# ---- projective primitives ----

class EqualLines(NegarrError):
    pass


class EqualPoints(NegarrError):
    pass


# ---- arrangements and incidence data ----

class SingleLine(NegarrError):
    pass


class IdentityViolation(NegarrError):
    def __init__(self, lhs, rhs, msg="pair-count identity violated"):
        super().__init__(f"{msg}: sum C(m_i,2) = {lhs} but C(d,2) = {rhs}")
        self.lhs = lhs
        self.rhs = rhs


class ProfileInconsistent(NegarrError):
    pass


class EmptyResult(NegarrError):
    pass


class NoIncidenceData(NegarrError):
    pass


class RemovingAll(NegarrError):
    pass


# ---- negativity computations ----

class EmptyPointSet(NegarrError):
    pass


class IncompleteLocus(NegarrError):
    pass


class InvalidSubsize(NegarrError):
    pass


class BadMultiplicity(NegarrError):
    pass


# ---- catalog parameters ----

class NotPrimePower(NegarrError):
    pass


class BadSize(NegarrError):
    pass


class BadParameter(NegarrError):
    pass


class NonIntegralSpectrum(NegarrError):
    pass


class BadTorsion(NegarrError):
    pass


class UnknownCatalogName(NegarrError):
    pass


# ---- command line ----

class ParseError(NegarrError):
    pass


class SearchTooLarge(NegarrError):
    pass


class NotEquidistributed(NegarrError):
    pass
