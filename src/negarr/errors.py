"""Exception types shared across the package.

Every user-triggerable error is a NegarrError, and its message says which
rule the input broke; the command line maps any of them to the input-error
exit code.  A subclass exists only where some code handles that case on its
own: DivisionByZero (also a ZeroDivisionError), EmptyResult and
IdentityViolation.  InternalInconsistency is the one exception that is not
user-triggerable.
"""

from __future__ import annotations


class NegarrError(Exception):
    """An input error: the message names the rule that was broken."""


class InternalInconsistency(Exception):
    """Two exact routes to the same value disagree: a defect in negarr.

    Deliberately not a NegarrError or ValueError, so it is never reported as
    an input error.  Raised explicitly rather than by assert, so the checks
    also run under python -O.
    """


class DivisionByZero(NegarrError, ZeroDivisionError):
    pass


class EmptyResult(NegarrError):
    pass


class IdentityViolation(NegarrError):
    def __init__(self, lhs, rhs):
        super().__init__(f"pair-count identity violated: sum C(m_i,2) = {lhs} "
                         f"but C(d,2) = {rhs}")


class UnvalidatedModulusWarning(UserWarning):
    """Irreducibility of an extension modulus was asserted, not verified."""
