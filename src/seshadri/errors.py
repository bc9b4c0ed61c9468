"""Exceptions shared across the package."""

from __future__ import annotations


class SeshadriError(Exception):
    """Base class for all package-specific errors."""


class NegativeRadicand(SeshadriError):
    """Square root of a negative rational was requested."""


class IncompatibleRadicands(SeshadriError):
    """Arithmetic would mix two distinct irrational square roots.

    Sums like sqrt(2) + sqrt(3) leave the quadratic fields this package
    works in, so they are rejected rather than approximated.
    """


class DivisionByZeroInterval(SeshadriError):
    """Interval division where the divisor contains zero."""


class NegativeRadicandInterval(SeshadriError):
    """Interval square root where the entire radicand interval is negative."""


class ExceptionalClassUnsupported(SeshadriError):
    """Operation is only defined for interior curve classes."""


class UnsupportedR(SeshadriError):
    """Point count r outside the domain of the requested computation."""


class InvalidT(SeshadriError):
    """Marked multiplicity t outside the admissible range for the class."""


class InvalidT0(SeshadriError):
    """Certification cutoff t0 below the minimum the certifier handles."""


class DepthLimitExceeded(SeshadriError):
    """Branch-and-bound hit the bisection depth limit before certifying."""


class NotAboveSqrtR(SeshadriError):
    """Classification requested at a mu that is not strictly above sqrt(r)."""
