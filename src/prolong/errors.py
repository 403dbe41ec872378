"""Exception types raised by the toolkit.

Every error that corresponds to bad mathematical input or a failed
structural requirement derives from ProlongError, so callers can catch
one base class at the boundary.  Each class says on its ``status`` which
verdict the command line gives when it ends a run: "fail" (exit 1) when
the request was well formed and the mathematics says no, "error" (exit 2)
when the request itself was malformed.
"""

from __future__ import annotations


class ProlongError(Exception):
    """Base class for all toolkit errors."""

    status = "fail"


class DivisionByZero(ProlongError):
    """Division by the zero element of the base field."""

    status = "error"


class ArityMismatch(ProlongError):
    """Operands or maps with incompatible numbers of variables."""

    status = "error"


class IndexOutOfRange(ProlongError):
    """Variable index outside the valid range of a polynomial ring."""

    status = "error"


class ExprSyntaxError(ProlongError):
    """Malformed expression text.  Carries the 0-based offset of the fault."""

    status = "error"

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (offset {pos})")
        self.pos = pos


class UnknownVariable(ExprSyntaxError):
    """Identifier not among the declared variables of the ring."""

    def __init__(self, name: str, pos: int):
        super().__init__(f"unknown variable '{name}'", pos)
        self.name = name


class TInQField(ExprSyntaxError):
    """The symbol t used in an expression over the constant field Q."""

    def __init__(self, pos: int):
        super().__init__("'t' is not available over Q", pos)


class IdenticallyZeroDenominator(ProlongError):
    """A rational expression whose denominator is the zero polynomial."""


class DenominatorVanishes(ProlongError):
    """Evaluation of a rational function at a zero of its denominator."""


class DegreeCapExceeded(ProlongError):
    """Groebner computation produced a polynomial above the degree cap."""


class PointNotOnVariety(ProlongError):
    """A point that fails the defining equations of the variety."""


class NoSolution(ProlongError):
    """An inconsistent linear system where a solution was required."""


class TransferNotFunctional(ProlongError):
    """Correspondence fibre relation is not the graph of a map."""


class CocycleViolation(ProlongError):
    """Atlas transition maps that fail the cocycle conditions."""


class ChartIncompatibility(ProlongError):
    """Chartwise map data inconsistent across overlapping charts."""


class DenominatorVanishesAtInitialPoint(ProlongError):
    """Series solving started where a section denominator vanishes."""


class NonUnitConstantTerm(ProlongError):
    """Inversion of a truncated series whose constant term is zero."""


class IndeterminateOnVariety(ProlongError):
    """A rational expression whose denominator vanishes identically on the variety."""


class ModelError(ProlongError):
    """Structurally invalid or inconsistent model file."""

    status = "error"


class UsageError(ProlongError):
    """Malformed command line invocation or series file."""

    status = "error"
