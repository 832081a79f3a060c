"""Strict error-bound arithmetic for approximate value operators.

Arithmetic on approximate inputs "yields the expected value and strict
error bounds of the result" (paper §III): each row carries a closed
interval ``[lo, hi]`` guaranteed to contain the exact value.  Basic
arithmetic (add, subtract, multiply, divide) and some complex functions
(sqrt, power) propagate such bounds, which is exactly the set the paper
supports.

§IV-G's *destructive distributivity* falls out of the representation:
``(a_ap + a_re) · (b_ap + b_re)`` cannot be reconstructed from approximate
products alone, so a multiplication's interval is sound but its refinement
must recompute from exact inputs — the :attr:`IntervalColumn.refinable`
flag records whether a downstream refinement may still reuse device-side
results (true only for error-free, i.e. exact, inputs).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..errors import ExecutionError


@dataclass(frozen=True)
class Interval:
    """A scalar closed interval (used for aggregate results)."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if self.lo > self.hi:
            raise ExecutionError(f"malformed interval [{self.lo}, {self.hi}]")

    @property
    def width(self) -> float:
        return self.hi - self.lo

    @property
    def midpoint(self) -> float:
        return (self.lo + self.hi) / 2.0

    @property
    def is_exact(self) -> bool:
        return self.lo == self.hi

    def contains(self, value: float) -> bool:
        return self.lo <= value <= self.hi


class IntervalColumn:
    """Per-row error bounds: aligned ``lo``/``hi`` int64 arrays.

    Construction sites:

    * an exact column → degenerate intervals (``lo == hi``),
    * a decomposed column's approximation codes → bucket bounds,
    * arithmetic on other interval columns → propagated bounds.

    Invariant: ``hi is lo`` if and only if every row is exact.  Exactness
    is settled once, at construction — equal bounds collapse into one
    array — so :attr:`is_exact` is an identity test and arithmetic on
    exact inputs computes one array instead of two (or four corners).  The
    shared array is a read-only view: an in-place write to one bound
    raises instead of silently moving the other.
    """

    __slots__ = ("lo", "hi", "refinable")

    def __init__(self, lo: np.ndarray, hi: np.ndarray, *, refinable: bool) -> None:
        exact = hi is lo
        lo = np.asarray(lo, dtype=np.int64)
        if not exact:
            hi = np.asarray(hi, dtype=np.int64)
            if lo.shape != hi.shape:
                raise ExecutionError("interval bounds misaligned")
            if lo.size and bool((lo > hi).any()):
                raise ExecutionError("interval with lo > hi")
            exact = bool(np.array_equal(lo, hi))
        if exact:
            if lo.flags.writeable:
                lo = lo.view()
                lo.flags.writeable = False
            hi = lo
        self.lo = lo
        self.hi = hi
        #: True while every row is error-free; multiplying two inexact
        #: columns is the destructive-distributivity case of §IV-G.
        self.refinable = refinable

    # ------------------------------------------------------------------
    @classmethod
    def exact(cls, values: np.ndarray) -> "IntervalColumn":
        return cls(values, values, refinable=True)

    @classmethod
    def from_bounds(cls, lo: np.ndarray, hi: np.ndarray) -> "IntervalColumn":
        column = cls(lo, hi, refinable=False)
        column.refinable = column.is_exact
        return column

    # ------------------------------------------------------------------
    def __len__(self) -> int:
        return self.lo.shape[0]

    @property
    def is_exact(self) -> bool:
        return self.hi is self.lo

    @property
    def max_error(self) -> int:
        if len(self) == 0 or self.is_exact:
            return 0
        return int((self.hi - self.lo).max())

    def take(self, positions: np.ndarray) -> "IntervalColumn":
        """Row subset by integer positions or a boolean keep-mask."""
        lo = self.lo[positions]
        hi = lo if self.is_exact else self.hi[positions]
        return IntervalColumn(lo, hi, refinable=self.refinable)

    # ------------------------------------------------------------------
    # Arithmetic (paper §IV-B: add/sub/mul/div, sqrt/power)
    #
    # Exact operands take a one-array path; its result is byte-identical
    # to the general formula, whose corners then all coincide (int64
    # wrap-around included).
    # ------------------------------------------------------------------
    def add(self, other: "IntervalColumn") -> "IntervalColumn":
        refinable = self.refinable and other.refinable
        if self.is_exact and other.is_exact:
            return _exact(self.lo + other.lo, refinable)
        return IntervalColumn(self.lo + other.lo, self.hi + other.hi, refinable=refinable)

    def sub(self, other: "IntervalColumn") -> "IntervalColumn":
        refinable = self.refinable and other.refinable
        if self.is_exact and other.is_exact:
            return _exact(self.lo - other.lo, refinable)
        return IntervalColumn(self.lo - other.hi, self.hi - other.lo, refinable=refinable)

    def neg(self) -> "IntervalColumn":
        if self.is_exact:
            return _exact(-self.lo, self.refinable)
        return IntervalColumn(-self.hi, -self.lo, refinable=self.refinable)

    def mul(self, other: "IntervalColumn") -> "IntervalColumn":
        """Interval product: min/max over the four corner products.

        When either side carries error, the result is *not* refinable from
        device-side data — the cross terms ``a_ap·b_re`` etc. need both
        operands on one device (destructive distributivity, §IV-G).  Two
        exact operands need a single product.
        """
        if self.is_exact and other.is_exact:
            return _exact(self.lo * other.lo, self.refinable and other.refinable)
        p1 = self.lo * other.lo
        p2 = self.lo * other.hi
        p3 = self.hi * other.lo
        p4 = self.hi * other.hi
        lo = np.minimum(np.minimum(p1, p2), np.minimum(p3, p4))
        hi = np.maximum(np.maximum(p1, p2), np.maximum(p3, p4))
        return IntervalColumn(lo, hi, refinable=False)

    def floordiv(self, other: "IntervalColumn") -> "IntervalColumn":
        """Conservative integer division; divisor intervals must exclude 0."""
        if bool(((other.lo <= 0) & (other.hi >= 0)).any()):
            raise ExecutionError("division by an interval containing zero")
        corners = [
            self.lo // other.lo, self.lo // other.hi,
            self.hi // other.lo, self.hi // other.hi,
        ]
        lo = np.minimum.reduce(corners)
        hi = np.maximum.reduce(corners)
        exact_inputs = self.is_exact and other.is_exact
        return IntervalColumn(lo, hi, refinable=exact_inputs)

    def sqrt_floor(self) -> "IntervalColumn":
        """Integer square root bounds (monotone, so endpoints suffice)."""
        if bool((self.lo < 0).any()):
            raise ExecutionError("sqrt of an interval below zero")
        lo = np.floor(np.sqrt(self.lo.astype(np.float64))).astype(np.int64)
        hi = np.floor(np.sqrt(self.hi.astype(np.float64))).astype(np.int64) + 1
        return IntervalColumn(lo, hi, refinable=self.is_exact)

    def power(self, exponent: int) -> "IntervalColumn":
        """Integer power with a non-negative integer exponent."""
        if exponent < 0:
            raise ExecutionError("negative exponents are not supported")
        lo_p = self.lo.astype(object) ** exponent
        hi_p = self.hi.astype(object) ** exponent
        if exponent % 2 == 0:
            # even powers are not monotone across zero
            crosses = (self.lo < 0) & (self.hi > 0)
            lo = np.minimum(lo_p, hi_p)
            lo[crosses] = 0
            hi = np.maximum(lo_p, hi_p)
        else:
            lo, hi = lo_p, hi_p
        return IntervalColumn(
            lo.astype(np.int64), hi.astype(np.int64), refinable=self.is_exact
        )

    def add_scalar(self, value: int) -> "IntervalColumn":
        if self.is_exact:
            return _exact(self.lo + value, self.refinable)
        return IntervalColumn(self.lo + value, self.hi + value, refinable=self.refinable)

    def mul_scalar(self, value: int) -> "IntervalColumn":
        if self.is_exact:
            return _exact(self.lo * value, self.refinable)
        if value >= 0:
            return IntervalColumn(
                self.lo * value, self.hi * value, refinable=self.refinable
            )
        return IntervalColumn(
            self.hi * value, self.lo * value, refinable=self.refinable
        )

    # ------------------------------------------------------------------
    # Aggregate bounds (used by approximate sum/avg/min/max)
    # ------------------------------------------------------------------
    def sum_interval(self) -> Interval:
        if len(self) == 0:
            return Interval(0, 0)
        return Interval(float(self.lo.sum()), float(self.hi.sum()))

    def min_interval(self) -> Interval:
        if len(self) == 0:
            raise ExecutionError("min of an empty column")
        return Interval(float(self.lo.min()), float(self.hi.min()))

    def max_interval(self) -> Interval:
        if len(self) == 0:
            raise ExecutionError("max of an empty column")
        return Interval(float(self.lo.max()), float(self.hi.max()))

    def mean_interval(self) -> Interval:
        if len(self) == 0:
            raise ExecutionError("avg of an empty column")
        return Interval(float(self.lo.mean()), float(self.hi.mean()))

    @property
    def nbytes(self) -> int:
        return self.lo.nbytes + self.hi.nbytes


def _exact(values: np.ndarray, refinable: bool) -> IntervalColumn:
    """An exact column over ``values`` with the given refinability."""
    return IntervalColumn(values, values, refinable=refinable)
