"""Tests for error-bound interval arithmetic — DESIGN.md invariant 4."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.intervals import Interval, IntervalColumn
from repro.errors import ExecutionError


def column(pairs):
    lo = np.array([p[0] for p in pairs], dtype=np.int64)
    hi = np.array([p[1] for p in pairs], dtype=np.int64)
    return IntervalColumn.from_bounds(lo, hi)


class TestInterval:
    def test_basic_properties(self):
        iv = Interval(2.0, 6.0)
        assert iv.width == 4.0
        assert iv.midpoint == 4.0
        assert not iv.is_exact
        assert iv.contains(2.0) and iv.contains(6.0) and not iv.contains(6.1)

    def test_exact_interval(self):
        assert Interval(3.0, 3.0).is_exact

    def test_malformed_rejected(self):
        with pytest.raises(ExecutionError):
            Interval(5.0, 4.0)


class TestIntervalColumnConstruction:
    def test_exact_constructor(self):
        c = IntervalColumn.exact(np.array([1, 2, 3]))
        assert c.is_exact and c.refinable
        assert c.max_error == 0

    def test_from_bounds_detects_exactness(self):
        assert column([(1, 1), (2, 2)]).refinable
        assert not column([(1, 2)]).refinable

    def test_misaligned_rejected(self):
        with pytest.raises(ExecutionError):
            IntervalColumn(np.array([1, 2]), np.array([3]), refinable=False)

    def test_inverted_bounds_rejected(self):
        with pytest.raises(ExecutionError):
            column([(5, 3)])

    def test_take(self):
        c = column([(0, 1), (2, 3), (4, 5)]).take(np.array([2, 0]))
        assert np.array_equal(c.lo, [4, 0])
        assert np.array_equal(c.hi, [5, 1])

    def test_len_and_nbytes(self):
        c = column([(0, 1), (2, 3)])
        assert len(c) == 2
        assert c.nbytes == 32


class TestArithmetic:
    def test_add(self):
        c = column([(1, 2)]).add(column([(10, 20)]))
        assert (c.lo[0], c.hi[0]) == (11, 22)

    def test_sub(self):
        c = column([(1, 2)]).sub(column([(10, 20)]))
        assert (c.lo[0], c.hi[0]) == (-19, -8)

    def test_neg(self):
        c = column([(1, 2)]).neg()
        assert (c.lo[0], c.hi[0]) == (-2, -1)

    def test_mul_mixed_signs(self):
        c = column([(-2, 3)]).mul(column([(-5, 4)]))
        assert (c.lo[0], c.hi[0]) == (-15, 12)

    def test_mul_destroys_refinability(self):
        """§IV-G destructive distributivity: inexact × anything ⇒ not refinable."""
        inexact = column([(1, 2)])
        exact = IntervalColumn.exact(np.array([3]))
        assert not inexact.mul(exact).refinable
        assert not inexact.mul(inexact).refinable
        assert exact.mul(exact).refinable

    def test_add_refinability(self):
        """Exact + exact stays refinable; inexact inputs are conservatively
        marked non-refinable (our engine recomputes on the host)."""
        assert column([(1, 2)]).add(column([(3, 9)])).refinable is False
        a = IntervalColumn.exact(np.array([1]))
        assert a.add(a).refinable

    def test_floordiv(self):
        c = column([(10, 20)]).floordiv(column([(2, 4)]))
        assert (c.lo[0], c.hi[0]) == (2, 10)

    def test_floordiv_zero_rejected(self):
        with pytest.raises(ExecutionError):
            column([(1, 2)]).floordiv(column([(-1, 1)]))

    def test_sqrt_floor_brackets(self):
        c = column([(16, 26)]).sqrt_floor()
        assert c.lo[0] <= 4 and c.hi[0] >= 5

    def test_sqrt_negative_rejected(self):
        with pytest.raises(ExecutionError):
            column([(-4, 4)]).sqrt_floor()

    def test_power_odd(self):
        c = column([(-2, 3)]).power(3)
        assert (c.lo[0], c.hi[0]) == (-8, 27)

    def test_power_even_crossing_zero(self):
        c = column([(-2, 3)]).power(2)
        assert (c.lo[0], c.hi[0]) == (0, 9)

    def test_power_negative_exponent_rejected(self):
        with pytest.raises(ExecutionError):
            column([(1, 2)]).power(-1)

    def test_scalar_ops(self):
        c = column([(1, 2)])
        assert (c.add_scalar(5).lo[0], c.add_scalar(5).hi[0]) == (6, 7)
        assert (c.mul_scalar(3).lo[0], c.mul_scalar(3).hi[0]) == (3, 6)
        neg = c.mul_scalar(-3)
        assert (neg.lo[0], neg.hi[0]) == (-6, -3)


class TestAggregateBounds:
    def test_sum_interval(self):
        iv = column([(1, 2), (10, 20)]).sum_interval()
        assert (iv.lo, iv.hi) == (11.0, 22.0)

    def test_sum_empty(self):
        iv = column([]).sum_interval()
        assert iv.is_exact and iv.lo == 0

    def test_min_max_mean(self):
        c = column([(1, 4), (2, 3)])
        assert (c.min_interval().lo, c.min_interval().hi) == (1.0, 3.0)
        assert (c.max_interval().lo, c.max_interval().hi) == (2.0, 4.0)
        assert (c.mean_interval().lo, c.mean_interval().hi) == (1.5, 3.5)

    def test_empty_min_rejected(self):
        with pytest.raises(ExecutionError):
            column([]).min_interval()


# ----------------------------------------------------------------------
# Property: soundness — op(concrete) ∈ op(intervals)
# ----------------------------------------------------------------------
_bound_pairs = st.tuples(st.integers(-200, 200), st.integers(0, 50)).map(
    lambda t: (t[0], t[0] + t[1])
)


@settings(max_examples=120, deadline=None)
@given(
    a=_bound_pairs, b=_bound_pairs,
    fa=st.floats(0, 1), fb=st.floats(0, 1),
    op=st.sampled_from(["add", "sub", "mul"]),
)
def test_property_arithmetic_soundness(a, b, fa, fb, op):
    ca, cb = column([a]), column([b])
    va = round(a[0] + fa * (a[1] - a[0]))
    vb = round(b[0] + fb * (b[1] - b[0]))
    out = getattr(ca, op)(cb)
    concrete = {"add": va + vb, "sub": va - vb, "mul": va * vb}[op]
    assert out.lo[0] <= concrete <= out.hi[0]


@settings(max_examples=80, deadline=None)
@given(a=_bound_pairs, d=st.integers(1, 40), fa=st.floats(0, 1))
def test_property_division_soundness(a, d, fa):
    ca = column([a])
    cd = IntervalColumn.exact(np.array([d]))
    va = round(a[0] + fa * (a[1] - a[0]))
    out = ca.floordiv(cd)
    assert out.lo[0] <= va // d <= out.hi[0]


@settings(max_examples=60, deadline=None)
@given(
    pairs=st.lists(_bound_pairs, min_size=1, max_size=30),
    seed=st.integers(0, 2**31 - 1),
)
def test_property_sum_bounds_contain_concrete_sum(pairs, seed):
    rng = np.random.default_rng(seed)
    c = column(pairs)
    concrete = np.array(
        [rng.integers(lo, hi + 1) for lo, hi in zip(c.lo, c.hi)], dtype=np.int64
    )
    iv = c.sum_interval()
    assert iv.lo <= float(concrete.sum()) <= iv.hi


# ----------------------------------------------------------------------
# Exactness as array identity
# ----------------------------------------------------------------------
class TestExactRepresentation:
    def test_exact_shares_one_read_only_array(self):
        v = np.array([1, 2, 3], dtype=np.int64)
        c = IntervalColumn.exact(v)
        assert c.hi is c.lo and c.is_exact
        with pytest.raises(ValueError):
            c.lo[0] = 7
        with pytest.raises(ValueError):
            c.hi += 1
        v[0] = 9  # the caller's array stays writable
        assert v.flags.writeable

    def test_equal_bounds_collapse(self):
        v = np.array([4, 5], dtype=np.int64)
        c = IntervalColumn.from_bounds(v, v.copy())
        assert c.hi is c.lo and c.refinable
        d = IntervalColumn(v, v.copy(), refinable=False)
        assert d.is_exact and not d.refinable


# ----------------------------------------------------------------------
# Property: every op equals the four-corner reference byte for byte
# ----------------------------------------------------------------------
class _Ref:
    """The two-array, four-corner formulation every op must reproduce:
    exactness is recomputed from the data, never carried."""

    def __init__(self, lo, hi, refinable):
        self.lo = np.asarray(lo, dtype=np.int64)
        self.hi = np.asarray(hi, dtype=np.int64)
        if bool((self.lo > self.hi).any()):
            raise ExecutionError("interval with lo > hi")
        self.refinable = refinable

    @classmethod
    def of(cls, col):
        return cls(col.lo.copy(), col.hi.copy(), col.refinable)

    @property
    def is_exact(self):
        return bool(np.array_equal(self.lo, self.hi))

    def take(self, pos):
        return _Ref(self.lo[pos], self.hi[pos], self.refinable)

    def add(self, o):
        return _Ref(self.lo + o.lo, self.hi + o.hi, self.refinable and o.refinable)

    def sub(self, o):
        return _Ref(self.lo - o.hi, self.hi - o.lo, self.refinable and o.refinable)

    def neg(self):
        return _Ref(-self.hi, -self.lo, self.refinable)

    def mul(self, o):
        p = [self.lo * o.lo, self.lo * o.hi, self.hi * o.lo, self.hi * o.hi]
        lo = np.minimum(np.minimum(p[0], p[1]), np.minimum(p[2], p[3]))
        hi = np.maximum(np.maximum(p[0], p[1]), np.maximum(p[2], p[3]))
        exact_inputs = self.is_exact and o.is_exact
        return _Ref(lo, hi, exact_inputs and self.refinable and o.refinable)

    def floordiv(self, o):
        p = [self.lo // o.lo, self.lo // o.hi, self.hi // o.lo, self.hi // o.hi]
        return _Ref(np.minimum.reduce(p), np.maximum.reduce(p),
                    self.is_exact and o.is_exact)

    def add_scalar(self, v):
        return _Ref(self.lo + v, self.hi + v, self.refinable)

    def mul_scalar(self, v):
        if v >= 0:
            return _Ref(self.lo * v, self.hi * v, self.refinable)
        return _Ref(self.hi * v, self.lo * v, self.refinable)


def _run(fn):
    try:
        return fn()
    except ExecutionError as exc:
        return exc


def _assert_same(got, want):
    if isinstance(want, ExecutionError):
        assert isinstance(got, ExecutionError) and str(got) == str(want)
        return
    assert got.lo.dtype == got.hi.dtype == np.int64
    assert got.lo.tobytes() == want.lo.tobytes()
    assert got.hi.tobytes() == want.hi.tobytes()
    assert got.is_exact == want.is_exact
    assert (got.hi is got.lo) == want.is_exact
    assert got.refinable == want.refinable


_SMALL = st.integers(-1000, 1000)
#: Wide enough that products wrap int64.
_WIDE = st.integers(-(2**62), 2**62)


@st.composite
def _columns(draw, n, kind=None):
    """An interval column of ``n`` rows: exact (shared or collapsed from two
    equal arrays), or inexact with some zero-width rows."""
    kind = kind or draw(st.sampled_from(["exact", "collapsed", "inexact"]))
    values = st.one_of(_SMALL, _WIDE) if draw(st.booleans()) else _SMALL
    lo = np.array(draw(st.lists(values, min_size=n, max_size=n)), dtype=np.int64)
    if kind == "exact":
        return IntervalColumn.exact(lo)
    if kind == "collapsed":
        return IntervalColumn.from_bounds(lo, lo.copy())
    widths = draw(st.lists(st.sampled_from([0, 0, 1, 7, 1000]),
                           min_size=n, max_size=n))
    return IntervalColumn.from_bounds(lo, lo + np.array(widths, dtype=np.int64))


_KINDS = st.sampled_from(["exact", "collapsed", "inexact"])


@settings(max_examples=300, deadline=None)
@given(data=st.data(), n=st.integers(0, 12), ka=_KINDS, kb=_KINDS,
       op=st.sampled_from(["add", "sub", "mul", "floordiv"]))
def test_property_binary_ops_match_four_corner_reference(data, n, ka, kb, op):
    a = data.draw(_columns(n, ka))
    b = data.draw(_columns(n, kb))
    if op == "floordiv":
        nonzero = (b.lo > 0) | (b.hi < 0)
        a, b = a.take(nonzero), b.take(nonzero)
    ra, rb = _Ref.of(a), _Ref.of(b)
    _assert_same(_run(lambda: getattr(a, op)(b)),
                 _run(lambda: getattr(ra, op)(rb)))


@settings(max_examples=200, deadline=None)
@given(data=st.data(), n=st.integers(0, 12), kind=_KINDS,
       value=st.one_of(_SMALL, _WIDE),
       op=st.sampled_from(["neg", "add_scalar", "mul_scalar", "take_mask",
                           "take_positions"]))
def test_property_unary_ops_match_four_corner_reference(data, n, kind, value, op):
    a = data.draw(_columns(n, kind))
    ra = _Ref.of(a)
    if op == "neg":
        got, want = _run(a.neg), _run(ra.neg)
    elif op in ("add_scalar", "mul_scalar"):
        got = _run(lambda: getattr(a, op)(value))
        want = _run(lambda: getattr(ra, op)(value))
    else:
        if op == "take_mask":
            pos = np.array(data.draw(st.lists(st.booleans(), min_size=n,
                                              max_size=n)), dtype=bool)
        else:
            pos = np.array(data.draw(st.lists(st.integers(0, max(n - 1, 0)),
                                              max_size=n if n else 0)),
                           dtype=np.int64)
        got, want = a.take(pos), ra.take(pos)
    _assert_same(got, want)


@settings(max_examples=100, deadline=None)
@given(data=st.data(), n=st.integers(1, 8),
       ops=st.lists(st.sampled_from(["add", "sub", "mul", "neg", "add_scalar",
                                     "mul_scalar"]), min_size=1, max_size=6))
def test_property_op_chains_match_four_corner_reference(data, n, ops):
    """Results of results (exactness carried, not recomputed) stay equal."""
    a = data.draw(_columns(n))
    ra = _Ref.of(a)
    for op in ops:
        if op == "neg":
            got, want = _run(a.neg), _run(ra.neg)
        elif op in ("add_scalar", "mul_scalar"):
            v = data.draw(_SMALL)
            got = _run(lambda: getattr(a, op)(v))
            want = _run(lambda: getattr(ra, op)(v))
        else:
            b = data.draw(_columns(n))
            rb = _Ref.of(b)
            got = _run(lambda: getattr(a, op)(b))
            want = _run(lambda: getattr(ra, op)(rb))
        _assert_same(got, want)
        if isinstance(got, ExecutionError):
            return
        a, ra = got, want
