"""Tests for the shared helpers in repro.util."""

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.errors import BitWidthError
from repro.util import (
    DENSE_RANGE_FACTOR,
    as_index_array,
    bits_for_range,
    check_bits,
    dense_ids,
    format_bytes,
    format_seconds,
    mask,
    rng,
)


class TestBitsForRange:
    def test_boundaries(self):
        assert bits_for_range(0) == 1
        assert bits_for_range(1) == 1
        assert bits_for_range(2) == 2
        assert bits_for_range(255) == 8
        assert bits_for_range(256) == 9
        assert bits_for_range(2**32 - 1) == 32

    def test_negative_rejected(self):
        with pytest.raises(BitWidthError):
            bits_for_range(-1)


class TestCheckBitsAndMask:
    def test_valid_range(self):
        assert check_bits(1) == 1
        assert check_bits(64) == 64
        assert check_bits(0, lo=0) == 0

    def test_invalid(self):
        with pytest.raises(BitWidthError):
            check_bits(0)
        with pytest.raises(BitWidthError):
            check_bits(65)
        with pytest.raises(BitWidthError):
            check_bits(3.5)  # type: ignore[arg-type]

    def test_mask_values(self):
        assert mask(0) == 0
        assert mask(3) == 0b111
        assert mask(64) == 2**64 - 1


class TestFormatting:
    def test_format_bytes(self):
        assert format_bytes(0) == "0 B"
        assert format_bytes(1023) == "1023 B"
        assert format_bytes(2048) == "2.0 KiB"
        assert format_bytes(3 * 1024**3) == "3.0 GiB"
        assert "TiB" in format_bytes(5 * 1024**4)

    def test_format_seconds(self):
        assert format_seconds(2.5) == "2.500 s"
        assert format_seconds(0.0042) == "4.20 ms"
        assert format_seconds(3.3e-6) == "3.3 µs"


class TestArrays:
    def test_rng_determinism(self):
        assert rng(7).integers(0, 100, 5).tolist() == rng(7).integers(0, 100, 5).tolist()

    def test_as_index_array_coerces(self):
        out = as_index_array([3, 1, 2])
        assert out.dtype == np.int64
        assert out.tolist() == [3, 1, 2]

    def test_as_index_array_rejects_2d(self):
        with pytest.raises(ValueError):
            as_index_array(np.zeros((2, 2)))


def _assert_like_unique(keys):
    keys = np.asarray(keys, dtype=np.int64)
    uniques, ids = dense_ids(keys)
    want_uniques, want_ids = np.unique(keys, return_inverse=True)
    assert uniques.dtype == want_uniques.dtype and ids.dtype == want_ids.dtype
    assert np.array_equal(uniques, want_uniques)
    assert ids.shape == keys.shape and np.array_equal(ids, want_ids)


class TestDenseIds:
    """``dense_ids`` is ``np.unique(keys, return_inverse=True)``."""

    @pytest.mark.parametrize("keys", [
        [], [5], [0], [3, 3, 3, 3], [7, 0, 7, 2, 0],
        [1, 10**9, 5, 10**9],  # sparse
        [2**62, 2**62 - 1, 2**62, 0],  # near the composite-key limit
        [-3, 4, -3, 0],  # negative
        [-(2**62), 2**62],
    ])
    def test_cases(self, keys):
        _assert_like_unique(keys)

    @pytest.mark.parametrize("extra", [-1, 0, 1])
    def test_around_the_counting_threshold(self, extra, monkeypatch):
        n = 50
        span = DENSE_RANGE_FACTOR * n + extra  # keys cover [100, 100 + span)
        keys = 100 + np.linspace(0, span - 1, n).astype(np.int64)
        _assert_like_unique(keys)
        sorts = []
        unique = np.unique
        monkeypatch.setattr(
            np, "unique", lambda *a, **k: sorts.append(1) or unique(*a, **k))
        dense_ids(keys)
        assert len(sorts) == (extra > 0)  # only the wider range is sorted


@settings(max_examples=200, deadline=None)
@given(keys=st.one_of(
    st.lists(st.integers(0, 40), max_size=60),
    st.lists(st.integers(-(2**62), 2**62), max_size=20),
    st.lists(st.integers(2**62 - 30, 2**62), max_size=30),
))
def test_property_dense_ids_equals_unique(keys):
    _assert_like_unique(keys)
