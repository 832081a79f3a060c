"""Small shared helpers: bit math, formatting, deterministic RNG."""

from __future__ import annotations

import numpy as np

from .errors import BitWidthError

#: Largest code width we pack; matches a machine word.
MAX_BITS = 64


def bits_for_range(span: int) -> int:
    """Number of bits needed to represent values ``0 .. span`` inclusive.

    >>> bits_for_range(0)
    1
    >>> bits_for_range(1)
    1
    >>> bits_for_range(255)
    8
    >>> bits_for_range(256)
    9
    """
    if span < 0:
        raise BitWidthError(f"span must be non-negative, got {span}")
    return max(1, int(span).bit_length())


def check_bits(bits: int, *, lo: int = 1, hi: int = MAX_BITS) -> int:
    """Validate a bit width, returning it unchanged."""
    if not isinstance(bits, (int, np.integer)):
        raise BitWidthError(f"bit width must be an int, got {type(bits).__name__}")
    if not lo <= bits <= hi:
        raise BitWidthError(f"bit width must be in [{lo}, {hi}], got {bits}")
    return int(bits)


def mask(bits: int) -> int:
    """All-ones mask of ``bits`` bits (``mask(3) == 0b111``)."""
    check_bits(bits, lo=0)
    return (1 << bits) - 1


def format_bytes(n: int) -> str:
    """Human-readable byte count (``format_bytes(2048) == '2.0 KiB'``)."""
    value = float(n)
    for unit in ("B", "KiB", "MiB", "GiB", "TiB"):
        if abs(value) < 1024.0 or unit == "TiB":
            if unit == "B":
                return f"{int(value)} B"
            return f"{value:.1f} {unit}"
        value /= 1024.0
    raise AssertionError("unreachable")


def format_seconds(s: float) -> str:
    """Human-readable duration with ms/µs granularity."""
    if s >= 1.0:
        return f"{s:.3f} s"
    if s >= 1e-3:
        return f"{s * 1e3:.2f} ms"
    return f"{s * 1e6:.1f} µs"


def rng(seed: int | None) -> np.random.Generator:
    """Deterministic NumPy generator; ``None`` means nondeterministic."""
    return np.random.default_rng(seed)


def as_index_array(values: np.ndarray | list[int]) -> np.ndarray:
    """Coerce to a contiguous int64 index array (oids)."""
    arr = np.ascontiguousarray(values, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"index array must be 1-D, got shape {arr.shape}")
    return arr


#: Widest key range, as a multiple of the row count, that :func:`dense_ids`
#: numbers by counting; wider (or negative) keys are sorted instead.
DENSE_RANGE_FACTOR = 2


def dense_ids(keys: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Number 1-D integer keys densely: ``(uniques, ids)`` with the same
    values and dtypes as ``np.unique(keys, return_inverse=True)`` on int64
    keys.

    ``uniques`` are the distinct keys in ascending order and ``ids[i]`` is
    the rank of ``keys[i]`` among them.  Non-negative keys whose range is
    at most :data:`DENSE_RANGE_FACTOR` times the row count are ranked by a
    presence count and its running sum, O(n + range); any other input goes
    through the sort.
    """
    keys = np.asarray(keys, dtype=np.int64)
    if keys.size:
        lo, hi = int(keys.min()), int(keys.max())
        if lo >= 0 and hi - lo < DENSE_RANGE_FACTOR * keys.size:
            offsets = keys - lo if lo else keys
            present = np.bincount(offsets, minlength=hi - lo + 1) > 0
            rank = np.cumsum(present) - 1
            return np.flatnonzero(present) + lo, rank[offsets]
    return np.unique(keys, return_inverse=True)
