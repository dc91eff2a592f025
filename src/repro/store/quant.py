"""Quantized storage formats for the embedding store.

Stored WpC embeddings dominate the store's footprint (``(tokens, dim)``
float32 per record-slot), so the store can persist them in three formats:

``float32``
    Exact.  Dequantization is the identity, which is what gives the store's
    float32 mode its bitwise-parity guarantee against the live encoder.
``float16``
    Half the bytes; values round-trip through IEEE half precision.  The
    scale factor is 1.0 — the dtype itself is the compression.
``int8``
    Symmetric linear quantization: one float32 *scale* per record-slot
    (``max |x| / 127``), values rounded to ``[-127, 127]``.  Scales are
    persisted in the shard manifest alongside the row offsets, never
    recomputed at read time.

Quantization is only applied to the *stored* artifact; the online GAT head
always computes in float32.  :func:`quantized_matmul` fuses the
dequantization scale into a dense projection (``(q @ w) · s`` instead of
``(q · s) @ w``) so consumers that start with a matmul never materialize
the dequantized activations; the store's build-time scale audit compares
it with dequantize-then-matmul for every shard.

Accuracy is policed, not assumed: the quantized serving mode is gated by a
ΔF1 ≤ 0.5 parity check on the Table 4 quick subset (see
``tests/test_store.py::test_store_gates_on_quick_jobs``, slow tier).
"""

from __future__ import annotations

from typing import Tuple

import numpy as np

#: Storage dtypes the embedding store accepts.
STORE_DTYPES = ("float32", "float16", "int8")

#: Largest magnitude representable by the int8 grid (symmetric, no -128).
_INT8_PEAK = 127.0


def quantize(arr: np.ndarray, dtype: str) -> Tuple[np.ndarray, float]:
    """Quantize a float array for storage; returns ``(stored, scale)``.

    ``dequantize(stored, scale)`` recovers float32 values — exactly for
    ``float32``, to half precision for ``float16``, and to one part in 127
    of the per-array peak for ``int8``.
    """
    arr = np.ascontiguousarray(arr, dtype=np.float32)
    if dtype == "float32":
        return arr, 1.0
    if dtype == "float16":
        return arr.astype(np.float16), 1.0
    if dtype == "int8":
        peak = float(np.max(np.abs(arr))) if arr.size else 0.0
        scale = peak / _INT8_PEAK if peak > 0.0 else 1.0
        q = np.clip(np.rint(arr / scale), -_INT8_PEAK, _INT8_PEAK)
        return q.astype(np.int8), scale
    raise ValueError(f"unknown store dtype {dtype!r}; choose from {STORE_DTYPES}")


def dequantize(stored: np.ndarray, scale: float) -> np.ndarray:
    """Recover float32 values from a stored array.

    For float32 input with unit scale this returns the array unchanged
    (same object — the bitwise-parity fast path); other dtypes are widened
    and rescaled into a fresh array.
    """
    if stored.dtype == np.float32 and scale == 1.0:
        return stored
    out = stored.astype(np.float32)
    if scale != 1.0:
        out *= np.float32(scale)
    return out


def quantized_matmul(stored: np.ndarray, scale,
                     weight: np.ndarray) -> np.ndarray:
    """Dense projection of quantized rows with the scale fused in.

    Computes ``dequantize(stored, scale) @ weight`` as ``(stored @ weight)
    · scale``: the integer (or half-precision) rows feed the matmul
    directly and the per-record scale is applied once to the small output,
    so the full-width dequantized activations are never materialized.
    ``scale`` is one factor, or a ``(rows, 1)`` column giving each row its
    own (the store's scale audit projects a whole shard at once).
    Mathematically identical to dequantize-then-matmul; float rounding may
    differ in the last bits, which is why the quantized serving mode is
    accuracy-gated rather than parity-gated.
    """
    out = stored.astype(np.float32) @ np.ascontiguousarray(weight, dtype=np.float32)
    if np.any(scale != 1.0):
        out *= np.asarray(scale, dtype=np.float32)
    return out
