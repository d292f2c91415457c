"""Kernel backend selection.

The compiled kernel is preferred when it imported successfully and the
encoding fits 64-bit arithmetic; otherwise the arbitrary-precision
pure-Python kernel runs.  Both return identical integer
numerator/denominator matrices.
"""

from __future__ import annotations

from . import kernel_py
from .encode import EncodedScenario, encode
from .kernel_py import plan

try:
    from . import _fast
except ImportError:  # extension not built
    _fast = None

HAVE_FAST = _fast is not None


def utility_matrix(enc: EncodedScenario,
                   measure: str) -> tuple[list[list[int]], list[int]]:
    if HAVE_FAST and enc.int64_safe:
        return _fast_matrix(enc, measure)
    return kernel_py.utility_matrix(enc, measure)


def _mask_words(masks, word_count):
    import numpy as np

    out = np.zeros((len(masks), word_count), dtype=np.uint64)
    mask_64 = (1 << 64) - 1
    for i, mask in enumerate(masks):
        w = 0
        while mask:
            out[i, w] = mask & mask_64
            mask >>= 64
            w += 1
    return out


def _fast_matrix(enc: EncodedScenario, measure: str):
    import numpy as np

    word_count = max(1, (enc.objective_count + 63) // 64)
    offers = _mask_words(enc.offer_masks, word_count)
    supports = _mask_words(enc.support_masks, word_count)
    # weights are padded to whole words so bit positions index directly
    weights = np.zeros((len(supports), word_count * 64), dtype=np.int64)
    if enc.objective_count:
        weights[:, :enc.objective_count] = np.asarray(enc.weights, dtype=np.int64)
    totals = np.asarray(enc.totals, dtype=np.int64)
    num = np.empty((len(supports), len(offers)), dtype=np.int64)
    den = np.empty(len(supports), dtype=np.int64)
    _fast.utility_matrix(offers, supports, weights, totals,
                         kernel_py.MEASURE_CODES[measure], num, den)
    return num.tolist(), den.tolist()
