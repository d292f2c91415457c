"""Pure-Python utility-matrix kernel.

Works on arbitrary-precision integers, so it has no overflow limit; it is
also the fallback when the compiled kernel is unavailable.  Returns the
utility matrix as integer numerators (one row per individual) plus one
denominator per individual.

``cardinal`` and ``normalized`` count the bits an individual's support
mask shares with each offer mask.  ``fuzzy`` packs a row into one integer
(Kronecker substitution): ``cols[p]``, column p of the offer masks with a
field per alternative, so ``sum(w * cols[p])`` over a support holds, in
field m, the weight on alternative m's offer.  Fields are 16, 32 or 64
bits, for the largest row total, which no cell exceeds.  A row over 64
bits is summed in limbs of ``64 - R.bit_length()`` bits, R of which stay
below 2**64, and recombined by shifts, when it needs at most
``_LIMB_PASSES`` limbs.  A wider row, such as the social mean's
pseudo-individual row, is summed per offer instead: its weights spread
over the R positions, and each offer's cell is one ``sum(compress(...))``
of them under the offer's 0/1 position bytes, built once per call.
"""

from __future__ import annotations

import struct
from itertools import compress
from operator import mul

from ..universe import bit_columns, position_bytes, positions
from .encode import EncodedScenario

MEASURE_CODES = {"cardinal": 0, "normalized": 1, "fuzzy": 2}

# struct codes of the field widths in bits, standard sizes under "<"
_FIELD_CODES = {16: "H", 32: "I", 64: "Q"}

# the most limbs a wide row is summed in; a wider row is summed per offer
_LIMB_PASSES = 3


def utility_matrix(enc: EncodedScenario,
                   measure: str) -> tuple[list[list[int]], list[int]]:
    code = MEASURE_CODES[measure]
    if code == 2:
        return _fuzzy_matrix(enc), list(enc.totals)
    nums: list[list[int]] = []
    dens: list[int] = []
    for support in enc.support_masks:
        nums.append([(support & offer).bit_count()
                     for offer in enc.offer_masks])
        dens.append(1 if code == 0 else support.bit_count())
    return nums, dens


def _field_width(largest: int) -> int:
    """Bits per packed field for cells up to ``largest``: 16, 32, else 64."""
    return next((w for w in (16, 32) if largest.bit_length() <= w), 64)


def _fuzzy_matrix(enc: EncodedScenario) -> list[list[int]]:
    count = enc.alternative_count
    width = _field_width(max(enc.totals, default=0))
    cols = bit_columns(enc.offer_masks, enc.objective_count, width)
    size = count * width // 8
    unpack = struct.Struct(f"<{count}{_FIELD_CODES[width]}").unpack
    limb = 64 - enc.objective_count.bit_length()
    low = (1 << limb) - 1
    widest_limbed = _LIMB_PASSES * limb
    offer_bytes = None
    nums = []
    for mask, weights, total in zip(enc.support_masks, enc.support_weights,
                                    enc.totals):
        bits = total.bit_length()
        if bits <= 64:
            packed = sum(map(mul, map(cols.__getitem__, positions(mask)),
                             weights))
            nums.append(list(unpack(packed.to_bytes(size, "little"))))
            continue
        if bits > widest_limbed:
            if offer_bytes is None:
                offer_bytes = list(map(position_bytes, enc.offer_masks))
            dense = [0] * enc.objective_count
            for p, weight in zip(positions(mask), weights):
                dense[p] = weight
            nums.append([sum(compress(dense, offer)) for offer in offer_bytes])
            continue
        support = list(map(cols.__getitem__, positions(mask)))
        row = [0] * count
        for shift in reversed(range(0, bits, limb)):
            packed = sum(map(mul, support,
                             [(weight >> shift) & low for weight in weights]))
            row = [(num << limb) + part for num, part
                   in zip(row, unpack(packed.to_bytes(size, "little")))]
        nums.append(row)
    return nums
