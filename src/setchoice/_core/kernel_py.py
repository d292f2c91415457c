"""Pure-Python utility-matrix kernel.

Works on arbitrary-precision integers, so it has no overflow limit; it is
also the fallback when the compiled kernel is unavailable.  Returns the
utility matrix as integer numerators (one row per individual) plus one
denominator per individual.

``cardinal`` and ``normalized`` count the bits an individual's support
mask shares with each offer mask.  ``fuzzy`` packs a whole row into one
integer (Kronecker substitution): objective p becomes ``cols[p]``, an
integer with a 1 in the field of every alternative that offers p, so
``sum(w * cols[p])`` over an individual's support holds, in field m, its
weight on alternative m's offer.  A field is wide enough for the largest
row total and every cell is at most its row's total, so no field carries
into the next; the fields are read back as little-endian bytes.
"""

from __future__ import annotations

import struct
from operator import mul

from ..universe import positions
from .encode import EncodedScenario

MEASURE_CODES = {"cardinal": 0, "normalized": 1, "fuzzy": 2}

# struct codes of the field widths in bits that unpack natively; "<" gives
# them these standard sizes on every platform
_FIELD_CODES = {16: "H", 32: "I", 64: "Q"}


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
    """Bits per packed field for cells up to ``largest``: 16, 32 or 64, else
    the next whole number of bytes."""
    bits = largest.bit_length()
    for width in _FIELD_CODES:
        if bits <= width:
            return width
    return -(-bits // 8) * 8


def _fuzzy_matrix(enc: EncodedScenario) -> list[list[int]]:
    count = enc.alternative_count
    size = _field_width(max(enc.totals, default=0)) // 8
    fields = [bytearray(count * size) for _ in range(enc.objective_count)]
    for m, offer in enumerate(enc.offer_masks):
        for p in positions(offer):
            fields[p][m * size] = 1
    cols = [int.from_bytes(field, "little") for field in fields]
    if size * 8 in _FIELD_CODES:
        unpack = struct.Struct(f"<{count}{_FIELD_CODES[size * 8]}").unpack
    else:
        def unpack(raw):
            return [int.from_bytes(raw[i:i + size], "little")
                    for i in range(0, len(raw), size)]
    nums = []
    for mask, weights in zip(enc.support_masks, enc.support_weights):
        packed = sum(map(mul, map(cols.__getitem__, positions(mask)), weights))
        nums.append(list(unpack(packed.to_bytes(count * size, "little"))))
    return nums
