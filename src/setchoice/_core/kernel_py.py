"""Pure-Python utility-matrix kernel.

Works on arbitrary-precision integers, so it has no overflow limit; it is
also the fallback when the compiled kernel is unavailable.  Returns the
utility matrix as integer numerators (one row per individual) plus one
denominator per individual.

``plan`` makes every path choice of this kernel and of the social mean
from sizes known right after ``encode``: the thresholds below are read
there alone, and the loops read its :class:`Plan`.

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
from collections import Counter
from itertools import compress
from operator import mul

from .._record import Record
from ..universe import bit_columns, position_bytes, positions
from .encode import EncodedScenario

MEASURE_CODES = {"cardinal": 0, "normalized": 1, "fuzzy": 2}

# struct codes of the field widths in bits, standard sizes under "<"
_FIELD_CODES = {16: "H", 32: "I", 64: "Q"}

# the most limbs a wide row is summed in; a wider row is summed per offer
_LIMB_PASSES = 3
# A crisp support-size group of more than _COLUMN_ROWS supports over fewer
# than _COLUMN_SIZE objectives is counted through ``bit_columns``; any other
# group by ``packed_counts`` (measured sweep, R = 8..2000, 1..4096 supports)
_COLUMN_ROWS = 64
_COLUMN_SIZE = 64
# ``packed_counts`` folds at most this many bit positions at once, so at most
# 2**16 // 8 supports: a 16-bit count never carries, and the peak stays flat
_FOLD_BITS = 1 << 16


class Plan(Record):
    """The path of each loop over one encoding.  A fuzzy row whose total
    has up to ``packed_bits`` bits is packed in ``width``-bit fields; a
    wider one, up to ``limbed_bits``, is summed in ``limb_bits``-bit limbs
    (64-bit fields); a wider one still, per offer.  A crisp mean group whose
    T_i is in ``column_groups`` is counted by popcounts, any other in folds
    of ``fold_supports`` (below 2**16) supports."""

    width: int
    packed_bits: int
    limb_bits: int
    limbed_bits: int
    column_groups: tuple[int, ...]
    fold_supports: int


def plan(enc: EncodedScenario, measure: str) -> Plan:
    """The :class:`Plan` of ``enc`` under ``measure``; ``cardinal`` counts
    all supports in one crisp group."""
    size = enc.objective_count
    largest = max(enc.totals, default=0).bit_length()
    limb = 64 - size.bit_length()
    if measure == "fuzzy" or size >= _COLUMN_SIZE:
        groups = {}
    elif measure == "cardinal":
        groups = {1: len(enc.support_masks)}
    else:
        groups = Counter(enc.totals)
    return Plan(
        next((w for w in (16, 32) if largest <= w), 64), 64, limb,
        _LIMB_PASSES * limb,
        tuple(sorted(total for total, count in groups.items()
                     if count > _COLUMN_ROWS)),
        _FOLD_BITS // (8 * -(-size // 8)) or 1)


def utility_matrix(enc: EncodedScenario,
                   measure: str) -> tuple[list[list[int]], list[int]]:
    code = MEASURE_CODES[measure]
    if code == 2:
        return _fuzzy_matrix(enc, plan(enc, measure)), list(enc.totals)
    nums: list[list[int]] = []
    dens: list[int] = []
    for support in enc.support_masks:
        nums.append([(support & offer).bit_count()
                     for offer in enc.offer_masks])
        dens.append(1 if code == 0 else support.bit_count())
    return nums, dens


def _fuzzy_matrix(enc: EncodedScenario, chosen: Plan) -> list[list[int]]:
    count = len(enc.offer_masks)
    width, limb = chosen.width, chosen.limb_bits
    cols = bit_columns(enc.offer_masks, enc.objective_count, width)
    size = count * width // 8
    unpack = struct.Struct(f"<{count}{_FIELD_CODES[width]}").unpack
    low = (1 << limb) - 1
    offer_bytes = None
    nums = []
    for mask, weights, total in zip(enc.support_masks, enc.support_weights,
                                    enc.totals):
        bits = total.bit_length()
        if bits <= chosen.packed_bits:
            packed = sum(map(mul, map(cols.__getitem__, positions(mask)),
                             weights))
            nums.append(list(unpack(packed.to_bytes(size, "little"))))
            continue
        if bits > chosen.limbed_bits:
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
