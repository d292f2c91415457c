"""Integer encoding of a scenario for the utility-matrix kernels.

Objective sets become bitmasks over universe positions.  Each individual's
weights are placed as the integers over one scale that ``Individual``
stores, so the kernels work purely on integers and every utility comes back
as an exact numerator/denominator pair; the per-individual scale cancels in
the ratio.  ``int64_safe`` records whether all magnitudes fit the compiled
kernel's fixed-width arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..measures import Environment, Society
from ..universe import Universe

# Leave headroom below 2**63-1 so the compiled kernel can accumulate freely.
INT64_LIMIT = 2 ** 62


@dataclass(frozen=True)
class EncodedScenario:
    objective_count: int
    offer_masks: tuple[int, ...]
    offer_positions: tuple[tuple[int, ...], ...]
    support_masks: tuple[int, ...]
    weights: tuple[tuple[int, ...], ...]
    totals: tuple[int, ...]
    int64_safe: bool

    @property
    def alternative_count(self) -> int:
        return len(self.offer_masks)

    @property
    def individual_count(self) -> int:
        return len(self.support_masks)


def encode(universe: Universe, environment: Environment,
           society: Society) -> EncodedScenario:
    R = universe.size

    offer_masks = []
    offer_positions = []
    for alternative in environment.alternatives:
        positions = tuple(sorted(universe.position(t)
                                 for t in alternative.offers.members))
        mask = 0
        for p in positions:
            mask |= 1 << p
        offer_masks.append(mask)
        offer_positions.append(positions)

    support_masks = []
    weights = []
    totals = []
    for individual in society.individuals:
        row = [0] * R
        mask = 0
        for token, weight in individual._weights.items():
            p = universe.position(token)
            row[p] = weight
            mask |= 1 << p
        support_masks.append(mask)
        weights.append(tuple(row))
        totals.append(sum(row))

    return EncodedScenario(
        objective_count=R,
        offer_masks=tuple(offer_masks),
        offer_positions=tuple(offer_positions),
        support_masks=tuple(support_masks),
        weights=tuple(weights),
        totals=tuple(totals),
        int64_safe=all(total < INT64_LIMIT for total in totals),
    )
