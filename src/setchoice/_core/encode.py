"""Integer encoding of a scenario for the utility-matrix kernels.

Objective sets are already bitmasks over universe positions, and each
individual already holds its weights as integers over one scale, one per
support bit in position order; ``encode`` gathers the masks and places each
weight at its position in a dense row.  So the kernels work purely on
integers and every utility comes back as an exact numerator/denominator
pair; the per-individual scale cancels in the ratio.  ``int64_safe``
records whether all magnitudes fit the compiled kernel's fixed-width
arithmetic.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..measures import Environment, Society
from ..universe import Universe, positions

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
    offer_masks = tuple(alternative.offers.mask
                        for alternative in environment.alternatives)

    support_masks = tuple(individual._mask for individual in society.individuals)
    weights = []
    totals = []
    for individual in society.individuals:
        row = [0] * R
        for p, weight in zip(positions(individual._mask), individual._weights):
            row[p] = weight
        weights.append(tuple(row))
        totals.append(sum(individual._weights))

    return EncodedScenario(
        objective_count=R,
        offer_masks=offer_masks,
        offer_positions=tuple(tuple(positions(mask)) for mask in offer_masks),
        support_masks=support_masks,
        weights=tuple(weights),
        totals=tuple(totals),
        int64_safe=all(total < INT64_LIMIT for total in totals),
    )
