"""Integer encoding of a scenario for the utility-matrix kernels.

Objective sets are already bitmasks over universe positions, and each
individual already holds its weights as integers over one scale, one per
support bit in position order; ``encode`` only gathers them, and the
pure kernel reads them as they are.  So the kernels work purely on
integers and every utility comes back as an exact numerator/denominator
pair; the per-individual scale cancels in the ratio.  The dense weight
rows (``weights``, built on first read) and ``int64_safe``, whether all
magnitudes fit fixed-width arithmetic, serve the compiled kernel alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

from ..measures import Environment, Society
from ..universe import Universe, positions

# Leave headroom below 2**63-1 so the compiled kernel can accumulate freely.
INT64_LIMIT = 2 ** 62


@dataclass(frozen=True)
class EncodedScenario:
    objective_count: int
    offer_masks: tuple[int, ...]
    support_masks: tuple[int, ...]
    # each individual's weights, one per bit of its support mask, ascending
    support_weights: tuple[tuple[int, ...], ...]
    totals: tuple[int, ...]
    # read by the compiled kernel's dispatch and by perfbench's tracer only
    int64_safe: bool

    @property
    def alternative_count(self) -> int:
        return len(self.offer_masks)

    @property
    def individual_count(self) -> int:
        return len(self.support_masks)

    @cached_property
    def weights(self) -> tuple[tuple[int, ...], ...]:
        """One dense row of R weights per individual; only the compiled
        kernel reads it."""
        rows = []
        for mask, weights in zip(self.support_masks, self.support_weights):
            row = [0] * self.objective_count
            for p, weight in zip(positions(mask), weights):
                row[p] = weight
            rows.append(tuple(row))
        return tuple(rows)


def encode(universe: Universe, environment: Environment,
           society: Society) -> EncodedScenario:
    individuals = society.individuals
    totals = tuple(sum(individual._weights) for individual in individuals)
    return EncodedScenario(
        objective_count=universe.size,
        offer_masks=tuple(alternative.offers.mask
                          for alternative in environment.alternatives),
        support_masks=tuple(individual._mask for individual in individuals),
        support_weights=tuple(individual._weights for individual in individuals),
        totals=totals,
        int64_safe=all(total < INT64_LIMIT for total in totals),
    )
