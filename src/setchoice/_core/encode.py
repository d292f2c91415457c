"""Integer encoding of a scenario for the utility-matrix kernels.

The environment and the society already hold their columns: each offer
and each support as a bitmask over the positions of the one universe
they share (``build_process`` checks that), whose size ``encode`` reads
from the environment, and each
individual's weights as integers over one scale, one per support bit in
position order.  ``encode`` reads those columns as they are and totals
each weight row once, so every utility comes back as an exact
numerator/denominator pair (the scale cancels in the ratio).  A scale of
1 holds only weights of 1, since every weight is in (0, 1]: when every
scale is 1, each row's total is its length, taken without summing it;
otherwise each row is summed.
``weights``, the dense rows, and ``int64_safe``, from the row totals,
serve the compiled kernel alone.
"""

from __future__ import annotations

from functools import cached_property

from .._record import Record
from ..measures import Environment, Society
from ..universe import positions

# Leave headroom below 2**63-1 so the compiled kernel can accumulate freely.
INT64_LIMIT = 2 ** 62


class EncodedScenario(Record):
    objective_count: int
    offer_masks: tuple[int, ...]
    support_masks: tuple[int, ...]
    # each individual's weights, one per bit of its support mask, ascending
    support_weights: tuple[tuple[int, ...], ...]
    totals: tuple[int, ...]

    @property
    def int64_safe(self) -> bool:
        """Whether every row total fits the compiled kernel's int64 math."""
        return all(total < INT64_LIMIT for total in self.totals)

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


def encode(environment: Environment, society: Society) -> EncodedScenario:
    crisp = society.scales.count(1) == len(society.scales)
    return EncodedScenario(
        objective_count=len(environment.universe),
        offer_masks=environment.masks,
        support_masks=society.masks,
        support_weights=society.weights,
        totals=tuple(map(len if crisp else sum, society.weights)),
    )
