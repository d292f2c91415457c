"""Utility measures over objective sets.

Three measures are provided:

* ``cardinal`` — how many of the individual's required objectives the
  alternative offers (a non-negative integer).
* ``normalized`` — the same overlap divided by the number of required
  objectives, so every fully satisfied individual scores 1 regardless of
  how demanding it is.
* ``fuzzy`` — for weighted requirements, the share of the individual's
  total objective weight that falls on offered objectives.  The divisor is
  the weight summed over the whole declared universe, so declaring extra
  positive-weight objectives that nothing offers lowers the score; this is
  intentional and documented behaviour, not a bug.

All arithmetic is exact: an individual stores its support as a
universe-position mask and its weights as integers over one scale, and
results are ``int`` or ``Fraction``.  ``_scaled`` builds that scale from
each weight's exact ``(numerator, denominator)``: the constructor takes
it from a ``Fraction``, and the parser reads it once per distinct weight
literal of a file.
Rendering to fixed-precision decimal happens only at the output layer.

A scenario is two bit matrices over the universe: individual x objective
and alternative x objective.  ``Society`` and ``Environment`` hold them
as parallel columns (``ids`` and ``masks``, plus the weight rows and
scales of a society), which the kernel, the universes and the renderers
read directly.  The checking constructors ``Society(individuals)`` and
``Environment(alternatives)`` fill the columns from the objects they
check; the parser stores the columns of its checked sections unchecked
(``Record._of``), so a parsed scenario holds no ``Individual`` or
``Alternative`` until ``individuals`` or ``alternatives`` is first read,
and those read its members back unchecked as well.

Every value here holds its universe: an alternative its offer's, and an
individual, an environment and a society their own.  So no function
takes a universe beside them; the per-pair functions read it from the
pair and refuse a pair over two universes.
"""

from __future__ import annotations

from enum import Enum
from fractions import Fraction
from functools import cached_property
from itertools import repeat
from math import lcm
from operator import attrgetter, floordiv, is_, mul
from typing import Iterable, Mapping

from ._record import Record
from .errors import (
    EmptyIndividual,
    NonCrispIndividual,
    ScenarioError,
    ZeroMembershipMass,
)
from .literals import (
    _BeyondBound,
    _bounded_number,
    _plain_number,
    _quoted,
    _quoted_id,
)
from .universe import ObjectiveSet, Universe, check_token, positions


class UtilityMeasure(str, Enum):
    CARDINAL = "cardinal"
    NORMALIZED = "normalized"
    FUZZY = "fuzzy"


def to_fraction(value: object, where: str = "membership value") -> Fraction:
    """Convert a numeric literal to an exact Fraction.

    Strings and Decimals convert exactly.  Floats are read as the decimal
    literal they print as (``0.4`` means 4/10, not its binary expansion),
    matching the scenario-file semantics.  Booleans are rejected (JSON
    ``true`` is not a weight), and so is a value beyond the scenario files'
    number bound, before any value or scale is built from it.
    """
    if isinstance(value, bool):
        raise ScenarioError(f"{where} must be a number, got {value!r}")
    if isinstance(value, float):
        value = repr(value)
    try:
        return Fraction(_bounded_number(value))  # type: ignore[arg-type]
    except _BeyondBound as exc:
        raise ScenarioError(f"{where}: {exc}") from None
    except (TypeError, ValueError, OverflowError):
        raise ScenarioError(
            f"{where} must be a number, got {_quoted(value)}") from None


class Alternative(Record):
    """An alternative, identified by name, offering a non-empty set of
    objectives."""

    id: str
    offers: ObjectiveSet

    def __post_init__(self):
        check_token(self.id, "alternative id")
        if not self.offers.mask:
            raise ScenarioError(
                f"alternative {_quoted_id(self.id)} offers no objectives")

    @property
    def universe(self) -> Universe:
        return self.offers.universe


def _scaled(ratios: Mapping[int, tuple[int, int]]
            ) -> tuple[int, tuple[int, ...], int]:
    """``(mask, ints, scale)`` of positive weights given as ``{bit:
    (numerator, denominator)}``: the bits OR-ed, each weight times scale in
    ascending bit order, and scale the lcm of the denominators.  The
    constructor reads each weight exactly through ``as_integer_ratio()``;
    the parser reads each distinct weight literal once as that pair."""
    bits = sorted(ratios)
    nums, dens = zip(*map(ratios.__getitem__, bits))
    scale = lcm(*dens)
    return (sum(bits), tuple(map(mul, nums, map(floordiv, repeat(scale), dens))),
            scale)


class Individual(Record):
    """An individual characterised by objective weights in [0, 1].

    ``membership`` maps objective tokens to weights; objectives of the
    universe that are absent weigh 0.  Explicit zero entries are dropped on
    construction, so two individuals that differ only in spelled-out zeros
    compare equal.  The support is stored as a universe-position mask, and
    its weights as integers over one scale (1 exactly when *crisp*), one per
    set bit in ascending position order (``_mask``, ``_weights``, ``_scale``,
    built by ``_scaled``).  A frozen record of ``id`` and ``universe``, it
    compares and hashes by them and that stored form.  The parser reports
    the constructor's rules as findings, and ``Society.individuals`` reads
    its columns back unchecked with ``Individual._of``; every token-keyed
    view is built on read.
    """

    id: str
    universe: Universe

    def __init__(self, id: str, universe: Universe,
                 membership: Mapping[str, object]):
        check_token(id, "individual id")
        ratios: dict[int, tuple[int, int]] = {}
        for token, raw in membership.items():
            bit = universe.bit(token)
            value = to_fraction(raw, f"membership of {_quoted(token)}")
            if value < 0 or value > 1:
                raise ScenarioError(
                    f"membership out of range: {_quoted(token)} has value "
                    f"{_plain_number(value)}")
            if value:
                ratios[bit] = value.as_integer_ratio()
        if not ratios:
            raise ScenarioError(
                f"individual {_quoted_id(id)} requires no objectives "
                "(empty support)")
        mask, weights, scale = _scaled(ratios)
        # frozen: fill the instance dict directly
        self.__dict__.update(id=id, universe=universe, _mask=mask,
                             _weights=weights, _scale=scale)

    @classmethod
    def crisp(cls, id: str, universe: Universe,
              requires: Iterable[str]) -> "Individual":
        """Build an individual that requires exactly the given objectives."""
        return cls(id, universe, {token: 1 for token in requires})

    @property
    def membership(self) -> dict[str, Fraction]:
        """Positive weights only, keyed by objective token, in universe order."""
        objectives, scale = self.universe.objectives, self._scale
        return {objectives[p]: Fraction(w, scale)
                for p, w in zip(positions(self._mask), self._weights)}

    def mu(self, token: str) -> Fraction:
        bit = self.universe.bit(token)
        if not self._mask & bit:
            return Fraction(0)
        # the weight's index is the number of support bits below it
        return Fraction(self._weights[(self._mask & (bit - 1)).bit_count()],
                        self._scale)

    @property
    def support(self) -> frozenset[str]:
        return self.support_set.members

    @property
    def support_set(self) -> ObjectiveSet:
        return ObjectiveSet(self.universe, self._mask)

    @property
    def mass(self) -> Fraction:
        """Total weight over the universe (zeros contribute nothing)."""
        return Fraction(sum(self._weights), self._scale)

    @property
    def is_crisp(self) -> bool:
        return self._scale == 1

    def _values(self) -> tuple:
        return super()._values() + (self._mask, self._weights, self._scale)

    def __repr__(self) -> str:
        weights = {t: str(v) for t, v in sorted(self.membership.items())}
        return f"Individual({self.id!r}, {weights})"


def _checked(items: Iterable, owner: str, what: str
             ) -> tuple[tuple, tuple[str, ...], Universe]:
    """``(items, ids, universe)`` of a non-empty collection of items with
    distinct ids over one universe; raise on the first fault, in that
    order.  Distinct ids are accepted by one C-level set, and items that
    hold the first item's universe object, as a library caller builds them
    over one ``Universe``, by one identity pass; otherwise each universe is
    compared by value, so an equal one passes.  The parser builds its
    checked columns with ``Record._of`` and never comes here."""
    items = tuple(items)
    if not items:
        raise ScenarioError(f"{owner} must contain at least one {what}")
    ids = tuple(map(attrgetter("id"), items))
    if len(set(ids)) != len(ids):
        seen = set()
        for item_id in ids:
            if item_id in seen:
                raise ScenarioError(f"duplicate {what} id {_quoted_id(item_id)}")
            seen.add(item_id)
    universe = items[0].universe
    if not all(map(is_, map(attrgetter("universe"), items), repeat(universe))):
        for item in items[1:]:
            if item.universe != universe:
                raise ScenarioError(
                    f"{what} {_quoted_id(item.id)} uses a different universe")
    return items, ids, universe


class Environment(Record):
    """The non-empty, ordered collection of alternatives under evaluation,
    held as columns: alternative m is ``ids[m]``, offering the objectives
    of the position mask ``masks[m]`` over ``universe``.

    ``Environment(alternatives)`` checks the alternatives and fills the
    columns; the parser stores its checked columns with
    ``Environment._of``.  Equal columns compare and hash equal, and
    ``alternatives`` is built on first read.
    """

    universe: Universe
    ids: tuple[str, ...]
    masks: tuple[int, ...]

    def __init__(self, alternatives: Iterable[Alternative]):
        alternatives, ids, universe = _checked(alternatives, "environment",
                                               "alternative")
        # frozen: fill the instance dict directly, ``alternatives`` included
        self.__dict__.update(
            universe=universe, ids=ids,
            masks=tuple(alternative.offers.mask for alternative in alternatives),
            alternatives=alternatives)

    @cached_property
    def alternatives(self) -> tuple[Alternative, ...]:
        universe = self.universe
        return tuple(Alternative._of(alt_id, ObjectiveSet._of(universe, mask))
                     for alt_id, mask in zip(self.ids, self.masks))

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return iter(self.alternatives)


class Society(Record):
    """The non-empty, ordered collection of individuals doing the judging,
    held as columns: individual i is ``ids[i]``, with the support mask
    ``masks[i]`` over ``universe`` and one integer weight per support bit,
    ascending, in ``weights[i]``, over ``scales[i]`` (as ``Individual``
    stores them).

    ``Society(individuals)`` checks the individuals and fills the columns;
    the parser stores its checked columns with ``Society._of``.  Equal
    columns compare and hash equal, and ``individuals`` is built on first
    read.
    """

    universe: Universe
    ids: tuple[str, ...]
    masks: tuple[int, ...]
    weights: tuple[tuple[int, ...], ...]
    scales: tuple[int, ...]

    def __init__(self, individuals: Iterable[Individual]):
        individuals, ids, universe = _checked(individuals, "society",
                                              "individual")
        # frozen: fill the instance dict directly, ``individuals`` included
        self.__dict__.update(
            universe=universe, ids=ids,
            masks=tuple(map(attrgetter("_mask"), individuals)),
            weights=tuple(map(attrgetter("_weights"), individuals)),
            scales=tuple(map(attrgetter("_scale"), individuals)),
            individuals=individuals)

    @cached_property
    def individuals(self) -> tuple[Individual, ...]:
        universe = self.universe
        return tuple(Individual._of(individual_id, universe, _mask=mask,
                                    _weights=weights, _scale=scale)
                     for individual_id, mask, weights, scale
                     in zip(self.ids, self.masks, self.weights, self.scales))

    def __len__(self) -> int:
        return len(self.ids)

    def __iter__(self):
        return iter(self.individuals)


def _check_pair(alternative: Alternative, individual: Individual) -> None:
    if alternative.universe != individual.universe:
        raise ScenarioError(
            f"alternative {_quoted_id(alternative.id)} and individual "
            f"{_quoted_id(individual.id)} use different universes")


def _check_domain(measure: UtilityMeasure, individual: Individual) -> None:
    """Raise the error ``measure`` gives for ``individual`` whatever the
    alternative: the crisp measures need a crisp individual with a
    non-empty support, ``fuzzy`` needs a positive weight total."""
    if measure is UtilityMeasure.FUZZY:
        if not individual._mask:  # stored weights are all positive
            raise ZeroMembershipMass("membership weights sum to zero",
                                     individual_id=individual.id)
        return
    if not individual.is_crisp:
        name = ("cardinal" if measure is UtilityMeasure.CARDINAL
                else "normalized cardinal")
        raise NonCrispIndividual(
            f"{name} utility is defined only for crisp individuals "
            "(all weights 0 or 1)",
            individual_id=individual.id)
    if not individual._mask:
        raise EmptyIndividual("individual requires no objectives",
                              individual_id=individual.id)


def cardinal_utility(alternative: Alternative, individual: Individual) -> int:
    """Count of required objectives the alternative offers.

    Defined only for crisp individuals; weighted individuals are rejected
    rather than silently thresholded.
    """
    _check_pair(alternative, individual)
    _check_domain(UtilityMeasure.CARDINAL, individual)
    return (alternative.offers.mask & individual._mask).bit_count()


def normalized_cardinal_utility(alternative: Alternative,
                                individual: Individual) -> Fraction:
    """Offered-required overlap divided by the number of required
    objectives; 1 means every requirement is met, 0 means none is."""
    _check_pair(alternative, individual)
    _check_domain(UtilityMeasure.NORMALIZED, individual)
    support = individual._mask
    return Fraction((alternative.offers.mask & support).bit_count(),
                    support.bit_count())


def fuzzy_utility(alternative: Alternative, individual: Individual) -> Fraction:
    """Weight the alternative's offer carries, as a share of the
    individual's total weight over the whole universe."""
    _check_pair(alternative, individual)
    _check_domain(UtilityMeasure.FUZZY, individual)
    covered = sum(individual.mu(t) for t in alternative.offers.members)
    return covered / individual.mass


def utility(measure: UtilityMeasure | str, alternative: Alternative,
            individual: Individual) -> int | Fraction:
    """Dispatch to the requested measure."""
    measure = UtilityMeasure(measure)
    if measure is UtilityMeasure.CARDINAL:
        return cardinal_utility(alternative, individual)
    if measure is UtilityMeasure.NORMALIZED:
        return normalized_cardinal_utility(alternative, individual)
    return fuzzy_utility(alternative, individual)
