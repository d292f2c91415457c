"""Individual profiles, social aggregation, and ranking.

A profile is one individual's utility vector over the environment's
alternatives, in environment order.  Every utility of one individual is a
ratio over one denominator (the support size for ``normalized``, the
scaled weight total for ``fuzzy``, 1 for ``cardinal``), so a profile is
held as an integer numerator row over that one positive denominator,
exactly as the kernel returns it.  A process bundles environment, society,
all profiles, and the aggregator; evaluating it applies the aggregator
column-wise to the integer rows, and the social profile it returns is
held the same way: one integer numerator per alternative over one
denominator.  A ``Fraction`` is built only for a profile's or the social
profile's ``values`` when a caller reads them, and once per ranking tier;
ranking groups equal numerators.  Batch profile construction runs
through the integer kernel; the per-pair functions in
:mod:`setchoice.measures` are the semantic reference and the two are held
equal by the test suite.  Before the kernel runs, ``build_process`` checks
each individual against the measure's domain rules, the ones the per-pair
functions apply: ``cardinal`` and ``normalized`` need a crisp individual
with a non-empty support, ``fuzzy`` a non-empty support (positive weight
total).  The first failing individual in society order is reported at the
first alternative, as the per-pair path would report it.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property
from itertools import groupby
from math import gcd, lcm
from operator import itemgetter
from typing import Callable, Sequence

from . import _core
from .errors import LengthMismatch, MeasureError, ScenarioError
from .literals import _quoted_id
from .measures import (
    Environment,
    Individual,
    Society,
    UtilityMeasure,
    _check_domain,
    utility,
)
from .universe import Universe

@dataclass(frozen=True, init=False, eq=False)
class IndividualProfile:
    """One individual's utilities: ``nums[m] / den`` for alternative m.

    ``den`` is positive.  ``integral`` marks cardinal counts (then ``den``
    is 1): ``values`` yields ints for those and Fractions otherwise,
    built on first access.  ``IndividualProfile(id, values)`` puts
    hand-made values over the lcm of their denominators.
    """

    individual_id: str
    nums: tuple[int, ...]
    den: int
    integral: bool

    def __init__(self, individual_id: str, values: Sequence[int | Fraction]):
        values = tuple(values)
        ratios = [Fraction(v) for v in values]
        den = lcm(*(r.denominator for r in ratios))
        # frozen: fill the instance dict directly, ``values`` included
        self.__dict__.update(
            individual_id=individual_id,
            nums=tuple(r.numerator * (den // r.denominator) for r in ratios),
            den=den, integral=all(isinstance(v, int) for v in values),
            values=values)

    @classmethod
    def from_row(cls, individual_id: str, nums: Sequence[int], den: int,
                 integral: bool) -> "IndividualProfile":
        """A profile straight from a kernel row; ``values`` stays unbuilt."""
        profile = cls.__new__(cls)
        profile.__dict__.update(individual_id=individual_id, nums=tuple(nums),
                                den=den, integral=integral)
        return profile

    @cached_property
    def values(self) -> tuple[int | Fraction, ...]:
        if self.integral:
            return self.nums
        return tuple(Fraction(num, self.den) for num in self.nums)

    def __len__(self) -> int:
        return len(self.nums)

    def __eq__(self, other):
        if not isinstance(other, IndividualProfile):
            return NotImplemented
        return (self.individual_id == other.individual_id
                and len(self.nums) == len(other.nums)
                and all(a * other.den == b * self.den
                        for a, b in zip(self.nums, other.nums)))

    def __hash__(self):
        return hash((self.individual_id, self.values))


@dataclass(frozen=True)
class SocialProfile:
    """The social utilities: ``nums[m] / den`` for alternative m.

    ``den`` is positive; ``values`` are the Fractions, built on first
    access.
    """

    nums: tuple[int, ...]
    den: int
    measure: UtilityMeasure
    aggregator: str
    out_of_domain: bool = False

    @cached_property
    def values(self) -> tuple[Fraction, ...]:
        return tuple(Fraction(num, self.den) for num in self.nums)

    def __len__(self) -> int:
        return len(self.nums)


def exact_mean(rows: Sequence[Sequence[int]],
               dens: Sequence[int]) -> tuple[tuple[int, ...], int]:
    """Column means of the matrix ``rows[i][m] / dens[i]``, exactly, as
    ``(nums, den)`` in lowest terms.

    Rows sharing a denominator are summed as plain ints; each group's sums
    are scaled to the lcm L of the distinct denominators, so the means are
    the M column totals over the one denominator ``L * N``, divided by
    their common gcd (equal means give equal rows, so social profiles
    compare by value).
    """
    groups: dict[int, list[Sequence[int]]] = {}
    for row, den in zip(rows, dens):
        groups.setdefault(den, []).append(row)
    common = lcm(*groups)
    totals = [0] * len(rows[0])
    for den, members in groups.items():
        scale = common // den
        totals = [t + scale * s for t, s in zip(totals, map(sum, zip(*members)))]
    count = common * len(rows)
    g = gcd(count, *totals)
    return tuple(t // g for t in totals), count // g


@dataclass(frozen=True)
class Aggregator:
    """A named reduction of N individual utility rows to M social utilities.

    ``fn(rows, dens)`` receives integer numerator rows with one positive
    denominator per row, and returns the social row as ``(nums, den)``:
    M integer numerators over one positive denominator.  Only the
    arithmetic mean ships; the registry is the extension point.
    """

    name: str
    fn: Callable[[Sequence[Sequence[int]], Sequence[int]],
                 tuple[Sequence[int], int]]


AGGREGATORS: dict[str, Aggregator] = {
    "mean": Aggregator("mean", exact_mean),
}


def get_aggregator(name: str | Aggregator) -> Aggregator:
    if isinstance(name, Aggregator):
        return name
    try:
        return AGGREGATORS[name]
    except KeyError:
        known = ", ".join(sorted(AGGREGATORS))
        raise ScenarioError(f"unknown aggregator '{name}' (known: {known})") from None


@dataclass(frozen=True)
class EvaluationProcess:
    environment: Environment
    society: Society
    profiles: tuple[IndividualProfile, ...]
    aggregator: Aggregator
    measure: UtilityMeasure

    def __post_init__(self):
        if len(self.profiles) != self.society.size:
            raise LengthMismatch("one profile per individual is required")
        for profile, individual in zip(self.profiles, self.society.individuals):
            if profile.individual_id != individual.id:
                raise ScenarioError(
                    f"profile order disagrees with society order at "
                    f"{_quoted_id(profile.individual_id)}")
            if len(profile) != self.environment.size:
                raise LengthMismatch(
                    f"profile of {_quoted_id(profile.individual_id)} has "
                    f"{len(profile)} values for {self.environment.size} "
                    "alternatives")


@dataclass(frozen=True)
class RankingTier:
    value: Fraction
    ids: tuple[str, ...]


@dataclass(frozen=True)
class Ranking:
    tiers: tuple[RankingTier, ...]

    def __iter__(self):
        return iter(self.tiers)

    @property
    def ordered_ids(self) -> tuple[str, ...]:
        return tuple(i for tier in self.tiers for i in tier.ids)


def individual_profile(measure: UtilityMeasure | str, environment: Environment,
                       individual: Individual,
                       universe: Universe) -> IndividualProfile:
    """One individual's utilities over all alternatives, per-pair reference
    path (no kernel)."""
    measure = UtilityMeasure(measure)
    values = []
    for alternative in environment.alternatives:
        try:
            values.append(utility(measure, alternative, individual, universe))
        except MeasureError as err:
            raise err.with_context(individual_id=individual.id,
                                   alternative_id=alternative.id) from None
    return IndividualProfile(individual.id, tuple(values))


def _precheck(measure: UtilityMeasure, society: Society,
              environment: Environment) -> None:
    # Surface per-individual failures exactly where the sequential
    # per-pair path would: at the first alternative.
    first = environment.alternatives[0].id
    for individual in society.individuals:
        try:
            _check_domain(measure, individual)
        except MeasureError as err:
            raise err.with_context(individual_id=individual.id,
                                   alternative_id=first) from None


def build_process(measure: UtilityMeasure | str, aggregator: str | Aggregator,
                  environment: Environment, society: Society,
                  universe: Universe) -> EvaluationProcess:
    """Compute every individual's profile (via the kernel) and bundle the
    evaluation quadruple."""
    measure = UtilityMeasure(measure)
    aggregator = get_aggregator(aggregator)
    if environment.universe != universe or society.universe != universe:
        raise ScenarioError("environment and society must share the given universe")
    _precheck(measure, society, environment)

    enc = _core.encode(universe, environment, society)
    nums, dens = _core.utility_matrix(enc, measure.value)
    integral = measure is UtilityMeasure.CARDINAL
    profiles = tuple(
        IndividualProfile.from_row(individual.id, num_row, den, integral)
        for individual, num_row, den in zip(society.individuals, nums, dens))
    return EvaluationProcess(environment, society, profiles, aggregator, measure)


def evaluate(process: EvaluationProcess) -> SocialProfile:
    """Apply the aggregator per alternative across all individual profiles;
    flag any utility outside [0, 1]."""
    rows = [profile.nums for profile in process.profiles]
    dens = [profile.den for profile in process.profiles]
    out_of_domain = any(row and (min(row) < 0 or max(row) > den)
                        for row, den in zip(rows, dens))
    nums, den = process.aggregator.fn(rows, dens)
    return SocialProfile(nums=tuple(nums), den=den, measure=process.measure,
                         aggregator=process.aggregator.name,
                         out_of_domain=out_of_domain)


def rank(profile: SocialProfile, environment: Environment) -> Ranking:
    """Order alternatives by decreasing social utility, grouping ties.

    Equal values (equal numerators over the profile's one denominator)
    form a tier; ids inside a tier are sorted lexicographically.
    """
    if len(profile) != environment.size:
        raise LengthMismatch(
            f"social profile has {len(profile)} values for "
            f"{environment.size} alternatives")
    ordered = sorted(zip([-num for num in profile.nums], environment.ids))
    return Ranking(tuple(
        RankingTier(Fraction(-neg, profile.den), tuple(i for _, i in tier))
        for neg, tier in groupby(ordered, key=itemgetter(0))))
