"""Individual profiles, social aggregation, and ranking.

A profile is one individual's utility vector over the environment's
alternatives, in environment order.  Every utility of one individual is a
ratio over one denominator T_i (the support size for ``normalized``, the
scaled weight total for ``fuzzy``, 1 for ``cardinal``), so a profile is
held as an integer numerator row over that one positive denominator,
exactly as the kernel returns it.  A process bundles environment,
society, the profiles and the measure; its universe is the one the
environment and the society hold, and ``build_process`` refuses two that
use different universes.  Every step reads the columns
of the society and the environment (their ``ids``, ``masks``, weight rows
and scales), so a kernel-built process builds no ``Individual`` and no
``Alternative``.  ``build_process`` checks each individual, over the
``masks`` and ``scales`` columns, against the measure's domain rules,
the ones the per-pair functions apply (``cardinal`` and ``normalized``
need a crisp individual with a non-empty support, ``fuzzy`` a non-empty
support; the first failing individual in society order is reported at
the first alternative, as the per-pair path would report it), and keeps
the kernel encoding; the N x M kernel matrix and the profiles are built
on the first read of ``profiles``.

The social profile is the exact mean of the profiles, column by column,
held the same way: one integer numerator per alternative over one
denominator.  The mean of a kernel-built process needs no rows: it is
linear in each individual's weights, so with L the lcm of the T_i and
``W[p] = sum_i w_i[p] * L / T_i`` the social numerator of alternative m
is the sum of W over m's offer, over ``L * N``.  That is the kernel row
of one pseudo-individual with weights W, so ``rank`` builds no profile
and runs no N x M matrix.  For the crisp measures W[p] is, over the
groups of equal T_i, L / T_i times the number of the group's supports
holding p; ``universe.packed_counts`` counts a group in folds of packed
16-bit fields, and a tall group over a narrow universe takes the
popcounts of its ``bit_columns`` instead.  A hand-built process takes
``exact_mean`` over every row, which is the mean's definition.

A ``Fraction`` is built only for a profile's or the social profile's
``values``, or a ranking tier's ``value``, when a caller reads them:
ranking groups equal numerators, and each tier keeps its social numerator
over the profile's one denominator.  The per-pair functions in
:mod:`setchoice.measures` are the semantic reference for the kernel, and
the two are held equal by the test suite.
"""

from __future__ import annotations

from fractions import Fraction
from functools import cached_property
from itertools import groupby
from math import gcd, lcm
from operator import add, itemgetter
from typing import Sequence

from . import _core
from ._core.encode import EncodedScenario
from ._record import Record
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
from .universe import _check_shared, bit_columns, packed_counts, positions

# A crisp support-size group of more than _COLUMN_ROWS supports over fewer
# than _COLUMN_SIZE objectives is counted through ``bit_columns``; any other
# group by ``packed_counts`` (measured sweep, R = 8..2000, 1..4096 supports)
_COLUMN_ROWS = 64
_COLUMN_SIZE = 64
# ``packed_counts`` folds at most this many bit positions at once, so at most
# 2**16 // 8 supports: a 16-bit count never carries, and the peak stays flat
_FOLD_BITS = 1 << 16


class IndividualProfile(Record):
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
        # not ``_of``: 0.9 against 1.5 us a 400-value profile
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


class SocialProfile(Record):
    """The social utilities, the exact mean of the individual profiles:
    ``nums[m] / den`` for alternative m.

    ``den`` is positive; ``values`` are the Fractions, built on first
    access.  ``out_of_domain`` marks a profile with a utility outside
    [0, 1].
    """

    nums: tuple[int, ...]
    den: int
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


class EvaluationProcess(Record):
    """Environment, society and one profile per individual, under one
    measure.

    ``EvaluationProcess(environment, society, profiles, measure)`` checks
    hand-made profiles against the society and the environment; its
    ``encoding`` is None.  ``build_process`` keeps the kernel ``encoding``
    instead, and ``profiles`` are computed from it on first read.
    Processes compare and hash by their fields, as every record does; a
    hand-made process also compares its profiles.
    """

    environment: Environment
    society: Society
    measure: UtilityMeasure
    encoding: EncodedScenario | None

    def __init__(self, environment: Environment, society: Society,
                 profiles: Sequence[IndividualProfile],
                 measure: UtilityMeasure):
        profiles = tuple(profiles)
        if len(profiles) != len(society):
            raise LengthMismatch("one profile per individual is required")
        for profile, individual_id in zip(profiles, society.ids):
            if profile.individual_id != individual_id:
                raise ScenarioError(
                    f"profile order disagrees with society order at "
                    f"{_quoted_id(profile.individual_id)}")
            if len(profile) != len(environment):
                raise LengthMismatch(
                    f"profile of {_quoted_id(profile.individual_id)} has "
                    f"{len(profile)} values for {len(environment)} "
                    "alternatives")
        # frozen: fill the instance dict directly, ``profiles`` included
        self.__dict__.update(environment=environment, society=society,
                             measure=measure, encoding=None,
                             profiles=profiles)

    def _values(self) -> tuple:
        # a kernel-built process's profiles follow from its encoding
        if self.encoding is None:
            return super()._values() + (self.profiles,)
        return super()._values()

    @cached_property
    def profiles(self) -> tuple[IndividualProfile, ...]:
        nums, dens = _core.utility_matrix(self.encoding, self.measure.value)
        integral = self.measure is UtilityMeasure.CARDINAL
        return tuple(
            IndividualProfile.from_row(individual_id, num_row, den, integral)
            for individual_id, num_row, den in zip(self.society.ids, nums, dens))


class RankingTier(Record):
    """The alternatives ``ids`` that share the social utility ``value``.

    ``RankingTier(value, ids)`` stores ``value``.  ``rank`` builds each
    tier from its social numerator over the profile's one denominator, and
    ``value``, a ``Fraction``, is built on first read.  Either way a tier
    compares, hashes and prints by ``value``.
    """

    value: Fraction
    ids: tuple[str, ...]

    @classmethod
    def _from_ratio(cls, num: int, den: int,
                    ids: tuple[str, ...]) -> "RankingTier":
        """The tier of the utility ``num / den`` (``den > 0``); ``value``
        stays unbuilt."""
        # not ``_of``: 0.6 against 1.5 us a tier (``rank`` of 400: 0.48 / 0.82 ms)
        tier = cls.__new__(cls)
        items = tier.__dict__
        items["_ratio"] = (num, den)
        items["ids"] = ids
        return tier

    # A tier stores ``value`` or ``_ratio``; an instance's dict entry comes
    # before either property, which builds the other on first read.
    @cached_property
    def value(self) -> Fraction:
        return Fraction(*self._ratio)

    @cached_property
    def _ratio(self) -> tuple[int, int]:
        """``value`` as ``(numerator, positive denominator)``, not always
        in lowest terms; ``rank`` stores it."""
        return self.value.as_integer_ratio()


class Ranking(Record):
    tiers: tuple[RankingTier, ...]

    def __iter__(self):
        return iter(self.tiers)

    @property
    def ordered_ids(self) -> tuple[str, ...]:
        return tuple(i for tier in self.tiers for i in tier.ids)


def individual_profile(measure: UtilityMeasure | str, environment: Environment,
                       individual: Individual) -> IndividualProfile:
    """One individual's utilities over all alternatives, per-pair reference
    path (no kernel)."""
    measure = UtilityMeasure(measure)
    values = []
    for alternative in environment.alternatives:
        try:
            values.append(utility(measure, alternative, individual))
        except MeasureError as err:
            raise err.with_context(individual_id=individual.id,
                                   alternative_id=alternative.id) from None
    return IndividualProfile(individual.id, tuple(values))


def _precheck(measure: UtilityMeasure, society: Society,
              environment: Environment) -> None:
    # _check_domain's rules as two C-level passes over the columns: every
    # support is non-empty and, for the crisp measures, every scale is 1
    scales = society.scales
    if all(society.masks) and (measure is UtilityMeasure.FUZZY
                               or scales.count(1) == len(scales)):
        return
    # Surface the first failure exactly where the sequential per-pair path
    # would: at the first alternative.
    first = environment.ids[0]
    for individual in society.individuals:
        try:
            _check_domain(measure, individual)
        except MeasureError as err:
            raise err.with_context(individual_id=individual.id,
                                   alternative_id=first) from None


def build_process(measure: UtilityMeasure | str, environment: Environment,
                  society: Society) -> EvaluationProcess:
    """Check that the environment and the society use one universe and
    every individual the measure's domain, encode the scenario for the
    kernel, and bundle the evaluation process; the profiles are computed
    on first read."""
    measure = UtilityMeasure(measure)
    _check_shared(environment, society)
    _precheck(measure, society, environment)
    enc = _core.encode(environment, society)
    return EvaluationProcess._of(environment, society, measure, enc)


def _pseudo_weights(measure: UtilityMeasure,
                    enc: EncodedScenario) -> tuple[list[int], int]:
    """``(W, L)``: L the lcm of the row denominators T_i, and
    ``W[p] = sum_i w_i[p] * L / T_i`` per objective p.

    A crisp group of supports of one size is counted by ``bit_columns``
    popcounts when it is tall and narrow, else by ``packed_counts`` folds,
    whose counts are widened to fields that hold ``L * N`` and summed,
    times ``L / T_i``, in one integer that is split into W once."""
    size = enc.objective_count
    if measure is UtilityMeasure.FUZZY:
        common = lcm(*set(enc.totals))
        weights = [0] * size
        for mask, row, total in zip(enc.support_masks, enc.support_weights,
                                    enc.totals):
            scale = common // total
            for p, weight in zip(positions(mask), row):
                weights[p] += scale * weight
        return weights, common
    # Crisp: every weight is 1 and T_i is 1 or the support size (the weight
    # total), so W[p] sums, over the groups of equal T_i, the group's count
    # of supports holding p times L / T_i.
    if measure is UtilityMeasure.CARDINAL:
        groups = {1: enc.support_masks}
    else:
        groups = {}
        for mask, total in zip(enc.support_masks, enc.totals):
            groups.setdefault(total, []).append(mask)
    common = lcm(*groups)
    step = -(-size // 8)
    # W[p] <= L * N, so fields of ``wide`` bytes never carry into the next
    wide = max(2, -(-(common * enc.individual_count).bit_length() // 8))
    # each fold's 16-bit counts, copied into the low bytes of those fields
    widened = bytearray(size * wide)
    rows = _FOLD_BITS // (8 * step) or 1
    packed = 0
    weights = [0] * size
    for total, masks in groups.items():
        scale = common // total
        if len(masks) > _COLUMN_ROWS and size < _COLUMN_SIZE:
            columns = bit_columns(masks, size, 8 * step)
            weights = list(map(add, weights, map(scale.__mul__,
                                                 map(int.bit_count, columns))))
            continue
        for start in range(0, len(masks), rows):
            fields = packed_counts(masks[start:start + rows], step)
            widened[::wide] = fields[:2 * size:2]
            widened[1::wide] = fields[1:2 * size:2]
            packed += scale * int.from_bytes(widened, "little")
    if packed:
        fields = packed.to_bytes(size * wide, "little")
        weights = list(map(add, weights, [
            int.from_bytes(fields[start:start + wide], "little")
            for start in range(0, len(fields), wide)]))
    return weights, common


def _mean_row(measure: UtilityMeasure,
              enc: EncodedScenario) -> tuple[tuple[int, ...], int]:
    """``exact_mean`` of the kernel rows of ``enc``: the one fuzzy kernel
    row of weights W, over ``L * N``, in lowest terms."""
    weights, common = _pseudo_weights(measure, enc)
    support = tuple(filter(None, weights))
    pseudo = EncodedScenario(
        enc.objective_count, enc.offer_masks,
        (sum(1 << p for p, weight in enumerate(weights) if weight),),
        (support,), (sum(support),))
    (nums,), _ = _core.utility_matrix(pseudo, "fuzzy")
    count = common * enc.individual_count
    g = gcd(count, *nums)
    return tuple(num // g for num in nums), count // g


def _shares_two(supports: Sequence[int], offers: Sequence[int],
                size: int) -> bool:
    """Whether some support and some offer share two or more of the
    ``size`` objectives.

    They do exactly when, for some objective p, the union of one side's
    masks that hold p and a mask of the other side that holds p share an
    objective besides p.  So the side with fewer masks is OR-ed into one
    union per objective, and each mask of the other side is tested against
    the unions of its own objectives, up to the first hit: each mask is
    visited at most once, not once per support x offer pair."""
    if len(offers) > len(supports):
        supports, offers = offers, supports
    unions = [0] * size
    for mask in offers:
        for p in positions(mask):
            unions[p] |= mask
    return any((unions[p] & mask).bit_count() > 1
               for mask in supports for p in positions(mask))


def evaluate(process: EvaluationProcess) -> SocialProfile:
    """The exact mean of the individual profiles per alternative; flag any
    utility outside [0, 1].

    A kernel-built process takes ``_mean_row`` and builds no profile; a
    hand-built one takes ``exact_mean`` over its rows.  Kernel rows of
    ``normalized`` and ``fuzzy`` never leave [0, 1]; a ``cardinal`` count
    does exactly when an individual shares two or more objectives with an
    alternative.
    """
    enc, measure = process.encoding, process.measure
    if enc is not None:
        nums, den = _mean_row(measure, enc)
        out_of_domain = (measure is UtilityMeasure.CARDINAL and _shares_two(
            enc.support_masks, enc.offer_masks, enc.objective_count))
    else:
        rows = [profile.nums for profile in process.profiles]
        dens = [profile.den for profile in process.profiles]
        out_of_domain = any(row and (min(row) < 0 or max(row) > den)
                            for row, den in zip(rows, dens))
        nums, den = exact_mean(rows, dens)
    return SocialProfile(nums, den, out_of_domain)


def rank(profile: SocialProfile, environment: Environment) -> Ranking:
    """Order alternatives by decreasing social utility, grouping ties.

    Equal values (equal numerators over the profile's one denominator)
    form a tier; ids inside a tier are sorted lexicographically.
    """
    if len(profile) != len(environment):
        raise LengthMismatch(
            f"social profile has {len(profile)} values for "
            f"{len(environment)} alternatives")
    ordered = sorted(zip([-num for num in profile.nums], environment.ids))
    den = profile.den
    return Ranking(tuple(
        RankingTier._from_ratio(-neg, den, tuple(i for _, i in tier))
        for neg, tier in groupby(ordered, key=itemgetter(0))))
