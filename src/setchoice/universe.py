"""Objective universe and set algebra over it.

Objectives are interned symbolic tokens. A :class:`Universe` fixes the
declared objectives and their canonical order; every other set in a
scenario is a subset of one universe, and all set-valued results iterate
in universe declaration order so output is deterministic.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import TYPE_CHECKING, Iterable, Iterator

from .errors import ScenarioError

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .measures import Environment, Society


def check_token(token: object, what: str = "objective name") -> str:
    """Validate a symbolic token (``what``, e.g. ``"alternative id"``): a
    non-empty string of printable, non-whitespace characters."""
    if not isinstance(token, str):
        raise ScenarioError(f"{what} must be a string, got {type(token).__name__}")
    if not token:
        raise ScenarioError(f"{what} must be non-empty")
    if any(c.isspace() for c in token):
        raise ScenarioError(f"{what} {token!r} contains whitespace")
    if not token.isprintable():
        raise ScenarioError(f"{what} {token!r} contains a non-printable character")
    return token


@dataclass(frozen=True)
class Universe:
    """The declared objectives of a scenario, in canonical order."""

    objectives: tuple[str, ...]
    _index: dict[str, int] = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        if not isinstance(self.objectives, tuple):
            object.__setattr__(self, "objectives", tuple(self.objectives))
        if not self.objectives:
            raise ScenarioError("universe must declare at least one objective")
        index: dict[str, int] = {}
        for token in self.objectives:
            if check_token(token) in index:
                raise ScenarioError(f"duplicate objective {token!r} in universe")
            index[token] = len(index)
        object.__setattr__(self, "_index", index)

    @property
    def size(self) -> int:
        return len(self.objectives)

    def __len__(self) -> int:
        return len(self.objectives)

    def __iter__(self) -> Iterator[str]:
        return iter(self.objectives)

    def __contains__(self, token: object) -> bool:
        return token in self._index

    def position(self, token: str) -> int:
        try:
            return self._index[token]
        except KeyError:
            raise ScenarioError(f"unknown objective {token!r}") from None

    def subset(self, members: Iterable[str]) -> "ObjectiveSet":
        return ObjectiveSet(self, frozenset(members))

    def empty(self) -> "ObjectiveSet":
        return ObjectiveSet(self, frozenset())

    def full(self) -> "ObjectiveSet":
        return ObjectiveSet(self, frozenset(self.objectives))


@dataclass(frozen=True)
class ObjectiveSet:
    """A subset of one universe's objectives."""

    universe: Universe
    members: frozenset[str]

    def __post_init__(self):
        if not isinstance(self.members, frozenset):
            object.__setattr__(self, "members", frozenset(self.members))
        for token in self.members:
            if token not in self.universe:
                raise ScenarioError(f"unknown objective {token!r}")

    def ordered(self) -> tuple[str, ...]:
        """Members in universe declaration order."""
        return tuple(t for t in self.universe.objectives if t in self.members)

    def __len__(self) -> int:
        return len(self.members)

    def __iter__(self) -> Iterator[str]:
        return iter(self.ordered())

    def __contains__(self, token: object) -> bool:
        return token in self.members

    def _check_same_universe(self, other: "ObjectiveSet") -> None:
        if self.universe != other.universe:
            raise ScenarioError("objective sets belong to different universes")

    def __and__(self, other: "ObjectiveSet") -> "ObjectiveSet":
        self._check_same_universe(other)
        return ObjectiveSet(self.universe, self.members & other.members)

    def __or__(self, other: "ObjectiveSet") -> "ObjectiveSet":
        self._check_same_universe(other)
        return ObjectiveSet(self.universe, self.members | other.members)

    def __sub__(self, other: "ObjectiveSet") -> "ObjectiveSet":
        self._check_same_universe(other)
        return ObjectiveSet(self.universe, self.members - other.members)

    def __le__(self, other: "ObjectiveSet") -> bool:
        self._check_same_universe(other)
        return self.members <= other.members


@dataclass(frozen=True)
class UniversePartition:
    """The three disjoint regions the offered and requested objectives
    split into: offered-but-not-requested, requested-but-not-offered, and
    the overlap where supply meets demand."""

    offered_only: ObjectiveSet
    requested_only: ObjectiveSet
    matched: ObjectiveSet


def opportunity_universe(environment: "Environment") -> ObjectiveSet:
    """Union of every alternative's offered objectives."""
    universe = environment.universe
    members: frozenset[str] = frozenset()
    for alternative in environment.alternatives:
        members |= alternative.offers.members
    return ObjectiveSet(universe, members)


def exigence_universe(society: "Society") -> ObjectiveSet:
    """Union of every individual's required objectives (the support of its
    membership weights: objectives with weight > 0)."""
    universe = society.universe
    members: frozenset[str] = frozenset()
    for individual in society.individuals:
        members |= individual.support
    return ObjectiveSet(universe, members)


def partition_universe(environment: "Environment",
                       society: "Society") -> UniversePartition:
    """Split offered/requested objectives into the three disjoint regions."""
    if environment.universe != society.universe:
        raise ScenarioError("environment and society use different universes")
    offered = opportunity_universe(environment)
    requested = exigence_universe(society)
    return UniversePartition(
        offered_only=offered - requested,
        requested_only=requested - offered,
        matched=offered & requested,
    )
