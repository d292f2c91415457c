"""Objective universe and set algebra over it.

Objectives are interned symbolic tokens. A :class:`Universe` fixes the
declared objectives and their canonical order; every other set in a
scenario is a subset of one universe, stored as a bitmask over universe
positions: bit p stands for ``universe.objectives[p]``.  Which token maps
to which bit is decided here alone (:func:`token_bits`,
:func:`position_bytes`, :func:`positions`, :func:`bit_columns`,
:func:`packed_counts`).  Set
algebra is integer ``&``, ``|`` and ``& ~``; tokens are built only when a
set is read, in universe declaration order, so output is deterministic.
"""

from __future__ import annotations

from functools import reduce
from itertools import compress, count, repeat
from operator import or_
from typing import TYPE_CHECKING, Iterable, Iterator, Sequence

from ._record import Record
from .errors import ScenarioError
from .literals import _quoted

if TYPE_CHECKING:  # pragma: no cover - import cycle guard
    from .measures import Environment, Society


def _token_text(text: str) -> bool:
    """Whether every character of ``text`` may stand in a token: printable
    and not whitespace.  Every whitespace character but " " is also
    non-printable."""
    return text.isprintable() and " " not in text


def check_token(token: object, what: str = "objective name") -> str:
    """Validate a symbolic token (``what``, e.g. ``"alternative id"``): a
    non-empty string of printable, non-whitespace characters."""
    if not isinstance(token, str):
        raise ScenarioError(f"{what} must be a string, got {type(token).__name__}")
    if not token:
        raise ScenarioError(f"{what} must be non-empty")
    if _token_text(token):
        return token
    if any(c.isspace() for c in token):
        raise ScenarioError(f"{what} {_quoted(token)} contains whitespace")
    raise ScenarioError(
        f"{what} {_quoted(token)} contains a non-printable character")


def token_bits(tokens: Iterable[str]) -> dict[str, int]:
    """``{token: 1 << p}`` for distinct tokens declared in this order."""
    return {token: 1 << p for p, token in enumerate(tokens)}


# the binary digits "0" and "1" as the bytes 0 and 1
_DIGIT_BYTES = bytes.maketrans(b"01", b"\0\1")

# ``positions`` walks the set bits of a mask with fewer than one set bit in
# this many positions (measured sweep, R = 16..3000: the walk wins below
# about 1 in 8 at R <= 1000, 1 in 12 at R = 3000)
_SPARSE = 12


def position_bytes(mask: int) -> bytes:
    """One byte per position of ``mask`` up to its highest set bit (one
    byte for 0): byte p is 1 when bit p is set, else 0, a selector for
    ``itertools.compress``."""
    return bin(mask)[:1:-1].encode().translate(_DIGIT_BYTES)


def positions(mask: int) -> list[int]:
    """The positions of the set bits of ``mask``, ascending.  A sparse mask
    (fewer than one set bit in ``_SPARSE`` positions) is walked by its
    lowest set bits, a denser one through its ``bin`` string."""
    if mask.bit_count() * _SPARSE >= mask.bit_length():
        return list(compress(count(), position_bytes(mask)))
    found = []
    while mask:
        low = mask & -mask
        found.append(low.bit_length() - 1)
        mask ^= low
    return found


def bit_columns(masks: Sequence[int], size: int, width: int) -> list[int]:
    """Column p < ``size`` of the bit matrix with rows ``masks``: bit p of
    ``masks[i]`` at bit ``i * width``, ``width`` a multiple of 8.  Per chunk
    of ``width`` positions, the masks' ``width // 8`` little-endian bytes,
    made by one C-level ``map`` of ``int.to_bytes`` as in
    ``packed_counts``, are joined into one int, and each column is one
    shift and one ``&`` of it."""
    step = width // 8
    ones = int.from_bytes((b"\1" + bytes(step - 1)) * len(masks), "little")
    low = (1 << width) - 1
    columns: list[int] = []
    for start in range(0, size, width):
        chunk = masks if size <= width else [(m >> start) & low for m in masks]
        joined = int.from_bytes(b"".join(map(int.to_bytes, chunk, repeat(step),
                                             repeat("little"))), "little")
        columns += map(ones.__and__, map(joined.__rshift__,
                                         range(min(width, size - start))))
    return columns


def packed_counts(masks: Sequence[int], step: int) -> bytes:
    """Per position p < ``8 * step``, the number of ``masks`` (each below
    ``2 ** (8 * step)``, at most ``2 ** 16 - 1`` of them) holding p, as
    little-endian 16-bit fields.

    One ``format`` of the joined masks, its UTF-16 encoding and one
    ``translate`` spread every bit into a 16-bit field, a row of
    ``8 * step`` fields per mask; halving folds then add the rows."""
    joined = b"".join(map(int.to_bytes, masks, repeat(step), repeat("big")))
    digits = format(int.from_bytes(joined, "big"), f"0{8 * len(joined)}b")
    spread = int.from_bytes(
        digits.encode("utf-16-be").translate(_DIGIT_BYTES), "big")
    rows, row_bits = len(masks), 128 * step
    while rows > 1:
        keep = (rows + 1) >> 1
        shift = keep * row_bits
        spread = (spread & ((1 << shift) - 1)) + (spread >> shift)
        rows = keep
    return spread.to_bytes(16 * step, "little")


class Universe(Record):
    """The declared objectives of a scenario, in canonical order."""

    objectives: tuple[str, ...]
    _bits: dict[str, int]

    def __post_init__(self):
        if isinstance(self.objectives, str):
            raise ScenarioError("universe objectives must be a list of "
                                "names, not one string")
        if not isinstance(self.objectives, tuple):
            self.__dict__["objectives"] = tuple(self.objectives)
        if not self.objectives:
            raise ScenarioError("universe must declare at least one objective")
        seen: set[str] = set()
        for token in self.objectives:
            if check_token(token) in seen:
                raise ScenarioError(
                    f"duplicate objective {_quoted(token)} in universe")
            seen.add(token)
        self.__dict__["_bits"] = token_bits(self.objectives)

    def __len__(self) -> int:
        return len(self.objectives)

    def __iter__(self) -> Iterator[str]:
        return iter(self.objectives)

    def __contains__(self, token: object) -> bool:
        return token in self._bits

    def bit(self, token: str) -> int:
        """``1 << position(token)``."""
        try:
            return self._bits[token]
        except KeyError:
            raise ScenarioError(f"unknown objective {_quoted(token)}") from None

    def position(self, token: str) -> int:
        return self.bit(token).bit_length() - 1

    def subset(self, members: Iterable[str]) -> "ObjectiveSet":
        """The set of the given tokens, each checked to be declared."""
        mask = 0
        for token in members:
            mask |= self.bit(token)
        return ObjectiveSet(self, mask)

    def empty(self) -> "ObjectiveSet":
        return ObjectiveSet(self, 0)

    def full(self) -> "ObjectiveSet":
        return ObjectiveSet(self, (1 << len(self.objectives)) - 1)


class ObjectiveSet(Record):
    """A subset of one universe's objectives: bit p of ``mask`` stands for
    ``universe.objectives[p]``."""

    universe: Universe
    mask: int

    def __post_init__(self):
        mask = self.mask
        if (not isinstance(mask, int) or isinstance(mask, bool) or mask < 0
                or mask >> len(self.universe)):
            raise ScenarioError(f"objective set mask must be an int with bits "
                                f"below {len(self.universe)}, got {mask!r}")

    @property
    def members(self) -> frozenset[str]:
        return frozenset(self.ordered())

    def ordered(self) -> tuple[str, ...]:
        """Members in universe declaration order."""
        return tuple(map(self.universe.objectives.__getitem__,
                         positions(self.mask)))

    def __len__(self) -> int:
        return self.mask.bit_count()

    def __iter__(self) -> Iterator[str]:
        return iter(self.ordered())

    def __contains__(self, token: object) -> bool:
        return bool(self.mask & self.universe._bits.get(token, 0))

    def _check_same_universe(self, other: "ObjectiveSet") -> None:
        if self.universe != other.universe:
            raise ScenarioError("objective sets belong to different universes")

    def __and__(self, other: "ObjectiveSet") -> "ObjectiveSet":
        self._check_same_universe(other)
        return ObjectiveSet(self.universe, self.mask & other.mask)

    def __or__(self, other: "ObjectiveSet") -> "ObjectiveSet":
        self._check_same_universe(other)
        return ObjectiveSet(self.universe, self.mask | other.mask)

    def __sub__(self, other: "ObjectiveSet") -> "ObjectiveSet":
        self._check_same_universe(other)
        return ObjectiveSet(self.universe, self.mask & ~other.mask)

    def __le__(self, other: "ObjectiveSet") -> bool:
        self._check_same_universe(other)
        return not self.mask & ~other.mask


class UniversePartition(Record):
    """The three disjoint regions the offered and requested objectives
    split into: offered-but-not-requested, requested-but-not-offered, and
    the overlap where supply meets demand."""

    offered_only: ObjectiveSet
    requested_only: ObjectiveSet
    matched: ObjectiveSet


def opportunity_universe(environment: "Environment") -> ObjectiveSet:
    """Union of every alternative's offered objectives."""
    return ObjectiveSet(environment.universe, reduce(or_, environment.masks))


def exigence_universe(society: "Society") -> ObjectiveSet:
    """Union of every individual's required objectives (the support of its
    membership weights: objectives with weight > 0)."""
    return ObjectiveSet(society.universe, reduce(or_, society.masks))


def _check_shared(environment: "Environment", society: "Society") -> None:
    """Raise unless the environment and the society use one universe."""
    if environment.universe != society.universe:
        raise ScenarioError("environment and society use different universes")


def partition_universe(environment: "Environment",
                       society: "Society") -> UniversePartition:
    """Split offered/requested objectives into the three disjoint regions."""
    _check_shared(environment, society)
    offered = opportunity_universe(environment)
    requested = exigence_universe(society)
    return UniversePartition(
        offered_only=offered - requested,
        requested_only=requested - offered,
        matched=offered & requested,
    )
