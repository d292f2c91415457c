"""Exception types shared across the package."""

from __future__ import annotations

from .literals import _quoted_id


class ScenarioError(ValueError):
    """A scenario value violates a structural invariant (bad token, empty
    set, out-of-range membership, duplicate id, unknown objective...)."""


class LengthMismatch(ScenarioError):
    """A social profile's length disagrees with the environment ``rank``
    orders it over."""


class MeasureError(Exception):
    """Base class for utility-measure failures.

    Carries optional context naming the individual and the alternative at
    which the failure surfaced; profile builders fill these in so errors
    from deep inside a batch point at the offending scenario member.  The
    message quotes both ids briefly (``literals._quoted_id``).
    """

    def __init__(self, message: str, *, individual_id: str | None = None,
                 alternative_id: str | None = None):
        super().__init__(message)
        self.message = message
        self.individual_id = individual_id
        self.alternative_id = alternative_id

    def __str__(self) -> str:
        parts = [self.message]
        if self.individual_id is not None:
            parts.append(f"individual {_quoted_id(self.individual_id)}")
        if self.alternative_id is not None:
            parts.append(f"alternative {_quoted_id(self.alternative_id)}")
        return " | ".join(parts)

    def with_context(self, *, individual_id: str | None = None,
                     alternative_id: str | None = None) -> "MeasureError":
        """Return a copy with missing context fields filled in."""
        return type(self)(
            self.message,
            individual_id=self.individual_id or individual_id,
            alternative_id=self.alternative_id or alternative_id,
        )


class NonCrispIndividual(MeasureError):
    """A set-cardinality measure was asked to score an individual whose
    membership weights are not all 0 or 1."""


class EmptyIndividual(MeasureError):
    """An individual with an empty support reached a measure that divides
    by the support size (unreachable through validated constructors)."""


class ZeroMembershipMass(MeasureError):
    """An individual whose membership weights sum to zero reached the
    weighted measure (unreachable through validated constructors)."""
