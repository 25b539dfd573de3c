"""Exception types shared across the toolkit, and which point a refused
column names."""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import TypeVar

T = TypeVar("T")


class DomainError(ValueError):
    """Input outside the physical domain of a formula."""


class SubPlanckMassError(DomainError):
    """Mass below the Planck mass, where no horizon can form."""


class NakedSingularityError(DomainError):
    """Charge and spin exceed what the mass can hold (Q^2 + a^2 > M^2)."""


def first_refused(compute: Callable[..., T], *columns: Sequence) -> T:
    """``compute(*columns)``, for a ``compute`` that maps columns of one
    length to its result and raises DomainError if it refuses any point,
    naming the columns' first point: exact for one-point columns.  After a
    refusal, ``compute`` runs once per point on one-point columns, so the
    error raised is the first refused point's own."""
    try:
        return compute(*columns)
    except DomainError as exc:
        refused = exc
    for point in zip(*columns):
        compute(*([x] for x in point))
    raise refused
