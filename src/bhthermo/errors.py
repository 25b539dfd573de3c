"""Exception types shared across the toolkit, and which point a refused
column names."""

from __future__ import annotations

from collections.abc import Callable, Sequence
from typing import TypeVar

T = TypeVar("T")

#: Points per block of :func:`first_refused`'s search, as document.BLOCK_ROWS.
BLOCK_POINTS = 4096


class DomainError(ValueError):
    """Input outside the physical domain of a formula."""


class SubPlanckMassError(DomainError):
    """Mass below the Planck mass, where no horizon can form."""


class NakedSingularityError(DomainError):
    """Charge and spin exceed what the mass can hold (Q^2 + a^2 > M^2)."""


def first_refused(compute: Callable[..., T], *columns: Sequence) -> T:
    """``compute(*columns)``, or the DomainError of the first point it
    refuses, for a ``compute`` of columns of one length that refuses them,
    naming their first point, exactly when it refuses one of their points.
    After a refusal it runs on blocks of BLOCK_POINTS points, then point by
    point, on one-point columns, inside the first block it refuses."""
    try:
        return compute(*columns)
    except DomainError as exc:
        refused = exc
    for start in range(0, len(columns[0]), BLOCK_POINTS):
        block = [column[start:start + BLOCK_POINTS] for column in columns]
        try:
            compute(*block)
        except DomainError:
            for point in zip(*block):
                compute(*([x] for x in point))
    raise refused
