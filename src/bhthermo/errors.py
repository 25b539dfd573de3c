"""Exception types shared across the toolkit, the one rule of a result
beyond the float range, and which point a refused column names."""

from __future__ import annotations

from collections.abc import Callable, Sequence
from math import inf
from sys import float_info
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


def within_float_range(compute: Callable[[], T], output: str,
                       *inputs: tuple[str, float | Sequence[float], str],
                       zero: bool = False) -> T:
    """``compute()``, a number or a list of them, unless it raises
    OverflowError or ZeroDivisionError or holds +-inf, or a 0.0 where
    ``zero`` says a 0 is an underflow.  Then raises DomainError "<input>
    <value> <unit> puts <output> beyond the float range", each (input,
    value, unit) of ``inputs`` joined by "and" (then "put"), a column
    value named by its first point; the message is built only then."""
    try:
        result = compute()
    except (OverflowError, ZeroDivisionError):
        pass
    else:
        column = result if isinstance(result, list) else (result,)
        if not (inf in column or -inf in column or zero and 0.0 in column):
            return result
    named = []
    for name, value, unit in inputs:
        value = value[0] if isinstance(value, Sequence) else value
        # a subnormal's :g misstates it (9.99989e-321 for 1e-320); its repr does not
        text = repr(value) if 0.0 < abs(value) < float_info.min else f"{value:g}"
        named.append(" ".join(filter(None, (name, text, unit))))
    verb = "puts" if len(named) == 1 else "put"
    raise DomainError(f"{' and '.join(named)} {verb} {output} beyond the float range")


def first_refused(compute: Callable[..., T], *columns: Sequence) -> T:
    """``compute(*columns)``, or the DomainError of the first point it
    refuses, for a ``compute`` of columns of one length that refuses them,
    naming their first point, exactly when it refuses one of their points.
    After a refusal it runs on blocks of BLOCK_POINTS points, bisects the
    first block it refuses for its first refused point, and runs on that
    point alone, as one-point columns."""
    try:
        return compute(*columns)
    except DomainError as exc:
        refused = exc
    for start in range(0, len(columns[0]), BLOCK_POINTS):
        block = [column[start:start + BLOCK_POINTS] for column in columns]
        try:
            compute(*block)
        except DomainError:
            low, high = 0, len(block[0])    # the first refused point is in [low, high)
            while high - low > 1:
                middle = (low + high) // 2
                try:
                    compute(*(column[low:middle] for column in block))
                except DomainError:
                    high = middle
                else:
                    low = middle
            compute(*([column[low]] for column in block))
    raise refused
