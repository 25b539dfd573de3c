"""Evenly spaced sample grids as lists of floats.

``linspace`` performs numpy.linspace's arithmetic, so both give the same
floats.  ``geomspace`` follows numpy.geomspace: a linear grid of decimal
logarithms, raised back to powers of ten, with exact endpoints.
"""

from __future__ import annotations

from decimal import Context, Decimal
from itertools import repeat

#: With 40 digits, float() of a decimal logarithm is correctly rounded.
_LOG_CONTEXT = Context(prec=40)


def linspace(start: float, stop: float, n: int) -> list[float]:
    """n >= 2 points from start to stop inclusive, evenly spaced.

    Point i is start + i * step with step = (stop - start) / (n - 1), and
    the last point is stop itself.
    """
    div = n - 1
    delta = stop - start
    step = delta / div
    if step == 0:
        # step underflowed (subnormal delta): scale i / div instead
        points = [i / div * delta + start for i in range(n)]
    else:
        points = [i * step + start for i in range(n)]
    points[-1] = stop
    return points


def _log10(x: float) -> float:
    # math.log10 can be an ulp off, and raising 10 to a grid point
    # magnifies an ulp of the exponent ~ln(10)|log10 x| times.
    return float(_LOG_CONTEXT.log10(Decimal(x)))


def geomspace(start: float, stop: float, n: int) -> list[float]:
    """n >= 2 points from start to stop inclusive (both positive), evenly
    spaced in log; the endpoints are start and stop exactly."""
    logs = linspace(_log10(start), _log10(stop), n)
    return [start, *map(pow, repeat(10.0), logs[1:-1]), stop]
