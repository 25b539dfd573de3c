"""GSL-derived limits on the information rate of quantum channels.

A channel is a collection of quantum-particle modes with a long-wavelength
cutoff lambda_c [cm] carrying power P [erg s^-1] (rest energy included for
massive carriers).  Aiming the channel at a hole of scale M = xi lambda_c
and insisting the world entropy not decrease bounds the deliverable
information rate.  With the characteristic power

    P_c = c^2 gamma_bar N hbar / (15360 pi lambda_c^2)
        ~ 1e-4 c^2 hbar / lambda_c^2

the bound reads

    Idot < (8 pi lambda_c / hbar c) [xi P + (nu - 1) P_c / xi] log2(e)

minimized at xi* = sqrt((nu - 1) P_c / P).  Three power regimes follow:

    P <= P_c/200   sqrt law   Idot < (pi (nu-1) gamma_bar N P / 60 hbar)^(1/2) log2(e)
    P >= P_c/10    linear     Idot < (8 pi xi lambda_c P / hbar c) log2(e), xi = 10
    in between     two-term bound at xi = max(xi*, 10)

The cutoff-free single-channel capacity (n pi P / 3 hbar)^(1/2) log2(e)
(Pendry) pins the high-power endpoint of the dimensional-analysis capacity
(P/hbar)^(1/2) f(lambda_c^2 P / c^2 hbar).
"""

from __future__ import annotations

import math
from bisect import bisect_right
from collections.abc import Iterable, Sequence
from itertools import groupby, islice, repeat
from operator import ge, le
from typing import NamedTuple

from .constants import CONSTANTS, LOG2E, _checked_make
from .errors import DomainError, within_float_range
from .evaporation import (
    DEFAULT_EMISSION,
    EmissionParameters,
    powers_at_lengths,
)

#: Smallest hole-to-cutoff size ratio with near-total absorption.
XI_MIN = 1.0
#: Size ratio used once the optimizer would leave the safe range.
XI_FLOOR = 10.0
#: Regime edges: low below P_c/LOW_POWER_DIVISOR, high above P_c/HIGH_POWER_DIVISOR.
LOW_POWER_DIVISOR = 200.0
HIGH_POWER_DIVISOR = 10.0
#: Species count above which a monotonicity clash would be worrying.
CAVEAT_SPECIES_THRESHOLD = 20.0


class _ChannelFields(NamedTuple):
    lambda_c: float
    power: float
    n_carriers: float = 1.0
    emission: EmissionParameters = DEFAULT_EMISSION


class Channel(_ChannelFields):
    """A communication channel and the hole that would absorb it.

    lambda_c: long-wavelength cutoff [cm]; power: carried power including
    rest energy [erg s^-1]; n_carriers: effective carrier species of the
    channel; emission: species parameters of the absorbing hole.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, *args: object, **kwargs: object) -> Channel:
        self = super().__new__(cls, *args, **kwargs)
        check_channels((self.lambda_c,), (self.power,), self.n_carriers)
        return self


def check_channels(lambdas: Sequence[float], powers: Sequence[float],
                   n_carriers: float = 1.0) -> None:
    """The checks of a :class:`Channel`'s fields, in that order, on the
    channels (lambda_c, P, n_carriers), lambda_c in ``lambdas`` and P in
    ``powers``, for callers that evaluate many channels without building
    one.  Raises DomainError naming the columns' first channel if any fails."""
    if not (all(map(math.isfinite, lambdas)) and min(lambdas, default=1.0) > 0.0):
        raise DomainError("cutoff wavelength must be positive and finite, "
                          f"got {lambdas[0]}")
    if not (all(map(math.isfinite, powers)) and min(powers, default=0.0) >= 0.0):
        raise DomainError(f"power must be non-negative and finite, got {powers[0]}")
    if not 1.0 <= n_carriers < math.inf:
        raise DomainError(f"n_carriers must be >= 1 and finite, got {n_carriers}")


class ConsistencyReport(NamedTuple):
    """Endpoint values of the dimensionless capacity function f(z).

    f0_limit bounds f(0) from the sqrt-law regime; f_inf is fixed by the
    cutoff-free capacity.  monotone_ok means the bound ordering permits a
    monotone f; the caveat fires only when it does not AND the species
    count exceeds CAVEAT_SPECIES_THRESHOLD (a clash needs both).
    pendry_crossover_power is the power above which the linear bound
    provably dominates the cutoff-free capacity.
    """

    f0_limit: float
    f_inf: float
    monotone_ok: bool
    caveat_flagged: bool
    pendry_crossover_power: float


class CapacityReport(NamedTuple):
    p_c: float
    p_c_approx: float
    regime: str
    xi_used: float | None
    bound_bits_per_s: float
    pendry_bits_per_s: float
    consistency: ConsistencyReport


def characteristic_power(ch: Channel) -> float:
    """Exact characteristic power [erg s^-1] of the absorbing hole.

    Raises DomainError as :func:`cutoff_powers` does.
    """
    return cutoff_powers((ch.lambda_c,), ch.emission)[0]


def cutoff_powers(lambdas: Sequence[float], params: EmissionParameters) -> list[float]:
    """:func:`characteristic_power` of each cutoff [cm]: the one home of a
    cutoff's float range.  Raises DomainError naming gamma_bar and n_species
    when c^2 gamma_bar N hbar leaves the float range, else, naming the
    column's first cutoff, when some lambda_c^2 or P_c does: lambda_c above
    ~1.34e154 cm, or below ~4.7e-160 cm with the default factors."""
    return within_float_range(lambda: powers_at_lengths(lambdas, params),
                              "the characteristic power",
                              ("cutoff wavelength", lambdas, "cm"), zero=True)


def approx_characteristic_power(lambda_c: float) -> float:
    """The round-number form 1e-4 c^2 hbar / lambda_c^2 [erg s^-1] of a
    cutoff lambda_c [cm] whose lambda_c^2 fits a float.  Raises DomainError,
    naming the cutoff, where it overflows (lambda_c below ~7.3e-160 cm)."""
    k = 1e-4 * CONSTANTS.c**2 * CONSTANTS.hbar
    return within_float_range(lambda: k / lambda_c**2,
                              "the round-number characteristic power",
                              ("cutoff wavelength", lambda_c, "cm"))


def gsl_rates(lambdas: Iterable[float], powers: Iterable[float],
              p_cs: Iterable[float], params: EmissionParameters,
              xis: Iterable[float]) -> list[float]:
    """Two-term information-rate bound [bits s^-1] of each channel
    (lambda_c, P, p_c) at its size ratio xi, which must be at least XI_MIN."""
    eight_pi, hc = 8.0 * math.pi, CONSTANTS.hbar * CONSTANTS.c
    nu_1 = params.nu - 1.0
    return [eight_pi * lam / hc * (xi * P + nu_1 / xi * p_c) * LOG2E
            for lam, P, p_c, xi in zip(lambdas, powers, p_cs, xis)]


def optimal_xi(P: float, p_c: float, nu: float) -> float:
    """Size ratio sqrt((nu-1) p_c / P) minimizing the two-term bound.

    For nu <= 1 the second term is absent and the bound only grows with
    xi, so the smallest admissible ratio XI_MIN is returned.
    """
    if P <= 0:
        raise DomainError(f"power must be positive, got {P}")
    return optimal_xis((P,), (p_c,), nu)[0]


def optimal_xis(powers: Iterable[float], p_cs: Iterable[float],
                nu: float) -> list[float]:
    """:func:`optimal_xi` of each (P, p_c), P positive."""
    if nu <= 1.0:
        return [XI_MIN for _ in powers]
    nu_1, sqrt = nu - 1.0, math.sqrt
    return [sqrt(nu_1 * p_c / P) for P, p_c in zip(powers, p_cs)]


def low_power_rates(powers: Iterable[float],
                    params: EmissionParameters) -> list[float]:
    """Sqrt-law bound [bits s^-1] at each power P, the two-term bound at
    its optimum."""
    k = math.pi * (params.nu - 1.0) * params.gamma_bar * params.n_species
    d, sqrt = 60.0 * CONSTANTS.hbar, math.sqrt
    return [sqrt(k * P / d) * LOG2E for P in powers]


def high_power_rates(lambdas: Iterable[float],
                     powers: Iterable[float]) -> list[float]:
    """Linear bound [bits s^-1] of each channel (lambda_c, P) at the safe
    size ratio XI_FLOOR."""
    k, hc = 8.0 * math.pi * XI_FLOOR, CONSTANTS.hbar * CONSTANTS.c
    return [k * lam * P / hc * LOG2E for lam, P in zip(lambdas, powers)]


def pendry_capacity(P: float, n: float) -> float:
    """Cutoff-free capacity (n pi P / 3 hbar)^(1/2) log2(e) [bits s^-1] of n
    carrier species, valid for any dispersion relation; refused naming P
    and n where n pi P / 3 hbar overflows (n P above ~1.8e281 erg s^-1)."""
    if P < 0:
        raise DomainError(f"power must be non-negative, got {P}")
    if n < 1.0:
        raise DomainError(f"carrier species count must be >= 1, got {n}")
    return within_float_range(
        lambda: math.sqrt(n * math.pi * P / (3.0 * CONSTANTS.hbar)) * LOG2E,
        "the Pendry capacity", ("power", P, "erg s^-1"), ("n_carriers", n, ""))


def consistency_check(ch: Channel) -> ConsistencyReport:
    """Endpoint analysis of the capacity function f(z); see ConsistencyReport."""
    p = ch.emission
    f0_limit = math.sqrt(math.pi * (p.nu - 1.0) * p.gamma_bar * p.n_species
                         / 60.0) * LOG2E
    f_inf = math.sqrt(ch.n_carriers * math.pi / 3.0) * LOG2E
    monotone_ok = f0_limit <= f_inf
    caveat = (not monotone_ok) and p.n_species > CAVEAT_SPECIES_THRESHOLD
    p_c = characteristic_power(ch)
    crossover = 0.8 * ch.n_carriers * p_c / (p.gamma_bar * p.n_species)
    return ConsistencyReport(f0_limit=f0_limit, f_inf=f_inf,
                             monotone_ok=monotone_ok, caveat_flagged=caveat,
                             pendry_crossover_power=crossover)


#: The runs of :func:`_run`, in the order met as P/p_c rises; their regimes.
ZERO_POWER, SQRT_LAW, AT_XI_MIN, INTERMEDIATE, HIGH = range(5)
_REGIMES = ("low", "low", "low", "intermediate", "high")


def _run(P: float, p_c: float, nu: float) -> int:
    """The run of the channel of power P and characteristic power p_c: the
    one home of the regime policy.

    P = 0 carries nothing.  The regime is low up to p_c/200, where the sqrt
    law holds if nu > 1 and optimal_xi >= XI_MIN, else the two-term bound
    is taken at XI_MIN; high from p_c/10; intermediate between.  Where P
    never falls and p_c never rises along columns, P/p_c never falls and
    optimal_xi never rises, so neither does the run.
    """
    if P == 0.0:
        return ZERO_POWER
    if P <= p_c / LOW_POWER_DIVISOR:
        if nu > 1.0 and optimal_xi(P, p_c, nu) >= XI_MIN:
            return SQRT_LAW
        return AT_XI_MIN
    return HIGH if P >= p_c / HIGH_POWER_DIVISOR else INTERMEDIATE


def _rates(run: int, lambdas: Sequence[float], powers: Sequence[float],
           p_cs: Sequence[float], params: EmissionParameters
           ) -> tuple[Iterable[float | None], list[float]]:
    """The xi used and the bound [bits s^-1] of the channels (lambda_c, P,
    p_c), columns of one length all in run ``run``, by its kernel; the sqrt
    law's xi is computed only as read."""
    if run == ZERO_POWER:
        return repeat(None), [0.0] * len(powers)
    if run == SQRT_LAW:
        return (map(optimal_xi, powers, p_cs, repeat(params.nu)),
                low_power_rates(powers, params))
    if run == HIGH:
        return repeat(XI_FLOOR), high_power_rates(lambdas, powers)
    xis = [XI_MIN] * len(powers) if run == AT_XI_MIN else [
        XI_FLOOR if XI_FLOOR > xi else xi       # max(xi, XI_FLOOR)
        for xi in optimal_xis(powers, p_cs, params.nu)]
    return xis, gsl_rates(lambdas, powers, p_cs, params, xis)


def regime_columns(lambdas: Sequence[float], powers: Sequence[float],
                   p_cs: Sequence[float], params: EmissionParameters
                   ) -> tuple[list[str], list[float]]:
    """The regime and the bound [bits s^-1] of each channel (lambda_c, P,
    p_c), columns of one length, as two columns: the one kernel of every
    channel sweep.  The channels must pass :func:`check_channels`.

    Each stretch of points in one run of :func:`_run` maps its kernel
    (:func:`_rates`).  Where P never falls and p_c never rises, so neither
    do the runs, bisection finds them; else each point's run is read.  A
    bound beyond the float range (the linear one: lambda_c P above ~1.6e289
    erg cm s^-1) is refused naming its run's first cutoff and power.
    """
    n, nu = len(powers), params.nu
    if all(map(le, powers, islice(powers, 1, None))) and all(
            map(ge, p_cs, islice(p_cs, 1, None))):
        stops = [bisect_right(range(n), run,
                              key=lambda i: _run(powers[i], p_cs[i], nu))
                 for run in range(len(_REGIMES))]
        runs = [(run, stop - start) for run, start, stop
                in zip(range(len(_REGIMES)), [0, *stops], stops) if start < stop]
    else:
        runs = [(run, len(list(points)))
                for run, points in groupby(map(_run, powers, p_cs, repeat(nu)))]
    regimes, bounds, start = [], [], 0
    for run, size in runs:
        stop = start + size
        regimes += repeat(_REGIMES[run], size)
        lams, pows = lambdas[start:stop], powers[start:stop]
        bounds += within_float_range(
            lambda: _rates(run, lams, pows, p_cs[start:stop], params)[1],
            "the information-rate bound", ("cutoff wavelength", lams, "cm"),
            ("power", pows, "erg s^-1"))
        start = stop
    return regimes, bounds


def capacity_bound(ch: Channel) -> CapacityReport:
    """Dispatch the power regime and return the applicable rate bound.

    Regime edges (P_c/200 and P_c/10) are disclosed in the report along
    with the xi actually used; the adjacent formulas differ by a bounded
    factor at the edges.  Raises DomainError as :func:`regime_columns`
    does where the bound leaves the float range.
    """
    p_c = characteristic_power(ch)
    run = _run(ch.power, p_c, ch.emission.nu)
    xis, bounds = _rates(run, (ch.lambda_c,), (ch.power,), (p_c,), ch.emission)
    # sqrt((nu - 1) p_c / P) for a tiny P
    xi = within_float_range(lambda: next(iter(xis)), "the sqrt law's optimal xi",
                            ("power", ch.power, "erg s^-1"))
    p_c_approx = approx_characteristic_power(ch.lambda_c)
    bound = within_float_range(lambda: bounds[0], "the information-rate bound",
                               ("cutoff wavelength", ch.lambda_c, "cm"),
                               ("power", ch.power, "erg s^-1"))
    return CapacityReport(
        p_c=p_c, p_c_approx=p_c_approx,
        regime=_REGIMES[run], xi_used=xi, bound_bits_per_s=bound,
        pendry_bits_per_s=pendry_capacity(ch.power, ch.n_carriers),
        consistency=consistency_check(ch))
