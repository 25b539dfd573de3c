"""Hawking emission of a Schwarzschild hole: radiated power and
evaporation lifetime.

The power carries the species and relativistic correction factors
(gamma_bar, n_species) explicitly:

      P = c^2 gamma_bar N hbar / (15360 pi M^2)

At gamma_bar * N = 1 it is the naive Stefan-Boltzmann emission
4 pi r_g^2 sigma T^4 of a sphere of the horizon radius at the hole's
temperature.

With dm/dt = -K/m^2 the hole shrinks from m0 to m in the closed-form time

      t(m) = (m0^3 - m^3) / (3 K),    K = N hbar c^4 / (15360 pi G^2)
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import NamedTuple

from .constants import CONSTANTS, DEFAULT_NU, _check_nu, _checked_make
from .errors import DomainError, SubPlanckMassError, within_float_range
from .grids import linspace
from .kerr_newman import BlackHole


class _EmissionFields(NamedTuple):
    nu: float = DEFAULT_NU
    gamma_bar: float = 2.0
    n_species: float = 1.0


class EmissionParameters(_EmissionFields):
    """Species-dependent emission factors.

    nu is the irreversibility factor by which radiated entropy exceeds
    E/T (1.35-1.64 depending on species; default is the midpoint).
    gamma_bar absorbs relativistic corrections to the naive horizon-sphere
    emission picture.  n_species counts effective massless species
    (photons contribute 1, each neutrino species 7/16); it is a user
    input, not derived here.  Counting the two photon helicities as
    separate species doubles n_species and with it every formula carrying
    the gamma_bar * n_species product; the default keeps them as one.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, *args: float, **kwargs: float) -> EmissionParameters:
        self = super().__new__(cls, *args, **kwargs)
        _check_nu(self.nu)
        if not 0 < self.gamma_bar < math.inf:
            raise DomainError(
                f"gamma_bar must be positive and finite, got {self.gamma_bar}")
        if not 1.0 <= self.n_species < math.inf:
            raise DomainError(
                f"n_species must be >= 1 and finite, got {self.n_species}")
        return self


DEFAULT_EMISSION = EmissionParameters()


def powers_at_lengths(lengths: Sequence[float],
                      params: EmissionParameters) -> list[float]:
    """c^2 gamma_bar N hbar / (15360 pi L^2) [erg s^-1] at each length L [cm].

    The Hawking power of a hole of gravitational length L, and the
    characteristic power of a channel whose cutoff wavelength is L.
    Raises DomainError, naming gamma_bar and n_species, when the numerator
    overflows or underflows to 0 (gamma_bar N above ~2e287 or below
    ~3e-318), else OverflowError or ZeroDivisionError for the first L
    whose L^2 leaves the float range.  A power is inf or 0 only where the
    quotient itself leaves the float range; each caller refuses it, naming
    its own length.
    """
    g, n = params.gamma_bar, params.n_species
    numerator = within_float_range(lambda: CONSTANTS.c**2 * g * n * CONSTANTS.hbar,
                                   "c^2 gamma_bar N hbar", ("gamma_bar", g, ""),
                                   ("n_species", n, ""), zero=True)
    scale, inf = 15360.0 * math.pi, math.inf
    # where 15360 pi L^2 overflows (L above ~6.1e151 cm) but L^2 does not,
    # dividing by each in turn keeps the power
    return [numerator / d if (d := scale * L**2) < inf else numerator / scale / L**2
            for L in lengths]


def hawking_power(bh: BlackHole,
                  params: EmissionParameters = DEFAULT_EMISSION) -> float:
    """Total radiated power [erg s^-1]: gamma_bar N times the
    Stefan-Boltzmann power 4 pi r_g^2 sigma T^4 of the horizon sphere.

    M^2 fits a float for every hole :func:`make_black_hole` builds; raises
    DomainError as :func:`powers_at_lengths` does for its numerator, and
    naming the mass where the power overflows (a light hole of large
    gamma_bar N) or underflows to 0 (a heavy hole of small gamma_bar N).
    """
    if not bh.is_schwarzschild:
        raise DomainError("emission formulas require a Schwarzschild hole (q = j = 0)")
    return within_float_range(lambda: powers_at_lengths((bh.M,), params)[0],
                              "the Hawking power", ("mass", bh.m, "g"), zero=True)


def _loss_constant(params: EmissionParameters) -> float:
    """K in dm/dt = -K/m^2: N hbar c^4 / (15360 pi G^2), which is m^2 times
    the Stefan-Boltzmann power of the horizon sphere over c^2, once for
    each of N = n_species species.

    Raises DomainError, naming n_species, when K or the 3 K every time
    divides by overflows (N above ~1.5e283): each time would be 0.
    """
    k = (params.n_species * CONSTANTS.hbar * CONSTANTS.c**4
         / (15360.0 * math.pi * CONSTANTS.G**2))
    within_float_range(lambda: 3.0 * k, "the evaporation rate constant",
                       ("n_species", params.n_species, ""))
    return k


def _evaporation_times(m0: float, masses: list[float], K: float) -> list[float]:
    """Times [s] for the mass to fall from m0 to each of masses:
    (m0^3 - m^3) / (3 K).

    Factored as (m0 - m)(m0^2 + m0 m + m^2) / (3 K), so no intermediate
    overflows before the result does, and m0 - m is exact for m near m0.
    """
    m0_sq, three_k = m0 * m0, 3.0 * K
    return [(m0 - m) * ((m0_sq + m0 * m + m * m) / three_k) for m in masses]


def lifetime(m0: float, params: EmissionParameters = DEFAULT_EMISSION) -> float:
    """Time [s] for the hole to evaporate from m0 down to the Planck mass.

    The exact solution (m0^3 - m_P^3) / (3 K) of dm/dt = -K/m^2, ending at
    the Planck mass (evaporation below that scale is uncontrolled quantum
    gravity, not modelled).

    Raises
    ------
    SubPlanckMassError
        If m0 is not above the Planck mass.
    DomainError
        If m0 is not finite, if n_species puts K beyond the float range,
        or if the lifetime exceeds it (m0 above ~1e111 g).
    """
    if not math.isfinite(m0):
        raise DomainError(f"initial mass must be finite, got {m0}")
    if m0 <= CONSTANTS.planck_mass:
        raise SubPlanckMassError(
            f"initial mass {m0} g is not above the Planck mass")
    K = _loss_constant(params)
    return within_float_range(
        lambda: _evaporation_times(m0, [CONSTANTS.planck_mass], K)[0],
        "the lifetime", ("initial mass", m0, "g"))


def mass_history(m0: float, params: EmissionParameters = DEFAULT_EMISSION,
                 points: int = 200) -> tuple[list[float], list[float]]:
    """Sampled evaporation trajectory (t [s], m(t) [g]), time ascending.

    The masses run evenly from m0 down to the Planck mass; t[0] is 0 and
    t[-1] is ``lifetime(m0, params)``.
    """
    if points < 2:
        raise DomainError(f"need at least 2 sample points, got {points}")
    lifetime(m0, params)  # validates m0; t[-1] is the largest time
    m = linspace(m0, CONSTANTS.planck_mass, points)
    return _evaporation_times(m0, m, _loss_constant(params)), m
