"""CGS physical constants and the unit conversions used by every other module,
and the one model default they share (DEFAULT_NU).

All internal computation runs in Gaussian CGS with temperature carried as an
energy (erg); Kelvin appears only at display boundaries.  Entropy is
dimensionless (nats), converted to bits on request.

Base values are CODATA 2018, frozen here so results do not drift with
library upgrades.  Derived constants (sigma_SB, planck_length, planck_mass)
are recomputed from the base four at import time and never stored
independently.
"""

from __future__ import annotations

import math
from collections.abc import Iterable, Sequence
from typing import NamedTuple

from .errors import DomainError

#: log2(e), the nats -> bits conversion factor.
LOG2E = math.log2(math.e)
#: Default irreversibility factor nu by which the entropy a hole radiates
#: exceeds E/T: 1.35-1.64 depending on species, and this is the midpoint.
#: Both the emission parameters and the weak universal bound default to it.
DEFAULT_NU = 1.5


def _check_nu(nu: float) -> None:
    """Refuse an irreversibility factor outside [1, 2]."""
    if not 1.0 <= nu <= 2.0:
        raise DomainError(f"nu must lie in [1, 2], got {nu}")


def _checked_make(cls: type, iterable: Iterable[object]) -> tuple:
    """``_make``, and so ``_replace``, of a value type whose ``__new__``
    checks or derives fields: NamedTuple's own skip ``__new__``."""
    return cls(*iterable)


class _ConstantsFields(NamedTuple):
    G: float
    c: float
    hbar: float
    k_B: float
    sigma_SB: float
    planck_length: float
    planck_mass: float


class PhysicalConstants(_ConstantsFields):
    """Fundamental constants in CGS plus the derived quantum-gravity scales.

    Built from the base four (G, c, hbar, k_B); the derived three are
    computed once, at construction.  ``_make`` takes the base four, and
    ``_replace`` replaces only them.

    Attributes
    ----------
    G : float
        Newtonian gravitational constant [cm^3 g^-1 s^-2].
    c : float
        Speed of light [cm s^-1].
    hbar : float
        Reduced Planck constant [erg s].
    k_B : float
        Boltzmann constant [erg K^-1].
    sigma_SB : float
        Stefan-Boltzmann constant, pi^2 k_B^4 / (60 hbar^3 c^2)
        [erg cm^-2 s^-1 K^-4].  Derived.
    planck_length : float
        (G hbar / c^3)^(1/2) [cm].  Derived.
    planck_mass : float
        (hbar c / G)^(1/2) [g].  Derived.
    """

    __slots__ = ()

    def __new__(cls, G: float, c: float, hbar: float,
                k_B: float) -> PhysicalConstants:
        return super().__new__(cls, G, c, hbar, k_B,
                               math.pi**2 * k_B**4 / (60.0 * hbar**3 * c**2),
                               math.sqrt(G * hbar / c**3),
                               math.sqrt(hbar * c / G))

    _make = classmethod(_checked_make)

    def _replace(self, /, **changes: float) -> PhysicalConstants:
        new = self._make(map(changes.pop, self._fields[:4], self))
        if changes:
            raise ValueError("only G, c, hbar and k_B can be replaced, "
                             f"got {sorted(changes)}")
        return new

    def __getnewargs__(self) -> tuple[float, ...]:
        # copy and pickle rebuild from the base four
        return self[:4]


# CODATA 2018; c and k_B are exact by SI definition.
CODATA2018 = PhysicalConstants(
    G=6.67430e-8,          # cm^3 g^-1 s^-2
    c=2.99792458e10,       # cm s^-1
    hbar=1.054571817e-27,  # erg s
    k_B=1.380649e-16,      # erg K^-1
)

#: Default constants used throughout the package.
CONSTANTS = CODATA2018
#: Where CONSTANTS come from, as the constants record states it.
CONSTANTS_SOURCE = "CODATA 2018 (frozen)"


def geometrized_mass(m: float) -> float:
    """Convert a mass m [g] to its gravitational length G m / c^2 [cm].

    For a Schwarzschild hole the horizon radius is twice this length.
    """
    if m <= 0:
        raise DomainError(f"mass must be positive, got {m}")
    return geometrized_masses((m,))[0]


def geometrized_masses(masses: Iterable[float]) -> list[float]:
    """:func:`geometrized_mass` of each mass [g], for callers that have
    checked the masses are positive."""
    G, c2 = CONSTANTS.G, CONSTANTS.c**2
    return [G * m / c2 for m in masses]


def mass_from_geometrized(length: float) -> float:
    """Inverse of :func:`geometrized_mass`: length [cm] back to mass [g]."""
    if length <= 0:
        raise DomainError(f"length must be positive, got {length}")
    return length * CONSTANTS.c**2 / CONSTANTS.G


def geometrized_charge(q: float) -> float:
    """Convert a charge q [esu] to its length sqrt(G) q / c^2 [cm]."""
    return math.sqrt(CONSTANTS.G) * q / CONSTANTS.c**2


def spin_lengths(j: float, masses: Iterable[float]) -> list[float]:
    """Spin length a = j / (m c) [cm] of angular momentum j [erg s] at each
    mass m [g], for callers that have checked the masses are positive."""
    c = CONSTANTS.c
    return [j / (m * c) for m in masses]


def energy_temperature_to_kelvin(T: float) -> float:
    """Convert a temperature expressed as an energy [erg] to Kelvin."""
    return temperatures_in_kelvin((T,))[0]


def temperatures_in_kelvin(temperatures: Sequence[float]) -> list[float]:
    """:func:`energy_temperature_to_kelvin` of each temperature [erg],
    refusing the first negative one."""
    negative = next((T for T in temperatures if T < 0), None)
    if negative is not None:
        raise DomainError(f"temperature must be non-negative, got {negative}")
    k_B = CONSTANTS.k_B
    return [T / k_B for T in temperatures]


def nats_to_bits(S: float) -> float:
    """Convert an entropy or information content from nats to bits."""
    return entropies_in_bits((S,))[0]


def entropies_in_bits(entropies: Sequence[float]) -> list[float]:
    """:func:`nats_to_bits` of each entropy [nats], refusing the first
    negative one."""
    negative = next((S for S in entropies if S < 0), None)
    if negative is not None:
        raise DomainError(f"entropy must be non-negative, got {negative}")
    return [S * LOG2E for S in entropies]
