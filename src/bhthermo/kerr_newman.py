"""Kerr-Newman black hole model: horizon geometry, entropy, temperature,
first-law potentials.

A stationary black hole is fixed by mass m [g], charge q [esu] and angular
momentum j [erg s].  Three derived length scales specify it completely:

    M = G m / c^2           gravitational length [cm]
    Q = sqrt(G) q / c^2     charge length [cm]
    a = j / (m c)           spin length [cm]

from which

    r_plus = M + sqrt(M^2 - Q^2 - a^2)      outer horizon radius [cm]
    A      = 4 pi (r_plus^2 + a^2)          horizon area [cm^2]
    S      = A / (4 l_P^2)                  entropy [nats]
    T      = (2 c hbar / A) (r_plus - M)    temperature [erg]

The hole exists only for Q^2 + a^2 <= M^2.  On that boundary (extremal
holes) the temperature vanishes; for q = j = 0 the horizon radius reduces
to the Schwarzschild value 2 G m / c^2.

Energy conservation takes the first-law form

    d(m c^2) = Theta dA + Phi dq + Omega dj

with Theta = c^4 (r_plus - M) / (2 G A) [erg cm^-2], the horizon electric
potential Phi = q r_plus / (r_plus^2 + a^2) [statvolt], and the horizon
angular frequency Omega = j / (m (r_plus^2 + a^2)) [s^-1].
"""

from __future__ import annotations

import math
from collections.abc import Sequence
from typing import NamedTuple

from .constants import (
    CONSTANTS,
    entropies_in_bits,
    geometrized_charge,
    geometrized_masses,
    spin_lengths,
)
from .errors import (
    DomainError,
    NakedSingularityError,
    SubPlanckMassError,
    within_float_range,
)

#: Relative slack accepted on the existence test Q^2 + a^2 <= M^2.
EPS_EXTREMAL = 1e-12


class BlackHole(NamedTuple):
    """A validated Kerr-Newman black hole.

    Build instances through :func:`make_black_hole`, which enforces the
    Planck-mass floor and the existence condition.

    Attributes
    ----------
    m : float
        Mass [g].
    q : float
        Charge [esu].
    j : float
        Angular momentum [erg s].
    M, Q, a : float
        Derived length scales [cm], see module docstring.
    r_plus : float
        Outer horizon radius [cm].
    """

    m: float
    q: float
    j: float
    M: float
    Q: float
    a: float
    r_plus: float

    @property
    def is_schwarzschild(self) -> bool:
        return self.q == 0.0 and self.j == 0.0


class FirstLawPotentials(NamedTuple):
    """Conjugate potentials of the black hole first law.

    theta [erg cm^-2] multiplies area changes, phi [statvolt] charge
    changes and omega [s^-1] angular-momentum changes.  theta vanishes
    exactly at extremality.
    """

    theta: float
    phi: float
    omega: float


def horizon_columns(masses: Sequence[float], q: float, j: float
                    ) -> tuple[list[float], float, list[float], list[float]]:
    """The length scales (M, Q, a, r_plus) [cm] of the holes (m, q, j), m in
    ``masses``: the columns M, a and r_plus = M + sqrt(M^2 - Q^2 - a^2), and
    the one charge length Q that the holes share.

    If any hole is invalid, raises what :func:`make_black_hole` raises,
    naming the column's first mass: for a NaN or infinite input, a mass
    below the Planck mass, a horizon radius beyond the float range (M^2
    overflows: M above ~1.34e154 cm, m above ~1.8e182 g), or Q^2 + a^2
    above M^2 beyond the EPS_EXTREMAL slack (NakedSingularityError).
    """
    if masses and not (math.isfinite(q) and math.isfinite(j)
                       and all(map(math.isfinite, masses))):
        raise DomainError(f"mass, charge and spin must be finite, got "
                          f"{masses[0]}, {q}, {j}")
    if min(masses, default=math.inf) < CONSTANTS.planck_mass:
        raise SubPlanckMassError(f"mass {masses[0]} g is below the Planck "
                                 f"mass {CONSTANTS.planck_mass:.6e} g")
    Q, M = geometrized_charge(q), geometrized_masses(masses)
    top = max(M, default=0.0)
    within_float_range(lambda: top * top, "the horizon radius", ("mass", masses, "g"))
    if q == 0.0 and j == 0.0:
        # Schwarzschild: j / (m c) is j, signed zero, and sqrt(M * M) is
        # M where M * M is finite, so the general form below gives M + M.
        return M, Q, [float(j)] * len(M), [x + x for x in M]
    a = spin_lengths(j, masses)
    Q2, slack = Q * Q, 1.0 + EPS_EXTREMAL
    s2 = [Q2 + x * x for x in a]
    # the existence test, which no hole fails where Q^2 + a^2 is 0 throughout
    if max(s2, default=0.0) > 0.0 and True in [
            t > x * x * slack for t, x in zip(s2, M)]:
        raise NakedSingularityError(f"no horizon: Q^2 + a^2 = {s2[0]:.6e} "
                                    f"cm^2 exceeds M^2 = {M[0] * M[0]:.6e} cm^2")
    # (M - s)(M + s) instead of M^2 - s^2 avoids cancellation near
    # extremality.  Within the existence slack the hole is extremal:
    # clamping keeps the square root from amplifying last-digit noise
    # into a fake temperature.
    sqrt = math.sqrt
    return M, Q, a, [
        x + sqrt(0.0 if (d := (x - s) * (x + s)) < EPS_EXTREMAL * x * x else d)
        for x, s in zip(M, map(sqrt, s2))]


def make_black_hole(m: float, q: float = 0.0, j: float = 0.0) -> BlackHole:
    """Construct and validate a black hole from (mass, charge, spin).

    Parameters
    ----------
    m : float
        Mass [g]; must be at least one Planck mass, below which no
        horizon forms.
    q : float
        Charge [esu].
    j : float
        Angular momentum [erg s].

    Raises
    ------
    DomainError
        If m, q or j is NaN or infinite, or M^2 overflows (m above ~1.8e182 g).
    SubPlanckMassError
        If m is below the Planck mass.
    NakedSingularityError
        If Q^2 + a^2 exceeds M^2 (beyond a 1e-12 relative slack).
    """
    (M,), Q, (a,), (r_plus,) = horizon_columns((m,), q, j)
    return BlackHole(m, q, j, M, Q, a, r_plus)


def horizon_areas(r_plus: Sequence[float], a: Sequence[float]) -> list[float]:
    """Horizon areas 4 pi (r_plus^2 + a^2) [cm^2] from the columns of
    horizon radii and spin lengths [cm].

    Raises DomainError, naming the column's first radius, when some area
    overflows (r_plus above ~4.7e153 cm, m above ~2.55e181 g).
    """
    four_pi = 4.0 * math.pi
    return within_float_range(
        lambda: [four_pi * (r**2 + x**2) for r, x in zip(r_plus, a)] if any(a)
        else [four_pi * r**2 for r in r_plus],      # r^2 + (+-0)^2 is r^2
        "the horizon area", ("horizon radius", r_plus, "cm"))


def entropies(areas: Sequence[float]) -> list[float]:
    """Entropies A / (4 l_P^2) [nats] of the horizons of areas A [cm^2].
    Raises DomainError, naming the column's first area, when some entropy
    overflows (A above ~1.88e243 cm^2, m above ~8.23e148 g)."""
    four_lp2 = 4.0 * CONSTANTS.planck_length**2
    return within_float_range(lambda: [A / four_lp2 for A in areas], "the entropy",
                              ("horizon area", areas, "cm^2"))


def bit_entropies(areas: Sequence[float]) -> list[float]:
    """:func:`entropies` in bits, refused as they are, or where some overflows
    in bits (A above ~1.30e243 cm^2, m above ~6.9e148 g)."""
    return within_float_range(lambda: entropies_in_bits(entropies(areas)),
                              "the entropy in bits", ("horizon area", areas, "cm^2"))


def temperatures(M: Sequence[float], r_plus: Sequence[float],
                 areas: Sequence[float]) -> list[float]:
    """Temperatures (2 c hbar / A)(r_plus - M) [erg] from the columns of
    gravitational lengths, horizon radii [cm] and horizon areas [cm^2]."""
    two_c_hbar = 2.0 * CONSTANTS.c * CONSTANTS.hbar
    return [two_c_hbar * (r - x) / A for x, r, A in zip(M, r_plus, areas)]


def horizon_area(bh: BlackHole) -> float:
    """Event horizon area A = 4 pi (r_plus^2 + a^2) [cm^2]."""
    return horizon_areas((bh.r_plus,), (bh.a,))[0]


def entropy(bh: BlackHole) -> float:
    """Black hole entropy A / (4 l_P^2) [nats]."""
    return entropies((horizon_area(bh),))[0]


def temperature(bh: BlackHole) -> float:
    """Radiation temperature (2 c hbar / A)(r_plus - M) [erg].

    Zero exactly for extremal holes; reduces to hbar c / (8 pi M) in the
    Schwarzschild case.
    """
    return temperatures((bh.M,), (bh.r_plus,), (horizon_area(bh),))[0]


def potentials(bh: BlackHole) -> FirstLawPotentials:
    """First-law potentials (Theta, Phi, Omega) of the hole.

    Phi is the electric potential at the horizon; Omega is the angular
    frequency with which the horizon entrains infalling matter.  Raises
    DomainError naming the charge where q r_plus overflows (m above ~2e169 g).
    """
    A = horizon_area(bh)
    w2 = bh.r_plus**2 + bh.a**2
    theta = CONSTANTS.c**4 * (bh.r_plus - bh.M) / (2.0 * CONSTANTS.G * A)
    phi = within_float_range(lambda: bh.q * bh.r_plus / w2, "the horizon potential",
                             ("charge", bh.q, "esu"))
    # where m (r_plus^2 + a^2) overflows (a spinning hole above ~2e121 g)
    # but neither factor does, dividing by each in turn keeps omega
    omega = bh.j / d if (d := bh.m * w2) < math.inf else bh.j / bh.m / w2
    return FirstLawPotentials(theta=theta, phi=phi, omega=omega)


def h_factors(bh: BlackHole) -> tuple[float, float]:
    """Entropy and temperature ratios to the equal-mass Schwarzschild hole.

    Returns h1 = S(bh)/S(Schwarzschild) = (r_plus^2 + a^2)/4M^2 and h2 =
    T(bh)/T(Schwarzschild) = 4M (r_plus - M)/(r_plus^2 + a^2), in units of 2M,
    so that no step overflows; both equal 1 exactly for q = j = 0 and lie in
    [0, 1] over the whole existence domain."""
    x, y = bh.r_plus / (2.0 * bh.M), bh.a / (2.0 * bh.M)
    h1 = x * x + y * y
    return h1, (bh.r_plus - bh.M) / (bh.M * h1)


def mean_density(m: float) -> float:
    """Mean density 3 c^6 / (32 pi G^3 m^2) [g cm^-3] of a Schwarzschild hole.

    The mass inside its own horizon sphere of radius 2 G m / c^2; scales
    as m^-2, so small holes are dense and giant ones can be thinner
    than water.

    Raises
    ------
    DomainError
        If m is not positive and finite, or the density leaves the float
        range (m above ~1.3e154 g, where m^2 overflows, or below ~2e-113 g).
    """
    return mean_densities((m,))[0]


def mean_densities(masses: Sequence[float]) -> list[float]:
    """:func:`mean_density` of each mass [g], raising what it raises for
    a mass it refuses, naming the column's first mass."""
    if not all(map((0.0).__lt__, masses)) or math.inf in masses:     # nan fails <
        raise DomainError(f"mass must be positive and finite, got {masses[0]}")
    numerator = 3.0 * CONSTANTS.c**6
    scale = 32.0 * math.pi * CONSTANTS.G**3
    return within_float_range(lambda: [numerator / (scale * m**2) for m in masses],
                              "the mean density", ("mass", masses, "g"))
