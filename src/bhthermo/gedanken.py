"""Thought experiments replayed as entropy ledgers with a GSL verdict.

The generalized second law (GSL): black hole entropy plus ordinary entropy
outside holes never decreases.  Each scenario here books the before/after
entropies of every participant, totals the change, and reports whether the
GSL holds.  Assumption checks guard the regime of validity of each setup;
when a check fails the report is marked inapplicable rather than treated
as a violation, so boundary scans stay possible.

Scenarios:

* spherical collapse of an entropic object into its own hole, which
  forces entropy <= area/4 l_P^2 on the enclosing sphere;
* adiabatic lowering of an entropy-laden capsule into a hole, whose
  minimal area growth 8 pi G mu b / c^2 caps the capsule entropy at
  2 pi mu b c / hbar regardless of the host hole;
* free infall of a system past a radiating hole sized at M = zeta R,
  trading the system's entropy against radiated entropy nu E / T;
* conservative merger of two Schwarzschild holes, where the area theorem
  (m1 + m2)^2 >= m1^2 + m2^2 does the work.
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .bounds import (
    COMPOSITE_THRESHOLD,
    DEFAULT_ZETA,
    WEAK_GRAVITY_THRESHOLD,
    MaterialSystem,
    compositeness,
    sphere_area,
    weak_gravity_ratio,
)
from .constants import CONSTANTS, mass_from_geometrized
from .errors import DomainError, within_float_range
from .evaporation import DEFAULT_EMISSION, EmissionParameters
from .kerr_newman import BlackHole, entropy, horizon_area, make_black_hole, temperature

#: Relative slack on the GSL verdict delta_total >= 0.
EPS_LEDGER = 1e-9
#: "Much more massive" quantified: host over payload mass ratio.
MASS_DOMINANCE = 1e3
#: "Big enough to accept the capsule": horizon over capsule size ratio.
SIZE_DOMINANCE = 10.0


class LedgerEntry(NamedTuple):
    label: str
    before: float
    after: float


class EntropyLedger(NamedTuple):
    """Before/after entropy bookkeeping [nats] for one experiment."""

    entries: tuple[LedgerEntry, ...]

    @property
    def delta_total(self) -> float:
        return sum(e.after - e.before for e in self.entries)

    @property
    def gsl_satisfied(self) -> bool:
        # Slack is relative to the largest flow; an account that merely
        # holds a big balance must not dilute the verdict.
        scale = max((abs(e.after - e.before) for e in self.entries), default=0.0)
        return bool(self.delta_total >= -EPS_LEDGER * scale)


class AssumptionCheck(NamedTuple):
    name: str
    value: float
    threshold: float
    passed: bool


class GedankenReport(NamedTuple):
    """Ledger plus assumption checks; the GSL verdict is withheld unless
    every assumption holds."""

    scenario: str
    ledger: EntropyLedger
    assumption_checks: tuple[AssumptionCheck, ...] = ()
    notes: str = ""

    @property
    def applicable(self) -> bool:
        return all(c.passed for c in self.assumption_checks)

    @property
    def gsl_verdict(self) -> bool | None:
        """True/False when the setup applies, None when it does not."""
        if not self.applicable:
            return None
        return self.ledger.gsl_satisfied


class DropDistanceCheck(NamedTuple):
    """Required release distance of the infall experiment and its margin."""

    distance: float        # cm
    ratio_to_m: float      # d / M
    threshold: float       # 36 zeta^(2/3)
    passed: bool


def susskind_collapse(sys: MaterialSystem,
                      enclosing_area: float | None = None) -> GedankenReport:
    """Collapse a neutral, nonrotating system to a hole inside its sphere.

    The system's entropy is lost; a Schwarzschild hole of the same energy
    appears.  The GSL then demands entropy <= enclosing_area / 4 l_P^2.
    enclosing_area defaults to the system's own sphere 4 pi R^2.
    """
    if sys.entropy is None:
        raise DomainError("the collapsing system needs a stored entropy")
    if enclosing_area is None:
        enclosing_area = sphere_area(sys.radius, enclosing=True)
    if not 0 < enclosing_area < math.inf:
        raise DomainError("enclosing area must be positive and finite, "
                          f"got {enclosing_area}")
    sphere_radius = math.sqrt(enclosing_area / (4.0 * math.pi))
    if sphere_radius < sys.radius * (1.0 - 1e-12):
        raise DomainError(
            f"sphere radius {sphere_radius:.6e} cm cannot hold a system of "
            f"radius {sys.radius} cm")
    hole = make_black_hole(sys.energy / CONSTANTS.c**2)
    area_new = horizon_area(hole)
    if area_new > enclosing_area * (1.0 + 1e-12):
        raise DomainError(
            f"collapse horizon area {area_new:.6e} cm^2 exceeds the enclosing "
            f"area {enclosing_area:.6e} cm^2: inconsistent geometry")
    ledger = EntropyLedger((
        LedgerEntry("system", sys.entropy, 0.0),
        LedgerEntry("black hole", 0.0, entropy(hole)),
    ))
    checks = (
        AssumptionCheck("system_fits_sphere", sys.radius / sphere_radius, 1.0,
                        True),
        AssumptionCheck("horizon_fits_sphere", area_new / enclosing_area, 1.0,
                        True),
    )
    return GedankenReport("susskind_collapse", ledger, checks,
                          notes=f"collapse hole mass {hole.m:.6e} g")


def capsule_lowering(bh: BlackHole, mu: float, b: float,
                     S_cap: float) -> GedankenReport:
    """Lower a capsule (rest mass mu [g], radius b [cm], entropy S_cap) into bh.

    The minimal horizon area growth is 8 pi G mu b / c^2 however the host
    hole is charged or spinning, so the capsule entropy is GSL-capped at
    2 pi mu b c / hbar.  Raises DomainError naming mu and b where that cap
    leaves the float range, and naming b or mu where r_plus/b or m/mu does
    (b below ~8e-307 cm or mu below ~6e-279 g for a 1e30 g hole).
    """
    for name, value in (("mass mu", mu), ("radius b", b),
                        ("entropy S_cap", S_cap)):
        if not math.isfinite(value):
            raise DomainError(f"capsule {name} must be finite, got {value}")
    if mu <= 0 or b <= 0:
        raise DomainError("capsule mass and radius must be positive")
    if S_cap < 0:
        raise DomainError(f"capsule entropy must be non-negative, got {S_cap}")
    if bh.r_plus < SIZE_DOMINANCE * b:
        raise DomainError(
            f"hole too small: r_plus = {bh.r_plus:.6e} cm < "
            f"{SIZE_DOMINANCE} * b = {SIZE_DOMINANCE * b:.6e} cm")
    if bh.m < MASS_DOMINANCE * mu:
        raise DomainError(
            f"hole too light: m = {bh.m:.6e} g < "
            f"{MASS_DOMINANCE} * mu = {MASS_DOMINANCE * mu:.6e} g")
    dS_hole = within_float_range(
        lambda: 2.0 * math.pi * mu * b * CONSTANTS.c / CONSTANTS.hbar,
        "the minimal hole entropy gain",
        ("capsule mass mu", mu, "g"), ("radius b", b, "cm"))
    # Booked as a gain account: the host's total entropy is up to ~30
    # orders above the increment, which float addition would swallow.
    ledger = EntropyLedger((
        LedgerEntry("black hole gain", 0.0, dS_hole),
        LedgerEntry("capsule", S_cap, 0.0),
    ))
    size_ratio = within_float_range(lambda: bh.r_plus / b, "the size ratio r_plus/b",
                                    ("capsule radius b", b, "cm"))
    mass_ratio = within_float_range(lambda: bh.m / mu, "the mass ratio m/mu",
                                    ("capsule mass mu", mu, "g"))
    checks = (
        AssumptionCheck("horizon_accepts_capsule", size_ratio, SIZE_DOMINANCE, True),
        AssumptionCheck("hole_mass_dominates", mass_ratio, MASS_DOMINANCE, True),
    )
    return GedankenReport(
        "capsule_lowering", ledger, checks,
        notes=f"minimal hole entropy gain {dS_hole:.6e} nats, "
              "independent of the hole's charge and spin")


def drop_distance(sys: MaterialSystem, zeta: float,
                  params: EmissionParameters) -> DropDistanceCheck:
    """Release distance d = 780 (zeta E R / N c hbar)^(2/3) M of the infall setup.

    The free fall from d must last as long as the hole needs to radiate
    energy E; the Newtonian treatment needs d well above M, checked as
    d / M >= 36 zeta^(2/3).
    """
    if zeta < 1.0:
        raise DomainError(f"zeta must be >= 1, got {zeta}")
    M = zeta * sys.radius
    x = (zeta * sys.energy * sys.radius
         / (params.n_species * CONSTANTS.c * CONSTANTS.hbar))
    d = 780.0 * x ** (2.0 / 3.0) * M
    threshold = 36.0 * zeta ** (2.0 / 3.0)
    ratio = d / M
    return DropDistanceCheck(distance=d, ratio_to_m=ratio, threshold=threshold,
                             passed=ratio >= threshold)


def infall_experiment(sys: MaterialSystem,
                      bh_or_zeta: BlackHole | float = DEFAULT_ZETA,
                      params: EmissionParameters = DEFAULT_EMISSION) -> GedankenReport:
    """Drop a composite system into a large radiating hole, M = zeta R.

    While the system falls from far away, the hole radiates away the same
    energy it is about to swallow, so its entropy is unchanged; the world
    ledger trades the system's entropy against the radiated nu E / T.
    Failed assumptions make the report inapplicable, not a violation.
    A zeta below 1 (a host hole smaller than the system) is refused with a
    DomainError, and so are a zeta or zeta^2 beyond the float range, before
    the hole is built, and an energy so large that nu E/T is or so small
    that m c^2/E is.
    """
    if sys.entropy is None:
        raise DomainError("the infalling system needs a stored entropy")
    host = isinstance(bh_or_zeta, BlackHole)
    if host:
        hole = bh_or_zeta
        if not hole.is_schwarzschild:
            raise DomainError("the infall setup uses a Schwarzschild hole")
        zeta = within_float_range(lambda: hole.M / sys.radius, "zeta = M/R",
                                  ("host hole of mass", hole.m, "g"),
                                  ("radius", sys.radius, "cm"))
    else:
        zeta = float(bh_or_zeta)
        if not math.isfinite(zeta):
            raise DomainError(f"zeta must be finite, got {zeta}")
    if zeta < 1.0:
        raise DomainError(
            f"host hole of mass {hole.m:g} g is smaller than the system of radius "
            f"{sys.radius:g} cm: zeta = M/R must be >= 1" if host
            else f"zeta must be >= 1, got {zeta}")
    pressure_bound = within_float_range(
        lambda: params.gamma_bar / (7680.0 * zeta**2), "zeta^2",
        ("hole-to-system size ratio zeta =", zeta, ""))
    if not host:
        hole = make_black_hole(mass_from_geometrized(zeta * sys.radius))

    S_hole = entropy(hole)
    radiated = within_float_range(lambda: params.nu * sys.energy / temperature(hole),
                                  "the radiated entropy nu E/T",
                                  ("energy", sys.energy, "erg"))
    ledger = EntropyLedger((
        LedgerEntry("hawking radiation", 0.0, radiated),
        LedgerEntry("system", sys.entropy, 0.0),
        LedgerEntry("black hole", S_hole, S_hole),
    ))

    drop = drop_distance(sys, zeta, params)
    mass_ratio = within_float_range(lambda: hole.m / (sys.energy / CONSTANTS.c**2),
                                    "the mass ratio m c^2/E",
                                    ("energy", sys.energy, "erg"))
    comp, grav = compositeness(sys), weak_gravity_ratio(sys)
    checks = (
        AssumptionCheck("composite", comp, COMPOSITE_THRESHOLD,
                        comp >= COMPOSITE_THRESHOLD),
        AssumptionCheck("weak_gravity", grav, WEAK_GRAVITY_THRESHOLD,
                        grav <= WEAK_GRAVITY_THRESHOLD),
        AssumptionCheck("hole_mass_dominates", mass_ratio, MASS_DOMINANCE,
                        mass_ratio >= MASS_DOMINANCE),
        AssumptionCheck("radiation_pressure_negligible", pressure_bound, 1e-2,
                        pressure_bound <= 1e-2),
        AssumptionCheck("newtonian_drop_distance", drop.ratio_to_m,
                        drop.threshold, drop.passed),
    )
    return GedankenReport(
        "infall_experiment", ledger, checks,
        notes=f"hole of M = {zeta:.3g} R, radiated entropy {radiated:.6e} nats")


def merger(bh1: BlackHole, bh2: BlackHole) -> GedankenReport:
    """Merge two Schwarzschild holes without radiating away any energy.

    The final area at mass m1 + m2 exceeds the sum of areas because
    (m1 + m2)^2 >= m1^2 + m2^2; the ledger simply records it.
    """
    if not (bh1.is_schwarzschild and bh2.is_schwarzschild):
        raise DomainError("merger model requires two Schwarzschild holes")
    # each hole's own entropy is refused before the merged hole's mass
    S1, S2 = entropy(bh1), entropy(bh2)
    final = make_black_hole(bh1.m + bh2.m)
    ledger = EntropyLedger((
        LedgerEntry("hole 1", S1, 0.0),
        LedgerEntry("hole 2", S2, 0.0),
        LedgerEntry("merged hole", 0.0, entropy(final)),
    ))
    return GedankenReport(
        "merger", ledger,
        notes=f"final area {horizon_area(final):.6e} cm^2 vs "
              f"{horizon_area(bh1) + horizon_area(bh2):.6e} cm^2 combined")
