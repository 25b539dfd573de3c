"""Static entropy/information bounds with explicit applicability checks.

Four ceilings on the entropy S [nats] of a material system of rest energy
E [erg] and largest radius R [cm]:

    holographic      S <= A / (4 l_P^2)          (A = enclosing area)
    universal        S <= 2 pi R E / (hbar c)
    weak universal   S <= 8 pi nu zeta R E / (c hbar)
    extensive (Gour) S <= (E R / hbar c)^(3/4)

The universal and weak bounds assume a composite, weakly self-gravitating
system; the extensive bound additionally assumes thermodynamic
extensivity.  Inapplicable bounds are still computed and flagged, never
dropped.  A Schwarzschild hole saturates the universal bound exactly
(E = m c^2, R = horizon radius).
"""

from __future__ import annotations

import math
from typing import NamedTuple

from .constants import CONSTANTS, DEFAULT_NU, _check_nu, _checked_make, nats_to_bits
from .errors import DomainError, within_float_range

#: A system counts as composite when E R / (c hbar) reaches this value.
COMPOSITE_THRESHOLD = 10.0
#: Weak self-gravity requires G E / (c^4 R) at or below this value.
WEAK_GRAVITY_THRESHOLD = 1e-2
#: Default hole-to-system size ratio for the weak bound (its nu defaults to
#: constants.DEFAULT_NU).
DEFAULT_ZETA = 10.0


class _SystemFields(NamedTuple):
    energy: float
    radius: float
    entropy: float | None = None


class MaterialSystem(_SystemFields):
    """A bounded physical system: rest energy, largest radius, optional entropy.

    entropy may be None when only asking for capacity limits.
    """

    __slots__ = ()
    _make = classmethod(_checked_make)

    def __new__(cls, *args: object, **kwargs: object) -> MaterialSystem:
        self = super().__new__(cls, *args, **kwargs)
        if not 0 < self.energy < math.inf:
            raise DomainError(
                f"energy must be positive and finite, got {self.energy}")
        if not 0 < self.radius < math.inf:
            raise DomainError(
                f"radius must be positive and finite, got {self.radius}")
        if self.entropy is not None and not 0 <= self.entropy < math.inf:
            raise DomainError(
                f"entropy must be non-negative and finite, got {self.entropy}")
        return self


class BoundEntry(NamedTuple):
    name: str
    limit_nats: float
    limit_bits: float
    applicable: bool
    applicability_reason: str


class BoundReport(NamedTuple):
    """All bounds evaluated for one system, ordered and applicability-flagged,
    with the enclosing area [cm^2] the holographic bound used."""

    compositeness: float
    weak_gravity_ratio: float
    entries: tuple[BoundEntry, ...]
    tightest_applicable: str
    stored_entropy: float | None
    violations: tuple[str, ...]
    enclosing_area: float


def compositeness(sys: MaterialSystem) -> float:
    """Size in Compton lengths E R / (c hbar); like any other output, it is
    refused naming E and R beyond the float range (E R above ~5.7e291 erg cm)."""
    return within_float_range(
        lambda: sys.energy * sys.radius / (CONSTANTS.c * CONSTANTS.hbar),
        "E R/(c hbar)", ("energy", sys.energy, "erg"), ("radius", sys.radius, "cm"))


def weak_gravity_ratio(sys: MaterialSystem) -> float:
    """Gravitational radius over system radius: G E / (c^4 R).

    1/2 for a Schwarzschild hole; tiny for laboratory systems.
    """
    return CONSTANTS.G * sys.energy / (CONSTANTS.c**4 * sys.radius)


def sphere_area(radius: float, enclosing: bool = False) -> float:
    """Area 4 pi R^2 [cm^2] of the sphere of radius R [cm].  Raises
    DomainError naming R where 4 pi R^2 overflows (R above ~3.78e153 cm),
    or, for the area a surface ``enclosing`` the system encloses, which
    must be positive, where it underflows to 0 (R below ~1.57e-162 cm)."""
    return within_float_range(lambda: 4.0 * math.pi * radius**2, "its sphere's area",
                              ("radius", radius, "cm"), zero=enclosing)


def holographic_bound(area: float) -> float:
    """Entropy ceiling area / (4 l_P^2) [nats] inside a closed surface.
    Raises DomainError naming the area where the ceiling in bits
    overflows (area above ~1.30e243 cm^2; in nats, above ~1.88e243)."""
    return _holographic_limit(area, "the holographic limit", ("area", area, "cm^2"))


def _holographic_limit(area: float, output: str, named: tuple) -> float:
    """:func:`holographic_bound`, refused beyond the float range as
    ``output`` by the (input, value, unit) ``named``."""
    if area <= 0:
        raise DomainError(f"area must be positive, got {area}")
    limit = area / (4.0 * CONSTANTS.planck_length**2)
    within_float_range(lambda: nats_to_bits(limit), output, named)
    return limit


def universal_bound(sys: MaterialSystem) -> float:
    """Energy-radius entropy ceiling 2 pi R E / (hbar c) [nats]."""
    return 2.0 * math.pi * sys.radius * sys.energy / (CONSTANTS.hbar * CONSTANTS.c)


def weak_universal_bound(sys: MaterialSystem, nu: float = DEFAULT_NU,
                         zeta: float = DEFAULT_ZETA) -> float:
    """Weak form 8 pi nu zeta R E / (c hbar) [nats] from the infall argument.

    nu must lie in [1, 2] (see constants.DEFAULT_NU); zeta is the
    hole-to-system size ratio of the underlying thought experiment and must
    be at least 1.
    """
    _check_nu(nu)
    if zeta < 1.0:
        raise DomainError(f"zeta must be >= 1, got {zeta}")
    return (8.0 * math.pi * nu * zeta * sys.radius * sys.energy
            / (CONSTANTS.c * CONSTANTS.hbar))


def gour_bound(sys: MaterialSystem) -> float:
    """Ceiling (E R / hbar c)^(3/4) [nats] for thermodynamically extensive systems.

    Coefficient fixed at 1; the exact species-dependent prefactor is an
    open point, so treat results as order-of-magnitude.
    """
    return compositeness(sys) ** 0.75


def bound_report(sys: MaterialSystem, enclosing_area: float | None = None,
                 nu: float = DEFAULT_NU, zeta: float = DEFAULT_ZETA) -> BoundReport:
    """Evaluate every bound for one system and rank the applicable ones.

    The universal and weak bounds apply to a system that is composite
    (E R/(c hbar) >= COMPOSITE_THRESHOLD) and weakly gravitating
    (G E/(c^4 R) <= WEAK_GRAVITY_THRESHOLD), the Gour bound to a composite
    one.  enclosing_area defaults to the minimal sphere 4 pi R^2 and must
    not be smaller than the system.

    Raises
    ------
    DomainError
        If the area, nu or zeta is NaN or infinite, if the area is
        smaller than the system's sphere or puts the holographic limit
        beyond the float range (naming the radius where the area is the
        sphere's), or, naming E, R and zeta, if the largest bound, the weak
        universal one, does in bits (zeta E R above ~1.0e290 erg cm at nu 1.5).
    """
    for name, value in (("enclosing area", enclosing_area), ("nu", nu),
                        ("zeta", zeta)):
        if value is not None and not math.isfinite(value):
            raise DomainError(f"{name} must be finite, got {value}")
    sphere = enclosing_area is None
    if sphere:
        enclosing_area = sphere_area(sys.radius, enclosing=True)
    elif enclosing_area < (min_area := sphere_area(sys.radius)) * (1.0 - 1e-12):
        raise DomainError(
            f"enclosing area {enclosing_area} cm^2 is smaller than the "
            f"system's own sphere {min_area:.6e} cm^2")

    uni = universal_bound(sys)
    weak_uni = weak_universal_bound(sys, nu=nu, zeta=zeta)
    holo = _holographic_limit(enclosing_area, "its sphere's holographic limit",
                              ("radius", sys.radius, "cm")) if sphere \
        else holographic_bound(enclosing_area)
    within_float_range(lambda: nats_to_bits(weak_uni), "the weak universal bound",
                       ("energy", sys.energy, "erg"), ("radius", sys.radius, "cm"),
                       ("zeta", zeta, ""))
    gour = gour_bound(sys)
    comp = compositeness(sys)
    grav = weak_gravity_ratio(sys)
    composite = comp >= COMPOSITE_THRESHOLD
    weak = grav <= WEAK_GRAVITY_THRESHOLD

    not_composite = f"not composite (ER/c hbar = {comp:.3e} < {COMPOSITE_THRESHOLD})"
    reasons = [] if composite else [not_composite]
    if not weak:
        reasons.append(f"not weakly gravitating (GE/c^4R = {grav:.3e} > "
                       f"{WEAK_GRAVITY_THRESHOLD})")
    matter_reason = "; ".join(reasons) if reasons else "composite and weakly gravitating"
    gour_reason = ("extensivity assumed; " + matter_reason if composite
                   else not_composite)

    entries = (
        BoundEntry("holographic", holo, nats_to_bits(holo), True,
                   "isolated system inside a closed surface"),
        BoundEntry("universal", uni, nats_to_bits(uni),
                   composite and weak, matter_reason),
        BoundEntry("weak_universal", weak_uni, nats_to_bits(weak_uni),
                   composite and weak, matter_reason),
        BoundEntry("gour", gour, nats_to_bits(gour), composite, gour_reason),
    )

    applicable = [e for e in entries if e.applicable]
    tightest = min(applicable, key=lambda e: e.limit_nats).name
    violations = tuple(
        e.name for e in applicable
        if sys.entropy is not None and sys.entropy > e.limit_nats * (1.0 + 1e-12))
    return BoundReport(compositeness=comp, weak_gravity_ratio=grav, entries=entries,
                       tightest_applicable=tightest, stored_entropy=sys.entropy,
                       violations=violations, enclosing_area=enclosing_area)
