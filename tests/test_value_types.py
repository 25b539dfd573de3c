"""The contract of the package's frozen value types.

Each result or parameter record is an immutable value: it is built by
keyword with its defaults, refuses assignment, compares and hashes by value,
and its repr names every field.  The four types that check or derive
fields at construction (PhysicalConstants, MaterialSystem, Channel,
EmissionParameters) do so whichever way they are built, ``_replace`` and
``_make`` included.
"""

import copy
import math
import pickle

import pytest

from bhthermo.bounds import BoundEntry, BoundReport, MaterialSystem
from bhthermo.channel import CapacityReport, Channel, ConsistencyReport
from bhthermo.constants import CODATA2018, LOG2E, PhysicalConstants
from bhthermo.errors import DomainError
from bhthermo.evaporation import DEFAULT_EMISSION, EmissionParameters
from bhthermo.gedanken import (
    AssumptionCheck,
    DropDistanceCheck,
    EntropyLedger,
    GedankenReport,
    LedgerEntry,
)
from bhthermo.kerr_newman import BlackHole, FirstLawPotentials

BASE_CONSTANTS = {"G": 6.67430e-8, "c": 2.99792458e10,
                  "hbar": 1.054571817e-27, "k_B": 1.380649e-16}
LEDGER = EntropyLedger(entries=(LedgerEntry("system", 1.0, 0.0),
                                LedgerEntry("black hole", 0.0, 3.0)))
CONSISTENCY = ConsistencyReport(f0_limit=1.0, f_inf=2.0, monotone_ok=True,
                                caveat_flagged=False, pendry_crossover_power=3.0)

#: (type, its fields in order, keyword arguments, the defaults of the rest,
#: its properties' values, one field and another value for it).
CASES = [
    (PhysicalConstants,
     ("G", "c", "hbar", "k_B", "sigma_SB", "planck_length", "planck_mass"),
     BASE_CONSTANTS, {}, {}, ("G", 6.6743e-8 * 2)),
    (BlackHole, ("m", "q", "j", "M", "Q", "a", "r_plus"),
     {"m": 1e15, "q": 0.0, "j": 0.0, "M": 7.4e-14, "Q": 0.0, "a": 0.0,
      "r_plus": 1.48e-13}, {}, {"is_schwarzschild": True}, ("j", 1e20)),
    (FirstLawPotentials, ("theta", "phi", "omega"),
     {"theta": 1.0, "phi": 2.0, "omega": 3.0}, {}, {}, ("omega", 4.0)),
    (MaterialSystem, ("energy", "radius", "entropy"),
     {"energy": 1e20, "radius": 1.0}, {"entropy": None}, {},
     ("radius", 2.0)),
    (BoundEntry, ("name", "limit_nats", "limit_bits", "applicable",
                  "applicability_reason"),
     {"name": "universal", "limit_nats": 1.0, "limit_bits": LOG2E,
      "applicable": True, "applicability_reason": "composite"}, {}, {},
     ("applicable", False)),
    (BoundReport, ("compositeness", "weak_gravity_ratio", "entries",
                   "tightest_applicable", "violations"),
     {"compositeness": 1e3, "weak_gravity_ratio": 1e-3,
      "entries": (), "tightest_applicable": "universal", "violations": ()}, {}, {},
     ("violations", ("universal",))),
    (Channel, ("lambda_c", "power", "n_carriers", "emission"),
     {"lambda_c": 5e-5, "power": 1e-3},
     {"n_carriers": 1.0, "emission": DEFAULT_EMISSION}, {}, ("power", 1.0)),
    (ConsistencyReport, ("f0_limit", "f_inf", "monotone_ok", "caveat_flagged",
                         "pendry_crossover_power"),
     CONSISTENCY._asdict(), {}, {}, ("caveat_flagged", True)),
    (CapacityReport, ("p_c", "p_c_approx", "regime", "xi_used",
                      "bound_bits_per_s", "pendry_bits_per_s", "consistency"),
     {"p_c": 1.0, "p_c_approx": 1.1, "regime": "high", "xi_used": 10.0,
      "bound_bits_per_s": 5.0, "pendry_bits_per_s": 6.0,
      "consistency": CONSISTENCY}, {}, {}, ("xi_used", None)),
    (EmissionParameters, ("nu", "gamma_bar", "n_species"), {},
     {"nu": 1.5, "gamma_bar": 2.0, "n_species": 1.0}, {}, ("nu", 1.2)),
    (LedgerEntry, ("label", "before", "after"),
     {"label": "system", "before": 1.0, "after": 0.0}, {}, {}, ("after", 1.0)),
    (EntropyLedger, ("entries",), {"entries": LEDGER.entries}, {},
     {"delta_total": 2.0, "gsl_satisfied": True}, ("entries", ())),
    (AssumptionCheck, ("name", "value", "threshold", "passed"),
     {"name": "composite", "value": 1e3, "threshold": 10.0, "passed": True},
     {}, {}, ("passed", False)),
    (GedankenReport, ("scenario", "ledger", "assumption_checks", "notes"),
     {"scenario": "merger", "ledger": LEDGER},
     {"assumption_checks": (), "notes": ""},
     {"applicable": True, "gsl_verdict": True}, ("notes", "merged")),
    (DropDistanceCheck, ("distance", "ratio_to_m", "threshold", "passed"),
     {"distance": 1e5, "ratio_to_m": 2e3, "threshold": 1e3, "passed": True},
     {}, {}, ("passed", False)),
]


@pytest.mark.parametrize("cls, fields, kwargs, defaults, properties, other",
                         CASES, ids=[case[0].__name__ for case in CASES])
def test_value_type_contract(cls, fields, kwargs, defaults, properties, other):
    value = cls(**kwargs)
    assert cls._fields == fields
    for name, default in {**kwargs, **defaults}.items():
        assert getattr(value, name) == default, name
    for name, expected in properties.items():
        assert getattr(value, name) == expected, name
    # immutable: no field can be set, and no attribute added
    for name in (*fields, "extra"):
        with pytest.raises(AttributeError):
            setattr(value, name, getattr(value, name, None))
    # equal and of one hash by value, through copy and pickle too
    twin = cls(**kwargs)
    assert twin is not value
    for same in (twin, copy.copy(value), pickle.loads(pickle.dumps(value))):
        assert same == value and hash(same) == hash(value)
        assert type(same) is cls
    field, changed = other
    assert cls(**{**kwargs, field: changed}) != value
    assert repr(value) == f"{cls.__name__}(" + ", ".join(
        f"{name}={getattr(value, name)!r}" for name in fields) + ")"


def test_physical_constants_derive_the_quantum_gravity_scales():
    G, c, hbar, k_B = BASE_CONSTANTS.values()
    constants = PhysicalConstants(**BASE_CONSTANTS)
    assert constants == CODATA2018
    assert constants == PhysicalConstants(G, c, hbar, k_B)
    assert constants.sigma_SB == math.pi**2 * k_B**4 / (60.0 * hbar**3 * c**2)
    assert constants.planck_length == math.sqrt(G * hbar / c**3)
    assert constants.planck_mass == math.sqrt(hbar * c / G)
    # the derived fields are stored, not recomputed on each read
    assert tuple(constants)[4:] == (constants.sigma_SB, constants.planck_length,
                                    constants.planck_mass)
    with pytest.raises(TypeError):              # they are not arguments
        PhysicalConstants(**BASE_CONSTANTS, sigma_SB=1.0)


@pytest.mark.parametrize("cls, kwargs, message", [
    (MaterialSystem, {"energy": 0.0, "radius": 1.0},
     "energy must be positive and finite, got 0.0"),
    (MaterialSystem, {"energy": 1.0, "radius": math.inf},
     "radius must be positive and finite, got inf"),
    (MaterialSystem, {"energy": 1.0, "radius": 1.0, "entropy": -1.0},
     "entropy must be non-negative and finite, got -1.0"),
    (MaterialSystem, {"energy": math.nan, "radius": -1.0},
     "energy must be positive and finite, got nan"),
    (Channel, {"lambda_c": 0.0, "power": 1.0},
     "cutoff wavelength must be positive and finite, got 0.0"),
    (Channel, {"lambda_c": 1.0, "power": -1.0},
     "power must be non-negative and finite, got -1.0"),
    (Channel, {"lambda_c": 1.0, "power": 1.0, "n_carriers": 0.5},
     "n_carriers must be >= 1 and finite, got 0.5"),
    (EmissionParameters, {"nu": 2.5},
     r"nu must lie in \[1, 2\], got 2.5"),
    (EmissionParameters, {"gamma_bar": 0.0},
     "gamma_bar must be positive and finite, got 0.0"),
    (EmissionParameters, {"n_species": math.nan},
     "n_species must be >= 1 and finite, got nan"),
])
def test_construction_checks_raise_their_domain_errors(cls, kwargs, message):
    with pytest.raises(DomainError, match=f"^{message}$"):
        cls(**kwargs)


@pytest.mark.parametrize("cls, args, message", [
    (MaterialSystem, (0.0, 1.0), "energy must be positive"),
    (Channel, (1.0, 1.0, 0.5), "n_carriers must be >= 1"),
    (EmissionParameters, (1.5, 2.0, 0.0), "n_species must be >= 1"),
])
def test_construction_checks_run_on_positional_arguments(cls, args, message):
    with pytest.raises(DomainError, match=message):
        cls(*args)


def _built(build):
    """What build() returns, or the type and message of the DomainError it
    raises."""
    try:
        return build()
    except DomainError as error:
        return DomainError, str(error)


@pytest.mark.parametrize("cls, kwargs, change", [
    (EmissionParameters, {}, {"nu": 1.2}),
    (EmissionParameters, {}, {"nu": 5.0}),
    (EmissionParameters, {}, {"gamma_bar": 0.0, "n_species": 3.0}),
    (MaterialSystem, {"energy": 1e20, "radius": 1.0}, {"entropy": 3.0}),
    (MaterialSystem, {"energy": 1e20, "radius": 1.0}, {"radius": -1.0}),
    (MaterialSystem, {"energy": 1e20, "radius": 1.0}, {"entropy": math.nan}),
    (Channel, {"lambda_c": 1.0, "power": 1.0}, {"power": 3.0}),
    (Channel, {"lambda_c": 1.0, "power": 1.0}, {"power": math.nan}),
    (Channel, {"lambda_c": 1.0, "power": 1.0}, {"n_carriers": 0.5}),
    (PhysicalConstants, BASE_CONSTANTS, {}),
    (PhysicalConstants, BASE_CONSTANTS, {"G": 1.0}),
    (PhysicalConstants, BASE_CONSTANTS, {"c": 1.0, "k_B": 2.0}),
    (PhysicalConstants, BASE_CONSTANTS, {"planck_mass": 1.0}),
    (PhysicalConstants, BASE_CONSTANTS, {"G": 1.0, "sigma_SB": 1.0}),
])
def test_replace_and_make_check_and_derive_as_construction_does(cls, kwargs,
                                                               change):
    value = cls(**kwargs)
    arguments = cls._fields[:4] if cls is PhysicalConstants else cls._fields
    if not change.keys() <= set(arguments):
        # a derived field follows from the base four: it cannot be replaced
        with pytest.raises(ValueError, match="only G, c, hbar and k_B"):
            value._replace(**change)
        return
    expected = _built(lambda: cls(**{**kwargs, **change}))
    fields = {**value._asdict(), **change}
    for built in (_built(lambda: value._replace(**change)),
                  _built(lambda: cls._make(fields[name] for name in arguments))):
        assert built == expected
        assert type(built) is type(expected)
