"""Black hole thermodynamics, Hawking evaporation, entropy bounds and
GSL channel-capacity limits, all in Gaussian CGS units.

Every public name is an attribute of the package, but its formula module
is imported on first use (PEP 562): ``import bhthermo`` itself loads none.
"""

import sys as _sys

__version__ = "0.1.0"

#: The public names, by the submodule that defines them.
_EXPORTS = {
    "bounds": (
        "BoundEntry", "BoundReport", "MaterialSystem", "bound_report",
        "compositeness", "gour_bound", "holographic_bound", "universal_bound",
        "weak_gravity_ratio", "weak_universal_bound",
    ),
    "channel": (
        "CapacityReport", "Channel", "ConsistencyReport", "capacity_bound",
        "characteristic_power", "consistency_check", "optimal_xi",
        "pendry_capacity",
    ),
    "constants": (
        "CODATA2018", "CONSTANTS", "PhysicalConstants",
        "energy_temperature_to_kelvin", "geometrized_charge", "geometrized_mass",
        "nats_to_bits",
    ),
    "errors": ("DomainError", "NakedSingularityError", "SubPlanckMassError"),
    "evaporation": (
        "EmissionParameters", "hawking_power", "lifetime",
    ),
    "gedanken": (
        "EntropyLedger", "GedankenReport", "capsule_lowering", "drop_distance",
        "infall_experiment", "merger", "susskind_collapse",
    ),
    "kerr_newman": (
        "BlackHole", "FirstLawPotentials", "entropy", "h_factors",
        "horizon_area", "make_black_hole", "mean_density", "potentials",
        "temperature",
    ),
}
#: The formula submodules, which are attributes of the package too.
_SUBMODULES = (*_EXPORTS, "grids")


def _lazy(namespace: dict, table: dict[str, tuple[str, ...]]) -> tuple:
    """Lazy names (PEP 562) for the module with globals ``namespace``, from
    ``table`` (submodule -> names): ``load(*modules)``, which binds the names
    ``namespace`` lacks (one set earlier, a test double or a tracing wrapper,
    stays), the name -> submodule map and ``__getattr__``."""
    home = {name: module for module, names in table.items() for name in names}

    def load(*modules: str) -> None:
        for module in modules:
            qualified = f"{__name__}.{module}"
            __import__(qualified)   # -X importtime omits importlib.import_module
            for name in table[module]:
                if name not in namespace:
                    namespace[name] = getattr(_sys.modules[qualified], name)

    def __getattr__(name: str) -> object:
        if name not in home:
            raise AttributeError(
                f"module {namespace['__name__']!r} has no attribute {name!r}")
        load(home[name])
        return namespace[name]

    return load, home, __getattr__


_HOME, _getattr = _lazy(globals(), _EXPORTS)[1:]
__all__ = [*_HOME, *_SUBMODULES]


def __getattr__(name: str) -> object:
    if name in _SUBMODULES:
        __import__(f"{__name__}.{name}")
        return _sys.modules[f"{__name__}.{name}"]
    return _getattr(name)


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
