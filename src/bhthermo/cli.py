"""Command line front end: every subsystem behind one executable.

Results go to stdout as a table (default), JSON or CSV, written by
:mod:`bhthermo.document`; diagnostics go to stderr.  Exit codes: 0
success, 1 physical-domain errors, 2 usage, config or write errors.
"""

from __future__ import annotations

import atexit
import errno
import math
import os
import re
import sys
from collections.abc import Callable, Iterable
from types import SimpleNamespace
from typing import NamedTuple, NoReturn

from . import _lazy
from .constants import (
    CONSTANTS,
    CONSTANTS_SOURCE,
    energy_temperature_to_kelvin,
    geometrized_mass,
    temperatures_in_kelvin,
)
from .document import FORMATS, Document
from .errors import DomainError, first_refused

#: The names this module takes from the formula modules, by module: each
#: subcommand loads (``_load``) only the modules it runs.  Every call goes
#: through the module global, so a name set here first is the one that runs.
_LAZY_IMPORTS = {
    "bounds": ("MaterialSystem", "bound_report"),
    "channel": ("Channel", "capacity_bound", "check_channels", "cutoff_powers",
                "regime_columns"),
    "evaporation": ("EmissionParameters", "mass_history"),
    "gedanken": ("capsule_lowering", "infall_experiment", "merger",
                 "susskind_collapse"),
    "grids": ("geomspace", "linspace"),
    "kerr_newman": ("bit_entropies", "entropies", "entropy", "h_factors",
                    "horizon_area", "horizon_areas", "horizon_columns",
                    "make_black_hole", "mean_densities", "mean_density",
                    "potentials", "temperature", "temperatures"),
}
_load, _LAZY_HOME, __getattr__ = _lazy(globals(), _LAZY_IMPORTS)

FORMAT_ENV = "BHTHERMO_FORMAT"

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

#: Most points a sweep or an evaporation series may have; above it the
#: rows would take gigabytes, so the request is refused (exit 2).
MAX_POINTS = 10_000_000


class ConfigError(Exception):
    """Bad input/config file: unknown key, malformed line, missing value."""


class UsageError(ConfigError):
    """A request the parameter tables cannot read, as its one stderr line."""


# -- parameters ------------------------------------------------------------

class Param(NamedTuple):
    """One parameter of a subcommand, declared once.

    A parameter that neither the command line nor the --input file sets
    takes ``default``, a literal only the command line uses.  One without a
    default stays None; if it is a library option, the library call leaves
    it out, so the library's own default applies.  ``type`` and ``choices``
    hold for flag and file values alike.  ``key`` names the value in a
    record's ``inputs`` where that name is not the dest.
    """

    flag: str                   # a bare name for a positional argument
    help: str | None = None
    default: object = None
    type: Callable[[str], object] = float
    choices: tuple[str, ...] | None = None
    key: str | None = None

    @property
    def dest(self) -> str:
        return self.flag.lstrip("-").replace("-", "_")

    @property
    def metavar(self) -> str:       # how help shows a value: choices, or dest
        return "{" + ",".join(self.choices) + "}" if self.choices else self.dest.upper()

    def parse(self, text: str) -> object:
        """The value ``text`` gives this parameter, from a flag or a file;
        ValueError unless it has the type and lies in the choices."""
        value = self.type(text)
        if self.choices is not None and value not in self.choices:
            raise ValueError(f"invalid choice {text!r}; choose from "
                             + ", ".join(self.choices))
        return value


#: The flags every subcommand, and the program before one, takes.
FORMAT = Param("--format", f"output format (default ${FORMAT_ENV} or table)",
               type=str, choices=FORMATS)
INPUT = Param("--input", "key=value or emitted-JSON input file", type=str)

#: The one emission factor an evaporation reads.
N_SPECIES = Param("--n-species", "effective massless species count")
#: The emission factors of the radiating hole.
EMISSION = (
    Param("--nu", "irreversibility factor (1..2)"),
    Param("--gamma-bar", "relativistic emission factor"),
    N_SPECIES,
)
N_CARRIERS = Param("--n-carriers", "carrier species count")
#: The sweep's grid, then the parameters of each target.
SWEEP_GRID = (
    Param("--param", "swept parameter (mass | power | lambda_c)", type=str),
    Param("--start"),
    Param("--stop"),
    Param("--points", f"number of points (default 50, at most {MAX_POINTS})", 50, int),
    Param("--spacing", "grid spacing (default log)", "log", str, ("log", "linear")),
)
SWEEP_BH = (
    Param("--quantity", "bh output quantity (default entropy)", "entropy", str),
    Param("--charge", "fixed charge [esu] (bh)", 0.0),
    Param("--spin", "fixed spin [erg s] (bh)", 0.0),
)
SWEEP_CHANNEL = (
    Param("--lambda-c", "fixed cutoff [cm] (channel)"),
    Param("--power", "fixed power [erg s^-1] (channel)"),
    N_CARRIERS,
    *EMISSION,
)
#: The one unit, in every record, of each record key and series column name,
#: by its last dotted part; a name not listed has none.
UNITS = {
    "G": "cm^3 g^-1 s^-2", "c": "cm s^-1", "hbar": "erg s", "k_B": "erg K^-1",
    "sigma_SB": "erg cm^-2 s^-1 K^-4", "planck_length": "cm", "planck_mass": "g",
    "mass_g": "g", "charge_esu": "esu", "spin_erg_s": "erg s", "M": "cm", "Q": "cm",
    "a": "cm", "r_plus": "cm", "area": "cm^2", "entropy": "nat", "entropy_bits": "bit",
    "temperature": "erg", "temperature_kelvin": "K", "theta": "erg cm^-2",
    "phi": "statvolt", "omega": "s^-1", "mean_density": "g cm^-3",
    "t": "s", "mass": "g", "lifetime_s": "s",
    "energy": "erg", "radius": "cm", "enclosing_area": "cm^2", "limit": "nat",
    "limit_bits": "bit", "before": "nat", "after": "nat", "delta_total": "nat",
    "lambda_c": "cm", "power": "erg s^-1", "p_c": "erg s^-1", "p_c_approx": "erg s^-1",
    "pendry_crossover_power": "erg s^-1", "bound": "bit s^-1",
    "pendry_capacity": "bit s^-1", "frequency": "Hz", "charge": "esu", "spin": "erg s",
    "bh_mass": "g", "bh_charge": "esu", "bh_spin": "erg s", "mu": "g", "b": "cm",
    "s_cap": "nat", "m1": "g", "m2": "g",
}
#: The parameters each gedanken scenario reads, by dest (besides scenario).
GEDANKEN_SCENARIOS = {
    "susskind": ("energy", "mass", "radius", "entropy", "area"),
    "capsule": ("bh_mass", "bh_charge", "bh_spin", "mu", "b", "s_cap"),
    "infall": ("energy", "mass", "radius", "entropy", "bh_mass", "zeta",
               "nu", "gamma_bar", "n_species"),
    "merger": ("m1", "m2"),
}


class Subcommand(NamedTuple):
    """Help, parameters (with any, --input too), emitted record kind."""
    help: str
    parameters: tuple[Param, ...]
    kind: str

    @property
    def targets(self) -> list[Param]:   # positional: right after the subcommand
        return [p for p in self.parameters if not p.flag.startswith("-")]

    @property
    def options(self) -> dict[str, Param]:
        """Its flags, by flag: --format, its own and, if any, --input."""
        own = [p for p in self.parameters if p.flag.startswith("-")]
        return {p.flag: p for p in [FORMAT, *own, *([INPUT] if own else [])]}


#: The program, as a row: its help, and the flags it takes before a subcommand.
PROGRAM = Subcommand("Black hole thermodynamics, entropy bounds and channel "
                     "capacity (CGS units).", (), "")
SUBCOMMANDS = {
    "constants": Subcommand("dump the physical constants table", (), "constants"),
    "bh": Subcommand("Kerr-Newman black hole state", (
        Param("--mass", "mass [g]", key="mass_g"),
        Param("--charge", "charge [esu]", 0.0, key="charge_esu"),
        Param("--spin", "angular momentum [erg s]", 0.0, key="spin_erg_s"),
        Param("--charge-over-m", "charge as the dimensionless ratio Q/M"),
        Param("--spin-over-m", "spin as the dimensionless ratio a/M"),
    ), "black_hole"),
    "evaporate": Subcommand("Hawking evaporation trajectory", (
        Param("--mass", "initial mass [g]", key="mass_g"),
        Param("--points", f"number of samples (default 200, at most {MAX_POINTS})",
              200, int),
        N_SPECIES,
    ), "evaporation"),
    "bounds": Subcommand("entropy bound report for a system", (
        Param("--energy", "rest energy [erg]"),
        Param("--mass", "rest mass [g] (alternative to energy)"),
        Param("--radius", "largest radius [cm]"),
        Param("--entropy", "stored entropy [nat]"),
        Param("--area", "enclosing area [cm^2] (default: sphere of the radius)",
              key="enclosing_area"),
        Param("--nu", "irreversibility factor"),
        Param("--zeta", "hole-to-system size ratio"),
    ), "bound_report"),
    "gedanken": Subcommand("entropy-ledger thought experiments", (
        Param("--scenario", type=str, choices=tuple(GEDANKEN_SCENARIOS)),
        Param("--energy", "system rest energy [erg]"),
        Param("--mass", "system rest mass [g]"),
        Param("--radius", "system radius [cm]"),
        Param("--entropy", "system entropy [nat]"),
        Param("--area", "enclosing area [cm^2] (susskind)"),
        Param("--bh-mass", "host hole mass [g]"),
        Param("--bh-charge", "host hole charge [esu]", 0.0),
        Param("--bh-spin", "host hole spin [erg s]", 0.0),
        Param("--mu", "capsule rest mass [g]"),
        Param("--b", "capsule radius [cm]"),
        Param("--s-cap", "capsule entropy [nat]"),
        Param("--zeta", "hole-to-system size ratio (infall)"),
        Param("--m1", "first hole mass [g] (merger)"),
        Param("--m2", "second hole mass [g] (merger)"),
        *EMISSION,
    ), "gedanken"),
    "channel": Subcommand("channel capacity bounds", (
        Param("--lambda-c", "long-wavelength cutoff [cm]"),
        Param("--frequency", "cutoff as a frequency [Hz] (alternative to lambda-c)"),
        Param("--power", "channel power [erg s^-1]"),
        N_CARRIERS,
        *EMISSION,
    ), "channel_capacity"),
    "sweep": Subcommand("parameter sweeps as data series", (
        Param("target", type=str, choices=("bh", "channel")),
        *SWEEP_GRID, *SWEEP_BH, *SWEEP_CHANNEL,
    ), "sweep"),
}


# -- input files -----------------------------------------------------------

def _parse_kv_file(path: str) -> dict[str, str]:
    data: dict[str, str] = {}
    with open(path) as fh:
        for lineno, raw in enumerate(fh, 1):
            line = raw.strip()
            if not line or line.startswith("#"):
                continue
            if "=" not in line:
                raise ConfigError(f"{path}:{lineno}: expected key=value, got {line!r}")
            key, value = line.split("=", 1)
            data[key.strip()] = value.strip()
    return data


def load_input_file(path: str, command: str) -> dict[str, str]:
    """Read a flat key=value file, or the inputs of a previously emitted
    JSON record of the subcommand ``command``, by parameter name."""
    row = SUBCOMMANDS[command]
    try:
        if not path.endswith(".json"):
            return _parse_kv_file(path)
        import json
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}")
    except (ValueError, RecursionError) as exc:    # bad JSON or UTF-8; too deep
        raise ConfigError(f"cannot parse {path}: {exc}")
    if isinstance(obj, dict) and obj.get("kind", row.kind) != row.kind:
        raise ConfigError(f"{path} holds a {obj['kind']!r} record, not {row.kind!r}")
    inputs = obj.get("inputs", obj) if isinstance(obj, dict) else None
    if not isinstance(inputs, dict):
        raise ConfigError(f"{path} holds no JSON object of inputs")
    keys = {p.key: p.dest for p in row.parameters if p.key}
    return {keys.get(key, key): str(value) for key, value in inputs.items()}


def merge_input(args: SimpleNamespace) -> set[str]:
    """Fill the subcommand's unset parameters from --input, then give each
    one still unset its literal default, if it has one.  CLI flags win over
    file values, and a file value must have its parameter's type and
    choices.  Returns the dests that the command line or the file set."""
    parameters = SUBCOMMANDS[args.command].parameters
    if (path := args.input) is not None:
        options = {p.dest: p for p in parameters if p.flag.startswith("-")}
        for key, raw in load_input_file(path, args.command).items():
            dest = key.replace("-", "_")
            if dest not in options:
                raise ConfigError(f"unknown key {key!r} in {path}")
            if getattr(args, dest) is None:
                try:
                    setattr(args, dest, options[dest].parse(raw))
                except ValueError as exc:
                    raise ConfigError(f"bad value for {key!r} in {path}: {exc}")
    given = {p.dest for p in parameters if getattr(args, p.dest) is not None}
    for p in parameters:
        if p.dest not in given and p.default is not None:
            setattr(args, p.dest, p.default)
    return given


def _check_points(args: SimpleNamespace) -> None:
    if args.points > MAX_POINTS:
        raise ConfigError(f"{args.points} points is above the limit of "
                          f"{MAX_POINTS}")


def _require(args: SimpleNamespace, *dests: str) -> None:
    missing = [d for d in dests if getattr(args, d) is None]
    if missing:
        raise ConfigError("missing required parameter(s): "
                          + ", ".join(d.replace("_", "-") for d in missing))


def _refuse_unread(args: SimpleNamespace, given: set[str],
                   read: Iterable[str], what: str) -> None:
    """Refuse the parameters the request set (``given``) that ``what``, its
    target or scenario, never reads: ``read`` holds the dests it reads."""
    unread = given.difference(read)
    if unread:
        raise ConfigError(f"{what} does not read " + ", ".join(
            p.flag for p in SUBCOMMANDS[args.command].parameters if p.dest in unread))


def _options(args: SimpleNamespace, *dests: str) -> dict[str, object]:
    """The library options among ``dests`` that the request set, by dest:
    what a library call receives.  One left unset is left out, so the
    library's own default applies."""
    return {dest: value for dest in dests
            if (value := getattr(args, dest, None)) is not None}


def build_emission(args: SimpleNamespace) -> EmissionParameters:
    return EmissionParameters(**_options(args, "nu", "gamma_bar", "n_species"))


def _document(args: SimpleNamespace) -> tuple[set[str], Document]:
    """The dests the request set (``merge_input``) and its record, whose
    ``inputs`` echo exactly the options the request set, each under its
    key, with the value it runs with.  Re-fed through --input, a record
    sets the same options, so the same defaults run again."""
    given = merge_input(args)
    row = SUBCOMMANDS[args.command]
    doc = Document(row.kind, UNITS)
    doc.add("inputs", {p.key or p.dest: getattr(args, p.dest) for p in row.parameters
                       if p.dest in given and p.flag.startswith("-")})
    return given, doc


# -- subcommands -----------------------------------------------------------

def cmd_constants(args: SimpleNamespace) -> Document:
    _, doc = _document(args)
    doc.add("values", CONSTANTS._asdict())
    doc.add("meta", {"source": CONSTANTS_SOURCE})
    return doc


def cmd_bh(args: SimpleNamespace) -> Document:
    _load("kerr_newman")
    given, doc = _document(args)
    _require(args, "mass")
    if {"charge", "charge_over_m"} <= given:
        raise ConfigError("give either charge or charge-over-m, not both")
    if {"spin", "spin_over_m"} <= given:
        raise ConfigError("give either spin or spin-over-m, not both")
    M = geometrized_mass(args.mass)
    q, j = args.charge, args.spin
    if args.charge_over_m is not None:
        q = args.charge_over_m * M * CONSTANTS.c**2 / math.sqrt(CONSTANTS.G)
    if args.spin_over_m is not None:
        j = args.spin_over_m * M * args.mass * CONSTANTS.c
    bh = make_black_hole(args.mass, q, j)
    pots = potentials(bh)
    h1, h2 = h_factors(bh)
    A = horizon_area(bh)
    T = temperature(bh)
    doc.add("results", {
        "M": bh.M, "Q": bh.Q, "a": bh.a, "r_plus": bh.r_plus,
        "area": A, "entropy": entropy(bh), "entropy_bits": bit_entropies((A,))[0],
        "temperature": T, "temperature_kelvin": energy_temperature_to_kelvin(T),
        **pots._asdict(), "h1": h1, "h2": h2, "mean_density": mean_density(bh.m)})
    return doc


def cmd_evaporate(args: SimpleNamespace) -> Document:
    _load("evaporation")
    _, doc = _document(args)
    _require(args, "mass")
    if args.points < 2:
        raise ConfigError("evaporate needs at least two points")
    _check_points(args)
    t, m = mass_history(args.mass, build_emission(args), points=args.points)
    doc.add("results", {"lifetime_s": t[-1]})
    doc.set_columns(["t", "mass"], [t, m])
    return doc


def cmd_bounds(args: SimpleNamespace) -> Document:
    _load("bounds")
    _, doc = _document(args)
    _require(args, "radius")
    report = bound_report(_system_from_args(args), enclosing_area=args.area,
                          **_options(args, "nu", "zeta"))
    doc.add("results", {"compositeness": report.compositeness,
                        "weak_gravity_ratio": report.weak_gravity_ratio,
                        "tightest_applicable": report.tightest_applicable,
                        "violations": ";".join(report.violations) or "none"})
    # each entry's fields after its name, under shorter keys
    doc.add("bounds", {f"{e.name}.{key}": value for e in report.entries
                       for key, value in zip(("limit", "limit_bits", "applicable",
                                              "reason"), e[1:])})
    return doc


def _system_from_args(args: SimpleNamespace, *required: str) -> MaterialSystem:
    if (args.energy is None) == (args.mass is None):
        raise ConfigError("give exactly one of energy or mass")
    energy = args.energy if args.energy is not None else args.mass * CONSTANTS.c**2
    _require(args, *required)
    return MaterialSystem(energy=energy, radius=args.radius, entropy=args.entropy)


def cmd_gedanken(args: SimpleNamespace) -> Document:
    _load("bounds", "evaporation", "gedanken", "kerr_newman")
    given, doc = _document(args)
    _require(args, "scenario")
    scenario = args.scenario
    _refuse_unread(args, given, ("scenario", *GEDANKEN_SCENARIOS[scenario]),
                   f"scenario {scenario}")
    if scenario == "susskind":
        sys_ = _system_from_args(args, "radius", "entropy")
        report = susskind_collapse(sys_, *_options(args, "area").values())
    elif scenario == "capsule":
        _require(args, "bh_mass", "mu", "b", "s_cap")
        bh = make_black_hole(args.bh_mass, args.bh_charge, args.bh_spin)
        report = capsule_lowering(bh, args.mu, args.b, args.s_cap)
    elif scenario == "infall":
        if "bh_mass" in given:      # the host hole, not zeta, sizes the setup
            _refuse_unread(args, given, given - {"zeta"}, "infall with --bh-mass")
        sys_ = _system_from_args(args, "radius", "entropy")
        params = build_emission(args)
        host = [make_black_hole(args.bh_mass)] if args.bh_mass is not None \
            else _options(args, "zeta").values()    # unset: the library's zeta
        report = infall_experiment(sys_, *host, params=params)
    else:
        _require(args, "m1", "m2")
        report = merger(make_black_hole(args.m1), make_black_hole(args.m2))
    doc.add("results", {"scenario": report.scenario})
    doc.add("ledger", {f"{e.label.replace(' ', '_')}.{when}": value
                       for e in report.ledger.entries
                       for when, value in (("before", e.before), ("after", e.after))})
    doc.add("results", {
        "delta_total": report.ledger.delta_total,
        "gsl_satisfied": report.ledger.gsl_satisfied,
        "applicable": report.applicable,
        "verdict": {None: "inapplicable", True: "satisfied",
                    False: "violated"}[report.gsl_verdict]})
    doc.add("checks", {f"{c.name}.{field}": value for c in report.assumption_checks
                       for field, value in c._asdict().items() if field != "name"})
    doc.add("results", {"notes": report.notes})
    return doc


def cmd_channel(args: SimpleNamespace) -> Document:
    _load("channel", "evaporation")
    _, doc = _document(args)
    _require(args, "power")
    if (args.lambda_c is None) == (args.frequency is None):
        raise ConfigError("give exactly one of lambda-c or frequency")
    if args.frequency is not None and not 0 < args.frequency < math.inf:
        raise DomainError(
            f"frequency must be positive and finite, got {args.frequency}")
    lambda_c = args.lambda_c if args.lambda_c is not None \
        else CONSTANTS.c / args.frequency
    report = capacity_bound(Channel(lambda_c, args.power, **_options(args, "n_carriers"),
                                    emission=build_emission(args)))
    doc.add("results", {
        "p_c": report.p_c, "p_c_approx": report.p_c_approx,
        "regime": report.regime, "xi_used": report.xi_used,
        "bound": report.bound_bits_per_s, "pendry_capacity": report.pendry_bits_per_s})
    doc.add("consistency", report.consistency._asdict())
    return doc


#: Each bh sweep quantity as a column computed from the mass column m and
#: the holes' ``horizon_columns`` (M, Q, a, r = r_plus).
BH_SWEEP_QUANTITIES = {
    "r_plus": lambda m, M, Q, a, r: r,
    "area": lambda m, M, Q, a, r: horizon_areas(r, a),
    "entropy": lambda m, M, Q, a, r: entropies(horizon_areas(r, a)),
    "entropy_bits": lambda m, M, Q, a, r: bit_entropies(horizon_areas(r, a)),
    "temperature": lambda m, M, Q, a, r: temperatures(M, r, horizon_areas(r, a)),
    "temperature_kelvin": lambda m, M, Q, a, r: temperatures_in_kelvin(
        temperatures(M, r, horizon_areas(r, a))),
    "mean_density": lambda m, M, Q, a, r: mean_densities(m),
}


def _sweep_grid(args: SimpleNamespace) -> list[float]:
    _load("grids")
    if args.points < 1:
        raise ConfigError("sweep needs at least one point")
    _check_points(args)
    if args.spacing == "log":
        if args.start <= 0 or args.stop <= 0:
            raise ConfigError("log spacing needs positive start and stop")
        return geomspace(args.start, args.stop, max(args.points, 2))
    return linspace(args.start, args.stop, max(args.points, 2))


def cmd_sweep(args: SimpleNamespace) -> Document:
    bh = args.target == "bh"
    _load(*(["kerr_newman"] if bh else ["channel", "evaporation"]))
    given, doc = _document(args)
    read = SWEEP_GRID + (SWEEP_BH if bh else SWEEP_CHANNEL)
    _refuse_unread(args, given, ["target", *(p.dest for p in read)],
                   f"target {args.target}")
    _require(args, "param", "start", "stop")
    grid = _sweep_grid(args)
    if bh:
        if args.param != "mass":
            raise ConfigError("bh sweeps support param=mass")
        if args.quantity not in BH_SWEEP_QUANTITIES:
            raise ConfigError(f"unknown quantity {args.quantity!r}; choose from "
                              + ", ".join(sorted(BH_SWEEP_QUANTITIES)))
        func = BH_SWEEP_QUANTITIES[args.quantity]
        q, j = args.charge, args.spin
        values = first_refused(lambda m: func(m, *horizon_columns(m, q, j)), grid)
        names, columns = ["mass", args.quantity], [grid, values]
    else:
        if args.param not in ("power", "lambda_c"):
            raise ConfigError("channel sweeps support param=power or param=lambda_c")
        # the grid, not a fixed value, gives the swept parameter
        _refuse_unread(args, given, given - {args.param}, f"a {args.param} sweep")
        emission = build_emission(args)
        power_sweep = args.param == "power"
        fixed = args.lambda_c if power_sweep else args.power
        if fixed is None:
            raise ConfigError("channel sweep needs the non-swept parameter "
                              "(lambda-c or power) fixed")
        n_carriers = _options(args, "n_carriers")
        fixeds = [fixed] * len(grid)

        def channel_columns(lambdas: list[float], powers: list[float]) -> tuple:
            # a channel is checked before its cutoff's power, and that before its bound
            check_channels(lambdas, powers, **n_carriers)
            p_cs = cutoff_powers([fixed], emission) * len(powers) if power_sweep \
                else cutoff_powers(lambdas, emission)
            return regime_columns(lambdas, powers, p_cs, emission)
        regimes, bounds = first_refused(
            channel_columns, *((fixeds, grid) if power_sweep else (grid, fixeds)))
        names, columns = [args.param, "bound", "regime"], [grid, bounds, regimes]
    # one point is the first row of a two-point sweep, so its stop is checked
    doc.set_columns(names, columns if args.points > 1
                    else [column[:1] for column in columns])
    return doc


# -- parser and dispatch ---------------------------------------------------

#: A negative number, as -1e5, -1.5E-3 or -.5e+2: a value, not a flag.
_NEGATIVE_NUMBER = re.compile(r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?$")


def parse_request(argv: list[str]) -> SimpleNamespace:
    """The request ``argv`` makes, read from the tables: ``[--format F]
    subcommand [target] --flag value ...``, ``--flag=value`` too, a dashed
    value a negative number, the last of a repeated flag winning.  -h or
    --help where a flag may stand asks for the help of the subcommand read
    so far; anything else is a UsageError, one stderr line with its reason."""
    def refuse(reason: str) -> UsageError:
        return UsageError(f"{prog}: error: {reason}")
    fields = {"format": os.environ.get(FORMAT_ENV, "table"), "command": None}
    prog, options, targets = "bhthermo", PROGRAM.options, []
    words = iter(argv)
    for word in words:
        if word in ("-h", "--help"):
            return SimpleNamespace(**fields, help=True)
        if fields["command"] is None and not word.startswith("-"):
            if word not in SUBCOMMANDS:
                raise refuse(f"unknown subcommand {word!r}; choose from "
                             + ", ".join(SUBCOMMANDS))
            row = SUBCOMMANDS[word]
            prog, options, targets = f"bhthermo {word}", row.options, row.targets
            fields.update(command=word, **dict.fromkeys(
                p.dest for p in (*row.parameters, INPUT)))
            continue
        if targets and word.startswith("-"):
            break                   # a flag before the target: refused below
        flag, eq, text = word.partition("=") if word[:2] == "--" else (word, "", word)
        if (param := targets.pop(0) if targets else options.get(flag)) is None:
            raise refuse(f"unknown argument {word!r}")
        if param.flag.startswith("-") and not eq:
            text = next(words, "-")             # none left: as a dashed word
            if text.startswith("-") and not _NEGATIVE_NUMBER.match(text):
                raise refuse(f"{flag} needs a value")
        try:
            fields[param.dest] = param.parse(text)
        except ValueError as exc:
            raise refuse(f"bad value for {param.flag}: {exc}") from None
    if fields["command"] is None:
        raise refuse("missing subcommand; choose from " + ", ".join(SUBCOMMANDS))
    if targets:
        raise refuse(f"expected {targets[0].metavar} right after {fields['command']}")
    if fields["format"] not in FORMATS:         # a flag's value is checked above
        raise UsageError(f"bhthermo: bad ${FORMAT_ENV} {fields['format']!r}; "
                         "choose from " + ", ".join(FORMATS))
    return SimpleNamespace(**fields, help=False)


def build_parser() -> SimpleNamespace:
    """An object whose ``parse_args`` is ``parse_request``, kept because the
    benchmark's replay (``perfbench/workloads.py``) parses through it."""
    return SimpleNamespace(parse_args=parse_request)


def help_text(command: str | None) -> str:
    """The --help of subcommand ``command``, or of the program for None: a
    usage line, what it does, then one unwrapped line per subcommand and
    option, so the text is the same at every terminal width."""
    def lines(pairs: Iterable[tuple[str, str | None]]) -> list[str]:
        return [f"  {name:<20}  {text or ''}".rstrip() for name, text in pairs]
    row = SUBCOMMANDS[command] if command else PROGRAM
    usage = " ".join([command or "[--format FORMAT] SUBCOMMAND",
                      *(p.metavar for p in row.targets), "[--flag VALUE ...]"])
    options = [("-h, --help", "show this help message and exit"),
               *((f"{p.flag} {p.metavar}", p.help) for p in row.options.values())]
    listed = [] if command else ["subcommands:", *lines(
        (name, sub.help) for name, sub in SUBCOMMANDS.items()), ""]
    return "\n".join([f"usage: bhthermo {usage}", "", row.help, "", *listed,
                      "options:", *lines(options)])


#: Each subcommand's function, ``cmd_<subcommand>``.
COMMANDS = {name: globals()[f"cmd_{name}"] for name in SUBCOMMANDS}


def _unwritable(who: str, exc: OSError) -> int:
    """Report in one stderr line that a write to stdout failed with ``exc``."""
    print(f"{who}: standard output closed before the output was complete"
          if isinstance(exc, BrokenPipeError)       # the reader closed it early
          else f"{who}: cannot write standard output: {exc.strerror or exc}",
          file=sys.stderr)
    return EXIT_USAGE


def main(argv: list[str] | None = None) -> int:
    try:
        args = parse_request(sys.argv[1:] if argv is None else list(argv))
    except UsageError as exc:
        print(exc, file=sys.stderr)
        return EXIT_USAGE
    who = "bhthermo" if args.help else f"bhthermo {args.command}"
    try:
        for block in [help_text(args.command)] if args.help \
                else COMMANDS[args.command](args).blocks(args.format):
            if sys.stdout is None:      # started with stdout closed
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            sys.stdout.write(block)
        print(flush=True)
    except (ConfigError, DomainError) as exc:
        print(f"{who}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN if isinstance(exc, DomainError) else EXIT_USAGE
    except OSError as exc:
        return _unwritable(who, exc)
    return EXIT_OK


def entrypoint() -> NoReturn:
    """Run ``main``, the exit handlers and a flush of stdout and stderr, then
    end the process without the interpreter's teardown (~10 ms)."""
    code = main()
    atexit._run_exitfuncs()
    try:
        if sys.stdout is not None:
            sys.stdout.flush()
    except OSError as exc:      # reported by main, unless main succeeded
        code = code or _unwritable("bhthermo", exc)
    if sys.stderr is not None:
        sys.stderr.flush()
    os._exit(code)


if __name__ == "__main__":
    entrypoint()
