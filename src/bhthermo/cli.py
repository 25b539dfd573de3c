"""Command line front end: every subsystem behind one executable.

Results go to stdout as a table (default), JSON or CSV, written by
:mod:`bhthermo.document`; diagnostics go to stderr.  Exit codes: 0
success, 1 physical-domain errors, 2 usage or config errors.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from collections.abc import Callable, Iterable
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
INPUT_HELP = "key=value input file"
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
    """Help, --input help (None: no --input), parameters, emitted record kind."""
    help: str
    input_help: str | None
    parameters: tuple[Param, ...]
    kind: str


SUBCOMMANDS = {
    "constants": Subcommand("dump the physical constants table", None, (),
                            "constants"),
    "bh": Subcommand("Kerr-Newman black hole state",
                     "key=value or emitted-JSON input file", (
        Param("--mass", "mass [g]", key="mass_g"),
        Param("--charge", "charge [esu]", 0.0, key="charge_esu"),
        Param("--spin", "angular momentum [erg s]", 0.0, key="spin_erg_s"),
        Param("--charge-over-m", "charge as the dimensionless ratio Q/M"),
        Param("--spin-over-m", "spin as the dimensionless ratio a/M"),
    ), "black_hole"),
    "evaporate": Subcommand("Hawking evaporation trajectory", INPUT_HELP, (
        Param("--mass", "initial mass [g]", key="mass_g"),
        Param("--points", f"number of samples (default 200, at most {MAX_POINTS})",
              200, int),
        N_SPECIES,
    ), "evaporation"),
    "bounds": Subcommand("entropy bound report for a system", INPUT_HELP, (
        Param("--energy", "rest energy [erg]"),
        Param("--mass", "rest mass [g] (alternative to energy)"),
        Param("--radius", "largest radius [cm]"),
        Param("--entropy", "stored entropy [nat]"),
        Param("--area", "enclosing area [cm^2] (default: sphere of the radius)",
              key="enclosing_area"),
        Param("--nu", "irreversibility factor"),
        Param("--zeta", "hole-to-system size ratio"),
    ), "bound_report"),
    "gedanken": Subcommand("entropy-ledger thought experiments",
                           "key=value scenario file", (
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
    "channel": Subcommand("channel capacity bounds", INPUT_HELP, (
        Param("--lambda-c", "long-wavelength cutoff [cm]"),
        Param("--frequency", "cutoff as a frequency [Hz] (alternative to lambda-c)"),
        Param("--power", "channel power [erg s^-1]"),
        N_CARRIERS,
        *EMISSION,
    ), "channel_capacity"),
    "sweep": Subcommand("parameter sweeps as data series", INPUT_HELP, (
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


def merge_input(args: argparse.Namespace) -> set[str]:
    """Fill the subcommand's unset parameters from --input, then give each
    one still unset its literal default, if it has one.  CLI flags win over
    file values, and a file value must have its parameter's type and
    choices.  Returns the dests that the command line or the file set."""
    parameters = SUBCOMMANDS[args.command].parameters
    path = getattr(args, "input", None)
    if path is not None:
        options = {p.dest: p for p in parameters if p.flag.startswith("-")}
        for key, raw in load_input_file(path, args.command).items():
            dest = key.replace("-", "_")
            if dest not in options:
                raise ConfigError(f"unknown key {key!r} in {path}")
            if getattr(args, dest) is None:
                param = options[dest]
                try:
                    value = param.type(raw)
                    if param.choices is not None and value not in param.choices:
                        raise ValueError(f"invalid choice {raw!r}; choose from "
                                         + ", ".join(param.choices))
                except ValueError as exc:
                    raise ConfigError(f"bad value for {key!r} in {path}: {exc}")
                setattr(args, dest, value)
    given = {p.dest for p in parameters if getattr(args, p.dest) is not None}
    for p in parameters:
        if p.dest not in given and p.default is not None:
            setattr(args, p.dest, p.default)
    return given


def _check_points(args: argparse.Namespace) -> None:
    if args.points > MAX_POINTS:
        raise ConfigError(f"{args.points} points is above the limit of "
                          f"{MAX_POINTS}")


def _require(args: argparse.Namespace, *dests: str) -> None:
    missing = [d for d in dests if getattr(args, d) is None]
    if missing:
        raise ConfigError("missing required parameter(s): "
                          + ", ".join(d.replace("_", "-") for d in missing))


def _refuse_unread(args: argparse.Namespace, given: set[str],
                   read: Iterable[str], what: str) -> None:
    """Refuse the parameters the request set (``given``) that ``what``, its
    target or scenario, never reads: ``read`` holds the dests it reads."""
    unread = given.difference(read)
    if unread:
        raise ConfigError(f"{what} does not read " + ", ".join(
            p.flag for p in SUBCOMMANDS[args.command].parameters if p.dest in unread))


def _options(args: argparse.Namespace, *dests: str) -> dict[str, object]:
    """The library options among ``dests`` that the request set, by dest:
    what a library call receives.  One left unset is left out, so the
    library's own default applies."""
    return {dest: value for dest in dests
            if (value := getattr(args, dest, None)) is not None}


def build_emission(args: argparse.Namespace) -> EmissionParameters:
    return EmissionParameters(**_options(args, "nu", "gamma_bar", "n_species"))


def _document(args: argparse.Namespace) -> tuple[set[str], Document]:
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

def cmd_constants(args: argparse.Namespace) -> Document:
    _, doc = _document(args)
    doc.add("values", CONSTANTS._asdict())
    doc.add("meta", {"source": CONSTANTS_SOURCE})
    return doc


def cmd_bh(args: argparse.Namespace) -> Document:
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


def cmd_evaporate(args: argparse.Namespace) -> Document:
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


def cmd_bounds(args: argparse.Namespace) -> Document:
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


def _system_from_args(args: argparse.Namespace, *required: str) -> MaterialSystem:
    if (args.energy is None) == (args.mass is None):
        raise ConfigError("give exactly one of energy or mass")
    energy = args.energy if args.energy is not None else args.mass * CONSTANTS.c**2
    _require(args, *required)
    return MaterialSystem(energy=energy, radius=args.radius, entropy=args.entropy)


def cmd_gedanken(args: argparse.Namespace) -> Document:
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
    if report.notes:
        doc.add("results", {"notes": report.notes})
    return doc


def cmd_channel(args: argparse.Namespace) -> Document:
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


def _sweep_grid(args: argparse.Namespace) -> list[float]:
    _load("grids")
    if args.points < 1:
        raise ConfigError("sweep needs at least one point")
    _check_points(args)
    if args.spacing == "log":
        if args.start <= 0 or args.stop <= 0:
            raise ConfigError("log spacing needs positive start and stop")
        return geomspace(args.start, args.stop, max(args.points, 2))
    return linspace(args.start, args.stop, max(args.points, 2))


def cmd_sweep(args: argparse.Namespace) -> Document:
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
        lambdas, powers = (fixeds, grid) if power_sweep else (grid, fixeds)

        def checked_p_cs(lambdas: list[float], powers: list[float]) -> list[float]:
            # a channel is checked before its cutoff's power
            check_channels(lambdas, powers, **n_carriers)
            return cutoff_powers([fixed], emission) * len(powers) if power_sweep \
                else cutoff_powers(lambdas, emission)
        p_cs = first_refused(checked_p_cs, lambdas, powers)
        regimes, bounds = first_refused(
            lambda *columns: regime_columns(*columns, emission), lambdas, powers, p_cs)
        names, columns = [args.param, "bound", "regime"], [grid, bounds, regimes]
    # one point is the first row of a two-point sweep, so its stop is checked
    doc.set_columns(names, columns if args.points > 1
                    else [column[:1] for column in columns])
    return doc


# -- parser and dispatch ---------------------------------------------------

#: A negative number, also in scientific notation (-1e5, -1.5E-3, -.5e+2):
#: a value, not an option.  argparse's own pattern has no exponent.
_NEGATIVE_NUMBER = re.compile(r"^-(?:\d+\.?\d*|\.\d+)(?:[eE][-+]?\d+)?$")


class _Parser(argparse.ArgumentParser):
    """An argument parser whose usage errors are one stderr line (exit 2),
    and which reads a word such as ``-1e5`` as a negative number."""

    def __init__(self, *args, **kwargs) -> None:
        super().__init__(*args, **kwargs)
        self._negative_number_matcher = _NEGATIVE_NUMBER

    def error(self, message: str) -> NoReturn:
        self.exit(EXIT_USAGE, f"{self.prog}: error: {message}\n")


def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="bhthermo",
        description="Black hole thermodynamics, entropy bounds and "
                    "channel-capacity limits (CGS units).")
    parser.add_argument("--format", choices=FORMATS,
                        default=os.environ.get(FORMAT_ENV, "table"),
                        help=f"output format (default from ${FORMAT_ENV} or table)")
    # The same flag is accepted after the subcommand; SUPPRESS keeps an
    # absent subcommand-level flag from clobbering the top-level value.
    common = argparse.ArgumentParser(add_help=False)
    common.add_argument("--format", choices=FORMATS, default=argparse.SUPPRESS,
                        help="output format")
    sub = parser.add_subparsers(dest="command", required=True)
    for name, row in SUBCOMMANDS.items():
        p = sub.add_parser(name, help=row.help, parents=[common])
        # argparse's default stays None: a file value or the row's default
        # fills an unset parameter later, in merge_input
        for param in row.parameters:
            p.add_argument(param.flag, type=param.type, choices=param.choices,
                           help=param.help)
        if row.input_help is not None:
            p.add_argument("--input", help=row.input_help)
    return parser


COMMANDS = {
    "constants": cmd_constants,
    "bh": cmd_bh,
    "evaporate": cmd_evaporate,
    "bounds": cmd_bounds,
    "gedanken": cmd_gedanken,
    "channel": cmd_channel,
    "sweep": cmd_sweep,
}


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return exc.code if isinstance(exc.code, int) else EXIT_USAGE
    if args.format not in FORMATS:      # argparse leaves a default unchecked
        print(f"bhthermo: bad ${FORMAT_ENV} {args.format!r}; choose from "
              + ", ".join(FORMATS), file=sys.stderr)
        return EXIT_USAGE
    try:
        for block in COMMANDS[args.command](args).blocks(args.format):
            sys.stdout.write(block)
        print(flush=True)
    except ConfigError as exc:
        print(f"bhthermo {args.command}: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except DomainError as exc:
        print(f"bhthermo {args.command}: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except BrokenPipeError:
        # The reader closed stdout early.  What is left in its buffer goes
        # to devnull, so that the flush at exit raises nothing either.
        devnull = os.open(os.devnull, os.O_WRONLY)
        os.dup2(devnull, sys.stdout.fileno())
        os.close(devnull)
        print(f"bhthermo {args.command}: standard output closed before the "
              "output was complete", file=sys.stderr)
        return EXIT_USAGE
    return EXIT_OK


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
