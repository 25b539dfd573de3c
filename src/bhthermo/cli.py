"""Command line front end: every subsystem behind one executable.

Results go to stdout as a table (default), JSON or CSV; diagnostics go to
stderr.  Exit codes: 0 success, 1 physical-domain errors, 2 usage or
config errors.  Computed numbers are rounded to nine significant digits
(in shortest form in JSON, else in scientific notation); input echoes keep
full precision so records re-feed exactly.  Units go in their own field.
"""

from __future__ import annotations

import argparse
import math
import os
import re
import sys
from collections.abc import Callable, Sequence
from itertools import chain, repeat
from typing import NoReturn

from .constants import (
    CONSTANTS,
    constants_table,
    energy_temperature_to_kelvin,
    geometrized_mass,
    nats_to_bits,
)
from .errors import DomainError

#: The names this module takes from the formula modules, by module.  Each
#: subcommand imports only the modules it runs: it calls ``_load`` for
#: them, which binds their names here.  A name already set on this module
#: (a test double, a tracing wrapper) is left as set, and every call goes
#: through the module global, so the name set is the one that runs.
_LAZY_IMPORTS = {
    "bounds": ("COMPOSITE_THRESHOLD", "DEFAULT_NU", "DEFAULT_ZETA",
               "MaterialSystem", "WEAK_GRAVITY_THRESHOLD", "bound_report",
               "sphere_area"),
    "channel": ("Channel", "capacity_bound", "check_channel", "cutoff_power",
                "power_sweep_rates", "regime_columns"),
    "evaporation": ("EmissionParameters", "mass_history"),
    "gedanken": ("GedankenReport", "capsule_lowering", "infall_experiment",
                 "merger", "susskind_collapse"),
    "grids": ("geomspace", "linspace"),
    "kerr_newman": ("area_from", "entropy", "entropy_from", "h_factors",
                    "horizon_area", "horizon_columns", "make_black_hole",
                    "mean_density", "potentials", "temperature",
                    "temperature_from"),
}
_LAZY_HOME = {name: module for module, names in _LAZY_IMPORTS.items()
              for name in names}


def _load(*modules: str) -> None:
    """Import the formula modules and bind each of their names in
    _LAZY_IMPORTS that this module does not hold yet."""
    namespace = globals()
    for module in modules:
        qualified = f"{__package__}.{module}"
        __import__(qualified)       # -X importtime omits importlib.import_module
        loaded = sys.modules[qualified]
        for name in _LAZY_IMPORTS[module]:
            if name not in namespace:
                namespace[name] = getattr(loaded, name)


def __getattr__(name: str) -> object:
    """A formula name read before any subcommand bound it: its module is
    loaded then (PEP 562), so it can be read, wrapped or replaced."""
    if name not in _LAZY_HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    _load(_LAZY_HOME[name])
    return globals()[name]


FORMAT_ENV = "BHTHERMO_FORMAT"
FORMATS = ("table", "json", "csv")

EXIT_OK = 0
EXIT_DOMAIN = 1
EXIT_USAGE = 2

#: Most points a sweep or an evaporation series may have; above it the
#: rows would take gigabytes, so the request is refused (exit 2).
MAX_POINTS = 10_000_000


class ConfigError(Exception):
    """Bad input/config file: unknown key, malformed line, missing value."""


def round9(x: float) -> float:
    return float(f"{x:.8e}")


#: Sections echoed at full precision so that re-feeding an emitted record
#: reproduces every derived quantity bit-for-bit.  Computed results keep
#: the 9-significant-digit policy.
FULL_PRECISION_SECTIONS = frozenset({"inputs"})


class Document:
    """Uniform output container: named scalar sections plus an optional
    series, stored as columns."""

    def __init__(self, kind: str):
        self.kind = kind
        self.sections: dict[str, dict[str, object]] = {}
        self.units: dict[str, str] = {}
        self.columns: list[str] | None = None
        self.column_units: list[str] | None = None
        self.series: list[Sequence[object]] | None = None

    def add(self, section: str, name: str, value: object, unit: str = "") -> None:
        self.sections.setdefault(section, {})[name] = value
        self.units[f"{section}.{name}"] = unit

    def set_columns(self, names: list[str], units: list[str],
                    columns: list[Sequence[object]]) -> None:
        """The series: one name, one unit and one sequence of cells per
        column, all columns of one length (with no column, no rows)."""
        if len({len(names), len(units), len(columns)}) != 1:
            raise ValueError(f"{len(columns)} columns, {len(names)} names "
                             f"and {len(units)} units")
        if len(set(map(len, columns))) > 1:
            raise ValueError("series columns differ in length: "
                             + ", ".join(str(len(c)) for c in columns))
        self.columns = names
        self.column_units = units
        self.series = columns

    # -- rendering ---------------------------------------------------------

    def _display(self, value: object, where: str, exact: bool = False) -> object:
        if isinstance(value, bool) or value is None or isinstance(value, str):
            return value
        x = _finite(float(value), where)
        return x if exact else round9(x)

    def to_json(self) -> str:
        """Strict JSON, byte for byte ``json.dumps(obj, indent=2)`` of the
        document; the series rows skip that pure-Python encoder."""
        import json
        from json.encoder import encode_basestring_ascii

        obj: dict[str, object] = {"kind": self.kind}
        for section, items in self.sections.items():
            exact = section in FULL_PRECISION_SECTIONS
            obj[section] = {k: self._display(v, f"{section}.{k}", exact)
                            for k, v in items.items()}
        if self.columns is not None:
            obj["columns"] = self.columns
            obj["rows"] = []
        obj["units"] = {k: u for k, u in self.units.items() if u}
        if self.column_units is not None:
            obj["units"].update(
                {c: u for c, u in zip(self.columns, self.column_units) if u})
        text = json.dumps(obj, indent=2, allow_nan=False)
        if not self._series_length():
            return text
        # Strings hold no raw newline, so only the top-level key "rows" can
        # start a line with two spaces and '"rows": '.
        head, tail = text.split('\n  "rows": []', 1)
        specs, columns = self._series_columns(_json_floats,
                                              encode_basestring_ascii, _json_cell)
        rows = self._series_body(
            "[\n      " + ",\n      ".join(specs) + "\n    ]", ",\n    ", columns)
        return f'{head}\n  "rows": [\n    {rows}\n  ]{tail}'

    def _scalar_rows(self) -> list[tuple[str, str, str]]:
        rows = []
        for section, items in self.sections.items():
            exact = section in FULL_PRECISION_SECTIONS
            for name, value in items.items():
                key = f"{section}.{name}"
                rows.append((key, _text_cell(value, key, exact),
                             self.units.get(key, "")))
        return rows

    def _series_length(self) -> int:
        return len(self.series[0]) if self.series else 0

    def _series_columns(self, floats: Callable[[Sequence[float]],
                                               tuple[str, Sequence[object]]],
                        strs: Callable[[str], str] | None,
                        cell: Callable[[object], str]
                        ) -> tuple[list[str], list[Sequence[object]]]:
        """The series as one ``%`` conversion and one column of values to
        convert per column.

        A column of floats only is written by ``floats`` after one
        finiteness pass, a column of strs only by ``strs`` mapped over it
        (None keeps them), any other column cell by cell through ``cell``;
        the last two convert with ``%s``.  A NaN or an infinity is refused
        naming the first such cell in row order.
        """
        specs, written = [], []
        for column in self.series:
            kinds = set(map(type, column))
            if kinds == {float}:
                if not all(map(math.isfinite, column)):
                    self._refuse_non_finite()
                spec, values = floats(column)
            elif kinds == {str}:
                spec, values = "%s", column if strs is None else list(map(strs, column))
            else:
                try:
                    spec, values = "%s", list(map(cell, column))
                except DomainError:
                    self._refuse_non_finite()
                    raise
            specs.append(spec)
            written.append(values)
        return specs, written

    def _refuse_non_finite(self) -> None:
        """Raise DomainError naming the first NaN or infinite float of the
        series in row order, with its column and the row's first cell."""
        for row in zip(*self.series):
            for column, value in zip(self.columns, row):
                if isinstance(value, float):
                    _finite(value, f"{column} at {self.columns[0]} = {row[0]}")

    def _series_body(self, row_spec: str, sep: str,
                     columns: list[Sequence[object]]) -> str:
        """Every series row through ``row_spec``, a ``%`` template with one
        conversion per column, joined by ``sep``: one formatting call over
        the cells in row order, so a cell is data, never a template."""
        template = sep.join([row_spec] * self._series_length())
        return template % tuple(chain.from_iterable(zip(*columns)))

    def to_table(self) -> str:
        lines = [f"# {self.kind}"]
        rows = self._scalar_rows()
        if rows:
            w0 = max(len(r[0]) for r in rows)
            w1 = max(len(r[1]) for r in rows)
            lines += [f"{k:<{w0}}  {v:>{w1}}  {u}".rstrip() for k, v, u in rows]
        if self.columns is not None:
            header = [f"{c} [{u}]" if u else c
                      for c, u in zip(self.columns, self.column_units)]
            _, columns = self._series_columns(_table_floats, None, _text_cell)
            widths = [max(len(h), max(map(len, column), default=0))
                      for h, column in zip(header, columns)]
            lines.append("  ".join(h.ljust(w) for h, w in zip(header, widths)))
            if self._series_length():
                lines.append(self._series_body(
                    "  ".join(f"%{w}s" for w in widths), "\n", columns))
        return "\n".join(lines)

    def to_csv(self) -> str:
        if self.columns is not None:
            lines = [",".join(self.columns)]
            if self._series_length():
                specs, columns = self._series_columns(_csv_floats, None, _text_cell)
                lines.append(self._series_body(",".join(specs), "\n", columns))
            return "\n".join(lines)
        lines = ["quantity,value,unit"]
        lines += [f"{k},{v},{u}" for k, v, u in self._scalar_rows()]
        return "\n".join(lines)

    def render(self, fmt: str) -> str:
        """The document in ``fmt``, one of FORMATS; only that format is built."""
        if fmt not in FORMATS:
            raise ValueError(f"unknown format {fmt!r}; choose from {FORMATS}")
        return getattr(self, f"to_{fmt}")()


def _finite(x: float, where: str = "a computed value") -> float:
    """x itself; no output format may carry a NaN or an infinity."""
    if math.isfinite(x):
        return x
    raise DomainError(f"{where} is " + ("undefined (nan)" if math.isnan(x)
                                        else f"{x}, beyond the float range"))


_JSON_LITERALS = {None: "null", True: "true", False: "false"}


# A finite float column as _text_cell (CSV, table) or _json_cell (JSON)
# writes each of its cells: (its % conversion, the values it converts).
def _csv_floats(column: Sequence[float]) -> tuple[str, Sequence[float]]:
    return "%.8e", column


def _table_floats(column: Sequence[float]) -> tuple[str, list[str]]:
    # the table needs the written cells to size its columns
    return "%s", list(map("%.8e".__mod__, column))


def _json_floats(column: Sequence[float]) -> tuple[str, list[object]]:
    """The JSON float cell rule: ``%s`` of each value writes
    repr(float("%.8e" % x)).  A value is format(x, ".9") if x is 0.0, or
    normal with |x| < 99999999.0 or >= 1e16; else it is that rounding,
    which repr writes in fixed notation or, if subnormal, shorter."""
    if 99999999.0 <= min(column, default=0.0) and max(column) < 1e16:
        return "%s", list(map(float, map("%.8e".__mod__, column)))
    tiny = sys.float_info.min
    return "%s", [format(x, ".9") if tiny <= (a := abs(x)) < 99999999.0
                  or a >= 1e16 or x == 0.0 else float("%.8e" % x) for x in column]


def _json_cell(value: object) -> str:
    """A series cell as ``json.dumps`` writes ``Document._display`` of it."""
    if value.__class__ is not float:        # floats, the common cells, skip these
        if isinstance(value, str):
            from json.encoder import encode_basestring_ascii
            return encode_basestring_ascii(value)
        if value is None or isinstance(value, bool):
            return _JSON_LITERALS[value]
        value = float(value)
    return "%s" % tuple(_json_floats([_finite(value)])[1])


def _text_cell(value: object, where: str = "a computed value",
               exact: bool = False) -> str:
    """A table or CSV cell: numbers in scientific notation with nine
    significant digits, or 17 when ``exact``."""
    if value.__class__ is not float:        # floats, the common cells, skip these
        if isinstance(value, str):
            return value
        if value is None:
            return ""
        if isinstance(value, bool):
            return "true" if value else "false"
        value = float(value)
    value = _finite(value, where)
    return f"{value:.16e}" if exact else f"{value:.8e}"


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


#: Emitted-JSON input keys accepted back on the command line, per subcommand.
JSON_INPUT_KEYS = {
    "bh": {"mass_g": "mass", "charge_esu": "charge", "spin_erg_s": "spin"},
}


def load_input_file(path: str, command: str) -> dict[str, str]:
    """Read a flat key=value file, or the inputs of a previously emitted JSON."""
    try:
        if not path.endswith(".json"):
            return _parse_kv_file(path)
        import json
        with open(path) as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise ConfigError(f"cannot read {path}: {exc.strerror}")
    except ValueError as exc:       # json.JSONDecodeError, UnicodeDecodeError
        raise ConfigError(f"cannot parse {path}: {exc}")
    inputs = obj.get("inputs", obj) if isinstance(obj, dict) else None
    if not isinstance(inputs, dict):
        raise ConfigError(f"{path} holds no JSON object of inputs")
    mapping = JSON_INPUT_KEYS.get(command, {})
    return {mapping.get(key, key): str(value) for key, value in inputs.items()}


def merge_input(args: argparse.Namespace, command: str,
                schema: dict[str, type]) -> None:
    """Fill unset args from --input; CLI flags always win over file values."""
    if getattr(args, "input", None) is None:
        return
    data = load_input_file(args.input, command)
    for key, raw in data.items():
        dest = key.replace("-", "_")
        if dest not in schema:
            raise ConfigError(f"unknown key {key!r} in {args.input}")
        if getattr(args, dest, None) is None:
            try:
                setattr(args, dest, schema[dest](raw))
            except ValueError as exc:
                raise ConfigError(f"bad value for {key!r} in {args.input}: {exc}")


def _fill_defaults(args: argparse.Namespace, defaults: dict[str, object]) -> None:
    for dest, value in defaults.items():
        if getattr(args, dest) is None:
            setattr(args, dest, value)


def _check_points(args: argparse.Namespace) -> None:
    if args.points > MAX_POINTS:
        raise ConfigError(f"{args.points} points is above the limit of "
                          f"{MAX_POINTS}")


def _require(args: argparse.Namespace, *dests: str) -> None:
    missing = [d for d in dests if getattr(args, d) is None]
    if missing:
        raise ConfigError("missing required parameter(s): "
                          + ", ".join(d.replace("_", "-") for d in missing))


def build_emission(args: argparse.Namespace) -> EmissionParameters:
    kwargs = {}
    for dest, name in (("nu", "nu"), ("gamma_bar", "gamma_bar"),
                       ("n_species", "n_species")):
        value = getattr(args, dest, None)
        if value is not None:
            kwargs[name] = value
    return EmissionParameters(**kwargs)


def _add_emission_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--nu", type=float, help="irreversibility factor (1..2)")
    p.add_argument("--gamma-bar", type=float, help="relativistic emission factor")
    p.add_argument("--n-species", type=float, help="effective massless species count")


# -- subcommands -----------------------------------------------------------

def cmd_constants(args: argparse.Namespace) -> Document:
    table = constants_table()
    doc = Document("constants")
    for name, value in table["values"].items():
        doc.add("values", name, value, table["units"][name])
    doc.add("meta", "source", table["source"])
    return doc


def _resolve_charge_spin(args: argparse.Namespace) -> tuple[float, float]:
    if args.charge is not None and args.charge_over_m is not None:
        raise ConfigError("give either charge or charge-over-m, not both")
    if args.spin is not None and args.spin_over_m is not None:
        raise ConfigError("give either spin or spin-over-m, not both")
    M = geometrized_mass(args.mass)
    q = args.charge if args.charge is not None else 0.0
    j = args.spin if args.spin is not None else 0.0
    if args.charge_over_m is not None:
        q = args.charge_over_m * M * CONSTANTS.c**2 / math.sqrt(CONSTANTS.G)
    if args.spin_over_m is not None:
        j = args.spin_over_m * M * args.mass * CONSTANTS.c
    return q, j


BH_SCHEMA = {"mass": float, "charge": float, "spin": float,
             "charge_over_m": float, "spin_over_m": float}


def cmd_bh(args: argparse.Namespace) -> Document:
    _load("kerr_newman")
    merge_input(args, "bh", BH_SCHEMA)
    _require(args, "mass")
    q, j = _resolve_charge_spin(args)
    bh = make_black_hole(args.mass, q, j)
    pots = potentials(bh)
    h1, h2 = h_factors(bh)
    S = entropy(bh)
    T = temperature(bh)
    doc = Document("black_hole")
    doc.add("inputs", "mass_g", bh.m, "g")
    doc.add("inputs", "charge_esu", bh.q, "esu")
    doc.add("inputs", "spin_erg_s", bh.j, "erg s")
    for name, value, unit in (
            ("M", bh.M, "cm"), ("Q", bh.Q, "cm"), ("a", bh.a, "cm"),
            ("r_plus", bh.r_plus, "cm"),
            ("area", horizon_area(bh), "cm^2"),
            ("entropy", S, "nat"), ("entropy_bits", nats_to_bits(S), "bit"),
            ("temperature", T, "erg"),
            ("temperature_kelvin", energy_temperature_to_kelvin(T), "K"),
            ("theta", pots.theta, "erg cm^-2"),
            ("phi", pots.phi, "statvolt"),
            ("omega", pots.omega, "s^-1"),
            ("h1", h1, ""), ("h2", h2, ""),
            ("mean_density", mean_density(bh.m), "g cm^-3")):
        doc.add("results", name, value, unit)
    return doc


EVAPORATE_SCHEMA = {"mass": float, "points": int, "nu": float,
                    "gamma_bar": float, "n_species": float}


def cmd_evaporate(args: argparse.Namespace) -> Document:
    _load("evaporation")
    merge_input(args, "evaporate", EVAPORATE_SCHEMA)
    _require(args, "mass")
    _fill_defaults(args, {"points": 200})
    if args.points < 2:
        raise ConfigError("evaporate needs at least two points")
    _check_points(args)
    params = build_emission(args)
    t, m = mass_history(args.mass, params, points=args.points)
    doc = Document("evaporation")
    doc.add("inputs", "mass_g", args.mass, "g")
    doc.add("results", "lifetime_s", t[-1], "s")
    doc.set_columns(["t", "mass"], ["s", "g"], [t, m])
    return doc


BOUNDS_SCHEMA = {"energy": float, "mass": float, "radius": float,
                 "entropy": float, "area": float, "nu": float, "zeta": float,
                 "composite_threshold": float, "weak_gravity_threshold": float}


def cmd_bounds(args: argparse.Namespace) -> Document:
    _load("bounds")
    merge_input(args, "bounds", BOUNDS_SCHEMA)
    _require(args, "radius")
    if (args.energy is None) == (args.mass is None):
        raise ConfigError("give exactly one of energy or mass")
    energy = args.energy if args.energy is not None else args.mass * CONSTANTS.c**2
    _fill_defaults(args, {"nu": DEFAULT_NU, "zeta": DEFAULT_ZETA,
                          "composite_threshold": COMPOSITE_THRESHOLD,
                          "weak_gravity_threshold": WEAK_GRAVITY_THRESHOLD})
    sys_ = MaterialSystem(energy=energy, radius=args.radius, entropy=args.entropy)
    report = bound_report(sys_, enclosing_area=args.area,
                          nu=args.nu, zeta=args.zeta,
                          composite_threshold=args.composite_threshold,
                          weak_gravity_threshold=args.weak_gravity_threshold)
    doc = Document("bound_report")
    doc.add("inputs", "energy", energy, "erg")
    doc.add("inputs", "radius", args.radius, "cm")
    area = args.area if args.area is not None else sphere_area(args.radius)
    doc.add("inputs", "enclosing_area", area, "cm^2")
    if args.entropy is not None:
        doc.add("inputs", "entropy", args.entropy, "nat")
    doc.add("results", "compositeness", report.compositeness)
    doc.add("results", "weak_gravity_ratio", report.weak_gravity_ratio)
    doc.add("results", "tightest_applicable", report.tightest_applicable)
    doc.add("results", "violations",
            ";".join(report.violations) if report.violations else "none")
    for e in report.entries:
        doc.add("bounds", f"{e.name}.limit", e.limit_nats, "nat")
        doc.add("bounds", f"{e.name}.limit_bits", e.limit_bits, "bit")
        doc.add("bounds", f"{e.name}.applicable", e.applicable)
        doc.add("bounds", f"{e.name}.reason", e.applicability_reason)
    return doc


GEDANKEN_SCHEMA = {"scenario": str, "energy": float, "mass": float,
                   "radius": float, "entropy": float, "area": float,
                   "bh_mass": float, "bh_charge": float, "bh_spin": float,
                   "mu": float, "b": float, "s_cap": float, "zeta": float,
                   "m1": float, "m2": float, "nu": float, "gamma_bar": float,
                   "n_species": float}


def _system_from_args(args: argparse.Namespace) -> MaterialSystem:
    if (args.energy is None) == (args.mass is None):
        raise ConfigError("give exactly one of energy or mass")
    energy = args.energy if args.energy is not None else args.mass * CONSTANTS.c**2
    _require(args, "radius", "entropy")
    return MaterialSystem(energy=energy, radius=args.radius, entropy=args.entropy)


def cmd_gedanken(args: argparse.Namespace) -> Document:
    _load("bounds", "evaporation", "gedanken", "kerr_newman")
    merge_input(args, "gedanken", GEDANKEN_SCHEMA)
    _require(args, "scenario")
    scenario = args.scenario
    if scenario == "susskind":
        sys_ = _system_from_args(args)
        area = args.area if args.area is not None else sphere_area(sys_.radius)
        report = susskind_collapse(sys_, area)
    elif scenario == "capsule":
        _require(args, "bh_mass", "mu", "b", "s_cap")
        bh = make_black_hole(args.bh_mass, args.bh_charge or 0.0,
                             args.bh_spin or 0.0)
        report = capsule_lowering(bh, args.mu, args.b, args.s_cap)
    elif scenario == "infall":
        sys_ = _system_from_args(args)
        params = build_emission(args)
        if args.bh_mass is not None:
            report = infall_experiment(sys_, make_black_hole(args.bh_mass), params)
        else:
            _fill_defaults(args, {"zeta": DEFAULT_ZETA})
            report = infall_experiment(sys_, args.zeta, params)
    elif scenario == "merger":
        _require(args, "m1", "m2")
        report = merger(make_black_hole(args.m1), make_black_hole(args.m2))
    else:
        raise ConfigError(f"unknown scenario {scenario!r}; choose from "
                          "susskind, capsule, infall, merger")
    return _gedanken_document(report)


def _gedanken_document(report: GedankenReport) -> Document:
    doc = Document("gedanken")
    doc.add("results", "scenario", report.scenario)
    for e in report.ledger.entries:
        key = e.label.replace(" ", "_")
        doc.add("ledger", f"{key}.before", e.before, "nat")
        doc.add("ledger", f"{key}.after", e.after, "nat")
    doc.add("results", "delta_total", report.ledger.delta_total, "nat")
    doc.add("results", "gsl_satisfied", report.ledger.gsl_satisfied)
    doc.add("results", "applicable", report.applicable)
    verdict = report.gsl_verdict
    doc.add("results", "verdict", "inapplicable" if verdict is None
            else ("satisfied" if verdict else "violated"))
    for c in report.assumption_checks:
        doc.add("checks", f"{c.name}.value", c.value)
        doc.add("checks", f"{c.name}.threshold", c.threshold)
        doc.add("checks", f"{c.name}.passed", c.passed)
    if report.notes:
        doc.add("results", "notes", report.notes)
    return doc


CHANNEL_SCHEMA = {"lambda_c": float, "frequency": float, "power": float,
                  "n_carriers": float, "nu": float, "gamma_bar": float,
                  "n_species": float}


def cmd_channel(args: argparse.Namespace) -> Document:
    _load("channel", "evaporation")
    merge_input(args, "channel", CHANNEL_SCHEMA)
    _require(args, "power")
    if (args.lambda_c is None) == (args.frequency is None):
        raise ConfigError("give exactly one of lambda-c or frequency")
    if args.frequency is not None and not 0 < args.frequency < math.inf:
        raise DomainError(
            f"frequency must be positive and finite, got {args.frequency}")
    lambda_c = args.lambda_c if args.lambda_c is not None \
        else CONSTANTS.c / args.frequency
    _fill_defaults(args, {"n_carriers": 1.0})
    ch = Channel(lambda_c=lambda_c, power=args.power,
                 n_carriers=args.n_carriers, emission=build_emission(args))
    report = capacity_bound(ch)
    doc = Document("channel_capacity")
    doc.add("inputs", "lambda_c", lambda_c, "cm")
    doc.add("inputs", "power", ch.power, "erg s^-1")
    doc.add("inputs", "n_carriers", ch.n_carriers)
    doc.add("results", "p_c", report.p_c, "erg s^-1")
    doc.add("results", "p_c_approx", report.p_c_approx, "erg s^-1")
    doc.add("results", "regime", report.regime)
    doc.add("results", "xi_used", report.xi_used)
    doc.add("results", "bound", report.bound_bits_per_s, "bit s^-1")
    doc.add("results", "pendry_capacity", report.pendry_bits_per_s, "bit s^-1")
    cons = report.consistency
    doc.add("consistency", "f0_limit", cons.f0_limit)
    doc.add("consistency", "f_inf", cons.f_inf)
    doc.add("consistency", "monotone_ok", cons.monotone_ok)
    doc.add("consistency", "caveat_flagged", cons.caveat_flagged)
    doc.add("consistency", "pendry_crossover_power",
            cons.pendry_crossover_power, "erg s^-1")
    return doc


SWEEP_SCHEMA = {"param": str, "start": float, "stop": float, "points": int,
                "spacing": str, "quantity": str, "charge": float, "spin": float,
                "lambda_c": float, "power": float, "n_carriers": float,
                "nu": float, "gamma_bar": float, "n_species": float}

#: Each bh sweep quantity, with its unit, as a column computed from the
#: mass column m and the holes' ``horizon_columns`` (M, Q, a, r = r_plus).
BH_SWEEP_QUANTITIES = {
    "r_plus": (lambda m, M, Q, a, r: r, "cm"),
    "area": (lambda m, M, Q, a, r: list(map(area_from, r, a)), "cm^2"),
    "entropy": (lambda m, M, Q, a, r:
                list(map(entropy_from, map(area_from, r, a))), "nat"),
    "entropy_bits": (lambda m, M, Q, a, r: list(map(
        nats_to_bits, map(entropy_from, map(area_from, r, a)))), "bit"),
    "temperature": (lambda m, M, Q, a, r:
                    list(map(temperature_from, M, r, map(area_from, r, a))), "erg"),
    "temperature_kelvin": (lambda m, M, Q, a, r: list(map(
        energy_temperature_to_kelvin,
        map(temperature_from, M, r, map(area_from, r, a)))), "K"),
    "mean_density": (lambda m, M, Q, a, r: list(map(mean_density, m)), "g cm^-3"),
}


def _sweep_grid(args: argparse.Namespace) -> list[float]:
    if args.points < 1:
        raise ConfigError("sweep needs at least one point")
    _check_points(args)
    if args.points == 1:
        return [args.start]
    if args.spacing == "log":
        if args.start <= 0 or args.stop <= 0:
            raise ConfigError("log spacing needs positive start and stop")
        return geomspace(args.start, args.stop, args.points)
    return linspace(args.start, args.stop, args.points)


def cmd_sweep(args: argparse.Namespace) -> Document:
    _load("grids")
    merge_input(args, "sweep", SWEEP_SCHEMA)
    _require(args, "param", "start", "stop")
    _fill_defaults(args, {"points": 50, "spacing": "log"})
    grid = _sweep_grid(args)
    doc = Document("sweep")
    if args.target == "bh":
        _load("kerr_newman")
        if args.param != "mass":
            raise ConfigError("bh sweeps support param=mass")
        _fill_defaults(args, {"quantity": "entropy", "charge": 0.0, "spin": 0.0})
        if args.quantity not in BH_SWEEP_QUANTITIES:
            raise ConfigError(f"unknown quantity {args.quantity!r}; choose from "
                              + ", ".join(sorted(BH_SWEEP_QUANTITIES)))
        func, unit = BH_SWEEP_QUANTITIES[args.quantity]
        q, j = args.charge, args.spin
        try:
            values = func(grid, *horizon_columns(grid, q, j))
        except DomainError:
            # Each column raises for its own first bad point; the sweep's
            # first bad point is found point by point.
            for m in grid:
                func([m], *horizon_columns([m], q, j))
            raise
        doc.set_columns(["mass", args.quantity], ["g", unit], [grid, values])
    else:
        _load("channel", "evaporation")
        if args.param not in ("power", "lambda_c"):
            raise ConfigError("channel sweeps support param=power or param=lambda_c")
        _fill_defaults(args, {"n_carriers": 1.0})
        emission = build_emission(args)
        if (args.lambda_c if args.param == "power" else args.power) is None:
            raise ConfigError("channel sweep needs the non-swept parameter "
                              "(lambda-c or power) fixed")
        n = args.n_carriers
        # Every point is checked in one pass over the grid; only if one
        # fails does the per-point loop run, to raise for the first.
        if args.param == "power":
            lambda_c = args.lambda_c
            # The first point's checks come before the cutoff's power.
            check_channel(lambda_c, grid[0], n)
            p_c = cutoff_power(lambda_c, emission)
            if not (all(map(math.isfinite, grid)) and min(grid) >= 0.0):
                for P in grid:
                    check_channel(lambda_c, P, n)
            regimes, bounds = power_sweep_rates(lambda_c, grid, p_c, emission)
        else:
            P = args.power
            # The fixed power and carrier count are checked with the first point.
            check_channel(grid[0], P, n)
            if not (all(map(math.isfinite, grid)) and min(grid) > 0.0):
                for lambda_c in grid:
                    check_channel(lambda_c, P, n)
                    cutoff_power(lambda_c, emission)
            regimes, bounds = regime_columns(
                grid, repeat(P), map(cutoff_power, grid, repeat(emission)), emission)
        doc.set_columns([args.param, "bound", "regime"],
                        ["erg s^-1" if args.param == "power" else "cm",
                         "bit s^-1", ""], [grid, bounds, regimes])
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

    sub.add_parser("constants", help="dump the physical constants table",
                   parents=[common])

    p = sub.add_parser("bh", help="Kerr-Newman black hole state",
                       parents=[common])
    p.add_argument("--mass", type=float, help="mass [g]")
    p.add_argument("--charge", type=float, help="charge [esu]")
    p.add_argument("--spin", type=float, help="angular momentum [erg s]")
    p.add_argument("--charge-over-m", type=float,
                   help="charge as the dimensionless ratio Q/M")
    p.add_argument("--spin-over-m", type=float,
                   help="spin as the dimensionless ratio a/M")
    p.add_argument("--input", help="key=value or emitted-JSON input file")

    p = sub.add_parser("evaporate", parents=[common], help="Hawking evaporation trajectory")
    p.add_argument("--mass", type=float, help="initial mass [g]")
    p.add_argument("--points", type=int,
                   help=f"number of samples (default 200, at most {MAX_POINTS})")
    _add_emission_flags(p)
    p.add_argument("--input", help="key=value input file")

    p = sub.add_parser("bounds", parents=[common], help="entropy bound report for a system")
    p.add_argument("--energy", type=float, help="rest energy [erg]")
    p.add_argument("--mass", type=float, help="rest mass [g] (alternative to energy)")
    p.add_argument("--radius", type=float, help="largest radius [cm]")
    p.add_argument("--entropy", type=float, help="stored entropy [nat]")
    p.add_argument("--area", type=float,
                   help="enclosing area [cm^2] (default: sphere of the radius)")
    p.add_argument("--nu", type=float, help="irreversibility factor")
    p.add_argument("--zeta", type=float, help="hole-to-system size ratio")
    p.add_argument("--composite-threshold", type=float,
                   help="ER/(c hbar) needed to count as composite (default 10)")
    p.add_argument("--weak-gravity-threshold", type=float,
                   help="largest GE/(c^4 R) counting as weak gravity (default 1e-2)")
    p.add_argument("--input", help="key=value input file")

    p = sub.add_parser("gedanken", parents=[common], help="entropy-ledger thought experiments")
    p.add_argument("--scenario",
                   choices=("susskind", "capsule", "infall", "merger"))
    p.add_argument("--energy", type=float, help="system rest energy [erg]")
    p.add_argument("--mass", type=float, help="system rest mass [g]")
    p.add_argument("--radius", type=float, help="system radius [cm]")
    p.add_argument("--entropy", type=float, help="system entropy [nat]")
    p.add_argument("--area", type=float, help="enclosing area [cm^2] (susskind)")
    p.add_argument("--bh-mass", type=float, help="host hole mass [g]")
    p.add_argument("--bh-charge", type=float, help="host hole charge [esu]")
    p.add_argument("--bh-spin", type=float, help="host hole spin [erg s]")
    p.add_argument("--mu", type=float, help="capsule rest mass [g]")
    p.add_argument("--b", type=float, help="capsule radius [cm]")
    p.add_argument("--s-cap", type=float, help="capsule entropy [nat]")
    p.add_argument("--zeta", type=float, help="hole-to-system size ratio (infall)")
    p.add_argument("--m1", type=float, help="first hole mass [g] (merger)")
    p.add_argument("--m2", type=float, help="second hole mass [g] (merger)")
    _add_emission_flags(p)
    p.add_argument("--input", help="key=value scenario file")

    p = sub.add_parser("channel", parents=[common], help="channel capacity bounds")
    p.add_argument("--lambda-c", type=float, help="long-wavelength cutoff [cm]")
    p.add_argument("--frequency", type=float,
                   help="cutoff as a frequency [Hz] (alternative to lambda-c)")
    p.add_argument("--power", type=float, help="channel power [erg s^-1]")
    p.add_argument("--n-carriers", type=float, help="carrier species count")
    _add_emission_flags(p)
    p.add_argument("--input", help="key=value input file")

    p = sub.add_parser("sweep", parents=[common],
                       help="parameter sweeps as data series")
    p.add_argument("target", choices=("bh", "channel"))
    p.add_argument("--param", help="swept parameter (mass | power | lambda_c)")
    p.add_argument("--start", type=float)
    p.add_argument("--stop", type=float)
    p.add_argument("--points", type=int,
                   help=f"number of points (default 50, at most {MAX_POINTS})")
    p.add_argument("--spacing", choices=("log", "linear"),
                   help="grid spacing (default log)")
    p.add_argument("--quantity", help="bh output quantity (default entropy)")
    p.add_argument("--charge", type=float, help="fixed charge [esu] (bh)")
    p.add_argument("--spin", type=float, help="fixed spin [erg s] (bh)")
    p.add_argument("--lambda-c", type=float, help="fixed cutoff [cm] (channel)")
    p.add_argument("--power", type=float, help="fixed power [erg s^-1] (channel)")
    p.add_argument("--n-carriers", type=float, help="carrier species count")
    _add_emission_flags(p)
    p.add_argument("--input", help="key=value input file")

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
    try:
        text = COMMANDS[args.command](args).render(args.format)
        print(text, flush=True)
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
