"""Sweeps on column kernels against the per-point object loops they replaced.

The references below are the sweep loops as ``cmd_sweep`` wrote them when
each point built a ``BlackHole`` or a ``Channel``, one row per point; every
cell of the columns ``cmd_sweep`` now fills must match them bit for bit,
and every error must be the same error.
"""

import json
import math
from bisect import bisect_left
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from bhthermo.channel import (
    Channel,
    capacity_bound,
    characteristic_power,
    check_channels,
    cutoff_powers,
    low_power_rates,
    regime_columns,
)
from bhthermo.cli import BH_SWEEP_QUANTITIES, build_parser, cmd_sweep, main
from bhthermo.constants import (
    CONSTANTS,
    LOG2E,
    energy_temperature_to_kelvin,
    entropies_in_bits,
    geometrized_mass,
    nats_to_bits,
    temperatures_in_kelvin,
)
from bhthermo import cli, errors
from bhthermo.errors import DomainError, first_refused
from bhthermo.evaporation import EmissionParameters
from bhthermo.grids import geomspace, linspace
from bhthermo.kerr_newman import (
    entropy,
    horizon_area,
    horizon_areas,
    horizon_columns,
    make_black_hole,
    mean_densities,
    mean_density,
    temperature,
)
from test_float_edges import named

# -- the references: one object per point ------------------------------------

REFERENCE_QUANTITIES = {
    "r_plus": lambda bh: bh.r_plus,
    "area": horizon_area,
    "entropy": entropy,
    "entropy_bits": lambda bh: nats_to_bits(entropy(bh)),
    "temperature": temperature,
    "temperature_kelvin": lambda bh: energy_temperature_to_kelvin(temperature(bh)),
    "mean_density": lambda bh: mean_density(bh.m),
}


def reference_bh_rows(grid, quantity, q, j):
    func = REFERENCE_QUANTITIES[quantity]
    return [[m, func(make_black_hole(m, q, j))] for m in grid]


def reference_channel_rows(grid, param, fixed, n_carriers, emission):
    rows = []
    for x in grid:
        ch = Channel(lambda_c=fixed if param == "power" else x,
                     power=x if param == "power" else fixed,
                     n_carriers=n_carriers, emission=emission)
        try:
            report = capacity_bound(ch)
        except DomainError as exc:
            # the report refuses a sqrt-law xi beyond the float range; a
            # sweep writes no xi, so its row holds the sqrt law's bound
            if "optimal xi beyond the float range" not in str(exc):
                raise
            rows.append([x, low_power_rates([ch.power], emission)[0], "low"])
            continue
        rows.append([x, report.bound_bits_per_s, report.regime])
    return rows


# -- helpers -----------------------------------------------------------------

def grid(start, stop, points, spacing):
    return (geomspace if spacing == "log" else linspace)(start, stop, points)


def sweep_columns(argv):
    return cmd_sweep(build_parser().parse_args(["sweep", *argv])).series


def columns_of(rows):
    return [list(column) for column in zip(*rows)]


def bits(columns):
    """Columns with every float as its exact hex form, so -0.0 != 0.0."""
    return [[v.hex() if isinstance(v, float) else v for v in column]
            for column in columns]


def charge_spin(m, q_over_m, a_over_m):
    M = geometrized_mass(m)
    return (q_over_m * M * CONSTANTS.c**2 / math.sqrt(CONSTANTS.G),
            a_over_m * M * m * CONSTANTS.c)


# -- bh sweeps ---------------------------------------------------------------

def test_every_quantity_has_a_reference():
    assert set(BH_SWEEP_QUANTITIES) == set(REFERENCE_QUANTITIES)


@pytest.mark.parametrize("quantity", sorted(BH_SWEEP_QUANTITIES))
def test_a_quantity_column_has_the_unit_of_its_bh_record_key(capsys, quantity):
    assert main(["bh", "--mass", "1e15", "--format", "json"]) == 0
    unit = json.loads(capsys.readouterr().out)["units"][f"results.{quantity}"]
    assert main(["sweep", "bh", "--param", "mass", "--start", "1e15", "--stop", "1e16",
                 "--points", "2", "--quantity", quantity, "--format", "json"]) == 0
    assert json.loads(capsys.readouterr().out)["units"] == {"mass": "g",
                                                            quantity: unit}


# (Q/M, a/M) at the start mass; the sweep runs up in mass from there, so
# the first hole is the most extremal one.
HOLES = {
    "schwarzschild": (0.0, 0.0),
    "charged": (0.7, 0.0),
    "spinning": (0.0, 0.9),
    "kerr_newman": (0.6, 0.6),
    "near_extremal": (0.6, 0.8 * (1 - 1e-13)),
    "near_extremal_charge": (1 - 1e-13, 0.0),
    "near_extremal_spin": (0.0, 1 - 1e-13),
    "extremal_within_slack": (0.6, 0.8 * (1 + 1e-13)),
}
GRIDS = [("log", 1e15, 1e25), ("linear", 1e15, 3e15), ("log", 1e-4, 1e40)]


@pytest.mark.parametrize("quantity", sorted(REFERENCE_QUANTITIES))
@pytest.mark.parametrize("hole", sorted(HOLES))
@pytest.mark.parametrize("spacing, start, stop", GRIDS)
def test_bh_sweep_matches_the_object_loop(quantity, hole, spacing, start, stop):
    q, j = charge_spin(start, *HOLES[hole])
    expected = reference_bh_rows(grid(start, stop, 300, spacing), quantity, q, j)
    got = sweep_columns(["bh", "--param", "mass", "--start", repr(start),
                         "--stop", repr(stop), "--points", "300",
                         "--spacing", spacing, "--quantity", quantity,
                         "--charge", repr(q), "--spin", repr(j)])
    assert bits(got) == bits(columns_of(expected))


@pytest.mark.parametrize("hole", sorted(HOLES))
@pytest.mark.parametrize("spacing, start, stop", GRIDS)
def test_column_kernel_matches_make_black_hole(hole, spacing, start, stop):
    q, j = charge_spin(start, *HOLES[hole])
    masses = grid(start, stop, 300, spacing)
    holes = [make_black_hole(m, q, j) for m in masses]
    M, Q, a, r_plus = horizon_columns(masses, q, j)
    assert bits([M, a, r_plus]) == bits([[bh.M for bh in holes], [bh.a for bh in holes],
                                         [bh.r_plus for bh in holes]])
    assert {bh.Q.hex() for bh in holes} == {Q.hex()}


# -- channel sweeps ----------------------------------------------------------

EMISSIONS = {
    "default": {},
    "reversible": {"nu": 1.0},
    "many_species": {"nu": 1.64, "gamma_bar": 3.0, "n_species": 7.0},
}


def emission_flags(name):
    return [x for k, v in EMISSIONS[name].items()
            for x in (f"--{k.replace('_', '-')}", repr(v))]


@pytest.mark.parametrize("emission", sorted(EMISSIONS))
@pytest.mark.parametrize("spacing", ["log", "linear"])
@pytest.mark.parametrize("n_carriers", [1.0, 4.0])
def test_power_sweep_matches_the_object_loop(emission, spacing, n_carriers):
    params = EmissionParameters(**EMISSIONS[emission])
    lambda_c = 5e-5
    p_c = characteristic_power(Channel(lambda_c, 0.0, emission=params))
    # across both regime edges, p_c/200 and p_c/10, from P = 0 (linear)
    start, stop = (p_c / 1e4, p_c * 10) if spacing == "log" else (0.0, p_c / 5)
    expected = reference_channel_rows(grid(start, stop, 401, spacing), "power",
                                      lambda_c, n_carriers, params)
    assert {row[2] for row in expected} == {"low", "intermediate", "high"}
    got = sweep_columns(["channel", "--param", "power", "--start", repr(start),
                         "--stop", repr(stop), "--points", "401",
                         "--spacing", spacing, "--lambda-c", repr(lambda_c),
                         "--n-carriers", repr(n_carriers),
                         *emission_flags(emission)])
    assert bits(got) == bits(columns_of(expected))


@pytest.mark.parametrize("emission", sorted(EMISSIONS))
@pytest.mark.parametrize("spacing", ["log", "linear"])
def test_descending_power_sweep_matches_the_object_loop(emission, spacing):
    params = EmissionParameters(**EMISSIONS[emission])
    lambda_c = 5e-5
    p_c = characteristic_power(Channel(lambda_c, 0.0, emission=params))
    # --start above --stop, across both edges; the linear one ends at P = 0
    start, stop = (p_c * 10, p_c / 1e4) if spacing == "log" else (p_c / 5, 0.0)
    expected = reference_channel_rows(grid(start, stop, 401, spacing), "power",
                                      lambda_c, 1.0, params)
    assert {row[2] for row in expected} == {"low", "intermediate", "high"}
    got = sweep_columns(["channel", "--param", "power", "--start", repr(start),
                         "--stop", repr(stop), "--points", "401",
                         "--spacing", spacing, "--lambda-c", repr(lambda_c),
                         *emission_flags(emission)])
    assert got[0][0] > got[0][-1]
    assert bits(got) == bits(columns_of(expected))


@pytest.mark.parametrize("emission", sorted(EMISSIONS))
@pytest.mark.parametrize("spacing", ["log", "linear"])
def test_lambda_c_sweep_matches_the_object_loop(emission, spacing):
    params = EmissionParameters(**EMISSIONS[emission])
    power = 1e-3
    # p_c falls as lambda_c^-2, so P crosses p_c/200, then p_c/10; at
    # lambda_c = unit, p_c = P
    unit = math.sqrt(characteristic_power(Channel(1.0, 0.0, emission=params))
                     / power)
    start, stop = unit * 0.01, unit * 100
    expected = reference_channel_rows(grid(start, stop, 401, spacing),
                                      "lambda_c", power, 1.0, params)
    assert {row[2] for row in expected} == {"low", "intermediate", "high"}
    got = sweep_columns(["channel", "--param", "lambda_c", "--start", repr(start),
                         "--stop", repr(stop), "--points", "401",
                         "--spacing", spacing, "--power", repr(power),
                         *emission_flags(emission)])
    assert bits(got) == bits(columns_of(expected))


@pytest.mark.parametrize("emission", sorted(EMISSIONS))
@pytest.mark.parametrize("spacing", ["log", "linear"])
def test_descending_lambda_c_sweep_matches_the_object_loop(emission, spacing):
    params = EmissionParameters(**EMISSIONS[emission])
    power = 1e-3
    unit = math.sqrt(characteristic_power(Channel(1.0, 0.0, emission=params))
                     / power)
    # --start above --stop: p_c rises along the sweep, so P/p_c falls from
    # the high regime to the low one
    start, stop = unit * 100, unit * 0.01
    expected = reference_channel_rows(grid(start, stop, 401, spacing),
                                      "lambda_c", power, 1.0, params)
    assert {row[2] for row in expected} == {"low", "intermediate", "high"}
    got = sweep_columns(["channel", "--param", "lambda_c", "--start", repr(start),
                         "--stop", repr(stop), "--points", "401",
                         "--spacing", spacing, "--power", repr(power),
                         *emission_flags(emission)])
    assert got[0][0] > got[0][-1]
    assert bits(got) == bits(columns_of(expected))


def test_power_sweep_hits_both_edges_exactly():
    lambda_c = 5e-5
    p_c = characteristic_power(Channel(lambda_c, 0.0))
    edges = [p_c / 200, p_c / 10]
    points = [math.nextafter(e, 0.0) for e in edges] + edges + [
        math.nextafter(e, math.inf) for e in edges]
    params = EmissionParameters()
    expected = reference_channel_rows(sorted(points), "power", lambda_c, 1.0,
                                      params)
    got = [[column[0] for column in sweep_columns(
        ["channel", "--param", "power", "--start", repr(P), "--stop", repr(P),
         "--points", "1", "--lambda-c", repr(lambda_c)])]
        for P in sorted(points)]
    assert bits(columns_of(got)) == bits(columns_of(expected))
    assert [row[2] for row in got] == ["low", "low", "intermediate",
                                       "intermediate", "high", "high"]


# -- errors ------------------------------------------------------------------

def reference_error(reference):
    """The stderr line of the error the reference loop raises."""
    with pytest.raises(DomainError) as info:
        reference()
    return f"bhthermo sweep: {info.value}\n"


@pytest.mark.parametrize("argv, reference", [
    # a sub-Planck start
    (["bh", "--param", "mass", "--start", "1e-6", "--stop", "1e15"],
     lambda: reference_bh_rows(grid(1e-6, 1e15, 50, "log"), "entropy", 0.0, 0.0)),
    # a naked singularity mid-sweep: the fixed charge outgrows M
    (["bh", "--param", "mass", "--start", "1e20", "--stop", "1e10",
      "--charge", "2.6e14", "--quantity", "temperature"],
     lambda: reference_bh_rows(grid(1e20, 1e10, 50, "log"), "temperature",
                               2.6e14, 0.0)),
    # a bad point mid-column behind an earlier point that fails another
    # check: a naked singularity before sub-Planck masses ...
    (["bh", "--param", "mass", "--start", "1e20", "--stop", "1e-10",
      "--charge", "2.6e14"],
     lambda: reference_bh_rows(grid(1e20, 1e-10, 50, "log"), "entropy",
                               2.6e14, 0.0)),
    # ... a horizon radius beyond the float range before naked singularities
    (["bh", "--param", "mass", "--start", "1e200", "--stop", "1e-3",
      "--charge", "1e20", "--quantity", "mean_density"],
     lambda: reference_bh_rows(grid(1e200, 1e-3, 50, "log"), "mean_density",
                               1e20, 0.0)),
    # ... a mean density beyond the float range before naked singularities
    (["bh", "--param", "mass", "--start", "1e170", "--stop", "1e-3",
      "--charge", "1e20", "--quantity", "mean_density"],
     lambda: reference_bh_rows(grid(1e170, 1e-3, 50, "log"), "mean_density",
                               1e20, 0.0)),
    # ... and a cutoff beyond the float range before a zero cutoff
    (["channel", "--param", "lambda_c", "--start", "1e200", "--stop=-1e200",
      "--points", "5", "--spacing", "linear", "--power", "1e-3"],
     lambda: reference_channel_rows(linspace(1e200, -1e200, 5), "lambda_c",
                                    1e-3, 1.0, EmissionParameters())),
    # the first bad point of a swept power or cutoff, mid-column
    (["channel", "--param", "power", "--start", "1", "--stop", "-1",
      "--spacing", "linear", "--lambda-c", "5e-5"],
     lambda: reference_channel_rows(linspace(1.0, -1.0, 50), "power", 5e-5,
                                    1.0, EmissionParameters())),
    (["channel", "--param", "lambda_c", "--start", "1", "--stop", "-1",
      "--spacing", "linear", "--power", "1e-3"],
     lambda: reference_channel_rows(linspace(1.0, -1.0, 50), "lambda_c", 1e-3,
                                    1.0, EmissionParameters())),
    # lambda_c^2 leaves the float range mid-sweep
    (["channel", "--param", "lambda_c", "--start", "1", "--stop", "1e200",
      "--power", "1e-3"],
     lambda: reference_channel_rows(grid(1.0, 1e200, 50, "log"), "lambda_c",
                                    1e-3, 1.0, EmissionParameters())),
    (["channel", "--param", "lambda_c", "--start", "1e-100", "--stop", "1e-200",
      "--power", "1e-3"],
     lambda: reference_channel_rows(grid(1e-100, 1e-200, 50, "log"),
                                    "lambda_c", 1e-3, 1.0, EmissionParameters())),
    # a negative start reports the power before a bad carrier count ...
    (["channel", "--param", "power", "--start", "-1", "--stop", "1",
      "--spacing", "linear", "--lambda-c", "5e-5", "--n-carriers", "0.5"],
     lambda: reference_channel_rows(linspace(-1.0, 1.0, 50), "power", 5e-5,
                                    0.5, EmissionParameters())),
    # ... and before a cutoff whose characteristic power overflows
    (["channel", "--param", "power", "--start", "-1", "--stop", "1",
      "--spacing", "linear", "--lambda-c", "1e-300"],
     lambda: reference_channel_rows(linspace(-1.0, 1.0, 50), "power", 1e-300,
                                    1.0, EmissionParameters())),
    (["channel", "--param", "power", "--start", "1", "--stop", "2",
      "--lambda-c", "1e-300"],
     lambda: reference_channel_rows(geomspace(1.0, 2.0, 50), "power", 1e-300,
                                    1.0, EmissionParameters())),
    (["channel", "--param", "power", "--start", "1", "--stop", "2",
      "--lambda-c", "5e-5", "--n-carriers", "0.5"],
     lambda: reference_channel_rows(geomspace(1.0, 2.0, 50), "power", 5e-5,
                                    0.5, EmissionParameters())),
    # a bad fixed power or carrier count under a valid swept cutoff
    (["channel", "--param", "lambda_c", "--start", "1e-3", "--stop", "1",
      "--power", "-1"],
     lambda: reference_channel_rows(geomspace(1e-3, 1.0, 50), "lambda_c", -1.0,
                                    1.0, EmissionParameters())),
    (["channel", "--param", "lambda_c", "--start", "1e-3", "--stop", "1",
      "--power", "1e-3", "--n-carriers", "0.5"],
     lambda: reference_channel_rows(geomspace(1e-3, 1.0, 50), "lambda_c", 1e-3,
                                    0.5, EmissionParameters())),
    (["channel", "--param", "lambda_c", "--start", "-1", "--stop", "1",
      "--spacing", "linear", "--power", "-1"],
     lambda: reference_channel_rows(linspace(-1.0, 1.0, 50), "lambda_c", -1.0,
                                    1.0, EmissionParameters())),
])
@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_errors_match_the_object_loop(capsys, argv, reference, fmt):
    code = main(["sweep", *argv, "--format", fmt])
    captured = capsys.readouterr()
    assert (code, captured.out) == (1, "")
    assert captured.err == reference_error(reference)


# -- column conversions against the per-point formulas -------------------------
#
# The sweep's conversions run as column forms, which the scalar functions
# now call; each cell must be what the per-point formula gave, and a column
# searched by first_refused must raise the scalar's error for its first bad
# value.

def old_nats_to_bits(S):
    if S < 0:
        raise DomainError(f"entropy must be non-negative, got {S}")
    return S * LOG2E


def old_energy_temperature_to_kelvin(T):
    if T < 0:
        raise DomainError(f"temperature must be non-negative, got {T}")
    return T / CONSTANTS.k_B


def old_mean_density(m):
    if not 0 < m < math.inf:
        raise DomainError(f"mass must be positive and finite, got {m}")
    try:
        density = 3.0 * CONSTANTS.c**6 / (32.0 * math.pi * CONSTANTS.G**3 * m**2)
    except (OverflowError, ZeroDivisionError):  # m^2 is inf above ~1.34e154 g,
        density = math.inf                      # 32 pi G^3 m^2 0 below ~1.6e-162 g
    if density == math.inf:         # below ~2e-113 g
        raise DomainError(f"mass {named(m)} g puts the mean density beyond the "
                          "float range")
    return density


def old_cutoff_power(lambda_c, params=EmissionParameters()):
    # the per-point formula, which refuses lambda_c^2 or the quotient
    # beyond the float range (an inf or 0 P_c is refused, not returned);
    # where 15360 pi lambda_c^2 overflows, it divides by each in turn
    numerator = CONSTANTS.c**2 * params.gamma_bar * params.n_species * CONSTANTS.hbar
    try:
        denominator = 15360.0 * math.pi * lambda_c**2
        p_c = numerator / denominator if denominator != math.inf else \
            numerator / (15360.0 * math.pi) / lambda_c**2
    except (OverflowError, ZeroDivisionError):
        p_c = math.inf
    if p_c in (0.0, math.inf):
        raise DomainError(f"cutoff wavelength {named(lambda_c)} cm puts the "
                          "characteristic power beyond the float range")
    return p_c


def old_horizon_area(r_plus):
    # a hole of spin length 0, whose r_plus^2 or area may overflow
    try:
        area = 4.0 * math.pi * (r_plus**2 + 0.0**2)
    except OverflowError:
        area = math.inf
    if area == math.inf:
        raise DomainError(f"horizon radius {named(r_plus)} cm puts the horizon area "
                          "beyond the float range")
    return area


def old_check_channel(lambda_c, power, n_carriers=1.0):
    if not 0 < lambda_c < math.inf:
        raise DomainError("cutoff wavelength must be positive and finite, "
                          f"got {lambda_c}")
    if not 0 <= power < math.inf:
        raise DomainError(f"power must be non-negative and finite, got {power}")
    if not 1.0 <= n_carriers < math.inf:
        raise DomainError(f"n_carriers must be >= 1 and finite, got {n_carriers}")


#: Each column form and its per-point formula; a check passes its column on.
COLUMN_FORMS = {
    "entropies_in_bits": (entropies_in_bits, old_nats_to_bits),
    "temperatures_in_kelvin": (temperatures_in_kelvin,
                               old_energy_temperature_to_kelvin),
    "mean_densities": (mean_densities, old_mean_density),
    "cutoff_powers": (lambda xs: cutoff_powers(xs, EmissionParameters(1.6, 7.0, 3.0)),
                      lambda x: old_cutoff_power(x, EmissionParameters(1.6, 7.0, 3.0))),
    "horizon_areas": (lambda xs: horizon_areas(xs, [0.0] * len(xs)), old_horizon_area),
    "check_channels_cutoffs": (lambda xs: check_channels(xs, [1.0] * len(xs)) or xs,
                               lambda x: old_check_channel(x, 1.0) or x),
    "check_channels_powers": (lambda xs: check_channels([1.0] * len(xs), xs) or xs,
                              lambda x: old_check_channel(1.0, x) or x),
}
COLUMN_VALUES = [10.0 ** (x / 7.0) for x in range(-700, 700)] + [
    5e-324, 1e-163, 1e-160, 2.0132905043186787e-113, 2.013290504318679e-113,
    1e154, 1.3e154, 1.7976931348623157e308]


@pytest.mark.parametrize("form", sorted(COLUMN_FORMS))
def test_column_forms_match_the_per_point_formulas(form):
    column, old = COLUMN_FORMS[form]
    values = []
    for x in COLUMN_VALUES:
        try:
            old(x)
        except (DomainError, ArithmeticError):
            continue
        values.append(x)
    assert len(values) > 1000
    assert bits([column(values)]) == bits([[old(x) for x in values]])
    assert column([]) == []


@pytest.mark.parametrize("form", sorted(COLUMN_FORMS))
@pytest.mark.parametrize("column", [
    [1.0, -2.0, 0.0, -3.0], [math.nan, -1.0], [2.0, -0.0, 0.0], [1.0, 1e200],
    [1e-200, 1.0, 1e200], [1e300, -1.0], [math.nan, 1.0], [math.inf, 1.0],
    [1.0, 1e-160, 1e-200], [1.0, 1e-200, 1e-160]])
def test_column_forms_raise_for_the_first_bad_value(form, column):
    func, old = COLUMN_FORMS[form]
    for x in column:
        try:
            old(x)
        except (DomainError, ArithmeticError) as exc:
            with pytest.raises(type(exc)) as info:
                first_refused(func, column)
            assert str(info.value) == str(exc)
            return
    assert bits([func(column)]) == bits([list(map(old, column))])


# -- first_refused: the point a refused column names ---------------------------

def refusing_negatives(calls):
    """A column sum that refuses a negative x, naming the first x."""
    def compute(xs, ys):
        calls.append((xs, ys))
        if min(xs) < 0.0:
            raise DomainError(f"x must be non-negative, got {xs[0]}")
        return [x + y for x, y in zip(xs, ys)]
    return compute


def test_first_refused_runs_once_when_the_columns_pass():
    calls = []
    assert first_refused(refusing_negatives(calls), [1.0, 2.0], [3.0, 4.0]) == [4.0, 6.0]
    assert calls == [([1.0, 2.0], [3.0, 4.0])]


@mock.patch.object(errors, "BLOCK_POINTS", 16)
def test_first_refused_names_the_first_refused_point():
    # past the first block: the whole column, the blocks up to the first
    # refused one, then that block bisected, each run on the half in which
    # its first refused point must lie: points 0-7 (refused), 0-3 (passed),
    # 4-5 (refused) and 4 (passed), so point 5 alone
    calls, first = [], 16 + 5
    xs = [1.0] * (2 * 16 + 10)
    xs[first], xs[first + 2], xs[-1] = -2.0, -3.0, -4.0
    ys = [float(i) for i in range(len(xs))]
    with pytest.raises(DomainError, match=r"^x must be non-negative, got -2\.0$"):
        first_refused(refusing_negatives(calls), xs, ys)
    blocks = [(xs[i:i + 16], ys[i:i + 16]) for i in (0, 16)]
    halves = [(xs[16 + start:16 + stop], ys[16 + start:16 + stop])
              for start, stop in ((0, 8), (0, 4), (4, 6), (4, 5))]
    assert calls == [(xs, ys), *blocks, *halves, ([xs[first]], [ys[first]])]


def test_first_refused_lets_any_other_error_through_at_once():
    calls = []

    def compute(xs):
        calls.append(xs)
        raise ZeroDivisionError("not a refusal")
    with pytest.raises(ZeroDivisionError):
        first_refused(compute, [1.0, -2.0])
    assert calls == [[1.0, -2.0]]


# -- the property the search rests on: a compute refuses columns exactly when
# it refuses one of their points ----------------------------------------------

def sweep_bh_compute(quantity, q, j):
    """cmd_sweep's compute of a bh quantity, over the mass column; reading
    cli.horizon_columns loads the kernels the quantities call."""
    func = BH_SWEEP_QUANTITIES[quantity]
    return lambda m: func(m, *cli.horizon_columns(m, q, j))


def sweep_channel_compute(lambdas, powers, params=EmissionParameters(1.6, 7.0, 3.0)):
    """cmd_sweep's compute of a cutoff sweep: the checks, P_c, then the
    regimes and bounds."""
    check_channels(lambdas, powers)
    return regime_columns(lambdas, powers, cutoff_powers(lambdas, params), params)


def refusal(compute, *columns):
    """The message of the DomainError ``compute(*columns)`` raises, or None."""
    try:
        compute(*columns)
    except DomainError as exc:
        return str(exc)
    return None


def per_point_refusal(compute, *columns):
    """The refusal of the first point ``compute`` refuses, one at a time."""
    return next(filter(None, (refusal(compute, *([x] for x in point))
                              for point in zip(*columns))), None)


#: Values where a compute below starts to refuse: the Planck mass, the
#: masses whose mass length a charge or spin length below reaches (q = 1e10
#: or 2.6e14 esu, j = 1e40 erg s), and the float edges of a cutoff's P_c
#: and of a mass's density and horizon.
EDGES = [CONSTANTS.planck_mass, 3.9e13, 1.0e18, 6.7e28, 4.7e-160, 2.0e-113,
         1.3e154]
SORTED_VALUES = sorted(COLUMN_VALUES)
odd_values = st.sampled_from([0.0, -0.0, -1.0, -1e-300, -1e300, math.nan,
                              math.inf, -math.inf])


@st.composite
def split_columns(draw, size):
    """A column of ``size`` cells: COLUMN_VALUES within 35 places of a
    drawn one or of an edge, five decades where they are evenly spaced,
    with up to three cells replaced by a negative, signed zero, NaN or
    infinite value."""
    last = len(SORTED_VALUES) - 1
    center = draw(st.one_of(st.integers(0, last), st.sampled_from(
        [bisect_left(SORTED_VALUES, x) for x in EDGES])))
    column = [SORTED_VALUES[min(max(center + draw(st.integers(-35, 35)), 0), last)]
              for _ in range(size)]
    for _ in range(draw(st.integers(0, 3))):
        column[draw(st.integers(0, size - 1))] = draw(odd_values)
    return column


computes = st.one_of(
    st.sampled_from(sorted(COLUMN_FORMS)).map(lambda form: COLUMN_FORMS[form][0]),
    st.builds(sweep_bh_compute, st.sampled_from(sorted(BH_SWEEP_QUANTITIES)),
              st.sampled_from([0.0, 1e10, 2.6e14, math.nan]),
              st.sampled_from([0.0, -1e10, 1e40])))


def parts(columns, cuts):
    """The columns split at the indices ``cuts``."""
    bounds = [0, *sorted(set(cuts)), len(columns[0])]
    return [[column[start:stop] for column in columns]
            for start, stop in zip(bounds, bounds[1:]) if start < stop]


def check_split_property(compute, columns, cuts, block):
    whole = refusal(compute, *columns)
    assert (whole is not None) == any(
        refusal(compute, *part) is not None for part in parts(columns, cuts))
    first = per_point_refusal(compute, *columns)
    assert (whole is not None) == (first is not None)
    # blocks of a few points, so that these short columns take the block path
    with mock.patch.object(errors, "BLOCK_POINTS", block):
        if first is None:
            first_refused(compute, *columns)
        else:
            with pytest.raises(DomainError) as info:
                first_refused(compute, *columns)
            assert str(info.value) == first


sizes = st.shared(st.integers(1, 40), key="size")
cuts = sizes.flatmap(lambda n: st.lists(st.integers(1, n)))


@settings(max_examples=400)
@given(computes, sizes.flatmap(split_columns), cuts, st.integers(1, 8))
def test_a_column_form_refuses_a_split_exactly_when_a_part_does(
        compute, column, cuts, block):
    check_split_property(compute, [column], cuts, block)


@settings(max_examples=400)
@given(sizes.flatmap(split_columns), sizes.flatmap(split_columns), cuts,
       st.integers(1, 8))
def test_the_channel_sweep_refuses_a_split_exactly_when_a_part_does(
        lambdas, powers, cuts, block):
    check_split_property(sweep_channel_compute, [lambdas, powers], cuts, block)
