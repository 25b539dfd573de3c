"""Library results at the float range's edges.

Every input is drawn from the contract test's TYPICAL magnitudes, both
signs, so the float range's ends meet the physical scales.  A formula
either returns finite values or raises DomainError: an overflow inside it
must not come out as an inf, a nan or a zero.
"""

import ast
import math
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import example, given, strategies as st

import bhthermo
from bhthermo.bounds import MaterialSystem, bound_report, compositeness
from bhthermo.channel import (
    Channel,
    capacity_bound,
    characteristic_power,
    cutoff_powers,
    regime_columns,
)
from bhthermo.cli import main
from bhthermo.constants import CONSTANTS
from bhthermo.errors import DomainError
from bhthermo.evaporation import (
    EmissionParameters,
    hawking_power,
    lifetime,
    mass_history,
)
from bhthermo.gedanken import susskind_collapse
from bhthermo.kerr_newman import (
    entropy,
    h_factors,
    horizon_area,
    make_black_hole,
    mean_density,
    potentials,
    temperature,
)
from test_cli_contract import TYPICAL

magnitudes = st.sampled_from(TYPICAL)
signed = st.one_of(magnitudes, magnitudes.map(lambda x: -x))


def named(x):
    """A value as a refusal beyond the float range names it: by :g, or by
    its repr where it is subnormal (1e-320, not :g's 9.99989e-321)."""
    return repr(x) if 0.0 < abs(x) < sys.float_info.min else f"{x:g}"


def emission(gamma_bar, n_species):
    """EmissionParameters, or None where its own checks refuse them."""
    try:
        return EmissionParameters(gamma_bar=gamma_bar, n_species=n_species)
    except DomainError:
        return None


def numerator(params):
    return CONSTANTS.c**2 * params.gamma_bar * params.n_species * CONSTANTS.hbar


def p_c_overflows(lambda_c, params):
    """Whether c^2 gamma_bar N hbar / (15360 pi lambda_c^2) leaves the
    float range, on the formula's own float operations."""
    try:
        return math.isinf(numerator(params) / (15360.0 * math.pi * lambda_c**2))
    except (OverflowError, ZeroDivisionError):
        return True


@given(signed, signed, signed)
@example(1e183, 0.0, 0.0)
@example(1e183, 1e10, 0.0)
@example(1e183, 0.0, 1e10)
@example(1.7e308, 0.0, 0.0)
@example(1.3465909215001086e228, 3.47887275469829e274, 0.0)    # Q^2, M^2 overflow
@example(3e181, 0.0, 0.0)       # r_plus^2 fits, 4 pi r_plus^2 overflows
@example(5e181, 0.0, 0.0)
@example(1e154, 0.0, 0.0)       # the entropy overflows
@example(1e170, 2e166, 0.0)     # q r_plus overflows
def test_a_hole_is_finite_or_refused(m, q, j):
    try:
        bh = make_black_hole(m, q, j)
    except DomainError:
        return
    assert all(map(math.isfinite, bh)), bh
    # the existence condition Q^2 + a^2 <= M^2 <= r_plus^2, within its slack
    assert math.hypot(bh.Q, bh.a) <= bh.r_plus * (1.0 + 1e-9), bh
    # every number `bhthermo bh` prints from the hole
    for scalar in (horizon_area, entropy, temperature, potentials, h_factors,
                   lambda bh: mean_density(bh.m)):
        try:
            value = scalar(bh)
        except DomainError:
            continue
        assert all(map(math.isfinite, value if isinstance(value, tuple) else [value])), (
            scalar, bh, value)


def test_a_naked_hole_whose_m_squared_overflows_names_the_mass():
    # M = 1e200 cm and Q ~ 1e250 cm: Q^2 and M^2 both overflow to inf, so
    # the existence test cannot refuse it; M^2 overflowing does
    m = 1.3465909215001086e228
    with pytest.raises(DomainError) as info:
        make_black_hole(m, 3.47887275469829e274)
    assert str(info.value) == (f"mass {m:g} g puts the horizon radius beyond the "
                               "float range")


@given(magnitudes, magnitudes, signed, signed)
@example(1e-160, 1.0, 2.0, 1.0)                 # the quotient overflows
@example(5e-5, 1e-3, 1e300, 1.0)                # c^2 gamma_bar overflows
@example(5e-5, 1e-3, 2.0, 1e300)                # ... with N
@example(6e-160, 1.0, 2.0, 1.0)                 # only p_c_approx overflows
@example(1e154, 1.0, 2.0, 1.0)                  # 15360 pi lambda_c^2 overflows
def test_a_channel_report_is_finite_or_refused(lambda_c, power, gamma_bar, n_species):
    params = emission(gamma_bar, n_species)
    if params is None:
        return
    try:
        report = capacity_bound(Channel(lambda_c, power, emission=params))
    except DomainError:
        return
    assert 0.0 < report.p_c < math.inf and 0.0 < report.p_c_approx < math.inf, report
    assert report.xi_used is None or math.isfinite(report.xi_used), report
    assert math.isfinite(report.bound_bits_per_s), report
    assert math.isfinite(report.pendry_bits_per_s), report


#: Requests whose outputs once left the float range unnamed, reaching the
#: output guard ("results.bound is inf"), and the input each now names.
NAMED_INPUTS = [
    # (n pi P / 3 hbar)^(1/2): n P above ~1.8e281 erg s^-1
    (["channel", "--lambda-c", "1e-5", "--power", "1e283"],
     "power 1e+283 erg s^-1 and n_carriers 1 put the Pendry capacity"),
    # the linear bound: lambda_c P above ~1.6e289 erg cm s^-1
    (["channel", "--lambda-c", "1e20", "--power", "1e275"],
     "cutoff wavelength 1e+20 cm and power 1e+275 erg s^-1 put the "
     "information-rate bound"),
    # the sqrt law, below a P_c near the top of the float range
    (["channel", "--lambda-c", "1e-158", "--power", "1e300"],
     "cutoff wavelength 1e-158 cm and power 1e+300 erg s^-1 put the "
     "information-rate bound"),
    # the first refused point of a sweep, not its first point
    (["sweep", "channel", "--param", "lambda_c", "--start", "1", "--stop", "1e30",
      "--power", "1e280"],
     "cutoff wavelength 6.25055e+09 cm and power 1e+280 erg s^-1 put the "
     "information-rate bound"),
    (["sweep", "channel", "--param", "power", "--start", "1e-6", "--stop", "1e300",
      "--lambda-c", "1e-5", "--points", "7"],
     "cutoff wavelength 1e-05 cm and power 1e+300 erg s^-1 put the "
     "information-rate bound"),
    # nu E/T = 8 pi nu zeta E R/(c hbar) of the zeta-sized host, or of a given one
    (["gedanken", "--scenario", "infall", "--energy", "1e290", "--radius", "1",
      "--entropy", "1"], "energy 1e+290 erg puts the radiated entropy nu E/T"),
    (["gedanken", "--scenario", "infall", "--energy", "1e289", "--radius", "1",
      "--entropy", "1", "--bh-mass", "1e30"],
     "energy 1e+289 erg puts the radiated entropy nu E/T"),
    (["gedanken", "--scenario", "capsule", "--bh-mass", "1e30", "--mu", "1e-279",
      "--b", "1", "--s-cap", "1"], "capsule mass mu 1e-279 g puts the mass ratio m/mu"),
    (["gedanken", "--scenario", "capsule", "--bh-mass", "1e30", "--mu", "1",
      "--b", "1e-307", "--s-cap", "1"],
     "capsule radius b 1e-307 cm puts the size ratio r_plus/b"),
    # the weak universal bound, 4 nu zeta times the universal one, in bits
    (["bounds", "--mass", "1e271", "--radius", "6"],
     "energy 8.98755e+291 erg and radius 6 cm and zeta 10 put the weak universal "
     "bound"),
    (["bounds", "--energy", "1e291", "--radius", "1"],
     "energy 1e+291 erg and radius 1 cm and zeta 10 put the weak universal bound"),
    (["bounds", "--energy", "1", "--radius", "1", "--zeta", "1e300"],
     "energy 1 erg and radius 1 cm and zeta 1e+300 put the weak universal bound"),
    # the entropy fits, its value in bits does not (m ~6.9e148-8.23e148 g)
    (["bh", "--mass", "7.5e148"],
     "horizon area 1.55927e+243 cm^2 puts the entropy in bits"),
    (["sweep", "bh", "--param", "mass", "--start", "1e147", "--stop", "7.5e148",
      "--points", "10", "--quantity", "entropy_bits"],
     "horizon area 1.55927e+243 cm^2 puts the entropy in bits"),
]


@pytest.mark.parametrize("argv, message", NAMED_INPUTS,
                         ids=lambda x: " ".join(x) if isinstance(x, list) else None)
@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_an_output_beyond_the_float_range_names_its_input(capsys, argv, message, fmt):
    assert main([*argv, "--format", fmt]) == 1
    assert capsys.readouterr() == (
        "", f"bhthermo {argv[0]}: {message} beyond the float range\n")


def test_an_infinite_compositeness_names_the_energy_and_radius():
    # E R/(c hbar) is refused like any other output beyond the float range
    with pytest.raises(DomainError) as info:
        compositeness(MaterialSystem(1e300, 1e-8))
    assert str(info.value) == ("energy 1e+300 erg and radius 1e-08 cm put "
                               "E R/(c hbar) beyond the float range")
    assert math.isfinite(compositeness(MaterialSystem(1e300, 1e-9)))


def test_a_channel_kernel_names_its_runs_first_channel():
    # the high run starts at the second point, whose lambda_c P overflows
    params = EmissionParameters()
    lambdas, powers = [1.0, 1e20], [1e-30, 1e275]
    with pytest.raises(DomainError) as info:
        regime_columns(lambdas, powers, cutoff_powers(lambdas, params), params)
    assert str(info.value) == ("cutoff wavelength 1e+20 cm and power 1e+275 "
                               "erg s^-1 put the information-rate bound beyond "
                               "the float range")


@given(magnitudes, magnitudes, magnitudes, magnitudes)
@example(1e-160, 1.0, 2.0, 1.0)
@example(1e-161, 1.0, 2.0, 1.0)
@example(4.6e-160, 1.0, 2.0, 1.0)
@example(5e-5, 1e-3, 1e300, 1.0)
@example(5e-5, 1e-3, 2.0, 1e300)
@example(1e300, 1e-3, 1e300, 1.0)               # both: the factors are named
def test_an_overflowing_p_c_names_the_cutoff_or_the_factors(
        lambda_c, power, gamma_bar, n_species):
    params = emission(gamma_bar, n_species)
    if params is None or not lambda_c > 0.0 or not p_c_overflows(lambda_c, params):
        return
    with pytest.raises(DomainError) as info:
        capacity_bound(Channel(lambda_c, power, emission=params))
    if not 0.0 < numerator(params) < math.inf:
        assert str(info.value) == (
            f"gamma_bar {named(gamma_bar)} and n_species {named(n_species)} put "
            "c^2 gamma_bar N hbar beyond the float range")
    else:
        assert str(info.value) == (
            f"cutoff wavelength {named(lambda_c)} cm puts the characteristic power "
            "beyond the float range")


@pytest.mark.parametrize("lambda_c", [4.7e-160, 6e-160, 7.2e-160])
def test_an_overflowing_round_number_p_c_names_the_cutoff(lambda_c):
    # P_c itself is finite down to ~4.67e-160 cm, its 1e-4 c^2 hbar /
    # lambda_c^2 form only down to ~7.26e-160 cm
    ch = Channel(lambda_c, 1.0)
    assert math.isfinite(characteristic_power(ch))
    with pytest.raises(DomainError) as info:
        capacity_bound(ch)
    assert str(info.value) == (
        f"cutoff wavelength {lambda_c:g} cm puts the round-number "
        "characteristic power beyond the float range")


@given(st.sampled_from([1e-4, 1e-3, 1e15, 1e40]), magnitudes, magnitudes)
@example(1e-4, 1e260, 1.0)
@example(1e-4, 1e130, 1e130)
@example(1e-4, 5e-324, 1.0)                     # c^2 gamma_bar N hbar underflows
@example(1e40, 1e-300, 1.0)                     # the power underflows
def test_a_hawking_power_is_finite_or_names_the_mass(m, gamma_bar, n_species):
    params = emission(gamma_bar, n_species)
    if params is None:
        return
    try:
        power = hawking_power(make_black_hole(m), params)
    except DomainError as exc:
        assert str(exc) in (
            f"mass {named(m)} g puts the Hawking power beyond the float range",
            f"gamma_bar {named(gamma_bar)} and n_species {named(n_species)} put "
            "c^2 gamma_bar N hbar beyond the float range")
        return
    assert math.isfinite(power) and power > 0.0, power


@given(signed)
@example(1e-163)                    # 32 pi G^3 m^2 underflows to 0
@example(1e-120)                    # 32 pi G^3 m^2 does not, the quotient overflows
@example(2.0132905043186787e-113)   # the largest such mass
@example(1e160)                     # m^2 overflows
@example(math.nan)
@example(math.inf)
def test_a_mean_density_is_finite_or_names_the_mass(m):
    try:
        density = mean_density(m)
    except DomainError as exc:
        assert str(exc) in (
            f"mass must be positive and finite, got {m}",
            f"mass {named(m)} g puts the mean density beyond the float range")
        return
    assert math.isfinite(density) and density > 0.0, density


def exact_power(length, params=EmissionParameters()):
    """c^2 gamma_bar N hbar / (15360 pi L^2) in exact arithmetic on the
    floats the formula starts from, rounded once."""
    return float(Fraction(numerator(params))
                 / (Fraction(15360.0 * math.pi) * Fraction(length) ** 2))


@pytest.mark.parametrize("lambda_c", [6.2e151, 1e152, 1e154, 1.34e154])
def test_a_p_c_whose_denominator_overflows_is_kept(lambda_c):
    # 15360 pi lambda_c^2 overflows above ~6.1e151 cm, lambda_c^2 only
    # above ~1.34e154 cm: P_c is subnormal between, not 0
    p_c = characteristic_power(Channel(lambda_c, 1.0))
    assert p_c > 0.0
    assert p_c == pytest.approx(exact_power(lambda_c), rel=1e-9, abs=2e-323)


@pytest.mark.parametrize("m", [8.3e179, 1e182, 1.8e182])
def test_a_hawking_power_whose_denominator_overflows_is_kept(m):
    bh = make_black_hole(m)
    power = hawking_power(bh)
    assert power > 0.0
    assert power == pytest.approx(exact_power(bh.M), rel=1e-9, abs=2e-323)


@pytest.mark.parametrize("call, message", [
    (lambda: hawking_power(make_black_hole(1e-4), EmissionParameters(gamma_bar=5e-324)),
     "gamma_bar 5e-324 and n_species 1 put c^2 gamma_bar N hbar beyond "
     "the float range"),
    (lambda: characteristic_power(Channel(1.0, 1.0, emission=EmissionParameters(
        gamma_bar=1e-320, n_species=2.0))),
     "gamma_bar 1e-320 and n_species 2 put c^2 gamma_bar N hbar beyond "
     "the float range"),
    (lambda: hawking_power(make_black_hole(1e40), EmissionParameters(gamma_bar=1e-300)),
     "mass 1e+40 g puts the Hawking power beyond the float range"),
    (lambda: characteristic_power(Channel(1e152, 1.0, emission=EmissionParameters(
        gamma_bar=1e-10))),
     "cutoff wavelength 1e+152 cm puts the characteristic power beyond the "
     "float range"),
])
def test_a_power_that_underflows_to_0_names_its_input(call, message):
    with pytest.raises(DomainError) as info:
        call()
    assert str(info.value) == message


@given(signed, magnitudes, magnitudes)
@example(1e12, 2.0, 1e300)
@example(1e12, 2.0, 1.6e283)
@example(1e-3, 2.0, 1.5e283)
def test_a_lifetime_is_finite_and_positive_or_refused(m0, gamma_bar, n_species):
    params = emission(gamma_bar, n_species)
    if params is None:
        return
    try:
        t = lifetime(m0, params)
    except DomainError:
        return
    assert math.isfinite(t) and t > 0.0, t


@pytest.mark.parametrize("n_species", [1.6e283, 1e300, 1.7e308])
def test_an_overflowing_loss_constant_names_n_species(n_species):
    params = EmissionParameters(n_species=n_species)
    message = (f"n_species {n_species:g} puts the evaporation rate constant "
               "beyond the float range")
    for call in (lambda: lifetime(1e12, params),
                 lambda: mass_history(1e12, params, points=3)):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == message


def test_the_last_finite_loss_constant_gives_positive_times():
    t, m = mass_history(1e12, EmissionParameters(n_species=1.5e283), points=3)
    assert t[0] == 0.0 and 0.0 < t[1] < t[2] < math.inf


@pytest.mark.parametrize("radius", [1e-300, 1.5e-162, 5e153])
def test_a_sphere_area_beyond_the_float_range_names_the_radius(radius):
    # 4 pi R^2 is 0 below R ~1.57e-162 cm and inf above ~3.78e153 cm, where
    # R^2 still fits
    message = f"radius {radius:g} cm puts its sphere's area beyond the float range"
    for call in (lambda: bound_report(MaterialSystem(1.0, radius)),
                 lambda: susskind_collapse(MaterialSystem(1.0, radius, 0.0))):
        with pytest.raises(DomainError) as info:
            call()
        assert str(info.value) == message


@pytest.mark.parametrize("area, message", [
    # the ceiling in bits, A / (4 l_P^2 ln 2), overflows above ~1.30e243 cm^2
    (None, "radius 1e+125 cm puts its sphere's holographic limit beyond the "
           "float range"),
    (1e250, "area 1e+250 cm^2 puts the holographic limit beyond the float range"),
    (1.31e243, "area 1.31e+243 cm^2 puts the holographic limit beyond the float "
               "range"),
])
def test_a_holographic_limit_beyond_the_float_range_names_its_input(area, message):
    radius = 1e125 if area is None else 1.0
    with pytest.raises(DomainError) as info:
        bound_report(MaterialSystem(1.0, radius), enclosing_area=area)
    assert str(info.value) == message
    assert bound_report(MaterialSystem(1.0, 1.0), enclosing_area=1.3e243)


SUSSKIND = ["gedanken", "--scenario", "susskind", "--energy", "1", "--entropy", "0"]


@pytest.mark.parametrize("argv, message", [
    *[([*request, "--radius", radius], f"radius {float(radius):g} cm puts its "
                                       "sphere's area beyond the float range")
      for radius in ("1e-300", "5e153")
      for request in (["bounds", "--energy", "1"], SUSSKIND)],
    (["bounds", "--energy", "1", "--radius", "1e125"],
     "radius 1e+125 cm puts its sphere's holographic limit beyond the float range"),
    (["bounds", "--energy", "1", "--radius", "1", "--area", "1e250"],
     "area 1e+250 cm^2 puts the holographic limit beyond the float range"),
], ids=lambda x: " ".join(x) if isinstance(x, list) else None)
@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_a_request_whose_area_leaves_the_float_range_names_its_input(
        capsys, argv, message, fmt):
    assert main([*argv, "--format", fmt]) == 1
    assert capsys.readouterr() == ("", f"bhthermo {argv[0]}: {message}\n")


@pytest.mark.parametrize("radius", ["1e10", "1e250"])
@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_a_host_hole_smaller_than_the_system_names_the_host_mass(capsys, radius, fmt):
    # at the larger radius zeta^2 = (M/R)^2 underflows to 0, which the
    # radiation-pressure check divided by
    assert main(["gedanken", "--scenario", "infall", "--energy", "1e10", "--radius",
                 radius, "--entropy", "1", "--bh-mass", "1e30", "--format", fmt]) == 1
    assert capsys.readouterr() == (
        "", f"bhthermo gedanken: host hole of mass 1e+30 g is smaller than the "
            f"system of radius {float(radius):g} cm: zeta = M/R must be >= 1\n")


INFALL = ["gedanken", "--scenario", "infall", "--entropy", "1"]


@pytest.mark.parametrize("argv, message", [
    # zeta = M/R is inf, which passed zeta >= 1 and made the drop distance nan
    (["--energy", "1e10", "--radius", "1e-320", "--bh-mass", "1e30"],
     "host hole of mass 1e+30 g and radius 1e-320 cm put zeta = M/R beyond "
     "the float range"),
    # E/c^2 is subnormal, and the hole's mass over it inf
    (["--energy", "3e-303", "--radius", "1"],
     "energy 3e-303 erg puts the mass ratio m c^2/E beyond the float range"),
    # E/c^2 underflows to 0
    (["--energy", "1e-303", "--radius", "1"],
     "energy 1e-303 erg puts the mass ratio m c^2/E beyond the float range"),
], ids=lambda x: " ".join(x) if isinstance(x, list) else None)
@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_an_infall_beyond_the_float_range_names_its_input(capsys, argv, message, fmt):
    assert main([*INFALL, *argv, "--format", fmt]) == 1
    assert capsys.readouterr() == ("", f"bhthermo gedanken: {message}\n")


@pytest.mark.parametrize("fmt", ["table", "json", "csv"])
def test_a_capsule_gain_beyond_the_float_range_names_mu_and_b(capsys, fmt):
    # 2 pi mu b c / hbar overflows; the output guard named results.delta_total
    assert main(["gedanken", "--scenario", "capsule", "--bh-mass", "1e160", "--mu",
                 "1e157", "--b", "1e131", "--s-cap", "1", "--format", fmt]) == 1
    assert capsys.readouterr() == (
        "", "bhthermo gedanken: capsule mass mu 1e+157 g and radius b 1e+131 cm put "
            "the minimal hole entropy gain beyond the float range\n")


@pytest.mark.parametrize("m, j", [(1e15, 1e12), (1e121, 1e160), (3e121, 1e160),
                                  (1e140, 1e200)])
def test_omega_is_kept_where_m_times_r_plus_squared_plus_a_squared_overflows(m, j):
    # above ~2e121 g m (r_plus^2 + a^2) overflows, and j / inf gave omega = 0
    bh = make_black_hole(m, 0.0, j)
    w2 = bh.r_plus**2 + bh.a**2
    exact = Fraction(bh.j) / Fraction(bh.m) / (Fraction(bh.r_plus)**2
                                               + Fraction(bh.a)**2)
    omega = potentials(bh).omega
    assert omega == pytest.approx(float(exact), rel=1e-15, abs=0)
    if math.isfinite(bh.m * w2):        # one division, bit for bit, where it fits
        assert omega == bh.j / (bh.m * w2)


def test_the_cli_prints_the_omega_of_a_heavy_spinning_hole(capsys):
    assert main(["bh", "--mass", "1e140", "--spin", "1e200", "--format", "csv"]) == 0
    assert "results.omega,4.53326777e-165,s^-1" in capsys.readouterr().out.splitlines()


def test_a_given_area_is_used_whatever_the_sphere_area(capsys):
    # the sphere's area only bounds the given one from below
    report = bound_report(MaterialSystem(1.0, 1e-300), enclosing_area=1.0)
    assert report.enclosing_area == 1.0
    assert main(["bounds", "--energy", "1", "--radius", "1e-300", "--area", "1"]) == 0
    assert capsys.readouterr().err == ""


# -- the one rule --------------------------------------------------------------

SOURCES = sorted(Path(bhthermo.__file__).parent.glob("*.py"))
#: The exceptions an overflow or an underflow to 0 raises.
FLOAT_EDGE_ERRORS = {"ArithmeticError", "OverflowError", "ZeroDivisionError"}


def float_range_breaches(source):
    """The lines of ``source`` that catch an overflow or a division by 0, or
    write "float range" in a string that is not a docstring; the output
    guard ``document._finite``, which names an output, is not counted."""
    tree = ast.parse(source.read_text())
    skipped = set()
    for node in ast.walk(tree):
        if isinstance(node, (ast.Module, ast.ClassDef, ast.FunctionDef)):
            if node.body and isinstance(node.body[0], ast.Expr):
                skipped.add(node.body[0].value)     # a docstring
            if source.stem == "document" and getattr(node, "name", "") == "_finite":
                skipped.update(ast.walk(node))
    breaches = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ExceptHandler) and node.type is not None:
            caught = node.type.elts if isinstance(node.type, ast.Tuple) else [node.type]
            if FLOAT_EDGE_ERRORS & {getattr(name, "id", None) for name in caught}:
                breaches.append(node.lineno)
        elif (isinstance(node, ast.Constant) and isinstance(node.value, str)
              and "float range" in node.value and node not in skipped):
            breaches.append(node.lineno)
    return breaches


@pytest.mark.parametrize("source", [s for s in SOURCES if s.stem != "errors"],
                         ids=lambda s: s.name)
def test_errors_alone_decides_and_words_a_float_range_refusal(source):
    # every refusal beyond the float range is a call of
    # errors.within_float_range, which catches and words it
    assert float_range_breaches(source) == []


def test_the_rule_test_sees_a_hand_written_refusal(tmp_path):
    source = tmp_path / "formula.py"
    source.write_text('''"""A module that mentions the float range in its docstring."""
def area(r):
    """Its area, or a refusal beyond the float range."""
    try:
        return r**2
    except (ValueError, OverflowError):
        raise ValueError(f"radius {r} puts the area beyond the float range")
''')
    assert float_range_breaches(source) == [6, 7]
