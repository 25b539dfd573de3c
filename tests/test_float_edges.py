"""Library results at the float range's edges.

Every input is drawn from the contract test's TYPICAL magnitudes, both
signs, so the float range's ends meet the physical scales.  A formula
either returns finite values or raises DomainError: an overflow inside it
must not come out as an inf, a nan or a zero.  The channel bound itself
is the one exception left; see its test.
"""

import math

import pytest
from hypothesis import example, given, strategies as st

from bhthermo.channel import Channel, capacity_bound, characteristic_power
from bhthermo.constants import CONSTANTS
from bhthermo.errors import DomainError
from bhthermo.evaporation import (
    EmissionParameters,
    hawking_power,
    lifetime,
    mass_history,
)
from bhthermo.kerr_newman import make_black_hole
from test_cli_contract import TYPICAL

magnitudes = st.sampled_from(TYPICAL)
signed = st.one_of(magnitudes, magnitudes.map(lambda x: -x))


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
def test_a_hole_is_finite_or_refused(m, q, j):
    try:
        bh = make_black_hole(m, q, j)
    except DomainError:
        return
    assert all(map(math.isfinite, bh)), bh
    # the existence condition Q^2 + a^2 <= M^2 <= r_plus^2, within its slack
    assert math.hypot(bh.Q, bh.a) <= bh.r_plus * (1.0 + 1e-9), bh


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
def test_a_channel_report_is_finite_or_refused(lambda_c, power, gamma_bar, n_species):
    params = emission(gamma_bar, n_species)
    if params is None:
        return
    try:
        report = capacity_bound(Channel(lambda_c, power, emission=params))
    except DomainError:
        return
    assert math.isfinite(report.p_c) and math.isfinite(report.p_c_approx), report
    assert report.xi_used is None or math.isfinite(report.xi_used), report
    # The bound itself may still overflow for a large lambda_c P or
    # gamma_bar N P; the CLI's output guard refuses it as results.bound.
    assert not math.isnan(report.bound_bits_per_s), report


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
    if math.isinf(numerator(params)):
        assert str(info.value) == (
            f"gamma_bar {gamma_bar:g} and n_species {n_species:g} put "
            "c^2 gamma_bar N hbar beyond the float range")
    else:
        assert str(info.value) == (
            f"cutoff wavelength {lambda_c:g} cm puts the characteristic power "
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
def test_a_hawking_power_is_finite_or_names_the_mass(m, gamma_bar, n_species):
    params = emission(gamma_bar, n_species)
    if params is None:
        return
    try:
        power = hawking_power(make_black_hole(m), params)
    except DomainError as exc:
        assert str(exc) in (
            f"mass {m:g} g puts the Hawking power beyond the float range",
            f"gamma_bar {gamma_bar:g} and n_species {n_species:g} put "
            "c^2 gamma_bar N hbar beyond the float range")
        return
    assert math.isfinite(power), power     # 0 where gamma_bar N is subnormal


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
