"""Hawking emission and evaporation.

The power expectations were frozen from an independent route:
Stefan-Boltzmann emission sigma T^4 per species at the horizon sphere,
which must coincide with the mode-counting formula at gamma_bar * N = 1.
"""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bhthermo.channel import Channel, characteristic_power
from bhthermo.constants import CONSTANTS
from bhthermo.errors import DomainError, SubPlanckMassError
from bhthermo.evaporation import (
    EmissionParameters,
    hawking_power,
    lifetime,
    mass_history,
)
from bhthermo.kerr_newman import make_black_hole

PHOTON = EmissionParameters(nu=1.5, gamma_bar=2.0, n_species=1.0)


class TestEmissionParameters:
    def test_defaults(self):
        p = EmissionParameters()
        assert (p.nu, p.gamma_bar, p.n_species) == (1.5, 2.0, 1.0)

    @pytest.mark.parametrize("kwargs", [
        {"nu": 0.9}, {"nu": 2.5}, {"gamma_bar": 0.0}, {"n_species": 0.5},
        {"nu": math.nan}, {"gamma_bar": math.nan}, {"gamma_bar": math.inf},
        {"n_species": math.nan}, {"n_species": math.inf},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            EmissionParameters(**kwargs)


#: gamma_bar * N = 1, where the power is the naive Stefan-Boltzmann one.
UNIT = EmissionParameters(nu=1.5, gamma_bar=1.0, n_species=1.0)


class TestPower:
    @pytest.mark.parametrize("m", [1e10, 1e15, 1e20])
    @pytest.mark.parametrize("params", [PHOTON, UNIT], ids=["photon", "unit"])
    def test_equals_stefan_boltzmann_through_horizon_sphere(
            self, stefan_boltzmann_power, m, params):
        # independent oracle: gamma_bar N sigma T^4 through 4 pi r_g^2
        bh = make_black_hole(m)
        assert hawking_power(bh, params) == pytest.approx(
            params.gamma_bar * params.n_species * stefan_boltzmann_power(bh),
            rel=1e-12)

    def test_linear_in_species(self):
        bh = make_black_hole(1e15)
        doubled = EmissionParameters(nu=1.5, gamma_bar=2.0, n_species=2.0)
        assert hawking_power(bh, doubled) == pytest.approx(
            2 * hawking_power(bh, PHOTON), rel=1e-12)

    def test_charged_hole_rejected(self):
        with pytest.raises(DomainError):
            hawking_power(make_black_hole(1e15, q=1e5), PHOTON)

    def test_value(self):
        assert hawking_power(make_black_hole(1e15), PHOTON) == pytest.approx(
            7.1232442852e15, rel=1e-9)

    @given(st.floats(min_value=1, max_value=15))
    def test_inverse_square_in_mass(self, scale_exp):
        k = 10.0 ** (scale_exp / 15)  # scale factor in (1, 10]
        p1 = hawking_power(make_black_hole(1e15), PHOTON)
        p2 = hawking_power(make_black_hole(k * 1e15), PHOTON)
        assert p2 == pytest.approx(p1 / k**2, rel=1e-12)


class TestPowerAtLength:
    """hawking_power and characteristic_power share one formula; both
    must give, bit for bit, what their own expressions gave."""

    @staticmethod
    def old_hawking_power(bh, params):
        return (CONSTANTS.c**2 * params.gamma_bar * params.n_species * CONSTANTS.hbar
                / (15360.0 * math.pi * bh.M**2))

    @staticmethod
    def old_characteristic_power(ch):
        p = ch.emission
        return (CONSTANTS.c**2 * p.gamma_bar * p.n_species * CONSTANTS.hbar
                / (15360.0 * math.pi * ch.lambda_c**2))

    emissions = st.builds(EmissionParameters,
                          nu=st.floats(min_value=1.0, max_value=2.0),
                          gamma_bar=st.floats(min_value=1e-3, max_value=1e3),
                          n_species=st.floats(min_value=1.0, max_value=1e3))

    @given(st.floats(min_value=-4.5, max_value=150.0), emissions)
    def test_hawking_power_is_unchanged(self, log_m, params):
        bh = make_black_hole(10.0**log_m)
        assert hawking_power(bh, params) == self.old_hawking_power(bh, params)

    @given(st.floats(min_value=-150.0, max_value=150.0), emissions)
    def test_characteristic_power_is_unchanged(self, log_lambda, params):
        ch = Channel(lambda_c=10.0**log_lambda, power=1.0, emission=params)
        assert characteristic_power(ch) == self.old_characteristic_power(ch)

    def test_hawking_power_beyond_the_float_range(self):
        with pytest.raises(DomainError, match="float range"):
            hawking_power(make_black_hole(1e200))

    @pytest.mark.parametrize("gamma_bar, n_species", [(1e300, 1.0), (2.0, 1e300),
                                                      (1e154, 1e154)])
    def test_an_overflowing_numerator_names_the_factors(self, gamma_bar, n_species):
        params = EmissionParameters(gamma_bar=gamma_bar, n_species=n_species)
        message = (f"gamma_bar {gamma_bar:g} and n_species {n_species:g} put "
                   "c^2 gamma_bar N hbar beyond the float range")
        for call in (lambda: hawking_power(make_black_hole(1e15), params),
                     lambda: characteristic_power(Channel(5e-5, 1e-3, emission=params))):
            with pytest.raises(DomainError) as info:
                call()
            assert str(info.value) == message


class TestMassLossRate:
    """The per-species mass-loss rate: the power at gamma_bar * N = 1
    over c^2."""

    @staticmethod
    def rate(m):
        return hawking_power(make_black_hole(m), UNIT) / CONSTANTS.c**2

    # abs=0: approx's default 1e-12 absolute floor would dwarf rates ~1e-6
    def test_mountain_anchor(self):
        # published 3-digit anchor 4.02e-6 g/s per species
        rate = self.rate(1e15)
        assert rate == pytest.approx(3.9628390766e-6, rel=1e-9, abs=0)
        assert rate == pytest.approx(4.02e-6, rel=1.5e-2, abs=0)

    def test_inverse_square_scaling(self):
        assert self.rate(1e16) == pytest.approx(self.rate(1e15) / 100.0,
                                                rel=1e-12, abs=0)
        assert self.rate(2e15) == pytest.approx(self.rate(1e15) / 4.0,
                                                rel=1e-12, abs=0)

    @pytest.mark.parametrize("m", [1e10, 1e15, 1e20])
    def test_matches_the_lifetime_loss_constant(self, m):
        # dm/dt = -K/m^2 integrates to lifetime = (m^3 - m_P^3) / (3 K)
        K = (m**3 - CONSTANTS.planck_mass**3) / (3.0 * lifetime(m, UNIT))
        assert self.rate(m) * m**2 == pytest.approx(K, rel=1e-12)

    def test_sub_planck_rejected(self):
        with pytest.raises(SubPlanckMassError):
            self.rate(0.5 * CONSTANTS.planck_mass)


class TestLifetime:
    def test_mountain_anchor(self, rk_evaporation_time):
        t = lifetime(1e15, PHOTON)
        assert t == pytest.approx(rk_evaporation_time(1e15, PHOTON), rel=1e-6)
        assert t == pytest.approx(8.4114779049e19, rel=1e-6)
        assert t == pytest.approx(8.3e19, rel=2e-2)

    def test_integrator_matches_analytic_across_decades(self, rk_evaporation_time):
        # the closed form against the adaptive RK reference
        for m0 in np.geomspace(1e6, 1e16, 11):
            assert lifetime(m0, PHOTON) == pytest.approx(
                rk_evaporation_time(m0, PHOTON), rel=1e-6, abs=0)

    def test_cubic_scaling(self):
        assert lifetime(2e15, PHOTON) == pytest.approx(
            8 * lifetime(1e15, PHOTON), rel=1e-9)

    def test_species_shorten_the_life(self):
        many = EmissionParameters(nu=1.5, gamma_bar=2.0, n_species=4.0)
        assert lifetime(1e15, many) == pytest.approx(
            lifetime(1e15, PHOTON) / 4.0, rel=1e-9)

    def test_nearly_planck_mass_evaporates_immediately(self, rk_evaporation_time):
        m0 = CONSTANTS.planck_mass * (1 + 1e-9)
        t = lifetime(m0, PHOTON)
        assert t == pytest.approx(rk_evaporation_time(m0, PHOTON), rel=1e-4, abs=0)
        assert t < 1e-40  # vs 8.4e19 s for a mountain-mass hole

    def test_at_planck_mass_rejected(self):
        with pytest.raises(SubPlanckMassError):
            lifetime(CONSTANTS.planck_mass, PHOTON)

    def test_finite_wherever_the_lifetime_fits_a_float(self):
        # m0**3 alone overflows; the lifetime itself is ~8.4e274 s
        assert lifetime(1e100, PHOTON) == pytest.approx(
            8.4114779049e19 * 1e255, rel=1e-9)

    @pytest.mark.parametrize("m0", [1e200, 1e300, math.inf, math.nan])
    def test_unrepresentable_lifetime_rejected(self, m0):
        with pytest.raises(DomainError):
            lifetime(m0, PHOTON)

    def test_mass_history_shape(self):
        t, m = mass_history(1e15, PHOTON, points=50)
        assert isinstance(t, list) and isinstance(m, list)
        assert all(type(x) is float for x in t + m)
        assert len(t) == len(m) == 50
        assert t[0] == 0.0 and m[0] == 1e15
        assert t[-1] == lifetime(1e15, PHOTON)
        assert m[-1] == CONSTANTS.planck_mass
        assert np.all(np.diff(t) > 0)
        assert np.all(np.diff(m) < 0)

    def test_mass_history_follows_the_reference(self, rk_evaporation_time):
        t, m = mass_history(1e15, PHOTON, points=7)
        for ti, mi in zip(t[1:], m[1:]):
            assert ti == pytest.approx(
                rk_evaporation_time(1e15, PHOTON, mi), rel=1e-6)


def test_mass_history_needs_two_points():
    with pytest.raises(DomainError, match="at least 2"):
        mass_history(1e15, points=1)
