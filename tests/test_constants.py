"""Constants table and unit conversions.

Expected values were frozen from hand-evaluated CODATA-2018 arithmetic
before the implementation was written.
"""

import math

import pytest
from hypothesis import example, given, strategies as st

from bhthermo.cli import UNITS
from bhthermo.constants import (
    CONSTANTS,
    LOG2E,
    energy_temperature_to_kelvin,
    geometrized_charge,
    geometrized_mass,
    mass_from_geometrized,
    nats_to_bits,
    spin_lengths,
)
from bhthermo.errors import DomainError, SubPlanckMassError
from bhthermo.kerr_newman import make_black_hole


def test_sigma_sb_internal_consistency():
    recomputed = (math.pi**2 * CONSTANTS.k_B**4
                  / (60 * CONSTANTS.hbar**3 * CONSTANTS.c**2))
    assert CONSTANTS.sigma_SB == pytest.approx(recomputed, rel=1e-12, abs=0)
    # CODATA published value, as a sanity cross-check
    assert CONSTANTS.sigma_SB == pytest.approx(5.670374419e-5, rel=1e-8, abs=0)


def test_planck_scale_identities():
    assert (CONSTANTS.planck_length**2 * CONSTANTS.c**3
            / (CONSTANTS.G * CONSTANTS.hbar)) == pytest.approx(1.0, rel=1e-12)
    assert CONSTANTS.planck_mass**2 == pytest.approx(
        CONSTANTS.hbar * CONSTANTS.c / CONSTANTS.G, rel=1e-12, abs=0)
    assert CONSTANTS.planck_length == pytest.approx(1.6162550239e-33, rel=1e-9, abs=0)
    assert CONSTANTS.planck_mass == pytest.approx(2.1764343421e-05, rel=1e-9, abs=0)


def test_derived_constants_recomputed_from_base():
    rebuilt = type(CONSTANTS)(G=CONSTANTS.G, c=CONSTANTS.c,
                              hbar=CONSTANTS.hbar, k_B=CONSTANTS.k_B)
    assert rebuilt.sigma_SB == pytest.approx(CONSTANTS.sigma_SB, rel=1e-12, abs=0)
    assert rebuilt.planck_length == pytest.approx(CONSTANTS.planck_length, rel=1e-12, abs=0)
    assert rebuilt.planck_mass == pytest.approx(CONSTANTS.planck_mass, rel=1e-12, abs=0)


class TestGeometrizedMass:
    def test_mountain_anchor(self):
        # half of r_g = 1.49e-13 cm for a 1e15 g hole
        assert geometrized_mass(1e15) == pytest.approx(7.4261602691e-14, rel=1e-9, abs=0)
        assert 2 * geometrized_mass(1e15) == pytest.approx(1.49e-13, rel=5e-3, abs=0)

    def test_planck_mass_maps_to_planck_length(self):
        assert geometrized_mass(CONSTANTS.planck_mass) == pytest.approx(
            CONSTANTS.planck_length, rel=1e-12, abs=0)

    def test_solar_scale(self):
        assert geometrized_mass(2e33) == pytest.approx(1.4852320538e5, rel=1e-9)

    @pytest.mark.parametrize("bad", [0.0, -1e15])
    def test_rejects_non_positive(self, bad):
        with pytest.raises(DomainError):
            geometrized_mass(bad)

    @given(st.floats(min_value=-30, max_value=40))
    def test_round_trip(self, exponent):
        m = 10.0 ** exponent
        assert mass_from_geometrized(geometrized_mass(m)) == pytest.approx(
            m, rel=1e-12, abs=0)


class TestGeometrizedCharge:
    def test_zero(self):
        assert geometrized_charge(0.0) == 0.0

    def test_inverse_identity(self):
        q = CONSTANTS.c**2 / math.sqrt(CONSTANTS.G)
        assert geometrized_charge(q) == pytest.approx(1.0, rel=1e-12)

    def test_electron_charge(self):
        assert geometrized_charge(4.8e-10) == pytest.approx(
            1.3797572773e-34, rel=1e-9, abs=0)


class TestSpinLength:
    """spin_lengths on one-point columns."""

    def test_zero(self):
        assert spin_lengths(0.0, (1e15,)) == [0.0]

    def test_inverse_identity(self):
        j = 1e15 * CONSTANTS.c * 1.0
        [a] = spin_lengths(j, (1e15,))
        assert a == pytest.approx(1.0, rel=1e-12)

    def test_extremal_spin_of_mountain_hole(self):
        # j solving a = M for m = 1e15 g
        [a] = spin_lengths(2.2263068406e12, (1e15,))
        # a ratio: approx's 1e-12 absolute floor would dwarf a ~7e-14 cm length
        assert a / geometrized_mass(1e15) == pytest.approx(1.0, rel=1e-9)

    @pytest.mark.parametrize("m", [0.0, -1.0])
    def test_rejects_non_positive_mass(self, m):
        # spin_lengths divides by m; its caller refuses m first
        with pytest.raises(SubPlanckMassError):
            make_black_hole(m, j=1.0)


class TestTemperatureConversion:
    def test_zero(self):
        assert energy_temperature_to_kelvin(0.0) == 0.0

    def test_boltzmann_identity(self):
        assert energy_temperature_to_kelvin(CONSTANTS.k_B) == pytest.approx(
            1.0, rel=1e-12)

    def test_hawking_anchor(self):
        assert energy_temperature_to_kelvin(1.6939191829e-5) == pytest.approx(
            1.2269006698e11, rel=1e-9)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            energy_temperature_to_kelvin(-1.0)


class TestNatsToBits:
    def test_zero(self):
        assert nats_to_bits(0.0) == 0.0

    def test_ln2_is_one_bit(self):
        assert nats_to_bits(math.log(2)) == pytest.approx(1.0, rel=1e-12)

    def test_hole_entropy_anchor(self):
        assert nats_to_bits(2.65e40) == pytest.approx(3.8231418584e40, rel=1e-9)

    def test_rejects_negative(self):
        with pytest.raises(DomainError):
            nats_to_bits(-0.5)

    @given(st.floats(min_value=0, max_value=1e60),
           st.floats(min_value=0, max_value=1e60))
    @example(5e-324, 5e-324)
    def test_linearity(self, a, b):
        # Subnormals carry too few digits for any relative tolerance: the
        # bits of 5e-324 + 5e-324 are 1.5e-323, the sum of the bits 1e-323.
        # The floor is two subnormal steps.
        assert nats_to_bits(a + b) == pytest.approx(
            nats_to_bits(a) + nats_to_bits(b), rel=1e-12, abs=1e-323)

    def test_factor(self):
        assert LOG2E == pytest.approx(1.4426950409, rel=1e-9)


def test_every_constant_has_its_unit_in_the_one_unit_table():
    assert set(CONSTANTS._fields) <= set(UNITS)
    assert UNITS["G"] == "cm^3 g^-1 s^-2"
