"""Kerr-Newman model: construction, area, entropy, temperature, first law.

Frozen expected values come from independent hand arithmetic with the
CODATA-2018 table (see test docstrings where a published 3-digit anchor
exists).
"""

import math
import random

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bhthermo.constants import CONSTANTS, geometrized_mass
from bhthermo.errors import (
    DomainError,
    NakedSingularityError,
    SubPlanckMassError,
    first_refused,
)
from bhthermo.kerr_newman import (
    entropies,
    entropy,
    h_factors,
    horizon_area,
    horizon_areas,
    horizon_columns,
    make_black_hole,
    mean_density,
    potentials,
    temperature,
    temperatures,
)


def extremal_charge(m):
    """q giving Q = M for mass m."""
    return geometrized_mass(m) * CONSTANTS.c**2 / math.sqrt(CONSTANTS.G)


def extremal_spin(m):
    """j giving a = M for mass m."""
    return geometrized_mass(m) * m * CONSTANTS.c


# st strategy for valid random holes: mass exponent plus sub-extremal (x, y)
hole_strategy = st.tuples(
    st.floats(min_value=0, max_value=35),        # log10 mass [g]
    st.floats(min_value=0, max_value=0.85),      # Q/M
    st.floats(min_value=0, max_value=0.85),      # a/M
).filter(lambda t: t[1]**2 + t[2]**2 < 0.95)


def build(log_m, x, y):
    m = 10.0 ** log_m
    return make_black_hole(m, x * extremal_charge(m), y * extremal_spin(m))


class TestConstruction:
    def test_mountain_anchor(self):
        bh = make_black_hole(1e15)
        assert bh.M == pytest.approx(7.4261602691e-14, rel=1e-9, abs=0)
        assert bh.r_plus == pytest.approx(1.4852320538e-13, rel=1e-9, abs=0)
        assert bh.r_plus == pytest.approx(1.49e-13, rel=5e-3, abs=0)

    def test_extremal_kerr_horizon_collapses_to_m(self):
        m = 1e20
        bh = make_black_hole(m, 0.0, extremal_spin(m))
        assert bh.r_plus == pytest.approx(bh.M, rel=1e-9, abs=0)

    def test_half_extremal_charge(self):
        m = 1e15
        bh = make_black_hole(m, 0.5 * extremal_charge(m))
        assert bh.r_plus / bh.M == pytest.approx(1.8660254038, rel=1e-9)

    def test_sub_planck_mass_rejected(self):
        with pytest.raises(SubPlanckMassError):
            make_black_hole(CONSTANTS.planck_mass * 0.99)

    def test_naked_singularity_rejected(self):
        m = 1e15
        with pytest.raises(NakedSingularityError):
            make_black_hole(m, 1.5 * extremal_charge(m))
        with pytest.raises(NakedSingularityError):
            make_black_hole(m, 0.9 * extremal_charge(m), 0.9 * extremal_spin(m))

    def test_schwarzschild_flag(self):
        assert make_black_hole(1e15).is_schwarzschild
        assert not make_black_hole(1e15, 1e5).is_schwarzschild

    # Two holes found by search, each exactly on an edge of the 1e-12 slack
    # EPS_EXTREMAL, in the floats the construction computes.

    def test_a_hole_on_the_existence_slack_exists(self):
        # Q^2 = M^2 (1 + 1e-12): accepted, and extremal
        bh = make_black_hole(2.6576809153376327e29, 6.866030046270126e25)
        assert bh.Q * bh.Q == bh.M * bh.M * (1.0 + 1e-12)
        assert bh.r_plus == bh.M
        assert temperature(bh) == 0.0

    def test_a_hole_on_the_extremal_slack_is_not_extremal(self):
        # M^2 - Q^2 = 1e-12 M^2: only a hole strictly inside is made extremal
        bh = make_black_hole(5.260588414909643e25, 1.3590554798865089e22)
        d = (bh.M - bh.Q) * (bh.M + bh.Q)
        assert d == 1e-12 * bh.M * bh.M
        assert bh.r_plus == bh.M + math.sqrt(d) > bh.M
        assert temperature(bh) > 0.0


def lengths(masses, q, j):
    """:func:`horizon_columns` with its one charge length Q as a column."""
    M, Q, a, r_plus = horizon_columns(masses, q, j)
    return M, [Q] * len(M), a, r_plus


class TestFloatKernels:
    """make_black_hole, horizon_area, entropy and temperature run on float
    kernels now; each must give, bit for bit, what its own code gave."""

    @staticmethod
    def old_make(m, q, j):
        M = CONSTANTS.G * m / CONSTANTS.c**2
        Q = math.sqrt(CONSTANTS.G) * q / CONSTANTS.c**2
        a = j / (m * CONSTANTS.c)
        s = math.sqrt(Q * Q + a * a)
        disc = (M - s) * (M + s)
        if disc < 1e-12 * M * M:
            disc = 0.0
        return M, Q, a, M + math.sqrt(disc)

    @given(hole_strategy)
    def test_state_and_quantities_are_unchanged(self, params):
        bh = build(*params)
        M, Q, a, r_plus = self.old_make(bh.m, bh.q, bh.j)
        assert (bh.M, bh.Q, bh.a, bh.r_plus) == (M, Q, a, r_plus)
        area = 4.0 * math.pi * (r_plus**2 + a**2)
        assert horizon_area(bh) == area
        assert entropy(bh) == area / (4.0 * CONSTANTS.planck_length**2)
        assert temperature(bh) == \
            2.0 * CONSTANTS.c * CONSTANTS.hbar * (r_plus - M) / area

    @given(st.lists(st.floats(min_value=0, max_value=35), min_size=1,
                    max_size=30),
           st.floats(min_value=0, max_value=1 - 1e-13),
           st.floats(min_value=0, max_value=1),
           st.sampled_from([1.0, -1.0]))
    def test_columns_are_the_old_code_point_by_point(self, log_masses, e, angle,
                                                     sign):
        # a (Q/M, a/M) on or inside the extremal circle of the lightest hole
        masses = [10.0 ** x for x in log_masses]
        m0 = min(masses)
        q = sign * e * math.cos(angle) * extremal_charge(m0)
        j = sign * e * math.sin(angle) * extremal_spin(m0)
        expected = zip(*[self.old_make(m, q, j) for m in masses])
        assert [list(map(float.hex, column))
                for column in lengths(masses, q, j)] == [
            list(map(float.hex, column)) for column in expected]

    @pytest.mark.parametrize("q, j", [(0.0, 0.0), (-0.0, 0.0), (0.0, -0.0),
                                      (-0.0, -0.0), (0, 0)])
    def test_schwarzschild_columns_are_the_old_code(self, q, j):
        # up to M = 1e154, where the column leaves the Schwarzschild form,
        # and beyond, while M * M stays finite (M = 1.3e154)
        edge = 1e154 * CONSTANTS.c**2 / CONSTANTS.G
        below = [10.0 ** (x / 10.0) for x in range(-46, 1820)] + [
            math.nextafter(edge, 0.0)]
        for masses in (below, below + [edge, 1.3 * edge]):
            expected = zip(*[self.old_make(m, q, j) for m in masses])
            assert [list(map(float.hex, column))
                    for column in lengths(masses, q, j)] == [
                list(map(float.hex, column)) for column in expected]
        # where M * M overflows (M = 1.36e154) the old code's r_plus is inf
        assert self.old_make(1.36 * edge, q, j)[3] == math.inf
        with pytest.raises(DomainError) as info:
            first_refused(lambda m: horizon_columns(m, q, j),
                          below + [edge, 1.3 * edge, 1.36 * edge])
        assert str(info.value) == (f"mass {1.36 * edge:g} g puts the horizon "
                                   "radius beyond the float range")
        # and their areas, while r_plus^2 stays finite
        _, _, a, r_plus = horizon_columns(below[:-40], q, j)
        assert list(map(float.hex, horizon_areas(r_plus, a))) == [
            (4.0 * math.pi * (r**2 + x**2)).hex() for r, x in zip(r_plus, a)]

    def test_extremal_holes_are_unchanged(self):
        for m in (1e-4, 1e15, 1e40):
            for q, j in ((extremal_charge(m), 0.0), (0.0, extremal_spin(m)),
                         (0.6 * extremal_charge(m), 0.8 * extremal_spin(m))):
                bh = make_black_hole(m, q, j)
                assert (bh.M, bh.Q, bh.a, bh.r_plus) == self.old_make(m, q, j)

    @pytest.mark.parametrize("args, error", [
        ((math.nan, 0.0, 0.0), DomainError),
        ((1e15, math.inf, 0.0), DomainError),
        ((1e-6, 0.0, 0.0), SubPlanckMassError),
        ((1e15, 2 * extremal_charge(1e15), 0.0), NakedSingularityError),
    ])
    def test_lengths_raise_as_make_black_hole(self, args, error):
        with pytest.raises(error) as kernel:
            horizon_columns(args[:1], *args[1:])
        with pytest.raises(error) as full:
            make_black_hole(*args)
        assert str(kernel.value) == str(full.value)

    @pytest.mark.parametrize("masses, q, j", [
        ([1e15, math.nan, 1e-6], 0.0, 0.0),
        ([1e15, 1e16], math.inf, 0.0),
        ([1e15, 1e16], 0.0, math.nan),
        ([1e15, 1e-6, math.inf], 0.0, 0.0),
        # a naked hole before a sub-Planck mass: the naked one is named
        ([1e20, 1e17, 1e-6], 2.6e14, 0.0),
        ([1e20, 1e16, 1e15], 2.6e14, 0.0),
        # a horizon radius beyond the float range (m above ~1.8e182 g),
        # ascending and descending, and before or after the other checks
        ([1e180, 1e182, 1e183, 1e184], 0.0, 0.0),
        ([1e184, 1e183, 1e182, 1e180], 0.0, 0.0),
        ([1e15, 1e183, 1e-6], 0.0, 0.0),
        ([1e15, 1e-6, 1e183], 0.0, 0.0),
        ([1e180, 1e183, 1e184], 1e10, 1e10),
        ([1e184, 1e183, 1e180], 0.0, 1e10),
        ([1e20, 1e183, 1e17, 1e-6], 2.6e14, 0.0),
        ([1e20, 1e17, 1e183], 2.6e14, 0.0),
    ])
    def test_columns_raise_as_make_black_hole_for_the_first_bad_hole(
            self, masses, q, j):
        with pytest.raises(DomainError) as columns:
            first_refused(lambda m: horizon_columns(m, q, j), masses)
        for m in masses:
            try:
                make_black_hole(m, q, j)
            except DomainError as first:
                assert type(columns.value) is type(first)
                assert str(columns.value) == str(first)
                break
        else:
            raise AssertionError("no hole is invalid")

    def test_area_beyond_the_float_range_is_a_domain_error(self):
        # r_plus^2 overflows while the hole itself is valid (M^2 does not)
        bh = make_black_hole(1.5e182)
        with pytest.raises(DomainError, match="horizon area beyond the float"):
            horizon_area(bh)
        with pytest.raises(DomainError, match="horizon area beyond the float"):
            horizon_areas([1e155], [0.0])


def _hex(column):
    return [x.hex() for x in column]


def test_column_forms_are_the_scalar_formulas_bit_for_bit():
    """horizon_areas, entropies and temperatures on 20k random points give
    each formula's own scalar arithmetic, and horizon_area, entropy and
    temperature of a hole give the column forms' values."""
    rng = random.Random(20261019)
    n = 20_000
    r = [10.0 ** rng.uniform(-33.0, 150.0) for _ in range(n)]
    a = [x * rng.random() for x in r]
    M = [x * rng.uniform(0.5, 1.0) for x in r]
    areas = horizon_areas(r, a)
    assert _hex(areas) == _hex(4.0 * math.pi * (x**2 + y**2) for x, y in zip(r, a))
    # an area above ~1.88e243 cm^2 has its entropy refused as beyond the float range
    four_lp2 = 4.0 * CONSTANTS.planck_length**2
    fits = [A for A in areas if A / four_lp2 < math.inf]
    assert len(fits) > n // 2
    assert _hex(entropies(fits)) == _hex(A / four_lp2 for A in fits)
    assert _hex(temperatures(M, r, areas)) == _hex(
        2.0 * CONSTANTS.c * CONSTANTS.hbar * (x - m) / A
        for m, x, A in zip(M, r, areas))
    holes = [build(rng.uniform(0.0, 35.0), rng.uniform(0.0, 0.7),
                   rng.uniform(0.0, 0.7)) for _ in range(n)]
    areas = horizon_areas([bh.r_plus for bh in holes], [bh.a for bh in holes])
    assert _hex(map(horizon_area, holes)) == _hex(areas)
    assert _hex(map(entropy, holes)) == _hex(entropies(areas))
    assert _hex(map(temperature, holes)) == _hex(temperatures(
        [bh.M for bh in holes], [bh.r_plus for bh in holes], areas))


def test_area_overflow_names_the_first_radius_of_the_column():
    with pytest.raises(DomainError, match=r"^horizon radius 2e\+154 cm puts"):
        first_refused(horizon_areas, [1.0, 2e154, 3e154], [0.0, 0.0, 0.0])


class TestArea:
    def test_schwarzschild_anchor(self):
        bh = make_black_hole(1e15)
        assert horizon_area(bh) == pytest.approx(16 * math.pi * bh.M**2, rel=1e-12, abs=0)
        assert horizon_area(bh) == pytest.approx(2.7720336056e-25, rel=1e-9, abs=0)

    def test_extremal_kerr_is_half_schwarzschild(self):
        m = 1e18
        bh = make_black_hole(m, 0.0, extremal_spin(m))
        assert horizon_area(bh) == pytest.approx(8 * math.pi * bh.M**2, rel=1e-9, abs=0)

    def test_extremal_charged_is_quarter_schwarzschild(self):
        m = 1e18
        bh = make_black_hole(m, extremal_charge(m))
        assert horizon_area(bh) == pytest.approx(4 * math.pi * bh.M**2, rel=1e-9, abs=0)


class TestEntropy:
    def test_mountain_anchor(self):
        # published 3-digit anchor 2.65e40
        assert entropy(make_black_hole(1e15)) == pytest.approx(
            2.6528868313e40, rel=1e-9)
        assert entropy(make_black_hole(1e15)) == pytest.approx(2.65e40, rel=5e-3)

    def test_planck_scale_hole(self):
        m = CONSTANTS.planck_length * CONSTANTS.c**2 / CONSTANTS.G  # M = l_P
        assert entropy(make_black_hole(m)) == pytest.approx(4 * math.pi, rel=1e-9)

    def test_solar_mass(self):
        # ~19 orders above the sun's own entropy of order 1e58
        assert entropy(make_black_hole(2e33)) == pytest.approx(
            1.0611547325e77, rel=1e-9)


class TestTemperature:
    def test_mountain_anchor(self):
        T = temperature(make_black_hole(1e15))
        assert T == pytest.approx(1.6939191829e-5, rel=1e-9, abs=0)
        assert T / CONSTANTS.k_B == pytest.approx(1.23e11, rel=5e-3)

    def test_extremal_holes_are_cold(self):
        m = 1e18
        assert temperature(make_black_hole(m, extremal_charge(m))) == 0.0
        assert temperature(make_black_hole(m, 0.0, extremal_spin(m))) == 0.0

    @given(st.floats(min_value=0, max_value=35))
    def test_schwarzschild_closed_form(self, log_m):
        bh = make_black_hole(10.0 ** log_m)
        expected = CONSTANTS.hbar * CONSTANTS.c / (8 * math.pi * bh.M)
        assert temperature(bh) == pytest.approx(expected, rel=1e-12, abs=0)


class TestPotentials:
    def test_schwarzschild_has_no_charge_or_spin_terms(self):
        pots = potentials(make_black_hole(1e15))
        assert pots.phi == 0.0
        assert pots.omega == 0.0
        assert pots.theta == pytest.approx(1.6211116217e60, rel=1e-9)

    def test_extremal_charged_horizon_potential(self):
        m = 1e15
        bh = make_black_hole(m, extremal_charge(m))
        pots = potentials(bh)
        assert pots.phi == pytest.approx(
            CONSTANTS.c**2 / math.sqrt(CONSTANTS.G), rel=1e-9)
        assert pots.phi == pytest.approx(3.4788727547e24, rel=1e-9)
        assert pots.theta == pytest.approx(0.0, abs=1e-30)

    def test_theta_zero_only_at_extremality(self):
        m = 1e15
        assert potentials(make_black_hole(m, 0.5 * extremal_charge(m))).theta > 0


class TestFirstLaw:
    def test_schwarzschild_mass_perturbation(self, first_law_residual):
        bh = make_black_hole(1e15)
        assert first_law_residual(bh, 1e15 * 1e-7, 0.0, 0.0) < 1e-6

    def test_generic_hole_mixed_perturbation(self, first_law_residual):
        m = 1e20
        bh = make_black_hole(m, 0.3 * extremal_charge(m), 0.5 * extremal_spin(m))
        res = first_law_residual(bh, m * 1e-7, extremal_charge(m) * 1e-7,
                                 extremal_spin(m) * 1e-7)
        assert res < 1e-5

    @given(st.floats(min_value=1, max_value=30))
    def test_temperature_times_ds_dm_is_c_squared(self, log_m):
        m = 10.0 ** log_m
        bh = make_black_hole(m)
        dm = m * 1e-7
        dS = (entropy(make_black_hole(m + dm)) - entropy(make_black_hole(m - dm))) / (2 * dm)
        assert temperature(bh) * dS == pytest.approx(CONSTANTS.c**2, rel=1e-5)


class TestHFactors:
    def test_schwarzschild_is_unity(self):
        assert h_factors(make_black_hole(1e15)) == (1.0, 1.0)

    def test_extremal_kerr(self):
        m = 1e18
        h1, h2 = h_factors(make_black_hole(m, 0.0, extremal_spin(m)))
        assert h1 == pytest.approx(0.5, rel=1e-9)
        assert h2 == 0.0

    def test_extremal_charged(self):
        m = 1e18
        h1, h2 = h_factors(make_black_hole(m, extremal_charge(m)))
        assert h1 == pytest.approx(0.25, rel=1e-9)
        assert h2 == 0.0

    def test_finite_where_the_entropy_is_refused(self):
        # the closed forms read no entropy: at a/M = 1/2, r_plus = M (1 + sqrt(3)/2)
        m = 1e149
        bh = make_black_hole(m, 0.0, 0.5 * extremal_spin(m))
        with pytest.raises(DomainError, match="the entropy beyond the float range"):
            entropy(bh)
        h1 = ((1.0 + math.sqrt(0.75)) / 2.0) ** 2 + 0.25**2
        assert h_factors(bh) == pytest.approx((h1, math.sqrt(0.75) / h1), rel=1e-12,
                                              abs=0)

    def test_bounded_on_grid(self):
        m = 1e20
        for x in np.linspace(0, 0.9, 10):
            for y in np.linspace(0, 0.9, 10):
                if x * x + y * y >= 0.99:
                    continue
                bh = make_black_hole(m, x * extremal_charge(m), y * extremal_spin(m))
                h1, h2 = h_factors(bh)
                assert 0.0 <= h1 <= 1.0
                assert 0.0 <= h2 <= 1.0


class TestMeanDensity:
    def test_mountain_anchor(self):
        # published anchor 7.33e52, constants drift ~0.6%
        assert mean_density(1e15) == pytest.approx(7.2866590730e52, rel=1e-9)
        assert mean_density(1e15) == pytest.approx(7.33e52, rel=1e-2)

    def test_inverse_square_scaling(self):
        assert mean_density(1e16) == pytest.approx(
            mean_density(1e15) / 100.0, rel=1e-12)

    def test_water_density_mass(self):
        # galaxy-core-sized hole with the density of water
        assert mean_density(2.6993812389e41) == pytest.approx(1.0, rel=1e-9)

    def test_rejects_non_positive(self):
        with pytest.raises(DomainError):
            mean_density(0.0)


class TestScalingProperties:
    @given(hole_strategy)
    def test_doubling_the_hole_quadruples_area_and_entropy(self, params):
        # doubling every length scale (M, Q, a) means (2m, 2q, 4j): the
        # spin length a = j/(mc) needs j to grow with both m and a
        log_m, x, y = params
        bh = build(log_m, x, y)
        doubled = make_black_hole(2 * bh.m, 2 * bh.q, 4 * bh.j)
        assert doubled.a == pytest.approx(2 * bh.a, rel=1e-15, abs=0)
        assert horizon_area(doubled) == pytest.approx(
            4 * horizon_area(bh), rel=1e-12, abs=0)
        assert entropy(doubled) == pytest.approx(4 * entropy(bh), rel=1e-12, abs=0)

    @given(st.floats(min_value=0, max_value=35), st.floats(min_value=0, max_value=0.95))
    def test_literal_doubling_exact_for_spinless_holes(self, log_m, x):
        m = 10.0 ** log_m
        bh = make_black_hole(m, x * extremal_charge(m))
        doubled = make_black_hole(2 * bh.m, 2 * bh.q)
        assert horizon_area(doubled) == pytest.approx(
            4 * horizon_area(bh), rel=1e-12, abs=0)

    def test_area_monotone_in_mass_at_fixed_charge_and_spin(self):
        m0 = 1e20
        q = 0.3 * extremal_charge(m0)
        j = 0.5 * extremal_spin(m0)
        masses = np.geomspace(m0, 100 * m0, 50)
        areas = [horizon_area(make_black_hole(m, q, j)) for m in masses]
        assert all(a2 > a1 for a1, a2 in zip(areas, areas[1:]))

    def test_extremal_approach_is_monotone(self):
        # T and theta decrease to zero along a ray toward extremality
        m = 1e20
        angle = 0.7
        rhos = np.linspace(0.0, 1.0, 40)
        temps, thetas = [], []
        for rho in rhos:
            bh = make_black_hole(m, rho * math.cos(angle) * extremal_charge(m),
                                 rho * math.sin(angle) * extremal_spin(m))
            temps.append(temperature(bh))
            thetas.append(potentials(bh).theta)
        assert all(t2 <= t1 for t1, t2 in zip(temps, temps[1:]))
        assert all(t2 <= t1 for t1, t2 in zip(thetas, thetas[1:]))
        assert temps[-1] == pytest.approx(0.0, abs=1e-12 * temps[0])
        assert thetas[-1] == pytest.approx(0.0, abs=1e-12 * thetas[0])
