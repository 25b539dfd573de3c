"""Entropy-ledger thought experiments and their GSL verdicts."""

import math

import numpy as np
import pytest
from hypothesis import given, strategies as st

from bhthermo.bounds import (
    MaterialSystem,
    holographic_bound,
    sphere_area,
    universal_bound,
)
from bhthermo.constants import CONSTANTS
from bhthermo.errors import DomainError
from bhthermo.evaporation import EmissionParameters
from bhthermo.gedanken import (
    EntropyLedger,
    LedgerEntry,
    capsule_lowering,
    drop_distance,
    infall_experiment,
    merger,
    susskind_collapse,
)
from bhthermo.kerr_newman import (
    entropy,
    horizon_area,
    make_black_hole,
    temperature,
)

PHOTON = EmissionParameters(nu=1.5, gamma_bar=2.0, n_species=1.0)


def composite_weak_system(entropy_nats):
    # 1 g at 1 cm: ER/chbar ~ 3e16, GE/c^4R ~ 8e-29
    return MaterialSystem(energy=CONSTANTS.c**2, radius=1.0,
                          entropy=entropy_nats)


class TestLedger:
    def test_delta_is_sum_of_differences(self):
        ledger = EntropyLedger((LedgerEntry("a", 1.0, 3.0),
                                LedgerEntry("b", 5.0, 4.0)))
        assert ledger.delta_total == pytest.approx(1.0)
        assert ledger.gsl_satisfied

    def test_small_negative_within_slack(self):
        # two large opposing flows cancelling to a 1e-12 residue: within
        # the 1e-9 slack measured against the flow scale
        ledger = EntropyLedger((LedgerEntry("a", 1e20, 0.0),
                                LedgerEntry("b", 0.0, 1e20 * (1 - 1e-12))))
        assert ledger.gsl_satisfied

    def test_real_decrease_fails(self):
        ledger = EntropyLedger((LedgerEntry("a", 1e20, 0.5e20),))
        assert not ledger.gsl_satisfied


class TestSusskindCollapse:
    def test_saturating_system_sits_at_the_boundary(self):
        energy = 1e33 * CONSTANTS.c**2
        hole = make_black_hole(1e33)
        area = horizon_area(hole)
        sys_ = MaterialSystem(energy=energy, radius=hole.r_plus,
                              entropy=holographic_bound(area))
        report = susskind_collapse(sys_, area)
        assert report.ledger.delta_total == pytest.approx(0.0, abs=1e-6 * entropy(hole))
        assert report.gsl_verdict is True

    def test_overfilled_sphere_is_flagged(self):
        # a 6 cm sphere stuffed with 1e69 nats: over the ~4e67 area limit
        # (mass chosen so the collapse horizon still fits the sphere)
        sys_ = MaterialSystem(energy=4.0e28 * CONSTANTS.c**2, radius=6.0,
                              entropy=1e69)
        report = susskind_collapse(sys_, 4 * math.pi * 6.0**2)
        assert report.gsl_verdict is False

    def test_sun_collapse_has_19_orders_of_margin(self):
        sun = MaterialSystem(energy=2e33 * CONSTANTS.c**2, radius=7e10,
                             entropy=1e58)
        report = susskind_collapse(sun, 4 * math.pi * 7e10**2)
        assert report.gsl_verdict is True
        hole_entry = next(e for e in report.ledger.entries
                          if e.label == "black hole")
        assert hole_entry.after == pytest.approx(1.0611547325e77, rel=1e-9)
        assert math.log10(hole_entry.after / 1e58) == pytest.approx(19.0, abs=0.1)

    def test_horizon_exceeding_sphere_rejected(self):
        sys_ = MaterialSystem(energy=1e33 * CONSTANTS.c**2, radius=1.0,
                              entropy=1.0)
        hole = make_black_hole(1e33)
        with pytest.raises(DomainError):
            # sphere big enough for the object but smaller than the horizon
            susskind_collapse(sys_, 0.5 * horizon_area(hole))

    def test_needs_stored_entropy(self):
        sys_ = MaterialSystem(energy=1e33 * CONSTANTS.c**2, radius=1.0)
        with pytest.raises(DomainError):
            susskind_collapse(sys_, 4 * math.pi)

    @pytest.mark.parametrize("sys_", [
        MaterialSystem(energy=4.0e28 * CONSTANTS.c**2, radius=6.0, entropy=1e69),
        MaterialSystem(energy=2e33 * CONSTANTS.c**2, radius=7e10, entropy=1e58),
        MaterialSystem(energy=1e30, radius=1.0, entropy=1.0)])
    def test_area_defaults_to_the_systems_sphere(self, sys_):
        assert susskind_collapse(sys_) == \
            susskind_collapse(sys_, sphere_area(sys_.radius))

    @pytest.mark.parametrize("area", [math.inf, math.nan, -5.0, 0.0])
    def test_area_must_be_positive_and_finite(self, area):
        sys_ = MaterialSystem(energy=1e30, radius=1.0, entropy=1.0)
        with pytest.raises(DomainError, match="enclosing area must be positive"):
            susskind_collapse(sys_, area)


class TestCapsuleLowering:
    def test_boundary_capsule(self):
        # exact boundary: capsule entropy equal to the minimal hole gain
        limit = 2 * math.pi * 1.0 * 1.0 * CONSTANTS.c / CONSTANTS.hbar
        big = make_black_hole(1e30)
        report = capsule_lowering(big, mu=1.0, b=1.0, S_cap=limit)
        assert report.ledger.delta_total == 0.0
        assert report.gsl_verdict is True

    def test_unit_capsule_limit(self):
        big = make_black_hole(1e30)
        report = capsule_lowering(big, mu=1.0, b=1.0, S_cap=1e30)
        gain = next(e for e in report.ledger.entries
                    if e.label == "black hole gain")
        assert gain.after - gain.before == pytest.approx(1.7861766614e38, rel=1e-9)
        assert report.gsl_verdict is True

    def test_overloaded_capsule_is_flagged(self):
        big = make_black_hole(1e30)
        report = capsule_lowering(big, mu=1.0, b=1.0, S_cap=1e39)
        assert report.gsl_verdict is False

    def test_verdict_independent_of_host_hole(self):
        rng = np.random.default_rng(7)
        m = 1e30
        M = CONSTANTS.G * m / CONSTANTS.c**2
        q_max = M * CONSTANTS.c**2 / math.sqrt(CONSTANTS.G)
        j_max = M * m * CONSTANTS.c
        gains = []
        for _ in range(20):
            x, y = rng.uniform(0, 0.6, 2)
            bh = make_black_hole(m, x * q_max, y * j_max)
            report = capsule_lowering(bh, mu=1.0, b=1.0, S_cap=1e30)
            gain = next(e for e in report.ledger.entries
                        if e.label == "black hole gain")
            gains.append(gain.after - gain.before)
            assert report.gsl_verdict is True
        assert max(gains) == pytest.approx(min(gains), rel=1e-12)

    def test_preconditions(self):
        bh = make_black_hole(1e10)
        with pytest.raises(DomainError):   # hole too small for the capsule
            capsule_lowering(bh, mu=1.0, b=1.0, S_cap=0.0)
        with pytest.raises(DomainError):   # hole not heavy enough
            capsule_lowering(make_black_hole(1e30), mu=1e28, b=1.0, S_cap=0.0)


class TestInfall:
    def test_boundary_entropy_zeroes_the_ledger(self):
        zeta = 10.0
        sys0 = composite_weak_system(0.0)
        boundary = (8 * math.pi * PHOTON.nu * zeta * sys0.radius * sys0.energy
                    / (CONSTANTS.c * CONSTANTS.hbar))
        sys_ = composite_weak_system(boundary)
        report = infall_experiment(sys_, zeta, PHOTON)
        assert report.applicable
        assert report.ledger.delta_total == pytest.approx(0.0, abs=1e-9 * boundary)

    def test_universal_entropy_leaves_wide_margin(self):
        zeta = 10.0
        sys0 = composite_weak_system(0.0)
        sys_ = composite_weak_system(universal_bound(sys0))
        report = infall_experiment(sys_, zeta, PHOTON)
        expected = ((8 * math.pi * PHOTON.nu * zeta - 2 * math.pi)
                    * sys_.radius * sys_.energy / (CONSTANTS.c * CONSTANTS.hbar))
        assert report.ledger.delta_total == pytest.approx(expected, rel=1e-9)
        assert report.gsl_verdict is True

    def test_radiated_entropy_is_nu_e_over_t(self):
        sys_ = composite_weak_system(1.0)
        hole = make_black_hole(10.0 * sys_.radius * CONSTANTS.c**2 / CONSTANTS.G)
        report = infall_experiment(sys_, hole, PHOTON)
        radiated = next(e for e in report.ledger.entries
                        if e.label == "hawking radiation")
        assert radiated.after == pytest.approx(
            PHOTON.nu * sys_.energy / temperature(hole), rel=1e-12)
        # zeta = 10 sizes the same hole, M = zeta R, bit for bit
        assert infall_experiment(sys_, 10.0, PHOTON).ledger == report.ledger

    def test_pressure_check_value(self):
        sys_ = composite_weak_system(1.0)
        report = infall_experiment(sys_, 10.0, PHOTON)
        check = next(c for c in report.assumption_checks
                     if c.name == "radiation_pressure_negligible")
        assert check.value == pytest.approx(2.6041666667e-6, rel=1e-9, abs=0)
        assert check.passed

    def test_non_composite_system_is_inapplicable_not_violated(self):
        # electron-like: far below the compositeness threshold
        sys_ = MaterialSystem(energy=8.2e-7, radius=1e-17, entropy=1.0)
        report = infall_experiment(sys_, 10.0, PHOTON)
        assert not report.applicable
        assert report.gsl_verdict is None

    @given(st.floats(min_value=0, max_value=1e20))
    def test_delta_linear_in_entropy_with_slope_minus_one(self, S):
        base = infall_experiment(composite_weak_system(0.0), 10.0, PHOTON)
        shifted = infall_experiment(composite_weak_system(S), 10.0, PHOTON)
        assert shifted.ledger.delta_total == pytest.approx(
            base.ledger.delta_total - S, rel=1e-12, abs=1e-3)


class TestDropDistance:
    def test_unit_argument(self):
        # pick E R so that zeta E R / (N c hbar) = 1
        zeta = 2.0
        sys_ = MaterialSystem(energy=CONSTANTS.c * CONSTANTS.hbar / zeta, radius=1.0)
        check = drop_distance(sys_, zeta, PHOTON)
        assert check.ratio_to_m == pytest.approx(780.0, rel=1e-12)

    def test_large_system_margin(self):
        # zeta E R / (N c hbar) = 1e3 -> d/M = 780 * 100
        params = EmissionParameters(nu=1.5, gamma_bar=2.0, n_species=100.0)
        sys_ = MaterialSystem(
            energy=1e4 * CONSTANTS.c * CONSTANTS.hbar, radius=1.0)
        check = drop_distance(sys_, 10.0, params)
        assert check.ratio_to_m == pytest.approx(7.8e4, rel=1e-12)
        assert check.threshold == pytest.approx(167.097198, rel=1e-6)
        assert check.passed

    def test_two_thirds_power_scaling(self):
        sys1 = MaterialSystem(energy=1e10, radius=1.0)
        sys8 = MaterialSystem(energy=8e10, radius=1.0)
        d1 = drop_distance(sys1, 10.0, PHOTON).distance
        d8 = drop_distance(sys8, 10.0, PHOTON).distance
        assert d8 == pytest.approx(4 * d1, rel=1e-12)


class TestMerger:
    def test_equal_masses_double_the_total_area(self):
        bh = make_black_hole(1e15)
        report = merger(bh, bh)
        merged = next(e for e in report.ledger.entries
                      if e.label == "merged hole")
        assert merged.after == pytest.approx(4 * entropy(bh), rel=1e-12)
        assert report.ledger.delta_total == pytest.approx(
            2 * entropy(bh), rel=1e-12)

    def test_vanishing_partner(self):
        bh = make_black_hole(1e20)
        tiny = make_black_hole(CONSTANTS.planck_mass)
        report = merger(bh, tiny)
        merged = next(e for e in report.ledger.entries
                      if e.label == "merged hole")
        assert merged.after == pytest.approx(entropy(bh), rel=1e-9)

    def test_charged_holes_rejected(self):
        q = 1e5
        with pytest.raises(DomainError):
            merger(make_black_hole(1e15, q), make_black_hole(1e15))

    @given(st.floats(min_value=0, max_value=30), st.floats(min_value=-12, max_value=12))
    def test_area_theorem_strict_for_positive_pairs(self, le1, dle):
        # mass ratios within float range; past ~1e16 the lighter partner
        # is numerically absorbed and the strict inequality degenerates
        le2 = min(max(le1 + dle, 0.0), 30.0)
        bh1 = make_black_hole(10.0 ** le1)
        bh2 = make_black_hole(10.0 ** le2)
        report = merger(bh1, bh2)
        assert report.ledger.delta_total > 0
        assert report.gsl_verdict is True
