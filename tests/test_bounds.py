"""Entropy bounds and the cross-bound report.

The compact-disk numbers (16 g, 6 cm) anchor the holographic/universal
separation; expectations were hand-computed before implementation.
"""

import math

import pytest
from hypothesis import given, strategies as st

from bhthermo.bounds import (
    COMPOSITE_THRESHOLD,
    WEAK_GRAVITY_THRESHOLD,
    MaterialSystem,
    bound_report,
    compositeness,
    gour_bound,
    holographic_bound,
    sphere_area,
    universal_bound,
    weak_gravity_ratio,
    weak_universal_bound,
)
from bhthermo.constants import CONSTANTS, nats_to_bits
from bhthermo.errors import DomainError
from bhthermo.kerr_newman import entropy, horizon_area, make_black_hole

DISK = MaterialSystem(energy=16 * CONSTANTS.c**2, radius=6.0)
NUCLEON = MaterialSystem(energy=1.5e-3, radius=1e-13)
EARTH = MaterialSystem(energy=5.4e48, radius=6.4e8)


def hole_system(m):
    bh = make_black_hole(m)
    return bh, MaterialSystem(energy=m * CONSTANTS.c**2, radius=bh.r_plus)


def system_at(ratio, threshold, energy, radius=1.0, entropy=None):
    """The system of ``radius`` whose ``ratio`` (compositeness or
    weak_gravity_ratio) is exactly ``threshold``, stepping the energy from
    ``energy`` one float at a time."""
    for _ in range(64):
        sys_ = MaterialSystem(energy, radius, entropy)
        if ratio(sys_) == threshold:
            return sys_
        energy = math.nextafter(energy, math.inf if ratio(sys_) < threshold
                                else -math.inf)
    raise AssertionError(f"no energy puts {ratio.__name__} at {threshold}")


def at_composite_threshold(radius=1.0, entropy=None):
    return system_at(compositeness, COMPOSITE_THRESHOLD, COMPOSITE_THRESHOLD
                     * CONSTANTS.c * CONSTANTS.hbar / radius, radius, entropy)


def at_weak_gravity_threshold(radius=1.0, entropy=None):
    return system_at(weak_gravity_ratio, WEAK_GRAVITY_THRESHOLD, WEAK_GRAVITY_THRESHOLD
                     * CONSTANTS.c**4 * radius / CONSTANTS.G, radius, entropy)


class TestMaterialSystem:
    @pytest.mark.parametrize("kwargs", [
        {"energy": 0.0, "radius": 1.0},
        {"energy": 1.0, "radius": -1.0},
        {"energy": 1.0, "radius": 1.0, "entropy": -1.0},
        {"energy": math.inf, "radius": 1.0},
        {"energy": 1.0, "radius": math.nan},
        {"energy": 1.0, "radius": 1.0, "entropy": math.inf},
    ])
    def test_validation(self, kwargs):
        with pytest.raises(DomainError):
            MaterialSystem(**kwargs)


class TestCompositeness:
    def test_nucleon_barely_qualifies(self):
        assert compositeness(NUCLEON) == pytest.approx(4.7445430907, rel=1e-9)

    def test_compton_boundary(self):
        sys_ = MaterialSystem(energy=CONSTANTS.c * CONSTANTS.hbar, radius=1.0)
        assert compositeness(sys_) == pytest.approx(1.0, rel=1e-12)

    def test_compact_disk(self):
        assert compositeness(DISK) == pytest.approx(2.7290769110e39, rel=1e-9)
        assert compositeness(DISK) >= COMPOSITE_THRESHOLD


class TestWeakGravity:
    def test_black_hole_is_half(self):
        _, sys_ = hole_system(1e15)
        assert weak_gravity_ratio(sys_) == pytest.approx(0.5, rel=1e-12, abs=0)
        assert weak_gravity_ratio(sys_) > WEAK_GRAVITY_THRESHOLD

    def test_earth(self):
        assert weak_gravity_ratio(EARTH) == pytest.approx(6.9716680085e-10, rel=1e-9, abs=0)
        assert weak_gravity_ratio(EARTH) <= WEAK_GRAVITY_THRESHOLD

    def test_neutron_star_is_strongly_gravitating(self):
        ns = MaterialSystem(energy=1.4 * 2e33 * CONSTANTS.c**2, radius=1e6)
        assert weak_gravity_ratio(ns) == pytest.approx(0.2079324875, rel=1e-9)
        assert weak_gravity_ratio(ns) > WEAK_GRAVITY_THRESHOLD


class TestHolographicBound:
    def test_disk_sphere(self):
        area = 4 * math.pi * 6.0**2
        limit = holographic_bound(area)
        assert limit == pytest.approx(4.3294486976e67, rel=1e-9)
        assert nats_to_bits(limit) == pytest.approx(6.2460741658e67, rel=1e-9)

    def test_four_planck_areas_is_one_nat(self):
        assert holographic_bound(4 * CONSTANTS.planck_length**2) == \
            pytest.approx(1.0, rel=1e-12)

    def test_hole_saturates_its_own_horizon(self):
        bh = make_black_hole(1e15)
        assert holographic_bound(horizon_area(bh)) == pytest.approx(
            entropy(bh), rel=1e-12)

    def test_rejects_non_positive_area(self):
        with pytest.raises(DomainError):
            holographic_bound(0.0)


class TestUniversalBound:
    def test_disk(self):
        limit = universal_bound(DISK)
        assert limit == pytest.approx(1.7147295950e40, rel=1e-9)
        assert limit == (2.0 * math.pi * DISK.radius * DISK.energy
                         / (CONSTANTS.hbar * CONSTANTS.c))
        assert nats_to_bits(limit) == pytest.approx(2.4738318831e40, rel=1e-9)

    @given(st.floats(min_value=5, max_value=35))
    def test_schwarzschild_hole_saturates(self, log_m):
        bh, sys_ = hole_system(10.0 ** log_m)
        assert universal_bound(sys_) == pytest.approx(entropy(bh), rel=1e-12)

    def test_linear_in_energy(self):
        doubled = MaterialSystem(energy=2 * DISK.energy, radius=DISK.radius)
        assert universal_bound(doubled) == pytest.approx(
            2 * universal_bound(DISK), rel=1e-12)


class TestWeakUniversalBound:
    def test_coefficient_reduction(self):
        # 8 pi nu zeta = 2 pi at nu = 1, zeta = 1/4; zeta < 1 is rejected,
        # so check the coefficient algebra at zeta = 1 (4x the universal).
        assert weak_universal_bound(DISK, nu=1.0, zeta=1.0) == pytest.approx(
            4 * universal_bound(DISK), rel=1e-12)

    def test_coefficient_budget(self):
        # 4 nu zeta stays under 100 for the largest quoted factors
        nu, zeta = 1.64, 10.0
        assert 4 * nu * zeta == pytest.approx(65.6, rel=1e-12)
        assert 4 * nu * zeta < 100
        assert 8 * math.pi * nu * zeta == pytest.approx(412.2, rel=1e-3)

    def test_disk_value(self):
        limit = weak_universal_bound(DISK, nu=1.5, zeta=10.0)
        assert limit == pytest.approx(1.0288377570e42, rel=1e-9)
        assert limit == pytest.approx(60 * universal_bound(DISK), rel=1e-12)

    def test_rejects_zeta_below_one(self):
        with pytest.raises(DomainError):
            weak_universal_bound(DISK, nu=1.5, zeta=0.5)

    @pytest.mark.parametrize("nu", [0.0, -1.0, 0.99, 2.01])
    def test_rejects_nu_outside_one_to_two(self, nu):
        for call in (weak_universal_bound, bound_report):
            with pytest.raises(DomainError,
                               match=rf"nu must lie in \[1, 2\], got {nu}"):
                call(DISK, nu=nu, zeta=10.0)


class TestGourBound:
    def test_boundary(self):
        sys_ = MaterialSystem(energy=CONSTANTS.c * CONSTANTS.hbar, radius=1.0)
        assert gour_bound(sys_) == pytest.approx(1.0, rel=1e-12)

    def test_power_law(self):
        sys_ = MaterialSystem(energy=1e4 * CONSTANTS.c * CONSTANTS.hbar, radius=1.0)
        assert gour_bound(sys_) == pytest.approx(1e3, rel=1e-12)

    def test_disk_tighter_than_universal(self):
        limit = gour_bound(DISK)
        assert limit == pytest.approx(3.7758247716e29, rel=1e-9)
        assert limit < universal_bound(DISK)


class TestBoundReport:
    def test_disk_ordering(self):
        report = bound_report(DISK)
        limits = {e.name: e.limit_nats for e in report.entries}
        assert limits["gour"] < limits["universal"] < limits["holographic"]
        assert report.tightest_applicable == "gour"
        assert all(e.applicable for e in report.entries)

    def test_tightest_is_minimal_applicable(self):
        report = bound_report(DISK)
        applicable = [e for e in report.entries if e.applicable]
        best = min(applicable, key=lambda e: e.limit_nats)
        assert report.tightest_applicable == best.name

    def test_hole_saturation_case(self):
        bh, sys_ = hole_system(1e15)
        report = bound_report(sys_, enclosing_area=horizon_area(bh))
        limits = {e.name: e.limit_nats for e in report.entries}
        assert limits["universal"] == pytest.approx(limits["holographic"], rel=1e-12)
        assert limits["universal"] == pytest.approx(entropy(bh), rel=1e-12)
        flags = {e.name: e.applicable for e in report.entries}
        assert flags["holographic"] and flags["gour"]
        assert not flags["universal"]  # a hole is not weakly gravitating

    def test_violation_flagged(self):
        sys_ = MaterialSystem(energy=DISK.energy, radius=DISK.radius,
                              entropy=1e35)
        report = bound_report(sys_)
        assert "gour" in report.violations
        assert "universal" not in report.violations

    @pytest.mark.parametrize("sys_", [DISK, NUCLEON, EARTH])
    def test_the_holographic_limit_is_that_of_the_area_used(self, sys_):
        def holo(report):
            return {e.name: e.limit_nats for e in report.entries}["holographic"]
        sphere = sphere_area(sys_.radius)
        assert holo(bound_report(sys_)) == holographic_bound(sphere)
        area = 2.0 * sphere
        assert holo(bound_report(sys_, enclosing_area=area)) == holographic_bound(area)

    def test_a_ratio_at_its_threshold_counts_as_met(self):
        # composite from E R/(c hbar) = 10, weak gravity up to G E/(c^4 R) = 1e-2
        flags = {e.name: e.applicable
                 for e in bound_report(at_composite_threshold()).entries}
        assert flags == dict.fromkeys(flags, True)
        weak = at_weak_gravity_threshold()
        report = bound_report(weak)
        assert report.weak_gravity_ratio == WEAK_GRAVITY_THRESHOLD
        assert all(e.applicable for e in report.entries)
        # one float more energy, and the system is no longer weak
        heavier = MaterialSystem(math.nextafter(weak.energy, math.inf), weak.radius)
        flags = {e.name: e.applicable for e in bound_report(heavier).entries}
        assert flags == {"holographic": True, "universal": False,
                         "weak_universal": False, "gour": True}

    def test_universal_below_holographic_at_the_threshold_and_smallest_area(self):
        # uni/holo = 2 G E/(c^4 R) (4 pi R^2 / A) <= 2e-2 / (1 - 1e-12)
        for radius in (1e-5, 1.0, 1e20):
            sys_ = at_weak_gravity_threshold(radius)
            smallest = sphere_area(radius) * (1.0 - 1e-12)
            limits = {e.name: e.limit_nats for e in bound_report(
                sys_, enclosing_area=smallest).entries}
            assert limits["universal"] / limits["holographic"] == pytest.approx(
                2 * WEAK_GRAVITY_THRESHOLD, rel=1e-9)

    def test_geometry_smaller_than_system_rejected(self):
        with pytest.raises(DomainError):
            bound_report(DISK, enclosing_area=1.0)

    @given(st.floats(min_value=1, max_value=30), st.floats(min_value=0, max_value=20))
    def test_universal_below_holographic_for_weak_gravity(self, log_e, log_r):
        sys_ = MaterialSystem(energy=10.0 ** log_e, radius=10.0 ** log_r)
        if weak_gravity_ratio(sys_) > WEAK_GRAVITY_THRESHOLD:
            return
        area = 4 * math.pi * sys_.radius**2
        assert universal_bound(sys_) <= holographic_bound(area)
        # the margin is exactly twice the weak-gravity ratio
        assert universal_bound(sys_) / holographic_bound(area) == pytest.approx(
            2 * weak_gravity_ratio(sys_), rel=1e-12, abs=0)
        # so it holds for every area bound_report accepts, down to the
        # sphere less its 1e-12 slack: uni/holo <= 2 * 1e-2 / (1 - 1e-12)
        smallest = sphere_area(sys_.radius) * (1.0 - 1e-12)
        limits = {e.name: e.limit_nats for e in bound_report(
            sys_, enclosing_area=smallest).entries}
        assert limits["universal"] < limits["holographic"]

    @given(st.floats(min_value=0.1, max_value=10),
           st.floats(min_value=0.1, max_value=10))
    def test_power_law_scalings(self, k_e, k_r):
        scaled = MaterialSystem(energy=k_e * DISK.energy, radius=k_r * DISK.radius)
        assert universal_bound(scaled) == pytest.approx(
            k_e * k_r * universal_bound(DISK), rel=1e-12)
        assert gour_bound(scaled) == pytest.approx(
            (k_e * k_r) ** 0.75 * gour_bound(DISK), rel=1e-12)
        assert holographic_bound(k_r * 100.0) == pytest.approx(
            k_r * holographic_bound(100.0), rel=1e-12)

    def test_monotone_in_arguments(self):
        bigger_e = MaterialSystem(energy=2 * DISK.energy, radius=DISK.radius)
        bigger_r = MaterialSystem(energy=DISK.energy, radius=2 * DISK.radius)
        for bound in (universal_bound, gour_bound):
            assert bound(bigger_e) > bound(DISK)
            assert bound(bigger_r) > bound(DISK)
        assert holographic_bound(2.0) > holographic_bound(1.0)
