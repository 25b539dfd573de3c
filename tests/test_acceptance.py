"""Acceptance suite: the published numeric anchors and global properties.

Each test prints one PASS/FAIL line (run with `pytest -s` to see them all)
and enforces its stated tolerance.
"""

import math
import time

import numpy as np
import pytest
from scipy.optimize import brentq

from bhthermo.bounds import MaterialSystem, holographic_bound, universal_bound
from bhthermo.channel import (
    Channel,
    approx_characteristic_power,
    capacity_bound,
    characteristic_power,
    consistency_check,
    gsl_rates,
    optimal_xi,
)
from bhthermo.constants import CONSTANTS, nats_to_bits
from bhthermo.evaporation import EmissionParameters, hawking_power, lifetime
from bhthermo.gedanken import merger
from bhthermo.kerr_newman import (
    entropy,
    horizon_area,
    make_black_hole,
    mean_density,
    temperature,
)

PHOTON = EmissionParameters(nu=1.5, gamma_bar=2.0, n_species=1.0)


def check(ok: bool, label: str) -> None:
    print(f"{'PASS' if ok else 'FAIL'} {label}")
    assert ok, label


def rel_err(value, anchor):
    return abs(value - anchor) / abs(anchor)


def test_criterion_01_schwarzschild_radius():
    r_g = make_black_hole(1e15).r_plus
    err = rel_err(r_g, 1.49e-13)
    check(err < 5e-3,
          f"criterion 1: r_g(1e15 g) = {r_g:.4e} cm vs 1.49e-13 ({err:.2%})")


def test_criterion_02_mean_density():
    rho = mean_density(1e15)
    err = rel_err(rho, 7.33e52)
    check(err < 1e-2,
          f"criterion 2: rho(1e15 g) = {rho:.4e} g/cm^3 vs 7.33e52 ({err:.2%})")


def test_criterion_03_entropy_anchor():
    S = entropy(make_black_hole(1e15))
    err = rel_err(S, 2.65e40)
    check(err < 5e-3,
          f"criterion 3: S(1e15 g) = {S:.4e} nats vs 2.65e40 ({err:.2%})")


def test_criterion_04_temperature_anchor():
    T = temperature(make_black_hole(1e15)) / CONSTANTS.k_B
    err = rel_err(T, 1.23e11)
    check(err < 5e-3,
          f"criterion 4: T(1e15 g) = {T:.4e} K vs 1.23e11 ({err:.2%})")


def test_criterion_05_mass_loss_anchor():
    # per species: the power at gamma_bar * N = 1, over c^2
    unit = EmissionParameters(gamma_bar=1.0, n_species=1.0)
    rate = hawking_power(make_black_hole(1e15), unit) / CONSTANTS.c**2
    err = rel_err(rate, 4.02e-6)
    check(err < 1.5e-2,
          f"criterion 5: |dm/dt|(1e15 g) = {rate:.4e} g/s vs 4.02e-6 ({err:.2%})")


def test_criterion_06_lifetime(rk_evaporation_time):
    t0 = time.time()
    t = lifetime(1e15, PHOTON)
    runtime = time.time() - t0
    err_rk = rel_err(t, rk_evaporation_time(1e15, PHOTON))
    err_anchor = rel_err(t, 8.3e19)
    err_frozen = rel_err(t, 8.4114779049e19)
    check(err_rk < 1e-6 and err_anchor < 2e-2 and err_frozen < 1e-6
          and runtime < 1.0,
          f"criterion 6: lifetime(1e15 g) = {t:.4e} s "
          f"(vs RK45 {err_rk:.1e}, vs 8.3e19 {err_anchor:.2%}, "
          f"{runtime * 1e3:.2f} ms)")


def test_criterion_07_saturation_identity():
    rng = np.random.default_rng(42)
    worst = 0.0
    for _ in range(100):
        m = 10.0 ** rng.uniform(1, 35)
        bh = make_black_hole(m)
        sys_ = MaterialSystem(energy=m * CONSTANTS.c**2, radius=bh.r_plus)
        worst = max(worst, rel_err(universal_bound(sys_), entropy(bh)))
    check(worst < 1e-12,
          f"criterion 7: universal bound saturation on 100 random holes, "
          f"worst rel err {worst:.1e}")


def test_criterion_08_compact_disk_orders():
    disk = MaterialSystem(energy=16 * CONSTANTS.c**2, radius=6.0)
    holo_bits = nats_to_bits(holographic_bound(4 * math.pi * 6.0**2))
    uni_bits = nats_to_bits(universal_bound(disk))
    orders = math.log10(holo_bits / uni_bits)
    check(1e67 <= holo_bits <= 1e69
          and 10**39.5 <= uni_bits <= 10**40.5
          and 27.0 <= orders <= 29.0,
          f"criterion 8: disk capacities holo {holo_bits:.2e} bits, "
          f"universal {uni_bits:.2e} bits, separated by {orders:.2f} orders")


def test_criterion_09_first_law_residual(first_law_residual):
    rng = np.random.default_rng(9)
    worst = 0.0
    for _ in range(100):
        m = 10.0 ** rng.uniform(5, 30)
        x, y = rng.uniform(0, 0.7, 2)
        if x * x + y * y > 0.9:
            continue
        M = CONSTANTS.G * m / CONSTANTS.c**2
        q = x * M * CONSTANTS.c**2 / math.sqrt(CONSTANTS.G)
        j = y * M * m * CONSTANTS.c
        bh = make_black_hole(m, q, j)
        scale = rng.uniform(0.1, 1.0) * 1e-6
        res = first_law_residual(
            bh, scale * m,
            scale * M * CONSTANTS.c**2 / math.sqrt(CONSTANTS.G),
            scale * M * m * CONSTANTS.c)
        worst = max(worst, res)
    check(worst < 1e-5,
          f"criterion 9: first-law residual on 100 random holes, "
          f"worst {worst:.1e}")


def test_criterion_10_area_theorem_and_doubling():
    rng = np.random.default_rng(10)
    merger_ok = True
    for _ in range(10**4):
        m1, m2 = 10.0 ** rng.uniform(0, 30, 2)
        bh1, bh2 = make_black_hole(m1), make_black_hole(m2)
        final = make_black_hole(m1 + m2)
        if horizon_area(final) < horizon_area(bh1) + horizon_area(bh2):
            merger_ok = False
            break
    # Doubling the hole means doubling each length scale (M, Q, a); since
    # a = j/(mc), that is (2m, 2q, 4j).  The literal (2m, 2q, 2j) leaves a
    # unchanged and is exact only for spinless holes, also checked.
    worst = 0.0
    for _ in range(100):
        m = 10.0 ** rng.uniform(5, 30)
        x, y = rng.uniform(0, 0.6, 2)
        M = CONSTANTS.G * m / CONSTANTS.c**2
        bh = make_black_hole(m, x * M * CONSTANTS.c**2 / math.sqrt(CONSTANTS.G),
                             y * M * m * CONSTANTS.c)
        doubled = make_black_hole(2 * bh.m, 2 * bh.q, 4 * bh.j)
        worst = max(worst, rel_err(horizon_area(doubled), 4 * horizon_area(bh)))
        worst = max(worst, rel_err(entropy(doubled), 4 * entropy(bh)))
        spinless = make_black_hole(bh.m, bh.q)
        literal = make_black_hole(2 * bh.m, 2 * bh.q)
        worst = max(worst, rel_err(horizon_area(literal),
                                   4 * horizon_area(spinless)))
    check(merger_ok and worst < 1e-12,
          f"criterion 10: area theorem on 1e4 mergers, doubling quadruples "
          f"area/entropy (worst rel err {worst:.1e})")


def test_criterion_11_optical_characteristic_power():
    p_c = approx_characteristic_power(5e-5)
    factor = max(p_c / (1.0 / 30.0), (1.0 / 30.0) / p_c)
    check(factor < 1.5,
          f"criterion 11: optical P_c = {p_c:.4e} erg/s, "
          f"within factor {factor:.3f} of 1/30")


def test_criterion_12_channel_scaling():
    ch0 = Channel(lambda_c=5e-5, power=1e-3, emission=PHOTON)
    p_c = characteristic_power(ch0)

    def bound(P):
        return capacity_bound(
            Channel(lambda_c=5e-5, power=P, emission=PHOTON)).bound_bits_per_s

    low = np.geomspace(p_c * 1e-9, p_c / 200, 60)
    high = np.geomspace(p_c / 10, p_c * 1e7, 60)
    slope_low = np.polyfit(np.log(low), np.log([bound(P) for P in low]), 1)[0]
    slope_high = np.polyfit(np.log(high), np.log([bound(P) for P in high]), 1)[0]

    P_test = p_c / 1e4
    closed = optimal_xi(P_test, p_c, PHOTON.nu)

    def bound_at(xi):   # the two-term bound on one-point columns
        return gsl_rates((5e-5,), (P_test,), (p_c,), PHOTON, (xi,))[0]

    def slope_fn(xi):
        return bound_at(xi * (1 + 1e-6)) - bound_at(xi * (1 - 1e-6))

    numeric = brentq(slope_fn, 1.1, 1e7, xtol=1e-13, rtol=1e-14)
    xi_err = rel_err(numeric, closed)
    check(abs(slope_low - 0.5) < 1e-3 and abs(slope_high - 1.0) < 1e-3
          and xi_err < 1e-8,
          f"criterion 12: log-log slopes {slope_low:.6f} (low) / "
          f"{slope_high:.6f} (high), xi* numeric vs closed rel {xi_err:.1e}")


def test_criterion_13_species_caveat_threshold():
    flags = {}
    for N in range(1, 101):
        ch = Channel(lambda_c=5e-5, power=1e-3, n_carriers=1.0,
                     emission=EmissionParameters(nu=1.64, gamma_bar=2.0,
                                                 n_species=float(N)))
        flags[N] = consistency_check(ch).caveat_flagged
    first_flagged = min(N for N, f in flags.items() if f)
    ok = (all(not flags[N] for N in range(1, first_flagged))
          and all(flags[N] for N in range(first_flagged, 101))
          and first_flagged == 21)
    check(ok, f"criterion 13: caveat activates at N = {first_flagged} "
              "(above 20) and never below")
