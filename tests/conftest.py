import math

import hypothesis
import pytest
from scipy.integrate import solve_ivp

from bhthermo.constants import CONSTANTS
from bhthermo.kerr_newman import horizon_area, make_black_hole, potentials, temperature

hypothesis.settings.register_profile(
    "bhthermo", max_examples=100, deadline=None, derandomize=True)
hypothesis.settings.load_profile("bhthermo")


def _stefan_boltzmann_power(bh):
    """Stefan-Boltzmann emission sigma T^4 [erg s^-1] of one species through
    the horizon sphere 4 pi r_g^2 of a Schwarzschild hole."""
    return (4.0 * math.pi * bh.r_plus**2 * CONSTANTS.sigma_SB
            * (temperature(bh) / CONSTANTS.k_B)**4)


@pytest.fixture
def stefan_boltzmann_power():
    """The independent reference for the Hawking power."""
    return _stefan_boltzmann_power


def _rk_evaporation_time(m0, params, m_end=CONSTANTS.planck_mass):
    """Time [s] for the mass to fall from m0 to m_end, integrated with
    adaptive Runge-Kutta (RK45, rtol 1e-8) on dt/dm = -m^2/K.

    K is probed from Stefan-Boltzmann emission sigma T^4 at the horizon
    sphere of a reference hole, once per species, so this reference shares
    neither the closed form nor its K with ``lifetime``.
    """
    m_ref = 1e15
    power = _stefan_boltzmann_power(make_black_hole(m_ref))
    K = power / CONSTANTS.c**2 * m_ref**2 * params.n_species

    def dt_dm(m, t):
        return (-(m * m) / K,)

    # atol only sets the error scale near t = 0; the answer is ~m0^3/(3K).
    atol = 1e-20 * m0**3 / (3.0 * K)
    sol = solve_ivp(dt_dm, (m0, m_end), (0.0,), method="RK45",
                    rtol=1e-8, atol=atol)
    assert sol.success, sol.message
    return float(sol.y[0][-1])


@pytest.fixture
def rk_evaporation_time():
    """The independent reference for the evaporation clock."""
    return _rk_evaporation_time


def _first_law_residual(bh, dm, dq, dj):
    """Relative closure error of d(mc^2) = Theta dA + Phi dq + Omega dj,
    with the hole's own potentials.

    dA is a central finite difference of the horizon area under the joint
    perturbation (dm, dq, dj), so the residual is O(perturbation^2) for an
    exact first law.  The error is relative to c^2 dm, so dm must not be 0.
    """
    plus = make_black_hole(bh.m + dm, bh.q + dq, bh.j + dj)
    minus = make_black_hole(bh.m - dm, bh.q - dq, bh.j - dj)
    dA = (horizon_area(plus) - horizon_area(minus)) / 2.0
    pots = potentials(bh)
    dE = CONSTANTS.c**2 * dm
    return abs(dE - pots.theta * dA - pots.phi * dq - pots.omega * dj) / abs(dE)


@pytest.fixture
def first_law_residual():
    """The first law's closure, the reference for ``potentials``."""
    return _first_law_residual
