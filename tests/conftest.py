import hypothesis
import pytest
from scipy.integrate import solve_ivp

from bhthermo.constants import CONSTANTS
from bhthermo.evaporation import mass_loss_rate

hypothesis.settings.register_profile(
    "bhthermo", max_examples=100, deadline=None, derandomize=True)
hypothesis.settings.load_profile("bhthermo")


def _rk_evaporation_time(m0, params, m_end=CONSTANTS.planck_mass):
    """Time [s] for the mass to fall from m0 to m_end, integrated with
    adaptive Runge-Kutta (RK45, rtol 1e-8) on dt/dm = -m^2/K.

    K is probed from ``mass_loss_rate``, so this reference shares neither
    the closed form nor its K with ``lifetime``.
    """
    m_ref = 1e15
    K = -mass_loss_rate(m_ref) * m_ref**2 * params.n_species

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
