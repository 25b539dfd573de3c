"""Closed forms the checker compares the program's outputs against.

Every value is written out here from the frozen constants in
``bhthermo.constants.CONSTANTS``; nothing calls a function under
measurement.  Units are Gaussian CGS, entropies in nats, temperatures as
energies, as in the package itself.
"""

from __future__ import annotations

import math

import numpy as np

LOG2E = 1.0 / math.log(2.0)

#: Defaults the command line documents (README, ``--help``).
NU = 1.5
GAMMA_BAR = 2.0
N_SPECIES = 1.0
ZETA = 10.0
COMPOSITE = 10.0
WEAK_GRAVITY = 1e-2
XI_FLOOR = 10.0
EPS_LEDGER = 1e-9


class Reference:
    def __init__(self, constants):
        self.G = constants.G
        self.c = constants.c
        self.hbar = constants.hbar
        self.k_B = constants.k_B
        self.planck_mass = math.sqrt(self.hbar * self.c / self.G)
        self.planck_length = math.sqrt(self.G * self.hbar / self.c**3)
        self.sigma_SB = (math.pi**2 * self.k_B**4
                         / (60.0 * self.hbar**3 * self.c**2))

    # -- Kerr-Newman --------------------------------------------------------

    def kerr_newman(self, m: float, q: float = 0.0, j: float = 0.0) -> dict:
        G, c, hbar = self.G, self.c, self.hbar
        M = G * m / c**2
        Q = math.sqrt(G) * q / c**2
        a = j / (m * c)
        r = M + math.sqrt(M * M - Q * Q - a * a)
        w2 = r * r + a * a
        area = 4.0 * math.pi * w2
        S = math.pi * w2 * c**3 / (G * hbar)
        T = hbar * c * (r - M) / (2.0 * math.pi * w2)
        return {"r_plus": r, "entropy": S, "temperature": T,
                "theta": c**4 * (r - M) / (2.0 * G * area),
                "phi": q * r / w2, "omega": j / (m * w2),
                "h1": S / self.schwarzschild_entropy(m),
                "h2": T / self.schwarzschild_temperature(m)}

    def charge_spin(self, m: float, x: float, y: float) -> tuple[float, float]:
        """(q [esu], j [erg s]) of a hole of mass m with Q/M = x and a/M = y,
        as ``bh --charge-over-m x --spin-over-m y`` converts them."""
        M = self.G * m / self.c**2
        return x * M * self.c**2 / math.sqrt(self.G), y * M * m * self.c

    def kerr_newman_ratios(self, m: float, x: float, y: float) -> dict:
        return self.kerr_newman(m, *self.charge_spin(m, x, y))

    def schwarzschild_entropy(self, m: float) -> float:
        return 4.0 * math.pi * self.G * m * m / (self.hbar * self.c)

    def schwarzschild_temperature(self, m: float) -> float:
        return self.hbar * self.c**3 / (8.0 * math.pi * self.G * m)

    def schwarzschild(self, m: float) -> dict:
        """Every ``sweep bh`` quantity of a Schwarzschild hole of mass m
        (elementwise for an array of masses)."""
        G, c = self.G, self.c
        S = self.schwarzschild_entropy(m)
        T = self.schwarzschild_temperature(m)
        return {"r_plus": 2.0 * G * m / c**2,
                "area": 16.0 * math.pi * G**2 * m * m / c**4,
                "entropy": S, "entropy_bits": S * LOG2E,
                "temperature": T, "temperature_kelvin": T / self.k_B,
                "mean_density": 3.0 * c**6 / (32.0 * math.pi * G**3 * m * m)}

    # -- evaporation --------------------------------------------------------

    def loss_constant(self, n_species: float = N_SPECIES) -> float:
        """K in dm/dt = -K / m^2."""
        return (n_species * self.hbar * self.c**4
                / (15360.0 * math.pi * self.G**2))

    def evaporation_time(self, m0: float, m: float) -> float:
        """Time for a hole to shrink from m0 to m: (m0^3 - m^3) / (3 K),
        elementwise for an array m."""
        return (m0**3 - m**3) / (3.0 * self.loss_constant())

    def lifetime(self, m0: float) -> float:
        return self.evaporation_time(m0, self.planck_mass)

    def hawking_power(self, m: float) -> float:
        return (GAMMA_BAR * N_SPECIES * self.hbar * self.c**6
                / (15360.0 * math.pi * self.G**2 * m * m))

    # -- channel capacity ---------------------------------------------------

    def characteristic_power(self, lambda_c: float) -> float:
        return (self.c**2 * GAMMA_BAR * N_SPECIES * self.hbar
                / (15360.0 * math.pi * lambda_c**2))

    def capacity(self, lambda_c: float, power):
        """(regime, bound [bit/s]) of the GSL channel bound at default species,
        elementwise when ``power`` is an array."""
        power = np.asarray(power, dtype=float)
        p_c = self.characteristic_power(lambda_c)
        k = 8.0 * math.pi * lambda_c / (self.hbar * self.c) * LOG2E
        low, high = power <= p_c / 200.0, power >= p_c / 10.0
        xi = np.maximum(np.sqrt((NU - 1.0) * p_c / power), XI_FLOOR)
        bound = np.where(
            low, np.sqrt(math.pi * (NU - 1.0) * GAMMA_BAR * N_SPECIES * power
                         / (60.0 * self.hbar)) * LOG2E,
            np.where(high, k * XI_FLOOR * power,
                     k * (xi * power + (NU - 1.0) * p_c / xi)))
        regime = np.where(low, "low", np.where(high, "high", "intermediate"))
        if regime.ndim == 0:
            return str(regime), float(bound)
        return regime, bound

    # -- entropy bounds -----------------------------------------------------

    def universal_limit(self, energy: float, radius: float) -> float:
        return 2.0 * math.pi * radius * energy / (self.hbar * self.c)

    def bounds(self, energy: float, radius: float,
               entropy: float | None = None) -> dict:
        G, c, hbar = self.G, self.c, self.hbar
        comp = energy * radius / (c * hbar)
        grav = G * energy / (c**4 * radius)
        composite = comp >= COMPOSITE
        matter = composite and grav <= WEAK_GRAVITY
        limits = {
            "holographic": math.pi * radius**2 * c**3 / (G * hbar),
            "universal": self.universal_limit(energy, radius),
            "weak_universal": 8.0 * math.pi * NU * ZETA * radius * energy
            / (c * hbar),
            "gour": comp**0.75,
        }
        applicable = {"holographic": True, "universal": matter,
                      "weak_universal": matter, "gour": composite}
        usable = [n for n in limits if applicable[n]]
        violations = [n for n in usable if entropy is not None
                      and entropy > limits[n] * (1.0 + 1e-12)]
        return {"compositeness": comp, "weak_gravity_ratio": grav,
                "limits": limits, "applicable": applicable,
                "tightest": min(usable, key=limits.__getitem__),
                "violations": ";".join(violations) or "none"}

    # -- thought experiments ------------------------------------------------

    @staticmethod
    def verdict(*flows: float) -> str:
        delta = sum(flows)
        scale = max(abs(f) for f in flows)
        return "satisfied" if delta >= -EPS_LEDGER * scale else "violated"

    def merger(self, m1: float, m2: float) -> dict:
        s1, s2 = self.schwarzschild_entropy(m1), self.schwarzschild_entropy(m2)
        s12 = self.schwarzschild_entropy(m1 + m2)
        return {"hole_1.before": s1, "hole_2.before": s2,
                "merged_hole.after": s12,
                "delta_total": 8.0 * math.pi * self.G * m1 * m2
                / (self.hbar * self.c),
                "verdict": self.verdict(-s1, -s2, s12)}

    def capsule(self, mu: float, b: float, s_cap: float) -> dict:
        gain = 2.0 * math.pi * mu * b * self.c / self.hbar
        return {"black_hole_gain.after": gain, "capsule.before": s_cap,
                "delta_total": gain - s_cap,
                "verdict": self.verdict(gain, -s_cap)}

    def susskind(self, energy: float, entropy: float) -> dict:
        s_hole = self.schwarzschild_entropy(energy / self.c**2)
        return {"black_hole.after": s_hole, "system.before": entropy,
                "delta_total": s_hole - entropy,
                "verdict": self.verdict(-entropy, s_hole)}

    def infall(self, energy: float, radius: float, entropy: float,
               zeta: float) -> dict:
        m_hole = zeta * radius * self.c**2 / self.G
        radiated = NU * energy / self.schwarzschild_temperature(m_hole)
        return {"hawking_radiation.after": radiated, "system.before": entropy,
                "delta_total": radiated - entropy}
