"""Seeded inputs of the two workloads and of the library probe.

Every input is drawn from ``random.Random(seed)`` and every expected value
is a closed form from ``reference``, so one seed always yields the same
requests, calls and expectations.  Command-line requests are lists of
arguments for ``python -m bhthermo.cli``; library calls are
(layer, kind, function, arguments, expected) tuples.
"""

from __future__ import annotations

import math
import os
import random

import numpy as np

from checker import FORMATS, Exact, Request, Series
from reference import Reference

SMALL_POINTS = 200          # cli_oneshot keeps evaporate/sweep series small
SERIES_POINTS = 100_000     # cli_series
GEDANKEN_SCENARIOS = ("susskind", "capsule", "infall", "merger")
SWEEP_BH_QUANTITIES = ("r_plus", "area", "entropy", "entropy_bits",
                       "temperature", "temperature_kelvin", "mean_density")
#: Power ranges, as log10(P / P_c), that land in each capacity regime
#: (the edges sit at P_c/200 and P_c/10).
REGIME_RANGES = {"low": (-4.0, -2.4), "intermediate": (-2.2, -1.1),
                 "high": (-0.9, 2.0)}
#: Requests whose outcome the README contract fixes but the program at the
#: benchmark's first commit gets wrong (exit 0 with NaN in the output); they
#: run after the timed loop, see ``workloads.CliWorkload``.
NON_FINITE_PROBE = (
    ["bh", "--mass", "nan"],
    ["channel", "--lambda-c", "5e-05", "--power", "nan"],
    ["bounds", "--mass", "1.0", "--radius", "nan"],
)


def _num(x: float) -> str:
    return repr(float(x))


def _logu(rng: random.Random, lo: float, hi: float) -> float:
    return 10.0 ** rng.uniform(lo, hi)


def system(ref: Reference, comp: float, grav: float) -> tuple[float, float]:
    """(energy, radius) of a system with E R/(c hbar) = comp, G E/(c^4 R) = grav."""
    ch = ref.c * ref.hbar
    energy = math.sqrt(comp * ch * grav * ref.c**4 / ref.G)
    radius = math.sqrt(comp * ch * ref.G / (grav * ref.c**4))
    return energy, radius


def _hole_ratios(rng: random.Random, e_max: float) -> tuple[float, float]:
    """(Q/M, a/M) with (Q^2 + a^2)/M^2 uniform below e_max."""
    r = math.sqrt(rng.uniform(0.0, e_max))
    angle = rng.uniform(0.0, math.pi / 2)
    return r * math.cos(angle), r * math.sin(angle)


class CliPlanner:
    """Builds command-line requests; some pass parameters via ``--input``
    key=value files written into ``work``."""

    def __init__(self, ref: Reference, rng: random.Random, work: str,
                 file_share: float = 0.0):
        self.ref, self.rng, self.work = ref, rng, work
        self.file_share = file_share
        self.files = 0

    def request(self, words, params, fmt, command, spots, series=None) -> Request:
        if params and self.file_share and self.rng.random() < self.file_share:
            path = os.path.join(self.work, f"input{self.files}.cfg")
            self.files += 1
            with open(path, "w") as fh:
                fh.write("# seeded benchmark input\n")
                fh.writelines(f"{k}={v}\n" for k, v in params.items())
            argv = words + ["--input", path]
        else:
            argv = words + [x for k, v in params.items() for x in (f"--{k}", v)]
        return Request(argv + ["--format", fmt], command, fmt, spots=spots,
                       series=series)

    # -- one generator per subcommand ---------------------------------------

    def constants(self, fmt):
        ref = self.ref
        spots = {"values.G": ref.G, "values.c": ref.c, "values.hbar": ref.hbar,
                 "values.k_B": ref.k_B, "values.sigma_SB": ref.sigma_SB,
                 "values.planck_length": ref.planck_length,
                 "values.planck_mass": ref.planck_mass}
        return self.request(["constants"], {}, fmt, "constants", spots)

    def bh(self, fmt, kerr: bool):
        rng, ref = self.rng, self.ref
        m = _logu(rng, -4.0, 40.0)
        params = {"mass": _num(m)}
        if kerr:
            x, y = _hole_ratios(rng, 0.99)
            params.update({"charge-over-m": _num(x), "spin-over-m": _num(y)})
            exp = ref.kerr_newman_ratios(m, x, y)
            names = ("r_plus", "entropy", "temperature", "theta", "phi",
                     "omega", "h1", "h2")
            spots = {f"results.{k}": exp[k] for k in names}
        else:
            exp = ref.schwarzschild(m)
            spots = {f"results.{k}": v for k, v in exp.items()}
            spots.update({"results.h1": 1.0, "results.h2": 1.0})
        spots["inputs.mass_g"] = Exact(m)
        return self.request(["bh"], params, fmt, "bh", spots)

    def evaporate(self, fmt, points):
        rng, ref = self.rng, self.ref
        m0 = _logu(rng, 8.0, 20.0)
        masses = np.linspace(m0, ref.planck_mass, points)
        times = ref.evaporation_time(m0, masses)
        times[0] = 0.0
        spots = {"inputs.mass_g": Exact(m0),
                 "results.lifetime_s": ref.lifetime(m0)}
        return self.request(
            ["evaporate"], {"mass": _num(m0), "points": str(points)}, fmt,
            "evaporate", spots, Series(["t", "mass"], [times, masses]))

    def bounds(self, fmt):
        rng, ref = self.rng, self.ref
        energy, radius = system(ref, _logu(rng, -1.0, 45.0),
                                _logu(rng, -40.0, math.log10(0.3)))
        params = {"energy": _num(energy), "radius": _num(radius)}
        entropy = None
        if rng.random() < 0.5:
            entropy = ref.universal_limit(energy, radius) * _logu(rng, -3.0, 0.5)
            params["entropy"] = _num(entropy)
        exp = ref.bounds(energy, radius, entropy)
        spots = {"inputs.energy": Exact(energy), "inputs.radius": Exact(radius),
                 "results.compositeness": exp["compositeness"],
                 "results.weak_gravity_ratio": exp["weak_gravity_ratio"],
                 "results.tightest_applicable": exp["tightest"],
                 "results.violations": exp["violations"]}
        for name, limit in exp["limits"].items():
            spots[f"bounds.{name}.limit"] = limit
            spots[f"bounds.{name}.applicable"] = exp["applicable"][name]
        return self.request(["bounds"], params, fmt, "bounds", spots)

    def gedanken(self, fmt, scenario):
        params, exp = gedanken_case(self.ref, self.rng, scenario)
        spots = {("ledger." if "." in k else "results.") + k: v
                 for k, v in exp.items()}
        params = {"scenario": scenario, **{k: _num(v) for k, v in params.items()}}
        return self.request(["gedanken"], params, fmt, "gedanken", spots)

    def channel(self, fmt, regime):
        rng, ref = self.rng, self.ref
        lam = _logu(rng, -8.0, 2.0)
        power = ref.characteristic_power(lam) * _logu(rng, *REGIME_RANGES[regime])
        got, bound = ref.capacity(lam, power)
        spots = {"inputs.lambda_c": Exact(lam), "inputs.power": Exact(power),
                 "results.p_c": ref.characteristic_power(lam),
                 "results.regime": got, "results.bound": bound}
        return self.request(["channel"], {"lambda-c": _num(lam), "power": _num(power)},
                            fmt, "channel", spots)

    def sweep_bh(self, fmt, points, quantity=None):
        rng, ref = self.rng, self.ref
        start = _logu(rng, -3.0, 30.0)
        stop = start * _logu(rng, 1.0, 8.0)
        quantity = quantity or rng.choice(SWEEP_BH_QUANTITIES)
        grid = np.geomspace(start, stop, points)
        params = {"param": "mass", "start": _num(start), "stop": _num(stop),
                  "points": str(points), "quantity": quantity}
        return self.request(["sweep", "bh"], params, fmt, "sweep_bh", {},
                            Series(["mass", quantity],
                                   [grid, ref.schwarzschild(grid)[quantity]]))

    def sweep_channel(self, fmt, points, beyond=(0.5, 2.0)):
        """Power sweep straddling both regime edges, P_c/200 and P_c/10, by
        a seeded number of decades in the range ``beyond``."""
        rng, ref = self.rng, self.ref
        lam = _logu(rng, -8.0, 2.0)
        p_c = ref.characteristic_power(lam)
        start = p_c / 200.0 / _logu(rng, *beyond)
        stop = p_c / 10.0 * _logu(rng, *beyond)
        grid = np.geomspace(start, stop, points)
        regime, bound = ref.capacity(lam, grid)
        params = {"param": "power", "start": _num(start), "stop": _num(stop),
                  "points": str(points), "lambda-c": _num(lam)}
        return self.request(
            ["sweep", "channel"], params, fmt, "sweep_channel", {},
            Series(["power", "bound", "regime"], [grid, bound, regime]))

    # -- invalid requests with a contract outcome ---------------------------

    def invalid(self, fmt) -> list[Request]:
        """Finite requests the README contract rejects: exit 1 for a domain
        error, exit 2 for a usage error, with one stderr line."""
        rng, ref = self.rng, self.ref
        m = _logu(rng, 10.0, 30.0)
        e = rng.uniform(1.2, 3.0)
        angle = rng.uniform(0.2, 1.3)
        cases = [
            (["bh", "--mass", _num(ref.planck_mass * _logu(rng, -6.0, -0.5))],
             "bh", 1),
            (["bh", "--mass", _num(m), "--charge-over-m",
              _num(math.sqrt(e) * math.cos(angle)), "--spin-over-m",
              _num(math.sqrt(e) * math.sin(angle))], "bh", 1),
            rng.choice([
                (["bh", "--mass", _num(m), "--spin", "1e+30",
                  "--spin-over-m", "0.5"], "bh", 2),
                (["bounds", "--energy", _num(m), "--mass", _num(m),
                  "--radius", "1.0"], "bounds", 2)]),
            rng.choice([
                (["channel", "--power", _num(_logu(rng, -6.0, 6.0))],
                 "channel", 2),
                (["evaporate", "--points", "10"], "evaporate", 2)]),
        ]
        return [Request(argv + ["--format", fmt], command, fmt, exit=(code,))
                for argv, command, code in cases]


def gedanken_case(ref: Reference, rng: random.Random, scenario: str):
    """(parameters by flag name, expected ledger values) of one scenario."""
    if scenario == "merger":
        m1 = _logu(rng, 10.0, 35.0)
        m2 = m1 * _logu(rng, -3.0, 3.0)
        return {"m1": m1, "m2": m2}, ref.merger(m1, m2)
    if scenario == "capsule":
        m = _logu(rng, 20.0, 35.0)
        b = 2.0 * ref.G * m / ref.c**2 * _logu(rng, -8.0, -1.5)
        mu = m * _logu(rng, -12.0, -3.5)
        s_cap = 2.0 * math.pi * mu * b * ref.c / ref.hbar * _logu(rng, -1.0, 0.3)
        return ({"bh-mass": m, "mu": mu, "b": b, "s-cap": s_cap},
                ref.capsule(mu, b, s_cap))
    if scenario == "susskind":
        # the collapse hole, of mass m_P (comp * grav)^(1/2), must exceed m_P
        log_comp = rng.uniform(2.0, 40.0)
        energy, radius = system(ref, 10.0**log_comp,
                                _logu(rng, max(-30.0, 1.0 - log_comp),
                                      math.log10(0.3)))
        entropy = ref.schwarzschild_entropy(energy / ref.c**2) * _logu(rng, -2.0, 1.0)
        return ({"energy": energy, "radius": radius, "entropy": entropy},
                ref.susskind(energy, entropy))
    energy, radius = system(ref, _logu(rng, 2.0, 40.0), _logu(rng, -30.0, -3.0))
    entropy = ref.universal_limit(energy, radius) * _logu(rng, -2.0, 2.0)
    zeta = _logu(rng, 0.0, 3.0)
    return ({"energy": energy, "radius": radius, "entropy": entropy,
             "zeta": zeta}, ref.infall(energy, radius, entropy, zeta))



def oneshot_cycle(ref: Reference, seed: int, work: str) -> list[Request]:
    """One cycle of cli_oneshot: every subcommand in every format, one
    emitted JSON record re-fed twice, four rejected requests, in seeded
    order."""
    rng = random.Random(seed)
    plan = CliPlanner(ref, rng, work, file_share=1 / 3)
    units: list[list[Request]] = []
    regimes = list(REGIME_RANGES)
    rng.shuffle(regimes)
    for i, fmt in enumerate(FORMATS):
        units += [[plan.constants(fmt)], [plan.bh(fmt, kerr=i == 1)],
                  [plan.evaporate(fmt, SMALL_POINTS)], [plan.bounds(fmt)],
                  [plan.channel(fmt, regimes[i])],
                  [plan.sweep_bh(fmt, SMALL_POINTS)],
                  [plan.sweep_channel(fmt, SMALL_POINTS)]]
    for i, scenario in enumerate(GEDANKEN_SCENARIOS):
        units.append([plan.gedanken(FORMATS[i % 3], scenario)])
    # An emitted JSON record fed back through --input must reproduce itself.
    source = plan.bh("json", kerr=True)
    source.save_as = os.path.join(work, "emitted.json")
    units.append([source] + [
        Request(["bh", "--input", source.save_as, "--format", fmt], "bh", fmt,
                spots=source.spots) for fmt in ("table", "csv")])
    units += [[r] for r in plan.invalid(rng.choice(FORMATS))]
    rng.shuffle(units)
    return [r for unit in units for r in unit]


def series_cycle(ref: Reference, seed: int, work: str) -> list[Request]:
    """One cycle of cli_series: three 100k-point series in every format.

    The seed moves the ranges, not the per-row cost: the bh sweep always
    emits the default quantity (entropy) and the channel sweep always spends
    close to the same share of its rows in each regime, so that a run's
    median request stays the same kind of request from seed to seed."""
    rng = random.Random(seed)
    plan = CliPlanner(ref, rng, work)
    requests = []
    for first in (plan.sweep_bh("table", SERIES_POINTS, quantity="entropy"),
                  plan.sweep_channel("table", SERIES_POINTS, beyond=(0.95, 1.05)),
                  plan.evaporate("table", SERIES_POINTS)):
        requests.append(first)
        for fmt in ("json", "csv"):
            requests.append(Request(first.argv[:-1] + [fmt], first.command, fmt,
                                    spots=first.spots, series=first.series))
    rng.shuffle(requests)
    return requests


# -- library calls, traced by the probe -----------------------------------------

#: Calls of each kind in one probe cycle: "kerr_newman" counts holes (five
#: calls each), "gedanken" rounds of the four scenarios, "domain_errors"
#: rounds of six out-of-domain calls.
LIBRARY_MIX = {"kerr_newman": 40, "bound_report": 24, "capacity_bound": 24,
               "gedanken": 4, "hawking_power": 20, "lifetime": 2,
               "mass_history": 1, "domain_errors": 1}


def library_cycle(api, ref: Reference, seed: int) -> list[tuple]:
    """One cycle of library calls: (layer, kind, function, args, expected).

    ``api`` is the imported ``bhthermo`` package.  Value objects the calls
    take (holes, systems, channels) are built here, in set-up.  A call of
    kind "raises" must raise ``DomainError``."""
    rng = random.Random(seed)
    n = LIBRARY_MIX
    calls = []
    kn = "kerr_newman."
    for _ in range(n["kerr_newman"]):
        m = _logu(rng, -4.0, 40.0)
        q, j = ref.charge_spin(m, *_hole_ratios(rng, 0.999))
        exp = ref.kerr_newman(m, q, j)
        bh = api.make_black_hole(m, q, j)
        calls += [
            (kn + "make_black_hole", "make_black_hole", api.make_black_hole,
             (m, q, j), {"r_plus": exp["r_plus"], "m": m}),
            (kn + "entropy", "entropy", api.entropy, (bh,),
             {"value": exp["entropy"]}),
            (kn + "temperature", "temperature", api.temperature, (bh,),
             {"value": exp["temperature"]}),
            (kn + "potentials", "potentials", api.potentials, (bh,),
             {k: exp[k] for k in ("theta", "phi", "omega")}),
            (kn + "h_factors", "h_factors", api.h_factors, (bh,),
             {"h1": exp["h1"], "h2": exp["h2"]})]
    for _ in range(n["bound_report"]):
        # half the systems sit near the composite / weak-gravity thresholds
        comp = _logu(rng, -1.0, 3.0) if rng.random() < 0.5 else _logu(rng, 3.0, 45.0)
        grav = _logu(rng, -3.0, -1.0) if rng.random() < 0.5 else _logu(rng, -40.0, -3.0)
        energy, radius = system(ref, comp, grav)
        entropy = None
        if rng.random() < 0.5:
            entropy = ref.universal_limit(energy, radius) * _logu(rng, -3.0, 0.5)
        exp = ref.bounds(energy, radius, entropy)
        calls.append(("bounds.bound_report", "bound_report", api.bound_report,
                      (api.MaterialSystem(energy, radius, entropy),),
                      {"compositeness": exp["compositeness"],
                       "weak_gravity_ratio": exp["weak_gravity_ratio"],
                       "tightest": exp["tightest"],
                       "violations": exp["violations"], **exp["limits"]}))
    for i in range(n["capacity_bound"]):
        lam = _logu(rng, -8.0, 2.0)
        regime = tuple(REGIME_RANGES)[i % 3]
        power = ref.characteristic_power(lam) * _logu(rng, *REGIME_RANGES[regime])
        got, bound = ref.capacity(lam, power)
        calls.append(("channel.capacity_bound", "capacity_bound",
                      api.capacity_bound, (api.Channel(lam, power),),
                      {"regime": got, "bound": bound,
                       "p_c": ref.characteristic_power(lam)}))
    for _ in range(n["gedanken"]):
        for scenario in GEDANKEN_SCENARIOS:
            params, exp = gedanken_case(ref, rng, scenario)
            calls.append(_gedanken_call(api, ref, rng, scenario, params, exp))
    for _ in range(n["hawking_power"]):
        m = _logu(rng, -4.0, 40.0)
        calls.append(("evaporation.hawking_power", "hawking_power",
                      api.hawking_power, (api.make_black_hole(m),),
                      {"value": ref.hawking_power(m)}))
    for _ in range(n["lifetime"]):
        m0 = _logu(rng, -3.0, 35.0)
        calls.append(("evaporation.lifetime", "lifetime", api.lifetime, (m0,),
                      {"value": ref.lifetime(m0)}))
    for _ in range(n["mass_history"]):
        m0 = _logu(rng, -3.0, 35.0)
        masses = np.linspace(m0, ref.planck_mass, SMALL_POINTS)
        mid = SMALL_POINTS // 2
        calls.append(("evaporation.mass_history", "mass_history",
                      api.evaporation.mass_history, (m0,),
                      {"points": str(SMALL_POINTS), "t_end": ref.lifetime(m0),
                       "t_mid": ref.evaporation_time(m0, float(masses[mid])),
                       "m_mid": float(masses[mid]), "m_end": ref.planck_mass}))
    for _ in range(n["domain_errors"]):
        calls += _domain_error_calls(api, ref, rng)
    rng.shuffle(calls)
    return calls


def _gedanken_call(api, ref, rng, scenario, p, exp):
    layer = f"gedanken.{scenario}"
    if scenario == "merger":
        args = (api.make_black_hole(p["m1"]), api.make_black_hole(p["m2"]))
        return layer, scenario, api.merger, args, exp
    if scenario == "capsule":
        # the host may spin and carry charge: the GSL cap does not depend on it
        host = api.make_black_hole(
            p["bh-mass"], *ref.charge_spin(p["bh-mass"], *_hole_ratios(rng, 0.9)))
        return (layer, scenario, api.capsule_lowering,
                (host, p["mu"], p["b"], p["s-cap"]), exp)
    system = api.MaterialSystem(p["energy"], p["radius"], p["entropy"])
    if scenario == "susskind":
        area = 4.0 * math.pi * p["radius"]**2 * _logu(rng, 0.0, 1.0)
        return layer, scenario, api.susskind_collapse, (system, area), exp
    exp = {k: v for k, v in exp.items() if k != "verdict"}
    return layer, scenario, api.infall_experiment, (system, p["zeta"]), exp


def _domain_error_calls(api, ref, rng) -> list[tuple]:
    """Finite out-of-domain inputs the library must reject with DomainError."""
    m = _logu(rng, 10.0, 30.0)
    M = ref.G * m / ref.c**2
    e = math.sqrt(rng.uniform(1.2, 3.0))
    energy, radius = system(ref, _logu(rng, 2.0, 30.0), _logu(rng, -20.0, -3.0))
    cases = [
        ("kerr_newman.make_black_hole", api.make_black_hole,
         (ref.planck_mass * _logu(rng, -6.0, -0.5),)),
        ("kerr_newman.make_black_hole", api.make_black_hole,
         (m, *ref.charge_spin(m, e, 0.0))),
        ("bounds.bound_report", api.bound_report,
         (api.MaterialSystem(energy, radius),
          2.0 * math.pi * radius**2 * rng.uniform(0.1, 0.9))),
        ("evaporation.lifetime", api.lifetime,
         (ref.planck_mass * _logu(rng, -3.0, -0.1),)),
        ("gedanken.capsule", api.capsule_lowering,
         (api.make_black_hole(m), 1.0, 2.0 * M * _logu(rng, -0.9, 1.0), 1.0)),
        ("gedanken.merger", api.merger,
         (api.make_black_hole(m, *ref.charge_spin(m, 0.5, 0.0)),
          api.make_black_hole(m))),
    ]
    return [(layer, "raises", func, args, None) for layer, func, args in cases]
