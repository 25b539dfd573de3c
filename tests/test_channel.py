"""Channel capacity bounds: characteristic power, regimes, special limits."""

import math
import random
import sys
from itertools import groupby

import numpy as np
import pytest
from hypothesis import example, given, strategies as st
from scipy.optimize import brentq

from bhthermo import channel as channel_module
from bhthermo.channel import (
    Channel,
    approx_characteristic_power,
    capacity_bound,
    characteristic_power,
    check_channels,
    consistency_check,
    cutoff_powers,
    gsl_rates,
    high_power_rates,
    low_power_rates,
    optimal_xi,
    optimal_xis,
    pendry_capacity,
    regime_columns,
)
from bhthermo.constants import CONSTANTS, LOG2E
from bhthermo.errors import DomainError
from bhthermo.evaporation import EmissionParameters

OPTICAL = 5e-5  # cm


def channel(power, lambda_c=OPTICAL, n_carriers=1.0, nu=1.5, gamma_bar=2.0,
            n_species=1.0):
    return Channel(lambda_c=lambda_c, power=power, n_carriers=n_carriers,
                   emission=EmissionParameters(nu=nu, gamma_bar=gamma_bar,
                                               n_species=n_species))


class TestCharacteristicPower:
    def test_optical_values(self):
        ch = channel(1e-3)
        assert characteristic_power(ch) == pytest.approx(1.5713266101e-2, rel=1e-9)
        assert approx_characteristic_power(OPTICAL) == pytest.approx(
            3.7912075275e-2, rel=1e-9)
        # the round-number form lands within a factor 1.5 of 1/30 erg/s
        assert approx_characteristic_power(OPTICAL) / (1.0 / 30.0) < 1.5
        assert (1.0 / 30.0) / approx_characteristic_power(OPTICAL) < 1.5

    def test_inverse_square_in_cutoff(self):
        assert characteristic_power(channel(0.0, lambda_c=2 * OPTICAL)) == \
            pytest.approx(characteristic_power(channel(0.0)) / 4.0, rel=1e-12, abs=0)

    def test_round_number_coefficient(self):
        # gamma_bar N = 4.8 reproduces the 1e-4 coefficient to within 2%
        coeff = 2.0 * 2.4 / (15360.0 * math.pi)
        assert coeff == pytest.approx(1e-4, rel=2e-2)
        ch = channel(0.0, gamma_bar=2.0, n_species=2.4)
        assert characteristic_power(ch) == pytest.approx(
            approx_characteristic_power(OPTICAL), rel=2e-2)


def two_term(ch, xi):
    """The two-term bound of one channel at size ratio xi: gsl_rates on
    one-point columns."""
    [rate] = gsl_rates((ch.lambda_c,), (ch.power,), (characteristic_power(ch),),
                       ch.emission, (xi,))
    return rate


class TestGslBound:
    def test_zero_power_leaves_constant_term(self):
        ch = channel(0.0)
        p_c = characteristic_power(ch)
        xi = 5.0
        expected = (8 * math.pi * ch.lambda_c / (CONSTANTS.hbar * CONSTANTS.c)
                    * (ch.emission.nu - 1) / xi * p_c * LOG2E)
        assert two_term(ch, xi) == pytest.approx(expected, rel=1e-12)

    def test_nu_one_is_purely_linear(self):
        ch = channel(1e-3, nu=1.0)
        for xi in (1.0, 5.0, 50.0):
            expected = (8 * math.pi * ch.lambda_c * xi * ch.power
                        / (CONSTANTS.hbar * CONSTANTS.c) * LOG2E)
            assert two_term(ch, xi) == pytest.approx(expected, rel=1e-12)

    def test_terms_balance_at_the_optimum(self):
        ch = channel(1e-6)
        p_c = characteristic_power(ch)
        xi = optimal_xi(ch.power, p_c, ch.emission.nu)
        assert xi * ch.power == pytest.approx(
            (ch.emission.nu - 1) * p_c / xi, rel=1e-12, abs=0)


class TestOptimalXi:
    def test_boundary(self):
        assert optimal_xi(0.5 * 1.0, 1.0, 1.5) == pytest.approx(1.0, rel=1e-12)

    def test_square_root(self):
        p_c = 1.0
        assert optimal_xi((1.5 - 1) * p_c / 100, p_c, 1.5) == pytest.approx(
            10.0, rel=1e-12)
        assert optimal_xi(p_c / 200, p_c, 1.5) == pytest.approx(10.0, rel=1e-12)

    def test_degenerate_nu_falls_back_to_floor(self):
        assert optimal_xi(1.0, 1.0, 1.0) == 1.0

    def test_rejects_non_positive_power(self):
        with pytest.raises(DomainError):
            optimal_xi(0.0, 1.0, 1.5)

    def test_matches_numeric_minimization(self):
        # numeric route: root of the centered difference derivative
        ch = channel(1e-6)
        p_c = characteristic_power(ch)
        closed = optimal_xi(ch.power, p_c, ch.emission.nu)

        def slope(xi, h=1e-6):
            return (two_term(ch, xi * (1 + h)) - two_term(ch, xi * (1 - h)))

        numeric = brentq(slope, 1.1, 1e6, xtol=1e-13, rtol=1e-14)
        assert numeric == pytest.approx(closed, rel=1e-8)


def _reference_dispatch(lambda_c, P, p_c, params):
    """The regime dispatch as capacity_bound once wrote it inline, on
    floats: (regime, xi_used, bound) of the channel (lambda_c, P) whose
    characteristic power is p_c."""
    if P == 0.0:
        return "low", None, 0.0
    if P <= p_c / 200.0:
        xi_used = optimal_xi(P, p_c, params.nu)
        if xi_used >= 1.0 and params.nu > 1.0:
            return "low", xi_used, low_power_rates([P], params)[0]
        return "low", 1.0, gsl_rates([lambda_c], [P], [p_c], params, [1.0])[0]
    if P >= p_c / 10.0:
        return "high", 10.0, high_power_rates([lambda_c], [P])[0]
    xi_used = max(optimal_xi(P, p_c, params.nu), 10.0)
    return ("intermediate", xi_used,
            gsl_rates([lambda_c], [P], [p_c], params, [xi_used])[0])


class TestFloatKernels:
    """The bounds run on float kernels now; each must give, bit for bit,
    what its own code gave."""

    @staticmethod
    def old_two_term(ch, xi):
        p = ch.emission
        p_c = (CONSTANTS.c**2 * p.gamma_bar * p.n_species * CONSTANTS.hbar
               / (15360.0 * math.pi * ch.lambda_c**2))
        return (8.0 * math.pi * ch.lambda_c / (CONSTANTS.hbar * CONSTANTS.c)
                * (xi * ch.power + (p.nu - 1.0) / xi * p_c) * LOG2E)

    @staticmethod
    def old_low_power_bound(ch):
        p = ch.emission
        return math.sqrt(math.pi * (p.nu - 1.0) * p.gamma_bar * p.n_species
                         * ch.power / (60.0 * CONSTANTS.hbar)) * LOG2E

    @staticmethod
    def old_high_power_bound(ch, xi):
        return (8.0 * math.pi * xi * ch.lambda_c * ch.power
                / (CONSTANTS.hbar * CONSTANTS.c) * LOG2E)

    channels = st.builds(
        channel, power=st.floats(min_value=0.0, max_value=1e30),
        lambda_c=st.floats(min_value=1e-20, max_value=1e20),
        nu=st.floats(min_value=1.0, max_value=2.0),
        gamma_bar=st.floats(min_value=1e-3, max_value=1e3),
        n_species=st.floats(min_value=1.0, max_value=1e3))

    @given(channels, st.floats(min_value=1.0, max_value=1e6))
    def test_bounds_are_unchanged(self, ch, xi):
        assert two_term(ch, xi) == self.old_two_term(ch, xi)
        assert low_power_rates([ch.power], ch.emission)[0] == self.old_low_power_bound(ch)
        assert high_power_rates([ch.lambda_c], [ch.power])[0] == \
            self.old_high_power_bound(ch, 10.0)

    @pytest.mark.parametrize("args, message", [
        ((0.0, -1.0, 0.5), "cutoff wavelength"),
        ((math.nan, 1.0, 1.0), "cutoff wavelength"),
        ((1.0, -1.0, 0.5), "power"),
        ((1.0, math.inf, 1.0), "power"),
        ((1.0, 1.0, 0.5), "n_carriers"),
        ((1.0, 1.0, math.nan), "n_carriers"),
    ])
    def test_checks_fire_in_field_order(self, args, message):
        lambda_c, power, n_carriers = args
        with pytest.raises(DomainError) as kernel:
            check_channels([lambda_c], [power], n_carriers)
        with pytest.raises(DomainError) as full:
            Channel(*args)
        assert str(kernel.value).startswith(message)
        assert str(kernel.value) == str(full.value)
        assert check_channels([1.0], [0.0], 1.0) is None


class TestRegimeBound:
    P_C = characteristic_power(channel(0.0))
    POWERS = [                  # ascending
        0.0, P_C * 1e-9, P_C / 1000, P_C / 200, P_C / 200 * (1 + 1e-15),
        P_C / 50, P_C / 10 * (1 - 1e-15), P_C / 10, P_C, P_C * 1e9]

    @pytest.mark.parametrize("power", POWERS)
    @pytest.mark.parametrize("nu", [1.0, 1.5, 2.0])
    def test_matches_capacity_bound_bit_for_bit(self, power, nu):
        ch = channel(power, nu=nu)
        expected = _reference_dispatch(ch.lambda_c, power, characteristic_power(ch),
                                       ch.emission)
        report = capacity_bound(ch)
        assert _bits([expected]) == _bits(
            [(report.regime, report.xi_used, report.bound_bits_per_s)])

    @pytest.mark.parametrize("power", POWERS)
    @pytest.mark.parametrize("nu", [1.0, 1.5, 2.0])
    def test_a_sweep_ending_at_the_power_matches_capacity_bound(self, power,
                                                                nu):
        # the run path and the point path share one xi floor, and the
        # sweep's last point, here the given power, sits in any regime
        ch = channel(power, nu=nu)
        powers = [P for P in self.POWERS if P <= power]
        regimes, bounds = one_cutoff_columns(
            ch.lambda_c, powers, characteristic_power(ch), ch.emission)
        reports = [capacity_bound(channel(P, nu=nu)) for P in powers]
        assert list(zip(regimes, map(float.hex, bounds))) == [
            (r.regime, r.bound_bits_per_s.hex()) for r in reports]

    def test_edges_belong_to_the_outer_regimes(self):
        edges = [self.P_C / 200, self.P_C / 10]
        assert [capacity_bound(channel(P)).regime for P in edges] == ["low", "high"]
        assert one_cutoff_columns(OPTICAL, edges, self.P_C,
                                  EmissionParameters())[0] == ["low", "high"]


def _hex(column):
    return [x.hex() for x in column]


def _bits(columns):
    """Columns with every float as its exact hex form, so -0.0 != 0.0."""
    return [[v.hex() if isinstance(v, float) else v for v in column]
            for column in columns]


def one_cutoff_columns(lambda_c, powers, p_c, params):
    """regime_columns of the channels of one cutoff lambda_c, and so one
    characteristic power p_c, at each power in ``powers``: a power sweep,
    which passes its one cutoff and p_c as constant columns."""
    n = len(powers)
    return regime_columns([lambda_c] * n, powers, [p_c] * n, params)


def point_by_point(lambdas, powers, p_cs, params):
    """The reference dispatch point by point, as the columns regime and
    bound."""
    rates = [_reference_dispatch(lambda_c, P, p_c, params)
             for lambda_c, P, p_c in zip(lambdas, powers, p_cs)]
    return [[rate[0] for rate in rates], [rate[2] for rate in rates]]


def reorder(column, order):
    """``column`` (ascending) as is, reversed, or rotated out of order."""
    if order == "descending":
        return column[::-1]
    if order == "shuffled":
        return column[3:] + column[:3]
    return column


#: Emission settings: the default, nu = 1 (no sqrt law), nu just above 1
#: (optimal_xi below XI_MIN in part of the low run) and a large nu.
EMISSIONS = [{}, {"nu": 1.0}, {"nu": 1.0001}, {"nu": 1.003},
             {"nu": 2.0, "gamma_bar": 3.0, "n_species": 7.0}]


class TestColumnForms:
    """Each regime formula's column form, on 20k random channels, gives the
    scalar formula's own arithmetic bit for bit, and the scalar callers
    give the column forms' values."""

    @pytest.mark.parametrize("emission", EMISSIONS)
    def test_rates_are_the_scalar_formulas(self, emission):
        params = EmissionParameters(**emission)
        nu, gamma_bar, n_species = params
        rng = random.Random(20261019)
        n = 20_000
        lambdas = [10.0 ** rng.uniform(-8.0, 2.0) for _ in range(n)]
        powers = [10.0 ** rng.uniform(-20.0, 10.0) for _ in range(n)]
        p_cs = [cutoff_powers([lam], params)[0] for lam in lambdas]
        xis = [10.0 ** rng.uniform(0.0, 6.0) for _ in range(n)]
        hc = CONSTANTS.hbar * CONSTANTS.c
        gsl = gsl_rates(lambdas, powers, p_cs, params, xis)
        assert _hex(gsl) == _hex(
            8.0 * math.pi * lam / (CONSTANTS.hbar * CONSTANTS.c)
            * (xi * P + (nu - 1.0) / xi * p_c) * LOG2E
            for lam, P, p_c, xi in zip(lambdas, powers, p_cs, xis))
        low = low_power_rates(powers, params)
        assert _hex(low) == _hex(
            math.sqrt(math.pi * (nu - 1.0) * gamma_bar * n_species * P
                      / (60.0 * CONSTANTS.hbar)) * LOG2E for P in powers)
        high = high_power_rates(lambdas, powers)
        assert _hex(high) == _hex(8.0 * math.pi * 10.0 * lam * P / hc * LOG2E
                                  for lam, P in zip(lambdas, powers))
        xi_opt = optimal_xis(powers, p_cs, nu)
        assert _hex(xi_opt) == _hex(
            1.0 if nu <= 1.0 else math.sqrt((nu - 1.0) * p_c / P)
            for P, p_c in zip(powers, p_cs))
        assert _hex(map(optimal_xi, powers, p_cs, [nu] * n)) == _hex(xi_opt)

    @pytest.mark.parametrize("emission", EMISSIONS)
    def test_capacity_bound_gives_the_column_forms(self, emission):
        params = EmissionParameters(**emission)
        rng = random.Random(20261020)
        p_c = cutoff_powers([OPTICAL], params)[0]
        for P in (p_c * 10.0 ** rng.uniform(-9.0, 3.0) for _ in range(20_000)):
            report = capacity_bound(Channel(OPTICAL, P, emission=params))
            regime, xi, bound = report.regime, report.xi_used, report.bound_bits_per_s
            if regime == "high":
                expected = high_power_rates([OPTICAL], [P])
            elif regime == "low" and xi != 1.0:
                expected = low_power_rates([P], params)
            else:
                expected = gsl_rates([OPTICAL], [P], [p_c], params, [xi])
            assert [bound.hex()] == _hex(expected)


class TestPowerColumns:
    """The regime runs of a power sweep, one lambda_c and p_c for every
    point, against the reference dispatch point by point, bit for bit,
    regime strings included."""

    @staticmethod
    def per_point(lambda_c, powers, p_c, params):
        n = len(powers)
        return point_by_point([lambda_c] * n, powers, [p_c] * n, params)

    @staticmethod
    def powers(p_c):
        edges = [p_c / 200, p_c / 10]
        return sorted({0.0, p_c * 1e-6, p_c / 1000, p_c / 50, p_c, p_c * 1e6,
                       *edges, *(math.nextafter(e, 0.0) for e in edges),
                       *(math.nextafter(e, math.inf) for e in edges)}) + [
            p_c * 1e6]      # a repeated point keeps the column monotone

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    @pytest.mark.parametrize("emission", EMISSIONS)
    def test_runs_match_the_reference(self, order, emission):
        params = EmissionParameters(**emission)
        lambda_c = OPTICAL
        p_c = cutoff_powers([lambda_c], params)[0]
        powers = reorder([-0.0] + self.powers(p_c), order)
        got = one_cutoff_columns(lambda_c, powers, p_c, params)
        assert _bits(got) == _bits(self.per_point(lambda_c, powers, p_c, params))
        assert set(got[0]) == {"low", "intermediate", "high"}

    @pytest.mark.parametrize("powers", [[], [0.0], [-0.0], [-0.0, 0.0, -0.0],
                                        [1.0], [2.0, 1.0]])
    def test_short_columns(self, powers):
        params = EmissionParameters()
        p_c = cutoff_powers([OPTICAL], params)[0]
        got = one_cutoff_columns(OPTICAL, powers, p_c, params)
        assert _bits(got) == _bits(self.per_point(OPTICAL, powers, p_c, params))

    def test_edges_that_round_to_zero(self):
        # p_c/200 and p_c/10 are both 0: a zero power is still low, any
        # other power high
        params = EmissionParameters()
        powers = [0.0, 0.0, 5e-324, 1.0]
        got = one_cutoff_columns(1.0, powers, 5e-324, params)
        assert _bits(got) == _bits(self.per_point(1.0, powers, 5e-324, params))
        assert got[0] == ["low", "low", "high", "high"]

    def test_zero_power_gives_a_zero_bound(self):
        params = EmissionParameters()
        regimes, bounds = one_cutoff_columns(
            OPTICAL, [-0.0, 0.0, 1e-9], cutoff_powers([OPTICAL], params)[0], params)
        assert regimes[:2] == ["low", "low"]
        assert [b.hex() for b in bounds[:2]] == [(0.0).hex()] * 2

    @given(st.lists(st.floats(min_value=0.0, max_value=1e30), max_size=40),
           st.sampled_from(["sorted", "reversed", "as drawn"]),
           st.floats(min_value=1.0, max_value=2.0),
           st.floats(min_value=1e-6, max_value=1e6))
    def test_any_column_matches_the_reference(self, powers, order, nu, scale):
        params = EmissionParameters(nu=nu)
        p_c = cutoff_powers([OPTICAL], params)[0]
        powers = [P * p_c * scale / 1e15 for P in powers]
        if order != "as drawn":
            powers.sort(reverse=order == "reversed")
        got = one_cutoff_columns(OPTICAL, powers, p_c, params)
        assert _bits(got) == _bits(self.per_point(OPTICAL, powers, p_c, params))


class TestCutoffColumns:
    """A cutoff sweep: the lambda_c column and its p_c column against the
    reference dispatch point by point, bit for bit.  An ascending cutoff column
    has a falling p_c, so at a fixed power P/p_c rises and the runs apply."""

    #: 49 cutoffs from OPTICAL/1000 to 1000 OPTICAL, OPTICAL among them.
    LAMBDAS = [OPTICAL * 10.0 ** (k / 8) for k in range(-24, 25)]

    @pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
    @pytest.mark.parametrize("emission", EMISSIONS)
    @pytest.mark.parametrize("edge, step", [
        (200.0, -1), (200.0, 0), (200.0, 1), (10.0, -1), (10.0, 0), (10.0, 1),
        (50.0, 0), (math.inf, 0)])
    def test_runs_match_the_reference(self, order, emission, edge, step):
        # the fixed power sits at, or one ulp either side of, an edge of
        # OPTICAL's p_c (inf: the zero power)
        params = EmissionParameters(**emission)
        power = cutoff_powers([OPTICAL], params)[0] / edge
        for _ in range(abs(step)):
            power = math.nextafter(power, step * math.inf)
        lambdas = reorder(self.LAMBDAS, order)
        powers = [power] * len(lambdas)
        p_cs = [cutoff_powers([lam], params)[0] for lam in lambdas]
        got = regime_columns(lambdas, powers, p_cs, params)
        assert _bits(got) == _bits(point_by_point(lambdas, powers, p_cs, params))
        assert set(got[0]) == ({"low"} if power == 0.0
                               else {"low", "intermediate", "high"})
        at_optical = got[0][lambdas.index(OPTICAL)]
        assert at_optical == _reference_dispatch(
            OPTICAL, power, cutoff_powers([OPTICAL], params)[0], params)[0]

    @given(st.lists(st.tuples(st.floats(min_value=-3.0, max_value=3.0),
                              st.floats(min_value=0.0, max_value=1e6)),
                    max_size=40),
           st.sampled_from(["rising", "as drawn"]),
           st.floats(min_value=1.0, max_value=2.0))
    def test_any_columns_match_the_reference(self, points, order, nu):
        # both columns vary; "rising" sorts the cutoffs and the powers
        # each ascending, so P rises and p_c falls
        params = EmissionParameters(nu=nu)
        p_c0 = cutoff_powers([OPTICAL], params)[0]
        lambdas = [OPTICAL * 10.0 ** x for x, _ in points]
        powers = [P * p_c0 / 1e4 for _, P in points]
        if order == "rising":
            lambdas.sort()
            powers.sort()
        p_cs = [cutoff_powers([lam], params)[0] for lam in lambdas]
        got = regime_columns(lambdas, powers, p_cs, params)
        assert _bits(got) == _bits(point_by_point(lambdas, powers, p_cs, params))


def _kernel(regime, nu):
    """The column kernel the reference dispatch gives a positive power's
    bound in ``regime``."""
    if regime == "high":
        return "high_power_rates"
    return "low_power_rates" if regime == "low" and nu > 1.0 else "gsl_rates"


@pytest.mark.parametrize("order", ["ascending", "descending", "shuffled"])
@pytest.mark.parametrize("nu", [1.5, 1.0])
@pytest.mark.parametrize("swept", ["power", "lambda_c"])
def test_each_stretch_of_one_run_calls_its_kernel_once(monkeypatch, swept, nu,
                                                       order):
    # An ordered column's runs are found by bisection, any other column's
    # by reading each point's run: either way each stretch of points in one
    # run maps its kernel once, and a zero power calls none.  At nu = 1.5
    # the sqrt law holds in the whole low run, at nu = 1 nowhere.
    params = EmissionParameters(nu=nu)
    p_c = cutoff_powers([OPTICAL], params)[0]
    if swept == "power":
        powers = reorder(TestPowerColumns.powers(p_c), order)
        lambdas, p_cs = [OPTICAL] * len(powers), [p_c] * len(powers)
    else:
        lambdas = reorder(TestCutoffColumns.LAMBDAS, order)
        p_cs = [cutoff_powers([lam], params)[0] for lam in lambdas]
        powers = [p_c / 50] * len(lambdas)
    expected = point_by_point(lambdas, powers, p_cs, params)
    stretches = [(_kernel(regime, nu), len(list(points))) for (regime, zero), points
                 in groupby(zip(expected[0], powers), lambda rp: (rp[0], rp[1] == 0.0))
                 if not zero]
    calls = []

    def spy(name, kernel):
        def counted(*args):
            rates = kernel(*args)
            calls.append((name, len(rates)))
            return rates
        return counted

    for name in ("low_power_rates", "gsl_rates", "high_power_rates"):
        monkeypatch.setattr(channel_module, name,
                            spy(name, getattr(channel_module, name)))
    assert _bits(regime_columns(lambdas, powers, p_cs, params)) == _bits(expected)
    assert calls == stretches
    assert len(stretches) >= 3


def _edges(p_c, nu):
    """p_c/200, p_c/10 and the power (nu - 1) p_c whose optimal xi is
    XI_MIN, each with the floats one ulp either side."""
    return [x for edge in (p_c / 200, p_c / 10, (nu - 1.0) * p_c)
            for x in (math.nextafter(edge, 0.0), edge, math.nextafter(edge, math.inf))]


@given(st.floats(min_value=1.0, max_value=2.0),
       st.lists(st.one_of(st.integers(0, 8), st.floats(min_value=0.0, max_value=1e8)),
                max_size=30),
       st.sampled_from(["ascending", "descending", "as drawn"]))
@example(2.0, [sys.float_info.min], "as drawn")     # xi beyond the float range
# nu near 1 puts the optimal xi's XI_MIN edge in the low run: the sqrt law
# where the optimal xi is XI_MIN or above, the two-term bound at XI_MIN
# below.  There the two agree but for rounding, which at these nu sets them
# apart one ulp below the edge, where the optimal xi still rounds to 1
@example(1.001, [6, 7, 8], "as drawn")
@example(1.0005, [6, 7, 8], "as drawn")
def test_any_order_matches_the_reference_at_the_edges(nu, points, order):
    # a drawn int picks one of the nine edge powers, a float is P in units
    # of p_c/1e4; regime and bound come from regime_columns, and regime,
    # xi and bound from capacity_bound at each point
    params = EmissionParameters(nu=nu)
    p_c = cutoff_powers([OPTICAL], params)[0]
    edges = _edges(p_c, nu)
    powers = [edges[x] if isinstance(x, int) else x * p_c / 1e4 for x in points]
    if order != "as drawn":
        powers.sort(reverse=order == "descending")
    expected = [_reference_dispatch(OPTICAL, P, p_c, params) for P in powers]
    got = one_cutoff_columns(OPTICAL, powers, p_c, params)
    assert _bits(got) == _bits([[e[0] for e in expected], [e[2] for e in expected]])

    def bits(regime, xi, bound):
        return regime, xi if xi is None else xi.hex(), bound.hex()

    def report(P):
        try:
            r = capacity_bound(Channel(OPTICAL, P, emission=params))
        except DomainError as exc:
            return str(exc)
        return bits(r.regime, r.xi_used, r.bound_bits_per_s)

    # a sqrt-law xi beyond the float range is refused, naming the power
    assert list(map(report, powers)) == [
        f"power {P} erg s^-1 puts the sqrt law's optimal xi beyond the float "
        "range" if e[1] == math.inf else bits(*e) for P, e in zip(powers, expected)]



class TestCapacityBound:
    def test_low_power_formula(self):
        ch = channel(1e-10)
        report = capacity_bound(ch)
        assert report.regime == "low"
        assert report.bound_bits_per_s == pytest.approx(1.0165664435e8, rel=1e-9)
        expected = math.sqrt(math.pi * 0.5 * 2.0 * ch.power
                             / (60 * CONSTANTS.hbar)) * LOG2E
        assert report.bound_bits_per_s == pytest.approx(expected, rel=1e-12)

    def test_high_power_formula(self):
        ch = channel(1.5713266101e-2)  # P = p_c
        report = capacity_bound(ch)
        assert report.regime == "high"
        assert report.xi_used == 10.0
        expected = (8 * math.pi * 10.0 * ch.lambda_c * ch.power
                    / (CONSTANTS.hbar * CONSTANTS.c) * LOG2E)
        assert report.bound_bits_per_s == pytest.approx(expected, rel=1e-12)

    def test_regime_dispatch(self):
        p_c = characteristic_power(channel(0.0))
        assert capacity_bound(channel(p_c / 1000)).regime == "low"
        assert capacity_bound(channel(p_c / 50)).regime == "intermediate"
        assert capacity_bound(channel(p_c / 2)).regime == "high"

    def test_zero_power(self):
        report = capacity_bound(channel(0.0))
        assert report.bound_bits_per_s == 0.0
        assert report.xi_used is None

    @pytest.mark.parametrize("power", [1e-320, 5e-324])
    def test_a_power_whose_optimal_xi_overflows_is_refused_naming_it(self, power):
        # the sqrt law's bound is finite there; xi = sqrt((nu-1) p_c / P) is not
        with pytest.raises(DomainError) as exc:
            capacity_bound(channel(power))
        assert str(exc.value) == (f"power {power} erg s^-1 puts the sqrt law's "
                                  "optimal xi beyond the float range")
        regimes, bounds = one_cutoff_columns(
            OPTICAL, [power], characteristic_power(channel(0.0)), EmissionParameters())
        assert regimes == ["low"] and 0.0 < bounds[0] < 1e-140

    def test_reversible_emission_falls_back_to_unit_xi(self):
        # nu = 1 drops the constant term; the constrained optimum over
        # xi >= 1 is the linear bound at xi = 1, never zero
        ch = channel(1e-10, nu=1.0)
        report = capacity_bound(ch)
        assert report.regime == "low"
        assert report.xi_used == 1.0
        assert report.bound_bits_per_s == pytest.approx(
            two_term(ch, 1.0), rel=1e-12)
        assert report.bound_bits_per_s > 0

    def test_edges_differ_by_a_bounded_factor(self):
        # documented discontinuities: none at the low edge (nu = 1.5),
        # a (1 + (nu-1)/10) drop at the high edge; both far under 3x
        p_c = characteristic_power(channel(0.0))
        for edge in (p_c / 200, p_c / 10):
            below = capacity_bound(channel(edge * (1 - 1e-9))).bound_bits_per_s
            above = capacity_bound(channel(edge * (1 + 1e-9))).bound_bits_per_s
            ratio = max(below, above) / min(below, above)
            assert ratio < 3.0
        low_edge_jump = (capacity_bound(channel(p_c / 200 * (1 + 1e-12))).bound_bits_per_s
                         / capacity_bound(channel(p_c / 200)).bound_bits_per_s)
        assert low_edge_jump == pytest.approx(1.0, rel=1e-6)

    def test_monotone_in_power_within_regimes(self):
        p_c = characteristic_power(channel(0.0))
        for grid in (np.geomspace(p_c * 1e-8, p_c / 200, 40),
                     np.geomspace(p_c / 199, p_c / 10.01, 40),
                     np.geomspace(p_c / 10, p_c * 1e6, 40)):
            bounds = [capacity_bound(channel(P)).bound_bits_per_s for P in grid]
            assert all(b2 > b1 for b1, b2 in zip(bounds, bounds[1:]))

    def test_monotone_in_cutoff_within_regimes(self):
        # longer cutoff, more modes: non-decreasing within every regime
        # (the regime-edge drops are the documented bounded jumps)
        P = 1e-6
        lams = np.geomspace(1e-7, 1e2, 120)
        reports = [capacity_bound(channel(P, lambda_c=float(lam)))
                   for lam in lams]
        for r1, r2 in zip(reports, reports[1:]):
            if r1.regime == r2.regime:
                assert r2.bound_bits_per_s >= r1.bound_bits_per_s * (1 - 1e-12)
            else:
                ratio = max(r1.bound_bits_per_s, r2.bound_bits_per_s) / \
                    min(r1.bound_bits_per_s, r2.bound_bits_per_s)
                assert ratio < 3.0
        assert {r.regime for r in reports} == {"low", "intermediate", "high"}

    def test_log_log_slopes(self):
        p_c = characteristic_power(channel(0.0))
        low = np.geomspace(p_c * 1e-9, p_c / 200, 50)
        high = np.geomspace(p_c / 10, p_c * 1e6, 50)
        slope_low = np.polyfit(np.log(low), np.log(
            [capacity_bound(channel(P)).bound_bits_per_s for P in low]), 1)[0]
        slope_high = np.polyfit(np.log(high), np.log(
            [capacity_bound(channel(P)).bound_bits_per_s for P in high]), 1)[0]
        assert slope_low == pytest.approx(0.5, abs=1e-6)
        assert slope_high == pytest.approx(1.0, abs=1e-6)


class TestBremermann:
    """The linear bound is Bremermann's 8 pi xi E / hbar bits per second at
    xi = 10, with E = lambda_c P / c the energy a cutoff wavelength holds."""

    @staticmethod
    def rate(E):
        return high_power_rates([OPTICAL], [E * CONSTANTS.c / OPTICAL])[0]

    def test_unit_energy(self):
        E = CONSTANTS.hbar / (8 * math.pi * 10.0)
        assert self.rate(E) == pytest.approx(LOG2E, rel=1e-12)

    def test_one_erg(self):
        assert self.rate(1.0) == pytest.approx(3.4382562240e29, rel=1e-9)

    @given(st.floats(min_value=1e-12, max_value=1e12))
    def test_linear(self, E):
        assert self.rate(2 * E) == pytest.approx(2 * self.rate(E), rel=1e-12)


class TestPendry:
    def test_zero(self):
        assert pendry_capacity(0.0, 1.0) == 0.0

    def test_unit_argument(self):
        P = 3 * CONSTANTS.hbar / math.pi
        assert pendry_capacity(P, 1.0) == pytest.approx(LOG2E, rel=1e-12)

    def test_milliwatt_scale(self):
        assert pendry_capacity(1e-3, 1.0) == pytest.approx(
            1.4376420515e12, rel=1e-9)

    def test_rejects_bad_inputs(self):
        with pytest.raises(DomainError):
            pendry_capacity(-1.0, 1.0)
        with pytest.raises(DomainError):
            pendry_capacity(1.0, 0.5)


class TestConsistency:
    def test_single_species_monotone(self):
        ch = channel(1e-3, nu=1.64, gamma_bar=2.0, n_species=1.0)
        report = consistency_check(ch)
        assert report.f0_limit == pytest.approx(0.3734898767, rel=1e-9)
        assert report.f_inf == pytest.approx(1.4763483668, rel=1e-9)
        assert report.monotone_ok
        assert not report.caveat_flagged

    def test_many_species_flags_the_caveat(self):
        ch = channel(1e-3, nu=1.64, gamma_bar=2.0, n_species=100.0)
        report = consistency_check(ch)
        assert report.f0_limit == pytest.approx(3.7348987671, rel=1e-9)
        assert not report.monotone_ok
        assert report.caveat_flagged

    def test_nu_near_one_is_always_consistent(self):
        ch = channel(1e-3, nu=1.0 + 1e-9, n_species=100.0)
        report = consistency_check(ch)
        assert report.f0_limit < 1e-3
        assert report.monotone_ok
        assert not report.caveat_flagged

    def test_pendry_dominance_above_the_crossover(self):
        # the linear bound overtakes the cutoff-free capacity somewhat
        # below p_c: at 0.8 n p_c / (gamma_bar N), here 0.4 p_c
        ch = channel(1e-3)
        p_c = characteristic_power(ch)
        report = consistency_check(ch)
        assert report.pendry_crossover_power == pytest.approx(0.4 * p_c, rel=1e-12, abs=0)
        assert report.pendry_crossover_power < p_c
        for P in np.geomspace(report.pendry_crossover_power * 1.001, p_c, 20):
            assert high_power_rates([OPTICAL], [P])[0] >= pendry_capacity(P, 1.0)
        # and with a single carrier against a many-species hole, dominance
        # reaches below p_c/10
        many = channel(1e-3, n_species=10.0)
        report_many = consistency_check(many)
        assert report_many.pendry_crossover_power < characteristic_power(many) / 10

    def test_low_formula_equals_bound_at_optimum(self):
        ch = channel(1e-8)
        p_c = characteristic_power(ch)
        xi = optimal_xi(ch.power, p_c, ch.emission.nu)
        assert low_power_rates([ch.power], ch.emission)[0] == pytest.approx(
            two_term(ch, xi), rel=1e-12)
