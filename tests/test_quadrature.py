import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scipy import integrate as sci_integrate

from kinterp import quadrature, weights
from kinterp.holmstedt import HolmstedtCase, HypothesisError, equivalence_scan
from kinterp.norms import SpaceSpec, _segment_adaptive, space_norm
from kinterp.profiles import KProfile, parse_profile
from kinterp.quadrature import (
    AT_ZERO,
    DivergentIntegralError,
    GridSpec,
    IntegralOverflowError,
    LogTerm,
    cell_integrals,
    exp_pow_integral,
    golden_min,
    integrate_terms,
    power_integral,
    running_sums,
    sup_terms,
    term_memo,
    term_value,
)
from kinterp.weights import One, _weight_terms, parse_weight, tail_qnorm

INF = math.inf


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(1.0, 0.5)
    with pytest.raises(ValueError):
        GridSpec(points_per_decade=4)
    g = GridSpec(1e-2, 1e2, 10)
    pts = g.points()
    assert pts[0] == pytest.approx(1e-2) and pts[-1] == pytest.approx(1e2)


def test_weight_tail_closed_form(w_l02):
    res = integrate_terms(_weight_terms(w_l02, 1, math.e, INF))
    assert res.value == pytest.approx(0.5, rel=1e-12)
    assert res.error_bound < 1e-9


def test_log_divergence_flagged():
    res = integrate_terms(_weight_terms(One(), 1, 0.0, 1.0))
    assert res.value == INF
    assert res.divergent_end == AT_ZERO


@pytest.mark.parametrize("a,beta,x1,x2", [
    (-1.5, -2.3, 0.2, 3.0),
    (-0.7, 1.8, 0.0, INF),
    (2.0, -3.5, 0.5, 4.0),
    (-2.5, -0.4, 1.0, INF),
])
def test_exp_pow_against_mpmath(a, beta, x1, x2):
    got, _ = exp_pow_integral(a, beta, x1, x2)
    hi = x2 if x2 != INF else mpmath.inf
    want = float(mpmath.quad(lambda x: mpmath.e ** (a * x) * (1 + x) ** beta,
                             [x1, hi]))
    assert got == pytest.approx(want, rel=1e-9)


def _mp_power_integral(beta, x1, x2):
    """int_{x1}^{x2} (1+x)^beta dx in 50-digit mpmath, by its antiderivative."""
    with mpmath.workdps(50):
        s, t1 = mpmath.mpf(beta) + 1, 1 + mpmath.mpf(x1)
        if x2 == INF:
            return -t1 ** s / s
        t2 = 1 + mpmath.mpf(x2)
        return mpmath.log(t2 / t1) if s == 0 else (t2 ** s - t1 ** s) / s


def test_power_integral_error_bound_covers_the_cancellation():
    # a = 0 segments with beta in (-300, 300), x1 in [0, 5] and widths of
    # 30 {1, 1e-3, 1e-6} U: (1+x2)^s - (1+x1)^s cancels on narrow ones, so
    # a flat 4e-16 |value| fails about half of them, as it does at
    # beta = -11.4869..., where the error is 6.2e-9 relative.  Plus the
    # log1p form (beta = -1), the one-power form (x2 = inf) and the route
    # by logs where (1+x2)^s leaves the float range
    rng = np.random.default_rng(20261020)
    draws = [(-11.486939902361655, 3.7478607178004246, 3.7478607795158205)]
    for i in range(2000):
        beta, x1 = rng.uniform(-300.0, 300.0), rng.uniform(0.0, 5.0)
        draws.append((beta, x1, x1 + 30.0 * (1.0, 1e-3, 1e-6)[i % 3]
                      * rng.uniform()))
    for i in range(200):
        x1, x2 = rng.uniform(0.0, 5.0), rng.uniform(5.0, 35.0)
        draws += [(-1.0, x1, x1 + 30.0 * (1.0, 1e-3, 1e-6)[i % 3]
                   * rng.uniform()),
                  (rng.uniform(-300.0, -1.0), x1, INF),
                  ((709.79 + 4.0 * rng.uniform()) / math.log1p(x2) - 1.0,
                   rng.uniform(0.0, x2) if i % 2 else x2 * (1.0 - 1e-6
                                                           * rng.uniform()),
                   x2)]
    overflows = 0
    for beta, x1, x2 in draws:
        beta, x1, x2 = float(beta), float(x1), float(x2)
        want = _mp_power_integral(beta, x1, x2)
        if abs(want) > sys.float_info.max:
            with pytest.raises(IntegralOverflowError):
                exp_pow_integral(0.0, beta, x1, x2)
            overflows += 1
            continue
        got, err = exp_pow_integral(0.0, beta, x1, x2)
        assert abs(got - want) <= err, (beta, x1, x2)
    assert overflows < len(draws) // 4


def _mp_gamma_tail(a, beta, x1):
    """int_{x1}^inf e^{a x} (1+x)^beta dx, a < 0, in 40-digit mpmath:
    e^{-a} (-a)^{-s} Gamma(s, -a (1+x1)) with s = beta + 1."""
    with mpmath.workdps(40):
        a, s, x1 = mpmath.mpf(a), mpmath.mpf(beta) + 1, mpmath.mpf(x1)
        return mpmath.exp(-a) * (-a) ** -s * mpmath.gammainc(s, -a * (1 + x1))


@pytest.mark.parametrize("a,beta,x1,want", [
    (-2.0, 200.0, 600.0, 2.5086297570797576e34),  # Gamma(201) overflows
    (-800.0, 0.5, 0.0, 1.2507807626314288e-3),    # e^800 overflows
    # (-a)^-s underflows to 0.0, and Q(51, 1000) does
    (-474.94231551776346, 120.09275578751833, 0.019147995492839055,
     3.0654121542089657e-6),
    (-0.01, 50.0, 1e5, 5.345488538713765e-183),
])
def test_gamma_tail_whose_factors_leave_the_float_range(a, beta, x1, want):
    got, err = exp_pow_integral(a, beta, x1, INF)
    assert abs(got - want) <= 1e-13 * want
    assert abs(got - float(_mp_gamma_tail(a, beta, x1))) <= err


def test_gamma_tail_at_the_ends_of_the_float_range():
    # below the float range the integral still reads 0.0: e^{-x1} at
    # x1 = 1e308, and z = -a (1+x1) itself beyond the float range
    assert exp_pow_integral(-1.0, 0.5, 1e308, INF) == (0.0, 0.0)
    assert exp_pow_integral(-1e308, 0.5, 10.0, INF) == (0.0, 0.0)
    # s = z + 1 = N + 1 with N = 1e300: the logs are of size 1e302, and the
    # integral e^N N^-(N+1) Gamma(N+1, N) is sqrt(pi / (2N)) (1 + O(N^-1/2))
    got, _ = exp_pow_integral(-1e300, 1e300, 0.0, INF)
    assert got == pytest.approx(math.sqrt(math.pi / 2.0) * 1e-150, rel=1e-13)
    with pytest.raises(IntegralOverflowError, match=r"\^1000000\.0 dx"):
        exp_pow_integral(-1.0, 1e6, 0.0, INF)


def test_finite_segment_whose_integrand_leaves_the_float_range():
    # (1+x)^200 overflows on [600, 700], though e^{-2x} keeps the integral
    # (mpmath 2.5086297570797576e34) inside the float range; the integrand
    # raised a bare OverflowError
    got, err = exp_pow_integral(-2.0, 200.0, 600.0, 700.0)
    with mpmath.workdps(40):
        want = mpmath.quad(lambda x: mpmath.e ** (-2 * x) * (1 + x) ** 200,
                           [600, 650, 700])
    assert abs(got - want) <= 1e-13 * want
    assert abs(got - want) <= err
    # here the value itself is beyond it
    with pytest.raises(IntegralOverflowError, match=r"\^1801\.0 dx"):
        exp_pow_integral(1.0, 1801.0, 0.0, 18.4)


@pytest.mark.parametrize("got,exact", [
    # a value that fits in a double where a fixed guard on one factor named
    # an overflow: a x > 700 (segment, exponential, cell), a power past the
    # float range, and a supremum's exponent over 709
    (lambda: exp_pow_integral(1.0, -50.0, 0.0, 701.0)[0],
     lambda: mpmath.quad(lambda x: mpmath.e ** x * (1 + x) ** -50,
                         [0, 600, 690, 700, 701])),
    (lambda: exp_pow_integral(1000.0, 0.0, 0.0, 0.7098)[0],
     lambda: mpmath.expm1(1000 * mpmath.mpf(0.7098)) / 1000),
    (lambda: power_integral(999.0, 0.0, 1.0339912586467506),
     lambda: ((1 + mpmath.mpf(1.0339912586467506)) ** 1000 - 1) / 1000),
    (lambda: cell_integrals(50.0, -100.0, (), [0.0, 13.5, 14.5])[1],
     lambda: mpmath.quad(lambda x: mpmath.e ** (50 * x) * (1 + x) ** -100,
                         [13.5, 14, 14.5])),
    (lambda: sup_terms([LogTerm(0.5, 1.0, 0.0, 0.0, 709.5)]),
     lambda: mpmath.e ** mpmath.mpf(709.5) / 2),
], ids=["segment", "exponential", "power", "cell", "supremum"])
def test_values_near_the_float_max_are_not_overflows(got, exact):
    with mpmath.workdps(40):
        want = exact()
    assert want < sys.float_info.max
    assert abs(got() - want) <= 1e-13 * want


def test_stretched_term_whose_integrand_leaves_the_float_range():
    # exp(712 x^2) over [0, 1], about e^712 / 1424: its integrand passes the
    # float range near x = 1, its value does not; with a small coefficient
    # the integrand overflows at its exponential before the product fits
    for coef in (1.0, -1e-10):
        res = integrate_terms([LogTerm(coef, 0.0, 0.0, 0.0, 1.0, ((2.0, 712.0),))])
        got, err = res.value, res.error_bound
        with mpmath.workdps(40):
            want = coef * mpmath.quad(lambda x: mpmath.exp(712 * x ** 2),
                                      [0, 0.9, 0.99, 1])
        assert abs(got - want) <= 1e-13 * abs(want)
        assert abs(got - want) <= err
    # beyond it, over a finite and an infinite range
    for term in (LogTerm(1.0, 0.0, 0.0, 0.0, 1.0, ((2.0, 720.0),)),
                 LogTerm(1.0, -0.5, 2.0, 0.0, INF, ((0.9, 12.0),))):
        with pytest.raises(IntegralOverflowError, match="overflows"):
            term_value(term.a, term.beta, term.x1, term.x2, term.gammas)


def test_gamma_tail_bound_covers_mpmath():
    # a < 0, beta > -1 on [x1, inf): the Q Gamma product, and the log route
    # where a factor is not a normal float, are within their bound of
    # 40-digit mpmath on every draw (scipy's Q is off by up to 1e-12 in its
    # far tail, z > s + 1, and a subnormal s^-(beta+1) lost up to 2.7 %);
    # beyond the float range the error is named
    rng = np.random.default_rng(3141)
    draws = [(-17.517785554231185, 104.16642276087862, 51.935551700081625)]
    while len(draws) < 400:
        draws.append((-math.exp(rng.uniform(math.log(0.01), math.log(700.0))),
                      rng.uniform(-1.0, 170.0),
                      math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))))
    far = 0
    for a, beta, x1 in draws:
        want = _mp_gamma_tail(a, beta, x1)
        if want > sys.float_info.max:
            with pytest.raises(IntegralOverflowError):
                exp_pow_integral(a, beta, x1, INF)
            continue
        got, err = exp_pow_integral(a, beta, x1, INF)
        assert abs(got - float(want)) <= err, (a, beta, x1)
        far += -a * (1.0 + x1) > beta + 2.0
    assert far >= 100


def _mp_segment(a, beta, x1, x2):
    """int_{x1}^{x2} e^{a x} (1+x)^beta dx in 60-digit mpmath, beta not an
    integer: with t = 1 + x, e^-a (-a)^-s Gamma(s, -a t) between the ends
    for a < 0, and for a > 0 the antiderivative v^s/s e^v 1F1(1; s+1; -v) of
    e^v v^(s-1) at v = a t, s = beta + 1."""
    with mpmath.workdps(60):
        a, s, t1, t2 = (mpmath.mpf(a), mpmath.mpf(beta) + 1,
                        1 + mpmath.mpf(x1), 1 + mpmath.mpf(x2))
        if a < 0:
            return mpmath.exp(-a) * (-a) ** -s * mpmath.gammainc(s, -a * t1, -a * t2)

        def anti(v):
            return mpmath.exp(v) * v ** s / s * mpmath.hyp1f1(1, s + 1, -v)
        return mpmath.exp(-a) * a ** -s * (anti(a * t2) - anti(a * t1))


def _log_peak(a, beta, x1, x2):
    """The largest a x + beta ln(1+x) on [x1, x2]."""
    xs = [x1, x2] + ([-beta / a - 1.0] if x1 < -beta / a - 1.0 < x2 else [])
    return max(a * x + beta * math.log1p(x) for x in xs)


def test_segments_and_cells_against_mpmath():
    # finite segments and single cells, a in +-(0.01, 60), beta in +-(0, 300)
    # and ends in [0, 40]; in most draws beta puts the peak of the integrand,
    # times the width, near the float max.  A value that fits is within
    # 2e-13 of mpmath (1e-12 outside [1e-200, 1e200]; the rounding of the
    # scale's exponent a xm + beta ln(1+xm) reaches 1.2e-13 in rare draws),
    # and the scalar route's bound covers the gap; one that does not fit
    # raises the named error on both routes
    rng = np.random.default_rng(1729)
    near = over = 0
    for i in range(400):
        a = math.copysign(math.exp(rng.uniform(math.log(0.01), math.log(60.0))),
                          rng.uniform(-1.0, 1.0))
        beta = math.copysign(math.exp(rng.uniform(math.log(1e-3), math.log(300.0))),
                             rng.uniform(-1.0, 1.0))
        w = math.exp(rng.uniform(math.log(1e-3), math.log(0.05))) if i % 2 \
            else rng.uniform(0.01, 40.0)
        x1 = rng.uniform(0.0, 40.0 - w)
        x2 = x1 + w
        if rng.random() < 0.7:  # bisect beta onto the target
            target = math.log(sys.float_info.max) + rng.uniform(-4.0, 4.0)
            lo, hi = -300.0, 300.0

            def miss(b):
                return _log_peak(a, b, x1, x2) + math.log(min(w, 1.0)) - target
            if miss(lo) < 0.0 < miss(hi):
                for _ in range(60):
                    mid = 0.5 * (lo + hi)
                    lo, hi = (lo, mid) if miss(mid) > 0.0 else (mid, hi)
                beta = lo
        want = _mp_segment(a, beta, x1, x2)
        near += abs(float(mpmath.log(want)) - math.log(sys.float_info.max)) < 5.0
        if want > sys.float_info.max:
            over += 1
            for integral in (lambda: exp_pow_integral(a, beta, x1, x2),
                             lambda: cell_integrals(a, beta, (), [x1, x2])):
                with pytest.raises(IntegralOverflowError):
                    integral()
            continue
        want = float(want)
        tol = 2e-13 if 1e-200 <= want <= 1e200 else 1e-12
        got, err = exp_pow_integral(a, beta, x1, x2)
        cell = cell_integrals(a, beta, (), [x1, x2])[0]
        assert abs(got - want) <= min(tol * want, err), (a, beta, x1, x2)
        assert abs(cell - want) <= tol * want, (a, beta, x1, x2)
    assert near >= 150 and over >= 50


def test_power_integral_beyond_the_float_range_is_named():
    # (1+x)^1259.6 over [0, 0.86], the head bound of a negative-demo weight,
    # raised a bare OverflowError; the zero end is named without its sign
    with pytest.raises(IntegralOverflowError, match=r"\(1\+x\)\^1258\.6 dx "
                       r"over \[0\.0, 0\.86\] overflows"):
        power_integral(1258.6, -0.0, 0.86)


def test_gamma_tail_in_logs_against_mpmath():
    # draws where a factor of e^{-a} (-a)^{-s} Gamma(s) Q(s, z) over- or
    # underflows, but the integral fits in a normal double
    rng = np.random.default_rng(2718)
    checked = routes = 0
    while checked < 200:
        a = -math.exp(rng.uniform(math.log(1e-3), math.log(3e3)))
        beta = rng.uniform(-1.0, 600.0)
        x1 = 0.0 if rng.random() < 0.2 else \
            math.exp(rng.uniform(math.log(1e-3), math.log(1e4)))
        s = beta + 1.0
        if not (s > 172.0 or -a > 710.0 or abs(s * math.log(-a)) > 710.0):
            continue
        want = _mp_gamma_tail(a, beta, x1)
        if not sys.float_info.min < want < sys.float_info.max:
            continue
        got, _ = exp_pow_integral(a, beta, x1, INF)
        assert abs(got - want) <= 1e-13 * want, (a, beta, x1)
        checked += 1
        routes += -a * (1.0 + x1) > s + 1.0
    assert 0 < routes < checked  # both the fraction and the lgamma route


def _count_quad(monkeypatch) -> list:
    calls: list = []
    quad = sci_integrate.quad

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return quad(*args, **kwargs)

    monkeypatch.setattr(sci_integrate, "quad", counted)
    return calls


@pytest.mark.parametrize("a,beta,x1", [
    # the hardy benchmark's seed-1 tail: QUADPACK gave 3.896792487646346e-11
    # with a bound of 1.3e-22, 2.2e-10 relative from the oracle
    (-1.0, -2.159, 17.55678951218909),
    (-3.26367, -8.60542, 213.179),  # 1.98e-323, below the normal range
    (-1e-3, -1.0, 999.0),           # z = 1, s = 0
])
def test_heavy_tail_by_the_continued_fraction(monkeypatch, a, beta, x1):
    calls = _count_quad(monkeypatch)
    got, err = exp_pow_integral(a, beta, x1, INF)
    assert abs(got - _mp_gamma_tail(a, beta, x1)) <= err
    assert calls == []


def test_heavy_tails_against_mpmath(monkeypatch):
    # a < 0, beta <= -1 and z = -a (1+x1) >= 1: no QUADPACK, and the
    # reported bound covers the gap to the oracle on every draw
    calls = _count_quad(monkeypatch)
    rng = np.random.default_rng(1618)
    checked = 0
    while checked < 1000:
        a = -math.exp(rng.uniform(math.log(1e-3), math.log(700.0)))
        beta = -1.0 if rng.random() < 0.05 else -rng.uniform(1.0, 12.0)
        x1 = 0.0 if rng.random() < 0.2 else \
            math.exp(rng.uniform(math.log(1e-3), math.log(1e3)))
        if -a * (1.0 + x1) < 1.0:
            continue
        got, err = exp_pow_integral(a, beta, x1, INF)
        want = _mp_gamma_tail(a, beta, x1)
        assert abs(got - want) <= err, (a, beta, x1)
        if want >= sys.float_info.min:
            assert err <= 1e-13 * got + 1e-322
        checked += 1
    assert calls == []


def test_fraction_converges_on_the_heavy_tail_route():
    # s = beta + 1 in [-60, 0] and z >= 1: the route never falls back
    for s in np.linspace(-60.0, 0.0, 61):
        for z in np.geomspace(1.0, 1e4, 41):
            assert quadrature._gamma_fraction(float(s), float(z)) is not None


@pytest.mark.parametrize("a,beta,x1", [
    (-0.5, -1.0, 0.0), (-0.1, -1.7, 3.0), (-0.9, -1.99, 0.1)])
def test_heavy_tail_with_small_z_stays_on_quadpack(monkeypatch, a, beta, x1):
    assert -a * (1.0 + x1) < 1.0
    want = quadrature._quad(lambda x: math.exp(a * x) * (1.0 + x) ** beta,
                            x1, INF)
    calls = _count_quad(monkeypatch)
    assert exp_pow_integral(a, beta, x1, INF) == want
    assert calls == [(x1, INF)]


def test_sup_examples():
    w = parse_weight("log(0,-2)")
    assert tail_qnorm(w, INF, 1.0) == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-2.0, max_value=2.0))
def test_additivity_at_interior_cut(log_cut):
    w = parse_weight("log(0,-2)")
    cut = math.exp(log_cut)
    whole = integrate_terms(_weight_terms(w, 2, 0.01, 100.0)).value
    left = integrate_terms(_weight_terms(w, 2, 0.01, cut)).value
    right = integrate_terms(_weight_terms(w, 2, cut, 100.0)).value
    assert left + right == pytest.approx(whole, rel=2e-7)


def test_interval_monotonicity(w_l02):
    inner = integrate_terms(_weight_terms(w_l02, 1, 1.0, 10.0)).value
    outer = integrate_terms(_weight_terms(w_l02, 1, 0.5, 20.0)).value
    assert outer >= inner


def test_golden_min_plateau():
    x, y = golden_min(lambda x: (x - 1.3) ** 2 + 5.0, -4.0, 6.0, rel_tol=1e-9)
    assert y == pytest.approx(5.0, rel=1e-6)
    assert x == pytest.approx(1.3, abs=1e-3)


# ---------------------------------------------------------------------------
# finite-segment overflow and the term memo
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("beta", [0.0, 0.5])
@pytest.mark.parametrize("end", ["inf", "zero"])
def test_finite_segment_overflow_is_not_divergence(beta, end):
    # int_0^400 e^{2x} (1+x)^beta dx is finite but exceeds the float range
    term = LogTerm(1.0, 2.0, beta, 0.0, 400.0, end=end)
    with pytest.raises(IntegralOverflowError):
        integrate_terms([term])
    with term_memo() as memo:
        with pytest.raises(IntegralOverflowError):
            integrate_terms([term])
    assert memo == {}
    with pytest.raises(IntegralOverflowError):
        exp_pow_integral(2.0, beta, 0.0, 400.0)
    assert issubclass(IntegralOverflowError, ValueError)


MEMO_TERMS = [
    LogTerm(-0.5, -1.0, 0.5, 0.0, 2.0),
    LogTerm(2.0, -1.0, 0.5, 0.0, 2.0),
    LogTerm(2.0, -1.0, 0.5, 0.0, 2.0, end="zero"),
    LogTerm(0.0, -1.0, 0.5, 0.0, 2.0),
    LogTerm(3.0, -1.0, 0.5, 1.0, 1.0),
    LogTerm(1.5, 0.0, -2.5, 1.0, INF),
    LogTerm(-1.5, 0.0, -2.5, 1.0, INF),
    LogTerm(3.0, 0.0, -2.0, 0.0, INF, ((0.3, -1.0),)),
    LogTerm(-3.0, 0.0, -2.0, 0.0, INF, ((0.3, -1.0),)),
    LogTerm(0.7, 0.0, -2.0, 0.0, INF, ((0.3, -1.0),)),
    LogTerm(-2.0, 0.5, 0.0, 1.0, INF),  # divergent, negative coef
    LogTerm(2.0, 0.5, 0.0, 1.0, INF, end="zero"),
]


def test_memo_gives_the_unmemoized_values():
    want = {term: integrate_terms([term]) for term in MEMO_TERMS}
    want_sum = integrate_terms(MEMO_TERMS[:10])
    with term_memo() as memo:
        for order in (MEMO_TERMS, MEMO_TERMS[::-1]):
            for term in order:
                assert integrate_terms([term]) == want[term]
        assert integrate_terms(MEMO_TERMS[:10]) == want_sum
    for term in MEMO_TERMS:
        with term_memo():
            assert integrate_terms([term]) == want[term]
    # coefficient-free integrals are shared across coefficients, and so is
    # a stretched-exponential term's
    assert (-1.0, 0.5, 0.0, 2.0, ()) in memo
    assert sum(k[4] != () for k in memo) == 1


# ---------------------------------------------------------------------------
# the term_memo scope
# ---------------------------------------------------------------------------

def _count_term_values(monkeypatch) -> list:
    calls: list = []
    term_value = quadrature.term_value

    def counted(*key):
        calls.append(key)
        return term_value(*key)

    monkeypatch.setattr(quadrature, "term_value", counted)
    return calls


def _assert_no_memo_active(calls: list) -> None:
    # outside every scope nothing is stored: the same term is integrated anew
    term = MEMO_TERMS[1]
    key = (term.a, term.beta, term.x1, term.x2, term.gammas)
    calls.clear()
    integrate_terms([term])
    integrate_terms([term])
    assert calls == [key, key]


def test_nested_scope_yields_the_outer_memo(monkeypatch):
    calls = _count_term_values(monkeypatch)
    with term_memo() as outer:
        with term_memo() as inner:
            assert inner is outer
            integrate_terms([MEMO_TERMS[1]])
        assert (-1.0, 0.5, 0.0, 2.0, ()) in outer
        calls.clear()
        integrate_terms([MEMO_TERMS[1]])  # stored by the nested scope
        assert calls == []
    _assert_no_memo_active(calls)


def test_no_memo_after_a_scope_exits(monkeypatch):
    calls = _count_term_values(monkeypatch)
    with term_memo() as memo:
        integrate_terms(MEMO_TERMS[:3])
    assert memo
    _assert_no_memo_active(calls)
    with pytest.raises(KeyError):
        with term_memo():
            integrate_terms(MEMO_TERMS[:3])
            raise KeyError("leaves the scope")
    _assert_no_memo_active(calls)


def test_no_memo_after_a_scan_raises(monkeypatch, w_l02, w_l01):
    calls = _count_term_values(monkeypatch)
    in_scope = []  # per compiled power integral: was a memo scope open?
    power_integral = weights.power_integral

    def recorded(beta, x1, x2):
        in_scope.append(quadrature._TERM_MEMO.get() is not None)
        return power_integral(beta, x1, x2)

    monkeypatch.setattr(weights, "power_integral", recorded)
    case = HolmstedtCase("limiting00", 1.0, 2.0, w_l02, w_l01)
    with pytest.raises(HypothesisError):
        equivalence_scan(case, parse_profile("min1"))
    # the scan integrated inside its scope before its hypothesis failed
    assert any(in_scope)
    _assert_no_memo_active(calls)


# ---------------------------------------------------------------------------
# sup_terms: exact suprema
# ---------------------------------------------------------------------------

def _draw_sup_terms(rng: np.random.Generator) -> list[LogTerm]:
    """One term, or e^{ax} + c2 e^{(a+1)x} (the shape of a profile piece
    with a constant and a linear atom) times (1+x)^beta exp(gamma x^alpha)."""
    beta = rng.uniform(-4.0, 8.0)
    gamma = 0.0
    while abs(gamma) < 1e-3:
        gamma = rng.uniform(-2.0, 0.5)
    gammas = ((rng.uniform(0.1, 0.9), gamma),)
    a = 0.0 if rng.random() < 0.3 else rng.uniform(-1.5, 0.0)
    x1 = 0.0 if rng.random() < 0.5 else 10.0 ** rng.uniform(-3.0, 1.5)
    x2 = INF if rng.random() < 0.5 else x1 + 10.0 ** rng.uniform(-2.0, 4.0)
    terms = [LogTerm(1.0, a, beta, x1, x2, gammas)]
    if rng.random() < 0.5:
        # a negative c2 still leaves the sum positive at x1
        c2 = rng.uniform(0.05, 20.0) if rng.random() < 0.75 else \
            -rng.uniform(0.05, 0.9) * math.exp(-x1)
        terms.append(LogTerm(c2, a + 1.0, beta, x1, x2, gammas))
    return terms


def _oracle_sup(terms: list[LogTerm]):
    """The supremum in 40-digit arithmetic: mpmath.findroot on the
    derivative from each + to - sign change of a float scan out to 1e30.
    None when the scan cannot decide it: the sum still rises at 1e30 on an
    infinite segment, cancels at its maximum, is not positive there, or
    leaves the float range."""
    (alpha, gamma), = terms[0].gammas
    x1, x2 = terms[0].x1, terms[0].x2
    xs = np.geomspace(x1 if x1 > 0.0 else 1e-200, min(x2, 1e30), 6000)
    logs = [math.log(abs(t.coef)) + t.a * xs + t.beta * np.log1p(xs) for t in terms]
    top = np.max(logs, axis=0)
    slope = sum(math.copysign(1.0, t.coef) * np.exp(lg - top)
                * (t.a + t.beta / (1.0 + xs) + gamma * alpha * xs ** (alpha - 1.0))
                for t, lg in zip(terms, logs))
    if x2 == INF and slope[-1] > 0.0:
        return None
    with mpmath.workdps(40):
        def parts(x):
            stretch = mpmath.exp(gamma * x ** alpha)
            return [t.coef * mpmath.exp(t.a * x) * (1 + x) ** t.beta * stretch
                    for t in terms]

        def dsum(x):
            return sum(p * (t.a + t.beta / (1 + x) + gamma * alpha * x ** (alpha - 1))
                       for p, t in zip(parts(x), terms))

        xs_mp = [mpmath.mpf(x1)] + ([] if x2 == INF else [mpmath.mpf(x2)])
        for i in np.flatnonzero((slope[:-1] > 0.0) & (slope[1:] <= 0.0)):
            xs_mp.append(mpmath.findroot(dsum, (xs[i], xs[i + 1]),
                                         solver="anderson", verify=False))
        best = max(xs_mp, key=lambda x: sum(parts(x)))
        vals = parts(best)
        value = sum(vals)
        if not (0 < value < 1e300) or abs(value) < 1e-3 * sum(abs(v) for v in vals):
            return None
        return float(value)


def test_sup_terms_matches_the_mpmath_oracle():
    rng = np.random.default_rng(20261018)
    compared = []
    for _ in range(500):
        terms = _draw_sup_terms(rng)
        want = _oracle_sup(terms)
        if want is None:
            continue
        got = sup_terms(terms)
        assert got == pytest.approx(want, rel=1e-12), terms
        compared.append((len(terms), terms[0].x1 == 0.0, terms[0].x2 == INF,
                         terms[-1].coef < 0.0))
    assert len(compared) >= 300
    # every shape: one or two terms, x1 = 0 or not, x2 finite or not, and
    # two-term sums with a negative coefficient
    assert len(set(compared)) == 12


@pytest.mark.parametrize("term", [
    LogTerm(1.0, 0.5, -3.0, 0.0, INF),  # a > 0
    LogTerm(1.0, 0.0, -3.0, 0.0, INF, ((0.2, -5.0), (0.3, 0.1))),  # lead gamma > 0
    LogTerm(1.0, 0.0, 0.5, 2.0, INF),  # beta > 0 and no gamma
])
def test_sup_terms_growing_term_is_unbounded(term):
    assert sup_terms([term]) == INF


def test_sup_terms_growing_term_with_negative_coefficient_is_bounded():
    # 2(1+x) - e^{x/2} is largest where e^{x/2} = 4
    terms = [LogTerm(2.0, 0.0, 1.0, 0.0, INF), LogTerm(-1.0, 0.5, 0.0, 0.0, INF)]
    x = 2.0 * math.log(4.0)
    assert sup_terms(terms) == pytest.approx(2.0 * (1.0 + x) - 4.0, rel=1e-14)


def test_sup_terms_ends_and_errors():
    assert sup_terms([]) == 0.0
    assert sup_terms([LogTerm(3.0, 0.0, 0.0, 1.0, INF)]) == 3.0  # a constant
    assert sup_terms([LogTerm(3.0, -1.0, 2.0, 1.0, INF)]) == pytest.approx(
        3.0 * math.exp(-1.0) * 4.0, rel=1e-14)  # e^{-x}(1+x)^2 peaks at x = 1
    assert sup_terms([LogTerm(1.0, -0.1, 1.0, 0.0, 5.0)]) == pytest.approx(
        math.exp(-0.5) * 6.0, rel=1e-14)  # still rising at x2
    with pytest.raises(IntegralOverflowError):
        sup_terms([LogTerm(1.0, 1.0, 0.0, 0.0, 800.0)])
    with pytest.raises(ValueError):
        sup_terms([LogTerm(1.0, 0.0, -1.0, 0.0, 1.0),
                   LogTerm(1.0, 0.0, -2.0, 0.0, 2.0)])


#: the messages scipy's ``quad`` returns with ier 1 and ier 5
_QUADPACK_MESSAGES = {
    1: "The maximum number of subdivisions (200) has been achieved.",
    5: "The integral is probably divergent, or slowly convergent.",
}


@pytest.mark.parametrize("ier", sorted(_QUADPACK_MESSAGES))
def test_every_quadpack_call_keeps_the_status_policy(monkeypatch, ier):
    # a canonical term on a finite segment, a stretched term and an adaptive
    # profile segment all reach QUADPACK; none of them may return the value
    # of a call that ended at its subdivision limit or called it divergent
    def failing_quad(f, a, b, *args, full_output=0, **kwargs):
        if full_output:
            return 1.0, 1e-9, {}, _QUADPACK_MESSAGES[ier]
        return 1.0, 1e-9

    monkeypatch.setattr(sci_integrate, "quad", failing_quad)
    calls = [
        lambda: exp_pow_integral(-1.0, 0.5, 0.0, 3.0),
        lambda: term_value(-1.0, 0.0, 0.0, 5.0, ((0.5, 1.0),)),
        lambda: _segment_adaptive(KProfile.min1().curve, 0.5, 1.0,
                                  parse_weight("log(0,-2)"), 0.5, 2.0),
    ]
    for call in calls:
        with pytest.raises(DivergentIntegralError, match=f"ier {ier}"):
            call()


# ---------------------------------------------------------------------------
# Gauss-Kronrod cells
# ---------------------------------------------------------------------------

def test_kronrod_pair_nodes():
    # the Gauss half of the pair is leggauss(7), to an ulp; K15 integrates
    # x^k exactly on [-1, 1] up to k = 3*7 + 1 = 22 and no further
    nodes, weights = np.polynomial.legendre.leggauss(7)
    assert np.allclose(quadrature._K15_X[1::2], nodes, rtol=0.0, atol=2.3e-16)
    assert np.allclose(quadrature._G7_W, weights, rtol=0.0, atol=2.3e-16)
    assert np.array_equal(quadrature._K15_X, -quadrature._K15_X[::-1])
    assert np.all(np.diff(quadrature._K15_X) > 0.0)
    for k in range(23):
        exact = 2.0 / (k + 1) if k % 2 == 0 else 0.0
        assert abs(quadrature._K15_W @ quadrature._K15_X ** k - exact) <= 4e-16
    assert abs(quadrature._K15_W @ quadrature._K15_X ** 24 - 2.0 / 25) > 1e-9


def test_cells_of_a_polynomial_are_exact():
    # (1+x)^k with a = 0 is a polynomial of degree k <= 22 on every cell
    edges = [0.0, 0.3, 0.3, 1.0, 2.5]
    for k in range(23):
        got = cell_integrals(0.0, float(k), (), edges)
        want = [power_integral(float(k), x1, x2)
                for x1, x2 in zip(edges, edges[1:])]
        assert np.allclose(got, want, rtol=1e-14, atol=0.0)


@pytest.mark.parametrize("a,beta,gammas", [
    (1.0, -2.9, ()), (-2.0, 0.47, ()), (2.0, 0.0, ()), (0.5, -4.0, ()),
    (-1.0, 0.0, ((0.3, -1.0),)), (2.0, -3.0, ((0.5, -2.0), (0.25, 0.5))),
])
def test_cells_equal_the_scalar_terms(monkeypatch, a, beta, gammas):
    # every cell agrees with term_value on it; the x^alpha cusp of a
    # stretched term at x = 0 sends the first cell to term_value itself
    edges = np.linspace(0.0, 18.0, 1001).tolist()
    want = [term_value(a, beta, x1, x2, gammas)[0]
            for x1, x2 in zip(edges, edges[1:])]
    fallbacks = []
    scalar = quadrature.term_value

    def recorded(a, beta, x1, x2, gammas=()):
        fallbacks.append(x1)
        return scalar(a, beta, x1, x2, gammas)

    monkeypatch.setattr(quadrature, "term_value", recorded)
    got = cell_integrals(a, beta, gammas, edges)
    assert np.allclose(got, want, rtol=1e-13, atol=0.0)
    assert (0.0 in fallbacks) == bool(gammas)
    assert len(fallbacks) <= 3


def test_wide_cells_go_to_the_scalar_terms(monkeypatch):
    # e^{40x} over cells of width 1: K15 and G7 disagree far beyond
    # KRONROD_RTOL, so each cell's value is term_value's
    edges = [0.0, 1.0, 2.0]
    want = [exp_pow_integral(40.0, 0.0, x1, x2)[0]
            for x1, x2 in zip(edges, edges[1:])]
    fallbacks = []
    scalar = quadrature.term_value

    def recorded(a, beta, x1, x2, gammas=()):
        fallbacks.append((x1, x2))
        return scalar(a, beta, x1, x2, gammas)

    monkeypatch.setattr(quadrature, "term_value", recorded)
    assert cell_integrals(40.0, 0.0, (), edges).tolist() == want
    assert fallbacks == [(0.0, 1.0), (1.0, 2.0)]


def test_cell_overflow_is_named_as_the_scalar_term():
    # e^{50x} (1+x)^-10 over [14, 15] is about e^722, beyond the float range:
    # the cell names it as the scalar term does
    for integral in (lambda: cell_integrals(50.0, -10.0, (), [0.0, 14.0, 15.0]),
                     lambda: exp_pow_integral(50.0, -10.0, 14.0, 15.0)):
        with pytest.raises(IntegralOverflowError,
                           match=r"\(1\+x\)\^-10\.0 dx over \[14\.0, 15\.0\]"):
            integral()
    # e^{50x} (1+x)^-100 over [13.5, 14.5] has a x up to 725 but fits in a
    # double, 1.554e194: it is a value, not an overflow
    with mpmath.workdps(40):
        want = mpmath.quad(lambda x: mpmath.e ** (50 * x) * (1 + x) ** -100,
                           [13.5, 14, 14.5])
    got = cell_integrals(50.0, -100.0, (), [0.0, 13.5, 14.5])[1]
    assert abs(got - want) <= 1e-13 * want


def test_running_sums_in_either_direction():
    # two terms on one grid: the running sums from either end are the
    # anchor plus the cells summed term by term, and both directions give
    # the integral over the whole grid
    terms = [LogTerm(2.0, -1.0, -2.0, 0.0, 5.0), LogTerm(-0.5, 0.0, -3.0, 0.0, 5.0)]
    xs = np.linspace(0.5, 5.0, 40).tolist()

    def exact(x1, x2):
        return sum(t.coef * term_value(t.a, t.beta, x1, x2)[0]
                   for t in terms)

    up = running_sums(terms, xs, 1.5)
    down = running_sums(terms, xs[::-1], -0.25)
    assert len(up) == len(down) == len(xs) and up[0] == 1.5 and down[0] == -0.25
    for i, x in enumerate(xs):
        assert up[i] == pytest.approx(1.5 + exact(xs[0], x), rel=1e-14)
        assert down[-1 - i] == pytest.approx(-0.25 + exact(x, xs[-1]), rel=1e-13)
    assert running_sums(terms, [2.0], 3.0) == [3.0]


def test_a_coefficient_past_the_float_range_is_not_a_divergence(monkeypatch):
    # 1e10 times int_0^700 e^x dx, about 1e314, on a finite segment: the
    # integral fits in a double, the product does not, so the sum names an
    # overflow of that term, inside a memo scope and outside one
    term = LogTerm(1e10, 1.0, 0.0, 0.0, 700.0)
    with pytest.raises(IntegralOverflowError, match="coefficient times"):
        integrate_terms([term])
    with term_memo(), pytest.raises(IntegralOverflowError,
                                    match="coefficient times"):
        integrate_terms([term])
    # a NaN term value is no overflow
    monkeypatch.setattr(quadrature, "term_value",
                        lambda *key: (math.nan, 0.0))
    with pytest.raises(quadrature.NonFiniteIntegrandError):
        integrate_terms([term])


def test_a_divergent_term_decides_before_any_term_is_evaluated(monkeypatch):
    # (1+x)^2000 over [0, 18.4] exceeds the float range, but the sum's
    # second term diverges at inf: the sum is +inf, from that term's end,
    # without evaluating the first
    calls = []
    scalar = quadrature.term_value

    def recorded(*key):
        calls.append(key)
        return scalar(*key)

    monkeypatch.setattr(quadrature, "term_value", recorded)
    big = LogTerm(1.0, 0.0, 2000.0, 0.0, 18.420680743952367, end="zero")
    with pytest.raises(IntegralOverflowError):
        integrate_terms([big])
    calls.clear()
    res = integrate_terms([big, LogTerm(1.0, 0.0, 5.7, 0.0, math.inf)])
    assert res.value == math.inf and res.divergent_end == "at_infinity"
    assert calls == []
    weight = parse_weight("mul(one,log(1000.0,2.85))")
    assert weights.weight_kernel_integral(weight, 2.0, 0.0, 0.5, math.inf) \
        == math.inf == tail_qnorm(weight, 2.0, 0.5)


# ---------------------------------------------------------------------------
# one rule per canonical term: the shape picks the route, the coefficient
# is applied once
# ---------------------------------------------------------------------------

def _mp_stretched_tail(a, gamma, alpha, x1):
    """int_x1^inf e^{a x + gamma x^alpha} dx in mpmath, cut at its peak."""
    peak = (gamma * alpha / -a) ** (1.0 / (1.0 - alpha))
    cuts = sorted({mpmath.mpf(x1), mpmath.mpf(peak),
                   *(mpmath.mpf(10) ** k for k in range(8) if 10 ** k > x1)})
    return mpmath.quad(lambda x: mpmath.exp(a * x + gamma * x ** alpha),
                       cuts + [mpmath.inf])


def test_a_rising_stretched_norm_finds_its_peak():
    # ||u^-0.15 b min(1, u)||_1 with b = explog(0.945)^0.29: on the side
    # u > 1 the integrand e^(-0.15 x + 0.29 x^0.945) peaks near x = 57 400,
    # which QUADPACK on the raw integrand missed (9.93e162)
    b = parse_weight("pow(explog(0.945),0.29)")
    got = space_norm(KProfile.min1(), SpaceSpec(0.15, 1.0, b))
    with mpmath.workdps(30):
        low = mpmath.quad(lambda x: mpmath.exp(
            -0.85 * x + mpmath.mpf(0.29) * x ** mpmath.mpf(0.945)),
            [0, 1, 10, 100, mpmath.inf])
        want = low + _mp_stretched_tail(mpmath.mpf(-0.15), mpmath.mpf(0.29),
                                        mpmath.mpf(0.945), 0.0)
    assert abs(got - want) <= 1e-12 * want


@pytest.mark.parametrize("gamma", [0.25, 0.27, 0.28, 0.29])
@pytest.mark.parametrize("coef", [1.0, 3.0])
def test_rising_stretched_tails_are_integrated_over_their_peak(gamma, coef):
    # e^(-0.15 x + gamma x^0.945) on [ln 2, inf) rises to a peak near
    # x = 3.9e3 (gamma = 0.25) .. 5.7e4 (0.29) before it falls
    res = integrate_terms([LogTerm(coef, -0.15, 0.0, math.log(2.0), INF,
                                   ((0.945, gamma),))])
    with mpmath.workdps(30):
        want = coef * _mp_stretched_tail(mpmath.mpf(-0.15), mpmath.mpf(gamma),
                                         mpmath.mpf(0.945), math.log(2.0))
    assert abs(res.value - want) <= max(res.error_bound, 1e-12 * want)


@pytest.mark.parametrize("coef", [0.5, 1.0, 1.1062, 2.0, 3.0])
def test_a_stretched_tail_past_the_float_range_is_an_overflow(coef):
    # gamma = 0.3: about 1.07e407, whatever the coefficient
    term = LogTerm(coef, -0.15, 0.0, math.log(2.0), INF, ((0.945, 0.3),))
    with pytest.raises(IntegralOverflowError, match="overflows"):
        integrate_terms([term])


@pytest.mark.parametrize("term", [
    LogTerm(1.0, -1.0, 0.5, 0.0, 2.0),
    LogTerm(1.0, -0.5, -2.0, 1.0, INF),
    LogTerm(1.0, 0.0, -2.0, 0.0, INF, ((0.3, -1.0),)),
    LogTerm(1.0, -0.15, 0.0, math.log(2.0), INF, ((0.945, 0.27),)),
], ids=["plain", "plain-tail", "falling", "rising"])
def test_the_coefficient_is_applied_once(term):
    unit = integrate_terms([term]).value
    for coef in (-0.7, 1e-3, 3.0, 1.1062):
        scaled = LogTerm(coef, term.a, term.beta, term.x1, term.x2, term.gammas)
        assert integrate_terms([scaled]).value == coef * unit


def test_one_memo_entry_per_stretched_integral(monkeypatch):
    calls = _count_term_values(monkeypatch)
    with term_memo() as memo:
        for coef in (3.0, -3.0, 0.7):
            integrate_terms([LogTerm(coef, 0.0, -2.0, 0.0, INF, ((0.3, -1.0),))])
    assert list(memo) == [(0.0, -2.0, 0.0, INF, ((0.3, -1.0),))]
    assert calls == list(memo)


@pytest.mark.parametrize("term", [
    LogTerm(1.0, math.nan, 0.0, 0.0, 2.0, ((0.5, -1.0),)),
    LogTerm(1.0, -1.0, 0.0, 0.0, 2.0, ((0.5, math.nan),)),
    LogTerm(1.0, 1.0, 0.0, 0.0, 2.0, ((0.5, math.nan),)),
    LogTerm(1.0, -1.0, 0.0, 0.0, 2.0, ((math.nan, 1.0),)),
    LogTerm(1.0, -1.0, math.nan, 0.0, INF, ((0.5, -1.0),)),
])
def test_a_nan_exponent_is_a_non_finite_term(term):
    with pytest.raises(quadrature.NonFiniteIntegrandError):
        integrate_terms([term])
