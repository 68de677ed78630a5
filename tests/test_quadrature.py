import math
import sys

import mpmath
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from scipy import integrate as sci_integrate

from kinterp import quadrature, weights
from kinterp.holmstedt import HolmstedtCase, HypothesisError, equivalence_scan
from kinterp.norms import _segment_adaptive
from kinterp.profiles import KProfile, parse_profile
from kinterp.quadrature import (
    AT_ZERO,
    DivergentIntegralError,
    GridSpec,
    IntegralOverflowError,
    LogTerm,
    exp_pow_integral,
    golden_min,
    integrate_terms,
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


def _mp_gamma_tail(a, beta, x1):
    """int_{x1}^inf e^{a x} (1+x)^beta dx, a < 0 < beta + 1, in 40-digit
    mpmath: e^{-a} (-a)^{-s} Gamma(s, -a (1+x1)) with s = beta + 1."""
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
    # coefficient-free integrals are shared across coefficients; a
    # stretched-exponential term keeps its own entry per coefficient
    assert (-1.0, 0.5, 0.0, 2.0) in memo
    assert sum(isinstance(k, LogTerm) and k.gammas != () for k in memo) == 3


# ---------------------------------------------------------------------------
# the term_memo scope
# ---------------------------------------------------------------------------

def _count_term_values(monkeypatch) -> list:
    calls: list = []
    term_value = quadrature.term_value

    def counted(term):
        calls.append(term)
        return term_value(term)

    monkeypatch.setattr(quadrature, "term_value", counted)
    return calls


def _assert_no_memo_active(calls: list) -> None:
    # outside every scope nothing is stored: the same term is integrated anew
    term = MEMO_TERMS[1]
    calls.clear()
    integrate_terms([term])
    integrate_terms([term])
    assert calls == [term, term]


def test_nested_scope_yields_the_outer_memo(monkeypatch):
    calls = _count_term_values(monkeypatch)
    with term_memo() as outer:
        with term_memo() as inner:
            assert inner is outer
            integrate_terms([MEMO_TERMS[1]])
        assert (-1.0, 0.5, 0.0, 2.0) in outer
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
        lambda: term_value(LogTerm(1.0, -1.0, 0.0, 0.0, 5.0, ((0.5, 1.0),))),
        lambda: _segment_adaptive(KProfile.min1().curve, 0.5, 1.0,
                                  parse_weight("log(0,-2)"), 0.5, 2.0),
    ]
    for call in calls:
        with pytest.raises(DivergentIntegralError, match=f"ier {ier}"):
            call()
