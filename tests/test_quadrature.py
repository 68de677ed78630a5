import math

import mpmath
import pytest
from hypothesis import given, settings, strategies as st

from kinterp.quadrature import (
    AT_ZERO,
    GridSpec,
    IntegralOverflowError,
    LogTerm,
    exp_pow_integral,
    golden_min,
    integrate_log,
    integrate_terms,
    sup_log,
)
from kinterp.weights import parse_weight

INF = math.inf


def test_gridspec_validation():
    with pytest.raises(ValueError):
        GridSpec(1.0, 0.5)
    with pytest.raises(ValueError):
        GridSpec(points_per_decade=4)
    g = GridSpec(1e-2, 1e2, 10)
    pts = g.points()
    assert pts[0] == pytest.approx(1e-2) and pts[-1] == pytest.approx(1e2)


def test_linear_integrand():
    res = integrate_log(lambda u: u, 1, (0.0, 1.0))
    assert res.value == pytest.approx(1.0, abs=1e-9)


def test_weight_tail_closed_form(w_l02):
    res = integrate_log(w_l02, 1, (math.e, INF))
    assert res.value == pytest.approx(0.5, rel=1e-12)
    assert res.error_bound < 1e-9


def test_log_divergence_flagged():
    res = integrate_log(lambda u: 1.0, 1, (0.0, 1.0))
    assert res.value == INF
    assert res.divergent_end == AT_ZERO


def test_tol_validation():
    with pytest.raises(ValueError):
        integrate_log(lambda u: u, 1, (0.0, 1.0), tol=0.5)


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


def test_sup_examples():
    assert sup_log(lambda u: min(1.0, u), (0.0, INF)) == pytest.approx(1.0)
    assert sup_log(lambda u: min(1.0, u) / u, (0.0, INF)) == pytest.approx(1.0)
    w = parse_weight("log(0,-2)")
    assert sup_log(w, (1.0, INF)) == pytest.approx(1.0)


@settings(max_examples=40, deadline=None)
@given(st.floats(min_value=-2.0, max_value=2.0))
def test_additivity_at_interior_cut(log_cut):
    w = parse_weight("log(0,-2)")
    cut = math.exp(log_cut)
    whole = integrate_log(w, 2, (0.01, 100.0)).value
    left = integrate_log(w, 2, (0.01, cut)).value
    right = integrate_log(w, 2, (cut, 100.0)).value
    assert left + right == pytest.approx(whole, rel=2e-7)


@pytest.mark.parametrize("lam", [0.1, 10.0])
def test_scaling_invariance(lam):
    # int g(lam u)^q du/u is invariant under lam for the dilation-invariant measure
    g = lambda u: math.exp(-abs(math.log(u)) ** 0.5)
    base = integrate_log(g, 1, (1e-6, 1e6)).value
    shifted = integrate_log(lambda u: g(lam * u), 1,
                            (1e-6 / lam, 1e6 / lam)).value
    assert shifted == pytest.approx(base, rel=1e-6)


def test_interval_monotonicity(w_l02):
    inner = integrate_log(w_l02, 1, (1.0, 10.0)).value
    outer = integrate_log(w_l02, 1, (0.5, 20.0)).value
    assert outer >= inner


def test_golden_min_plateau():
    x, y = golden_min(lambda x: (x - 1.3) ** 2 + 5.0, -4.0, 6.0, rel_tol=1e-9)
    assert y == pytest.approx(5.0, rel=1e-6)
    assert x == pytest.approx(1.3, abs=1e-3)


def test_envelope_tail_bound():
    # g(u)^q decays like u^0.5 toward zero and u^-0.5 toward infinity;
    # the declared envelope turns the cutoff remainder into an error bound
    g = lambda u: min(u, 1.0 / u) ** 0.5
    res = integrate_log(g, 1.0, (0.0, INF), envelope=(0.5, 0.0))
    exact = 4.0  # 2 * int_0^1 u^0.5 du/u
    assert res.value == pytest.approx(exact, rel=1e-5)
    assert res.error_bound < 1e-2
    assert res.value + res.error_bound >= exact


def test_envelope_flags_divergence():
    res = integrate_log(lambda u: 1.0, 1.0, (0.0, 1.0), envelope=(0.0, 0.0))
    assert res.value == INF and res.divergent_end == AT_ZERO


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
    memo: dict = {}
    with pytest.raises(IntegralOverflowError):
        integrate_terms([term], memo)
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
    memo: dict = {}
    for order in (MEMO_TERMS, MEMO_TERMS[::-1]):
        for term in order:
            want = integrate_terms([term])
            assert integrate_terms([term], memo) == want
            assert integrate_terms([term], {}) == want
    assert integrate_terms(MEMO_TERMS[:10], memo) == integrate_terms(MEMO_TERMS[:10])
    # coefficient-free integrals are shared across coefficients; a
    # stretched-exponential term keeps its own entry per coefficient
    assert (-1.0, 0.5, 0.0, 2.0) in memo
    assert sum(isinstance(k, LogTerm) and k.gammas != () for k in memo) == 3
