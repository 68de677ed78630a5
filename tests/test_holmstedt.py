import math
import sys

import mpmath
import numpy as np
import pytest
from scipy import integrate as sci_integrate

from kinterp.holmstedt import (
    DecompositionTable,
    HolmstedtCase,
    HypothesisError,
    ScanRow,
    _decomposition_table,
    equivalence_scan,
    incompatibility_M,
    index_value,
    lhs_decomposition,
    negative_demo,
    rhs_formula,
    verify_hypotheses,
)
from kinterp.norms import SpaceSpec, space_norm, sweep_partials
from kinterp import profiles
from kinterp.profiles import (
    Atom,
    KProfile,
    K_from_rearrangement,
    PiecewiseCurve,
    Rearrangement,
    _crossing_point,
    conjugate_profile,
    parse_profile,
    profile_suite,
    realize_rearrangement,
    truncation_split,
)
from kinterp.quadrature import GridSpec, IntegralOverflowError, STANDARD_GRID
from kinterp.weights import Flip, One, parse_weight

INF = math.inf
CHI = Rearrangement.indicator(1.0)


@pytest.fixture(scope="module")
def case_equal_q(w_l02, w_l03):
    return HolmstedtCase("limiting00", 1.0, 1.0, w_l02, w_l03)


@pytest.fixture(scope="module")
def case_mixed_q(w_l02):
    return HolmstedtCase("limiting00", 1.0, 2.0, w_l02, w_l02)


# ---------------------------------------------------------------------------
# case construction
# ---------------------------------------------------------------------------

def test_case_validation(w_one, w_l02):
    with pytest.raises(ValueError):
        HolmstedtCase("limiting_weird", 1.0, 1.0, w_l02, w_l02)
    with pytest.raises(ValueError):
        HolmstedtCase("interior_equal_q", 1.0, 2.0, w_one, w_one, theta=0.5)
    with pytest.raises(ValueError):
        HolmstedtCase("nonlimiting", 1.0, 1.0, w_one, w_one,
                      theta0=0.75, theta1=0.25)
    # limiting frames need the matching weight classes
    with pytest.raises(ValueError):
        HolmstedtCase("limiting00", 1.0, 1.0, w_one, w_one).spaces()


# ---------------------------------------------------------------------------
# right-hand sides
# ---------------------------------------------------------------------------

def test_rhs_equal_q_at_one(case_equal_q):
    K = K_from_rearrangement(CHI)
    assert rhs_formula(case_equal_q, K, 1.0) == pytest.approx(2.0, rel=1e-12)


def test_rhs_zero(case_equal_q):
    assert rhs_formula(case_equal_q, KProfile.zero(), 1.0) == 0.0


def test_rhs_nonlimiting_power_integrals(w_one):
    case = HolmstedtCase("nonlimiting", 1.0, 1.0, w_one, w_one,
                         theta0=0.25, theta1=0.75)
    K = K_from_rearrangement(CHI)
    assert rhs_formula(case, K, 1.0) == pytest.approx(8.0 / 3.0, rel=1e-12)


def test_rhs_limiting11_direct_matches_reduction(w_l02):
    # I1 + eta J1 computed directly equals the t -> 1/t reduction value
    case11 = HolmstedtCase("limiting11", q0=2.0, q1=1.0,
                           b0=Flip(w_l02), b1=Flip(w_l02))
    red = HolmstedtCase("limiting00", 1.0, 2.0, w_l02, w_l02)
    f = profile_suite()[2]
    K = K_from_rearrangement(f)
    conj = conjugate_profile(K)
    for t in (0.01, 1.0, 30.0):
        eta = index_value(case11, t)
        direct = rhs_formula(case11, conj, t)
        reduced = eta * rhs_formula(red, K, 1.0 / t)
        assert direct == pytest.approx(reduced, rel=1e-10)


def test_limiting11_at_t_zero_is_a_value_error(w_l02):
    # eta at t = 0 is a head norm at 0, not a division by zero
    case = HolmstedtCase("limiting11", q0=2.0, q1=1.0,
                         b0=Flip(w_l02), b1=Flip(w_l02))
    for call in (index_value, lambda c, t: rhs_formula(c, KProfile.min1(), t)):
        with pytest.raises(ValueError, match="t must be positive"):
            call(case, 0.0)


#: one case of each kind, with the weight classes its spaces require
RHS_CASES = (
    ("limiting00", dict(q0=1.0, q1=2.0, b0="log(0,-2)", b1="log(0,-3)")),
    ("limiting11", dict(q0=2.0, q1=1.0, b0="log(-2,0)", b1="log(-3,-2)")),
    ("interior_equal_q", dict(q0=2.0, q1=2.0, b0="log(0,-1)", b1="one",
                              theta=0.4)),
    ("nonlimiting", dict(q0=1.0, q1=3.0, b0="log(1,2)", b1="log(0,-1)",
                         theta0=0.25, theta1=0.75)),
)


def _rhs_case(kind, params):
    return HolmstedtCase(kind, **dict(params, b0=parse_weight(params["b0"]),
                                      b1=parse_weight(params["b1"])))


@pytest.mark.parametrize("kind,params", RHS_CASES, ids=[k for k, _ in RHS_CASES])
def test_one_rhs_for_every_case_kind(kind, params):
    # I over (0, t) in X0 plus s J over (t, inf) in X1, whatever the kind
    case = _rhs_case(kind, params)
    X0, X1 = case.spaces()
    K = K_from_rearrangement(profile_suite()[2])
    for t in (0.03, 1.0, 7.0):
        s = index_value(case, t)
        (I,), (J,) = sweep_partials(K, X0, X1, [t])
        want = I + s * J
        assert rhs_formula(case, K, t) == want
        assert 0.0 < want < INF


@pytest.mark.parametrize("kind,params", RHS_CASES, ids=[k for k, _ in RHS_CASES])
def test_zero_profile_rhs_checks_t_and_the_index_first(kind, params):
    # the zero profile's rhs is 0 only where the rhs is defined: a t outside
    # (0, inf) is a ValueError for it as for any other profile
    case = _rhs_case(kind, params)
    for t in (0.0, -1.0, INF, math.nan):
        for f in (KProfile.zero(), KProfile.min1()):
            with pytest.raises(ValueError):
                rhs_formula(case, f, t)
    assert rhs_formula(case, KProfile.zero(), 1.0) == 0.0


def test_zero_profile_rhs_where_the_index_is_undefined():
    # rho's denominator, the tail of b1 = one, is infinite at every t
    case = HolmstedtCase("limiting00", 1.0, 1.0, parse_weight("log(0,-2)"),
                         One())
    for f in (KProfile.zero(), KProfile.min1()):
        with pytest.raises(ValueError, match="index undefined"):
            rhs_formula(case, f, 1.0)


# ---------------------------------------------------------------------------
# decomposition infimum
# ---------------------------------------------------------------------------

def test_equal_spaces_exact(w_l02):
    case = HolmstedtCase("limiting00", 1.0, 1.0, w_l02, w_l02)
    for f in (CHI, profile_suite()[2]):
        norm = space_norm(K_from_rearrangement(f), SpaceSpec(0.0, 1.0, w_l02))
        got = lhs_decomposition(case, f, 1.0)
        assert got == pytest.approx(norm, rel=1e-12)


def test_lhs_zero(case_equal_q):
    assert lhs_decomposition(case_equal_q, Rearrangement.zero(), 2.0) == 0.0


def test_lhs_within_equivalence_band(case_equal_q):
    rhs = 2.0  # closed form at t=1
    got = lhs_decomposition(case_equal_q, CHI, 2.0)
    assert rhs / 8.0 <= got <= 8.0 * rhs


def test_lhs_upper_bound_soundness(case_equal_q):
    X0, X1 = case_equal_q.spaces()
    f = profile_suite()[4]
    K = K_from_rearrangement(f)
    n0 = space_norm(K, X0)
    n1 = space_norm(K, X1)
    for s in (0.3, 1.0, 5.0):
        got = lhs_decomposition(case_equal_q, f, s)
        assert got <= n0 * (1.0 + 1e-12)
        assert got <= s * n1 * (1.0 + 1e-12)


def test_lhs_k_functional_shape(case_equal_q):
    f = profile_suite()[1]
    table = DecompositionTable(f, *case_equal_q.spaces())
    ss = np.logspace(-2, 2, 21)
    vals = [table.best(float(s)) for s in ss]
    for (s1, v1), (s2, v2) in zip(zip(ss, vals), zip(ss[1:], vals[1:])):
        assert v2 >= v1 * (1.0 - 1e-9)              # nondecreasing in s
        assert v2 / s2 <= (v1 / s1) * (1.0 + 1e-9)  # concave shape


def test_lhs_homogeneity(case_equal_q):
    f = profile_suite()[0]
    base = lhs_decomposition(case_equal_q, f, 2.0)
    scaled = lhs_decomposition(case_equal_q, f.scale(3.0), 2.0)
    assert scaled == pytest.approx(3.0 * base, rel=1e-9)


def test_lhs_rejects_bad_s(case_equal_q):
    with pytest.raises(ValueError):
        lhs_decomposition(case_equal_q, CHI, 0.0)


# ---------------------------------------------------------------------------
# scans
# ---------------------------------------------------------------------------

def test_scan_gate_refusal(w_l02, w_l01):
    case = HolmstedtCase("limiting00", 1.0, 2.0, w_l02, w_l01)
    with pytest.raises(HypothesisError) as exc:
        equivalence_scan(case, CHI)
    assert "rho_eps" in exc.value.condition


@pytest.mark.parametrize("b0,b1", [("log(0,-400)", "log(0,-2)"),
                                   ("log(0,-2)", "log(0,-400)")])
def test_degenerate_rho_fails_one_named_condition(b0, b1):
    # the tail of log(0,-400) underflows to 0 on part of the grid: as the
    # numerator rho is 0 there, as the denominator it is undefined; both
    # are the one condition that reiteration checks as well
    case = HolmstedtCase("limiting00", 1.0, 1.0, parse_weight(b0),
                         parse_weight(b1))
    with pytest.raises(HypothesisError) as exc:
        verify_hypotheses(case)
    assert exc.value.condition == "rho positive and finite on the grid"


@pytest.mark.parametrize("kind,b0,b1,condition,detail", [
    ("limiting00", "log(0,-2.3)", "log(0,-2)", "rho increasing",
     "it tends to 0 toward inf"),
    ("limiting11", "log(-2,0)", "log(-2.3,0)", "eta increasing",
     "it tends to inf toward 0+"),
    ("interior_equal_q", "log(0,-0.3)", "one", "b0/b1 nondecreasing",
     "it tends to 0 toward inf"),
    ("interior_equal_q", "one", "log(-0.3,0)", "b0/b1 nondecreasing",
     "it tends to inf toward 0+"),
])
def test_hypotheses_read_the_exact_ends(kind, b0, b1, condition, detail):
    # each drifts so slowly that its grid samples are quasi-nondecreasing
    # (constants 3.13 and 2.43, below the threshold 4), but it tends to 0
    # toward inf or to inf toward 0+, so no nondecreasing function is
    # equivalent to it
    case = HolmstedtCase(kind, 1.0, 1.0, parse_weight(b0), parse_weight(b1),
                         theta=0.5)
    with pytest.raises(HypothesisError) as exc:
        verify_hypotheses(case)
    assert exc.value.condition == condition
    assert str(exc.value).endswith(f"({detail})")


def test_scan_rows_and_band(case_mixed_q):
    rep = equivalence_scan(case_mixed_q, CHI, GridSpec(1e-4, 1e4, 8))
    assert rep.rows and rep.skipped == 0
    assert all(0.1 <= r.ratio <= 10.0 for r in rep.rows)
    assert rep.variation <= 10.0


def test_scan_interior_equal_weights_constant_ratio(w_one):
    case = HolmstedtCase("interior_equal_q", 1.0, 1.0, w_one, w_one, theta=0.5)
    rep = equivalence_scan(case, CHI, GridSpec(1e-3, 1e3, 8))
    ratios = [r.ratio for r in rep.rows]
    assert max(ratios) - min(ratios) <= 1e-9


def test_scan_homogeneity(case_mixed_q):
    grid = GridSpec(1e-2, 1e2, 8)
    base = equivalence_scan(case_mixed_q, CHI, grid)
    scaled = equivalence_scan(case_mixed_q, CHI.scale(0.5), grid)
    for r1, r2 in zip(base.rows, scaled.rows):
        assert r2.lhs == pytest.approx(0.5 * r1.lhs, rel=1e-9)
        assert r2.rhs == pytest.approx(0.5 * r1.rhs, rel=1e-9)
        assert r2.ratio == pytest.approx(r1.ratio, rel=1e-9)


def test_scan_symmetry_rows(case_mixed_q, w_l02):
    case11 = HolmstedtCase("limiting11", q0=2.0, q1=1.0,
                           b0=Flip(w_l02), b1=Flip(w_l02))
    grid = GridSpec(1e-4, 1e4, 8)
    f = profile_suite()[2]
    conj = realize_rearrangement(conjugate_profile(K_from_rearrangement(f)))
    rep00 = equivalence_scan(case_mixed_q, f, grid)
    rep11 = equivalence_scan(case11, conj, grid)
    by_logt = {round(math.log10(r.t), 9): r for r in rep00.rows}
    matched = 0
    for r in rep11.rows:
        mirror = by_logt.get(round(-math.log10(r.t), 9))
        if mirror is None:
            continue
        matched += 1
        assert r.ratio == pytest.approx(mirror.ratio, rel=1e-9)
    assert matched == len(rep11.rows) == len(rep00.rows)


# ---------------------------------------------------------------------------
# nonexistence demo
# ---------------------------------------------------------------------------

def test_demo_divergent_head(w_one):
    rep = negative_demo(0.5, 1.0, 2.0, w_one, w_one, GridSpec(1e-6, 1e6, 8))
    assert rep.confirmed
    assert all(row[3] == INF for row in rep.rows)


@pytest.mark.parametrize("q1,b0", [(1.05, "log(-3,-3)"), (1.2, "log(-3,-3)"),
                                   (1.5, "log(-1,0)")])
def test_demo_with_a_slow_growth_is_confirmed(q1, b0, w_one):
    # M grows like (ln 1/t)^(1/r) toward 0+, 1/r = 1/21, 1/6 and 1/3: over
    # the six decades below the middle row by a factor of only 1.14, 1.57
    # and 2.46, but unbounded all the same
    rep = negative_demo(0.5, 1.0, q1, parse_weight(b0), w_one)
    assert rep.confirmed and rep.verdict == "nonexistence confirmed"
    assert 1.0 < rep.growth_ratio < 3.0 and rep.monotone_decades == 6.0


def test_demo_closed_form_values(w_one):
    lm33 = parse_weight("log(-3,-3)")
    assert incompatibility_M(1.0, 2.0, lm33, w_one, math.exp(-3.0)) \
        == pytest.approx(2.0 / math.sqrt(5.0), rel=1e-12)
    assert incompatibility_M(1.0, 2.0, lm33, w_one, math.exp(-99.0)) \
        == pytest.approx(10.0 / math.sqrt(5.0), rel=1e-12)


def test_demo_role_swap(w_one):
    lm33 = parse_weight("log(-3,-3)")
    rep = negative_demo(0.5, 2.0, 1.0, w_one, lm33, GridSpec(1e-6, 1e6, 8))
    assert rep.swapped and rep.confirmed


@pytest.mark.parametrize("swapped", [False, True])
def test_demo_with_an_infinite_q_takes_the_limit_exponent(swapped, w_one):
    # r = q0 q1 / (q1 - q0) is inf / inf at q1 = inf, which gave a nan
    # exponent; its limit is q0.  q0 = 0.5, q1 = 1 gives the same r = 1, so
    # the same rows; and M(t) = (1 - ln t) / 2 for g = (1 - ln t)^-3
    lm33, grid = parse_weight("log(-3,-3)"), GridSpec(1e-6, 1e6, 8)
    q0, q1, b0, b1 = (INF, 1.0, w_one, lm33) if swapped \
        else (1.0, INF, lm33, w_one)
    rep = negative_demo(0.5, q0, q1, b0, b1, grid)
    assert rep.r_exponent == 1.0 and rep.swapped == swapped
    assert rep.confirmed
    assert rep.rows == negative_demo(0.5, 0.5, 1.0, lm33, w_one, grid).rows
    assert incompatibility_M(q0, q1, b0, b1, math.exp(-3.0)) \
        == pytest.approx(2.0, rel=1e-12)


def test_demo_underflowing_g_is_named():
    # g = b0/b1 = (1 + ln t)^-1003 underflows to 0 past t ~ 3.5 while the
    # head bound stays positive: M = head / g used to raise ZeroDivisionError
    with pytest.raises(IntegralOverflowError, match="g\\(t\\) underflows"):
        negative_demo(0.5, 1.0, 2.0, parse_weight("log(-3,-3)"),
                      parse_weight("log(1,1000.0)"), GridSpec(1e-6, 1e6, 8))


def test_demo_validation(w_one):
    with pytest.raises(ValueError):
        negative_demo(0.5, 1.0, 1.0, w_one, w_one)
    with pytest.raises(ValueError):
        negative_demo(0.0, 1.0, 2.0, w_one, w_one)


def test_nonlimiting_scan_regression(w_one):
    case = HolmstedtCase("nonlimiting", 1.0, 1.0, w_one, w_one,
                         theta0=0.25, theta1=0.75)
    grid = GridSpec(1e-4, 1e4, 8)
    for f in (CHI,
              realize_rearrangement(parse_profile("powerlog(0.5,0.25,-0.25)"))):
        rep = equivalence_scan(case, f, grid)
        assert rep.rows and rep.skipped == 0
        assert rep.variation <= 10.0
        assert all(0.1 <= r.ratio <= 10.0 for r in rep.rows)


def test_lhs_limiting11_reduction_is_exact(w_l02):
    case11 = HolmstedtCase("limiting11", q0=2.0, q1=1.0,
                           b0=Flip(w_l02), b1=Flip(w_l02))
    case00 = HolmstedtCase("limiting00", 1.0, 2.0, w_l02, w_l02)
    f = profile_suite()[2]
    conj = realize_rearrangement(conjugate_profile(K_from_rearrangement(f)))
    table00 = DecompositionTable(f, *case00.spaces())
    for s in (0.3, 1.0, 4.0):
        direct = lhs_decomposition(case11, conj, s)
        assert direct == pytest.approx(s * table00.best(1.0 / s), rel=1e-12)


# ---------------------------------------------------------------------------
# the scan's canonical-term memo
# ---------------------------------------------------------------------------

# the benchmark's explog-scan shape: a stretched-exponential b0
EXPLOG_B0 = parse_weight("mul(log(0,-2),pow(explog(0.3),-1))")
EXPLOG_CASE = HolmstedtCase("limiting00", 1.0, 2.0, EXPLOG_B0,
                            parse_weight("log(0,-2)"))
MEMO_GRID = GridSpec(1e-4, 1e4, 8)
MIN1 = realize_rearrangement(parse_profile("min1"))


def _integral_key(f, x1, x2):
    """What QUADPACK is asked to integrate: a canonical term's bound
    integrand, or a closure over the parameters of one, on [x1, x2]."""
    owner = getattr(f, "__self__", None)
    if owner is not None:
        return owner, x1, x2
    cells = tuple(c.cell_contents for c in f.__closure__ or ())
    return f.__code__, cells, x1, x2


def _record_quad(monkeypatch) -> list:
    keys: list = []
    quad = sci_integrate.quad

    def recorded(f, x1, x2, *args, **kwargs):
        keys.append(_integral_key(f, x1, x2))
        return quad(f, x1, x2, *args, **kwargs)

    monkeypatch.setattr(sci_integrate, "quad", recorded)
    return keys


def _memoless_rows(case, f, grid) -> list[ScanRow]:
    """The rows ``equivalence_scan`` keeps, from ``verify_hypotheses``,
    ``lhs_decomposition`` and ``rhs_formula`` called without a memo."""
    verify_hypotheses(case)
    K = K_from_rearrangement(f)
    if case.kind == "limiting11":
        red = HolmstedtCase("limiting00", q0=case.q1, q1=case.q0,
                            b0=Flip(case.b1), b1=Flip(case.b0))
        conj = realize_rearrangement(conjugate_profile(K))
        table = DecompositionTable(conj, *red.spaces())
        conj_K = K_from_rearrangement(conj)
    else:
        table = DecompositionTable(f, *case.spaces())
    rows = []
    for t in grid.points():
        t = float(t)
        s = index_value(case, t)
        if s is None or not (0.0 < s < INF):
            continue
        lhs = lhs_decomposition(case, f, s, table)
        if case.kind == "limiting11":
            rhs = s * rhs_formula(red, conj_K, 1.0 / t)
        else:
            rhs = rhs_formula(case, K, t)
        if 0.0 < lhs < INF and 0.0 < rhs < INF:
            rows.append(ScanRow(t, lhs, rhs, lhs / rhs))
    return rows


def test_scan_hands_quadpack_each_integral_once(monkeypatch):
    # the memoless rows integrate the segments of I and J at every row; the
    # scan sweeps them, each whole segment once and each segment cut by the
    # grid once more, at its anchor, so it needs fewer integrals, and each
    # of them reaches QUADPACK once
    keys = _record_quad(monkeypatch)
    assert _memoless_rows(EXPLOG_CASE, MIN1, MEMO_GRID)
    needed = set(keys)
    assert len(keys) > len(needed)
    scans = []
    for _ in range(2):  # the second scan finds nothing the first one stored
        keys.clear()
        rep = equivalence_scan(EXPLOG_CASE, MIN1, MEMO_GRID)
        assert rep.rows and rep.skipped == 0
        assert len(keys) == len(set(keys))
        scans.append(set(keys))
    assert scans[0] == scans[1]
    assert len(scans[0]) < len(needed)


def test_no_memo_outlives_a_scan(monkeypatch):
    # a profile no other test uses, so a cache that outlived earlier scans
    # would still be cold for the first scan here
    f = realize_rearrangement(parse_profile("piecewise[(0.21,0.37),(3.3,1.9)]"))
    keys = _record_quad(monkeypatch)
    first = equivalence_scan(EXPLOG_CASE, f, MEMO_GRID)
    n_first = len(keys)
    second = equivalence_scan(EXPLOG_CASE, f, MEMO_GRID)
    assert n_first > 0
    assert len(keys) - n_first == n_first
    assert first.rows == second.rows


def _mp_quasi_norm(curve, theta, q, b, lo, hi):
    """||u^-theta b K||_{q,(lo,hi)} with the measure du/u in mpmath, in
    s = ln u with the side forms of b and the atoms of the curve."""
    forms = b.side_forms()

    def integrand(s):
        form, x = (forms[1], s) if s >= 0 else (forms[0], -s)
        u = mpmath.exp(s)
        weight = (1 + x) ** form.beta * mpmath.exp(
            sum(g * x ** al for al, g in form.gammas))
        piece = curve.pieces[curve.piece_index(float(u))]
        k = sum(a.coef * u ** a.power * (1 + x) ** a.logexp for a in piece)
        return (mpmath.exp(-theta * s) * weight * k) ** q

    cuts = sorted({mpmath.log(c) for c in curve.breaks + (1.0,) if lo < c < hi})
    ends = [mpmath.log(lo) if lo > 0.0 else -mpmath.inf, *cuts,
            mpmath.log(hi) if hi < INF else mpmath.inf]
    return mpmath.quad(integrand, ends) ** (mpmath.mpf(1) / q)


def _mp_rhs(case, K, t, s):
    """I + s J of ``case`` at t in 30-digit mpmath, for an index value s."""
    X0, X1 = case.spaces()
    with mpmath.workdps(30):
        return (_mp_quasi_norm(K.curve, X0.theta, X0.q, X0.b, 0.0, t)
                + s * _mp_quasi_norm(K.curve, X1.theta, X1.q, X1.b, t, INF))


@pytest.mark.parametrize("kind", ["limiting00", "limiting11", "nonlimiting"])
def test_scan_rows_equal_memoless_values(kind):
    # the rows of the memoless per-row evaluation: the same t and lhs, and
    # an rhs within 1e-13.  Where QUADPACK integrates the stretched terms of
    # a cut segment row by row (to its 1e-11 tolerance) the two rhs may lie
    # further apart; the sweep's is then within 1e-13 of 30-digit mpmath
    b1 = parse_weight("log(0,-2)")
    if kind == "limiting00":
        case, f = EXPLOG_CASE, MIN1
    elif kind == "limiting11":
        case = HolmstedtCase("limiting11", 2.0, 1.0, Flip(b1), Flip(EXPLOG_B0))
        f = MIN1
    else:
        # stretched-exponential terms that differ only in their coefficient
        case = HolmstedtCase("nonlimiting", 1.0, 2.0, b1, EXPLOG_B0,
                             theta0=0.25, theta1=0.75)
        f = realize_rearrangement(parse_profile("powerlog(0.5,0.25,-0.25)"))
    rep = equivalence_scan(case, f, MEMO_GRID)
    want = _memoless_rows(case, f, MEMO_GRID)
    assert len(rep.rows) == len(MEMO_GRID.points()) == len(want)
    assert [r[:2] for r in rep.rows] == [w[:2] for w in want]
    far = [(r, w) for r, w in zip(rep.rows, want)
           if abs(r.rhs - w.rhs) > 1e-13 * w.rhs]
    assert all(abs(r.rhs - w.rhs) <= 1e-11 * w.rhs for r, w in far)
    assert bool(far) == (kind == "nonlimiting")
    K = K_from_rearrangement(f)
    for r, w in far[:2]:
        exact = _mp_rhs(case, K, r.t, index_value(case, r.t))
        assert abs(r.rhs - exact) <= 1e-13 * exact < abs(w.rhs - exact)


#: the profile kinds of the sweep, each with both frames of the scan
SWEEP_PROFILES = ("min1", "power(0.4)", "powerlog(0.5,0.25,-0.25)",
                  "piecewise[(0.1,0.1),(0.5,0.3),(4,1.2),(20,2)]", "zero")
#: 33 points, 1e-1, 1 and 10 among them
SWEEP_GRID = GridSpec(1e-2, 1e2, 8)


@pytest.mark.parametrize("kind", ["limiting00", "limiting11", "nonlimiting"])
@pytest.mark.parametrize("text", SWEEP_PROFILES)
def test_scan_sweep_of_every_profile_kind(text, kind, w_l02, w_l03):
    # the swept rhs of every row against the memoless rhs_formula, 1e-13
    # apart (a row the memoless path skips, an infinite partial among them,
    # is skipped too); the breaks 0.1 and 1 and t = 1 are grid points
    f = realize_rearrangement(KProfile.zero() if text == "zero"
                              else parse_profile(text))
    if kind == "limiting00":
        case = HolmstedtCase(kind, 1.0, 2.0, w_l02, w_l03)
    elif kind == "limiting11":
        case = HolmstedtCase(kind, 2.0, 1.0, Flip(w_l03), Flip(w_l02))
    else:
        case = HolmstedtCase(kind, 1.0, 2.0, w_l02, w_l03,
                             theta0=0.25, theta1=0.75)
    rep = equivalence_scan(case, f, SWEEP_GRID)
    want = _memoless_rows(case, f, SWEEP_GRID)
    assert [r[:2] for r in rep.rows] == [w[:2] for w in want]
    assert all(abs(r.rhs - w.rhs) <= 1e-13 * w.rhs
               for r, w in zip(rep.rows, want))
    assert rep.skipped == len(SWEEP_GRID.points()) - len(want)
    assert bool(rep.rows) == (text in ("min1", SWEEP_PROFILES[3])
                              or kind == "nonlimiting" and text != "zero")


def test_limiting11_rows_read_the_direct_frame(monkeypatch):
    # the rhs of every limiting11 row is I + eta J in the case's own frame,
    # rhs_formula at that one point to within the 1e-13 of the memoless
    # rows; the scan evaluates the index once per row, and samples it once
    # for the hypothesis on every point of STANDARD_GRID
    b1 = parse_weight("log(0,-2)")
    case = HolmstedtCase("limiting11", 2.0, 1.0, Flip(b1), Flip(EXPLOG_B0))
    K = K_from_rearrangement(MIN1)
    ts = [float(t) for t in MEMO_GRID.points()]
    want = [rhs_formula(case, K, t) for t in ts]
    calls, sampled = [], []
    from kinterp import holmstedt, norms
    index, index_samples = norms.index, norms.index_samples

    def counted(*args):
        calls.append(args[0])
        return index(*args)

    def counted_samples(*args):
        sampled.append(args[-1])
        return index_samples(*args)

    monkeypatch.setattr(norms, "index", counted)
    monkeypatch.setattr(holmstedt, "index", counted)
    monkeypatch.setattr(norms, "index_samples", counted_samples)
    monkeypatch.setattr(holmstedt, "index_samples", counted_samples)
    rep = equivalence_scan(case, MIN1, MEMO_GRID)
    assert [r.t for r in rep.rows] == ts
    assert all(abs(r.rhs - w) <= 1e-13 * w for r, w in zip(rep.rows, want))
    assert len(calls) == len(ts)
    assert sampled == [STANDARD_GRID.points().tolist()]


#: the explog-scan scenario of the benchmark's first draw, and its rows
#: around t = 1
EXPLOG_SCAN = HolmstedtCase("limiting00", 1.0, 2.0,
                            parse_weight("mul(log(0,-2),pow(explog(0.294),-1))"),
                            parse_weight("log(0,-2)"))


def test_explog_scan_rows_near_one_against_mpmath():
    rep = equivalence_scan(EXPLOG_SCAN, MIN1, MEMO_GRID)
    near = [r for r in rep.rows if 0.5 < r.t < 2.0]
    assert len(near) == 5 and near[2].t == 1.0
    K = K_from_rearrangement(MIN1)
    for r in near:
        exact = _mp_rhs(EXPLOG_SCAN, K, r.t, index_value(EXPLOG_SCAN, r.t))
        assert abs(r.rhs - exact) <= 1e-13 * exact


# ---------------------------------------------------------------------------
# truncation levels read from K's segments
# ---------------------------------------------------------------------------

def _split_norms(f, X0, X1, lam):
    """(N0, N1) at level lam through the curves of ``truncation_split``."""
    f0, f1 = truncation_split(f, lam)
    return (space_norm(K_from_rearrangement(f0), X0),
            space_norm(K_from_rearrangement(f1), X1))


def _crossing_kind(f, lam):
    """Where the crossing point m of level lam falls."""
    m = _crossing_point(f, lam)
    if m in (0.0, INF):
        return "m = 0" if m == 0.0 else "m = inf"
    if m in f.curve.breaks:
        return "m on a break"
    piece = f.curve.pieces[f.curve.piece_index(m)]
    return "m in a log piece" if any(a.logexp for a in piece) \
        else "m in a power piece"


def test_table_levels_equal_the_split_norms_bit_for_bit(w_one, w_l02, w_l03):
    stairs = Rearrangement.staircase((0.01, 1.0, 50.0), (4.0, 1.0, 0.25))
    powerlog = realize_rearrangement(parse_profile("powerlog(0.5,0.25,-0.25)"))
    flat = realize_rearrangement(KProfile.power(1.0))  # f* = 1 everywhere
    X00 = (SpaceSpec(0.0, 1.0, w_l02), SpaceSpec(0.0, 2.0, w_l03))
    # q = inf on one side, and q = 1.5, whose two-atom pieces integrate
    # adaptively
    mixed = (SpaceSpec(0.25, INF, w_one), SpaceSpec(0.75, 1.5, w_l02))
    case11 = HolmstedtCase("limiting11", 2.0, 1.0, Flip(w_l02), Flip(w_l03))
    conj = _decomposition_table(case11, MIN1)
    panel = [
        (DecompositionTable(stairs, *X00), [5.0]),
        (DecompositionTable(stairs, *mixed), [5.0]),
        (DecompositionTable(Rearrangement.power(0.5, support=1.0), *X00), []),
        (DecompositionTable(powerlog, *X00), []),
        (DecompositionTable(powerlog, *mixed), []),
        (DecompositionTable(flat, SpaceSpec(0.25, 1.0, w_one),
                            SpaceSpec(0.75, 2.0, w_one)), [0.5]),
        (conj, []),
    ]
    kinds = set()
    for table, extra in panel:
        for lam in table.levels + extra:
            assert table.piece_norms(lam) \
                == _split_norms(table.f, table.X0, table.X1, lam)
            kinds.add(_crossing_kind(table.f, lam))
            if any(p == (Atom(lam, 0.0),) for p in table.f.curve.pieces):
                kinds.add("lam a step value")
    assert kinds == {"m = 0", "m = inf", "m on a break", "m in a power piece",
                     "m in a log piece", "lam a step value"}


def test_table_levels_build_no_curve(monkeypatch, w_l02, w_l03):
    # a level the table has not seen builds no curve and no rearrangement
    table = DecompositionTable(
        realize_rearrangement(parse_profile("powerlog(0.5,0.25,-0.25)")),
        SpaceSpec(0.0, 1.0, w_l02), SpaceSpec(0.0, 2.0, w_l03))
    lams = [0.5 * (a + b) for a, b in zip(table.levels, table.levels[1:])]
    want = [_split_norms(table.f, table.X0, table.X1, lam) for lam in lams]

    def refuse(*args, **kwargs):
        raise AssertionError("a curve was built")

    monkeypatch.setattr(PiecewiseCurve, "__init__", refuse)
    monkeypatch.setattr(Rearrangement, "__init__", refuse)
    assert [table.piece_norms(lam) for lam in lams] == want


def test_scan_calls_no_truncation_split(monkeypatch):
    # every binding of truncation_split raises, and the scan's rows stay
    f = realize_rearrangement(parse_profile("piecewise[(0.1,0.2),(2,1.5)]"))
    cases = [EXPLOG_CASE,
             HolmstedtCase("limiting11", 2.0, 1.0, Flip(parse_weight("log(0,-2)")),
                           Flip(parse_weight("log(0,-3)")))]
    want = [equivalence_scan(case, f, MEMO_GRID).rows for case in cases]
    original = profiles.truncation_split

    def refuse(*args):
        raise AssertionError("truncation_split called")

    for name, module in list(sys.modules.items()):
        if name.split(".")[0] == "kinterp" \
                and getattr(module, "truncation_split", None) is original:
            monkeypatch.setattr(module, "truncation_split", refuse)
    assert [equivalence_scan(case, f, MEMO_GRID).rows for case in cases] == want
