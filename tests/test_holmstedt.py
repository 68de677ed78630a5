import math

import numpy as np
import pytest
from scipy import integrate as sci_integrate

from kinterp.holmstedt import (
    DecompositionTable,
    HolmstedtCase,
    HypothesisError,
    ScanRow,
    _rhs,
    equivalence_scan,
    incompatibility_M,
    index_value,
    lhs_decomposition,
    negative_demo,
    rhs_formula,
    verify_hypotheses,
)
from kinterp.norms import SpaceSpec, space_norm
from kinterp.profiles import (
    KProfile,
    K_from_rearrangement,
    Rearrangement,
    conjugate_profile,
    parse_profile,
    profile_suite,
    realize_rearrangement,
)
from kinterp.quadrature import GridSpec, IntegralOverflowError
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


#: one case of each kind, with the weight classes its spaces require
RHS_CASES = (
    ("limiting00", dict(q0=1.0, q1=2.0, b0="log(0,-2)", b1="log(0,-3)")),
    ("limiting11", dict(q0=2.0, q1=1.0, b0="log(-2,0)", b1="log(-3,-2)")),
    ("interior_equal_q", dict(q0=2.0, q1=2.0, b0="log(0,-1)", b1="one",
                              theta=0.4)),
    ("nonlimiting", dict(q0=1.0, q1=3.0, b0="log(1,2)", b1="log(0,-1)",
                         theta0=0.25, theta1=0.75)),
)


@pytest.mark.parametrize("kind,params", RHS_CASES, ids=[k for k, _ in RHS_CASES])
def test_one_rhs_for_every_case_kind(kind, params):
    # I over (0, t) in X0 plus s J over (t, inf) in X1, whatever the kind
    params = dict(params, b0=parse_weight(params["b0"]),
                  b1=parse_weight(params["b1"]))
    case = HolmstedtCase(kind, **params)
    X0, X1 = case.spaces()
    K = K_from_rearrangement(profile_suite()[2])
    for t in (0.03, 1.0, 7.0):
        s = index_value(case, t)
        want = space_norm(K, X0, 0.0, t) + s * space_norm(K, X1, t, INF)
        assert _rhs((X0, X1), K, t, s) == rhs_formula(case, K, t) == want
        assert 0.0 < want < INF


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
    keys = _record_quad(monkeypatch)
    assert _memoless_rows(EXPLOG_CASE, MIN1, MEMO_GRID)
    needed = set(keys)
    assert len(keys) > len(needed)
    for _ in range(2):  # the second scan finds nothing the first one stored
        keys.clear()
        rep = equivalence_scan(EXPLOG_CASE, MIN1, MEMO_GRID)
        assert rep.rows and rep.skipped == 0
        assert len(keys) == len(set(keys))
        # the memo changes how often an integral reaches QUADPACK, not which
        assert set(keys) == needed


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


@pytest.mark.parametrize("kind", ["limiting00", "limiting11", "nonlimiting"])
def test_scan_rows_equal_memoless_values(kind):
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
    assert len(rep.rows) == len(MEMO_GRID.points())
    assert rep.rows == _memoless_rows(case, f, MEMO_GRID)
