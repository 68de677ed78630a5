import math

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kinterp import profiles
from kinterp.profiles import (
    Atom,
    CurveClosureError,
    KProfile,
    PiecewiseCurve,
    Rearrangement,
    K_from_rearrangement,
    _crossing_probes,
    check_quasiconcave,
    conjugate_profile,
    parse_profile,
    profile_suite,
    random_rearrangement,
    realize_rearrangement,
    truncation_split,
)

GRID = np.logspace(-6, 6, 49)


# ---------------------------------------------------------------------------
# Evaluation and quasi-concavity
# ---------------------------------------------------------------------------

def test_profile_eval_examples():
    k = KProfile.min1()
    assert k(0.5) == 0.5
    assert k(3.0) == 1.0
    two_sqrt = KProfile(PiecewiseCurve((), ((Atom(2.0, 0.5),),)))
    assert two_sqrt(4.0) == 4.0


def test_check_quasiconcave_examples():
    assert check_quasiconcave(KProfile.min1()).ok
    assert check_quasiconcave(KProfile.power(1.0)).ok
    bad = KProfile(PiecewiseCurve((), ((Atom(1.0, 1.5),),)))
    rep = check_quasiconcave(bad)
    assert not rep.ok
    assert rep.violation is not None


def test_powerlog_literal_quasiconcave():
    # log perturbations must stay below the power slack on each side
    k = parse_profile("powerlog(0.5,0.25,-0.25)")
    assert check_quasiconcave(k).ok
    assert k(1.0) == 1.0
    steep = parse_profile("powerlog(0.5,1,-1)")
    assert not check_quasiconcave(steep).ok


# ---------------------------------------------------------------------------
# K from a rearrangement and back
# ---------------------------------------------------------------------------

def test_K_from_indicator():
    K = K_from_rearrangement(Rearrangement.indicator(1.0))
    assert K(0.25) == 0.25
    assert K(3.0) == 1.0
    assert check_quasiconcave(K).ok


def test_K_from_power():
    K = K_from_rearrangement(Rearrangement.power(0.5))
    for t in (0.25, 1.0, 4.0):
        assert K(t) == pytest.approx(2.0 * math.sqrt(t), rel=1e-15)


def test_K_from_zero():
    K = K_from_rearrangement(Rearrangement.zero())
    assert K(1.0) == 0.0


def test_realize_examples():
    r = realize_rearrangement(KProfile.min1())
    assert r(0.5) == 1.0 and r(2.0) == 0.0
    r2 = realize_rearrangement(KProfile.power(1.0))
    assert r2(0.3) == 1.0 and r2(7.0) == 1.0
    two_sqrt = KProfile(PiecewiseCurve((), ((Atom(2.0, 0.5),),)))
    r3 = realize_rearrangement(two_sqrt)
    assert r3(4.0) == pytest.approx(0.5, rel=1e-15)


def test_realize_rejects_non_quasiconcave():
    bad = KProfile(PiecewiseCurve((), ((Atom(1.0, 1.5),),)))
    with pytest.raises(ValueError):
        realize_rearrangement(bad)


def test_round_trip_exact_on_suite():
    for f in profile_suite():
        K = K_from_rearrangement(f)
        back = K_from_rearrangement(realize_rearrangement(K))
        for t in GRID:
            assert back(float(t)) == pytest.approx(K(float(t)), rel=1e-12)


def test_hull_realization_band():
    # quasi-concave but not concave: flat, then a new rise, then flat
    k = KProfile(PiecewiseCurve(
        (1.0, 4.0, 8.0),
        ((Atom(1.0, 1.0),), (Atom(1.0, 0.0),), (Atom(0.25, 1.0),),
         (Atom(2.0, 0.0),))))
    assert check_quasiconcave(k).ok
    f = realize_rearrangement(k)
    # the hull of (0, 0), (1, 1), (4, 1), (8, 2) and the flat ray
    assert f.curve.breaks == (1.0, 8.0)
    assert f.curve.pieces == ((Atom(1.0, 0.0),), (Atom(1.0 / 7.0, 0.0),), ())
    K2 = K_from_rearrangement(f)
    for t in GRID:
        ratio = K2(float(t)) / k(float(t))
        assert 0.5 - 1e-9 <= ratio <= 2.0 + 1e-9


def test_the_hull_ends_in_the_last_piece_ray():
    # K = t, then 1, then t / 2 from t = 2 on: the node (2, 1) lies below
    # the ray of slope 1/2 from (1, 1), so the majorant is min(t, (t+1)/2)
    k = KProfile(PiecewiseCurve((1.0, 2.0), (
        (Atom(1.0, 1.0),), (Atom(1.0, 0.0),), (Atom(0.5, 1.0),))))
    f = realize_rearrangement(k)
    assert f.curve.breaks == (1.0,)
    assert [f(t) for t in (0.5, 1.5, 1e12)] == [1.0, 0.5, 0.5]
    K2 = K_from_rearrangement(f)
    for t in (0.5, 1.5, 3e4, 1e6, 1e12):
        assert K2(t) == pytest.approx(min(t, (t + 1.0) / 2.0), rel=1e-12)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.integers(-12, 12), min_size=1, max_size=6, unique=True),
       st.lists(st.floats(0.0, 1.0), min_size=7, max_size=7))
# flat from (1, 1) to (10^0.5, 1), then a ray of slope 7.0e-310: f* = K'
# rises from 0 by less than 1e-300, so only the hull is concave
@example([0, 1], [0.0] * 6 + [7.0e-310 * 10.0 ** 0.5])
def test_an_affine_profile_realizes_its_least_concave_majorant(half_decades,
                                                                us):
    # nodes with K nondecreasing and K(t)/t nonincreasing: each rise is
    # (t1 / t0)^u for u in [0, 1], and the ray's slope is u K/t at the last
    # node.  The majorant is concave (f* nonincreasing), lies above K, and
    # meets K at each of its vertices, so no concave majorant lies below it.
    # A profile is differentiated only when its f* does not rise at any
    # break, so f* is nonincreasing exactly
    ts = [10.0 ** (0.5 * n) for n in sorted(half_decades)]
    ks = [ts[0]]
    for t0, t1, u in zip(ts, ts[1:], us):
        ks.append(ks[-1] * (t1 / t0) ** u)
    ray = us[-1] * ks[-1] / ts[-1]
    nodes = KProfile.from_nodes(list(zip(ts, ks))).curve  # flat past them
    k = KProfile(PiecewiseCurve(nodes.breaks, nodes.pieces[:-1] + (
        (Atom(ks[-1] - ray * ts[-1], 0.0), Atom(ray, 1.0)),)))
    assert check_quasiconcave(k).ok
    f = realize_rearrangement(k)
    values = [sum(a.coef for a in p) for p in f.curve.pieces]
    assert all(v >= 0.0 for v in values)
    assert all(v1 <= v0 for v0, v1 in zip(values, values[1:]))
    assert values[-1] == pytest.approx(ray, rel=1e-12, abs=1e-300)
    K2 = K_from_rearrangement(f)
    probes = ts + [math.sqrt(a * b) for a, b in zip(ts, ts[1:])] \
        + [ts[0] / 2.0, ts[-1] * 2.0, ts[-1] * 1e6]
    for t in probes:
        assert K2(t) >= k(t) * (1.0 - 1e-12)
    for b in f.curve.breaks:
        assert K2(b) == pytest.approx(k(b), rel=1e-12)


@pytest.mark.parametrize("text,why", [
    # curved and not concave: f* = K' rises on (1, 1.53)
    ("powerlog(0.208,-0.026,-0.168)", "neither concave nor piecewise affine"),
    # f* = K' rises on (1, 1.134), by 1.3 % relative
    ("powerlog(0.5,0.25,-0.25)", "neither concave nor piecewise affine"),
    ("power(0.0)", r"K\(0\+\) > 0"),  # K = 1, which no f* integrates to
])
def test_a_profile_without_an_exact_majorant_is_a_named_error(text, why):
    k = parse_profile(text)
    with pytest.raises(ValueError, match=why):
        realize_rearrangement(k)
    if "concave" in why:  # and its derivative is no rearrangement
        with pytest.raises(ValueError, match="increases at t="):
            Rearrangement(k.curve.derivative())


def _mp_value(curve, t):
    """The curve at t, its atoms summed at the working mpmath precision."""
    ln_t = mpmath.log(t)
    ln_L = mpmath.log(1 + abs(ln_t))
    return mpmath.fsum(a.coef * mpmath.exp(a.power * ln_t + a.logexp * ln_L)
                       for a in curve.pieces[curve.piece_index(t)])


def test_a_realized_powerlog_never_rises():
    # 400 seeded draws from the benchmark's range of powerlog(theta, a0,
    # aInf): each realizes an f* that falls at 50 digits on 101 log points
    # in [0.5, 4], around t = 1 where a non-concave one rises, or is the
    # named error of a curved non-concave profile
    rng = np.random.default_rng(20261022)
    grid = [0.5 * 8.0 ** (i / 100) for i in range(101)]
    for params in zip(rng.uniform(0.2, 0.8, 400), rng.uniform(-0.2, 0.0, 400),
                      rng.uniform(-0.2, 0.0, 400)):
        try:
            f = realize_rearrangement(KProfile.powerlog(*map(float, params)))
        except ValueError as exc:
            assert "neither concave nor piecewise affine" in str(exc)
            continue
        with mpmath.workdps(50):
            values = [_mp_value(f.curve, t) for t in grid]
        assert all(v1 <= v0 for v0, v1 in zip(values, values[1:])), params


# ---------------------------------------------------------------------------
# Truncation
# ---------------------------------------------------------------------------

def test_truncation_examples():
    chi = Rearrangement.indicator(1.0)
    f0, f1 = truncation_split(chi, 2.0)
    assert f0.curve.is_zero()
    assert f1(0.5) == 1.0

    f0, f1 = truncation_split(chi, 0.5)
    assert f0(0.5) == 0.5 and f1(0.5) == 0.5

    fp = Rearrangement.power(0.5)
    f0, f1 = truncation_split(fp, 1.0)
    assert f0(0.25) == pytest.approx(1.0, rel=1e-12)   # u^-1/2 - 1 at 1/4
    assert f1(0.25) == 1.0
    assert f1(4.0) == pytest.approx(0.5, rel=1e-12)


@pytest.mark.parametrize("lam", [0.25, 1.0])
def test_truncation_below_a_constant_tail(lam):
    # f* = 1 never drops below lam: the split takes f1 = lam everywhere
    # (the t_cross = inf branch), exactly
    f = realize_rearrangement(KProfile.power(1.0))
    f0, f1 = truncation_split(f, lam)
    K, K0, K1 = (K_from_rearrangement(g) for g in (f, f0, f1))
    for t in (0.01, 0.5, 2.0, 100.0):
        assert f0(t) + f1(t) == f(t)
        assert K0(t) + K1(t) == K(t)
        assert f1(t) == min(f(t), lam)


# f* = 2 on (0, 1/2], 1/u on (1/2, 4], 0 beyond: the 1/u piece straddles 1,
# where its antiderivative ln u changes sign in L = 1 + |ln u|
_STRADDLING = PiecewiseCurve((0.5, 4.0), ((Atom(2.0, 0.0),), (Atom(1.0, -1.0),), ()))


def _straddling_K(t):
    return 2.0 * t if t <= 0.5 else 1.0 + math.log(2.0 * min(t, 4.0))


def test_antiderivative_of_a_straddling_inverse_power():
    F = _STRADDLING.antiderivative()
    for t in (0.25, 0.5, 0.9, 1.0, 2.0, 4.0, 10.0):
        assert F(t) == pytest.approx(_straddling_K(t), rel=1e-15)


@pytest.mark.parametrize("lam", [0.1, 0.5, 1.5, 3.0])
def test_truncation_of_a_straddling_inverse_power(lam):
    # without an integral curve the split integrates f* itself
    f = Rearrangement(_STRADDLING)
    f0, f1 = truncation_split(f, lam)
    K0, K1 = K_from_rearrangement(f0), K_from_rearrangement(f1)
    for t in (0.25, 0.9, 2.0, 4.0, 10.0):
        assert K0(t) + K1(t) == pytest.approx(_straddling_K(t), rel=1e-14)


def test_truncation_level_validation():
    with pytest.raises(ValueError):
        truncation_split(Rearrangement.indicator(1.0), 0.0)


@settings(max_examples=30, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1),
       st.floats(min_value=-2.5, max_value=2.5))
def test_split_additivity_random(seed, log_lam):
    rng = np.random.default_rng(seed)
    f = random_rearrangement(rng)
    lam = math.exp(log_lam)
    f0, f1 = truncation_split(f, lam)
    K, K0, K1 = (K_from_rearrangement(g) for g in (f, f0, f1))
    for v in (1e-5, 0.3, 1.0, 17.0, 1e4):
        assert f0(v) + f1(v) == pytest.approx(f(v), abs=1e-12 * max(1.0, f(v)))
        assert K0(v) + K1(v) == pytest.approx(K(v), rel=1e-12)
        assert f1(v) <= lam * (1.0 + 1e-12)


@settings(max_examples=20, deadline=None)
@given(st.integers(min_value=0, max_value=2 ** 31 - 1))
def test_K_quasiconcave_random(seed):
    rng = np.random.default_rng(seed)
    f = random_rearrangement(rng)
    assert check_quasiconcave(K_from_rearrangement(f)).ok


# ---------------------------------------------------------------------------
# Conjugation
# ---------------------------------------------------------------------------

def test_conjugate_pointwise():
    k = KProfile.from_nodes([(1.0, 1.0), (10.0, 2.0)])
    kc = conjugate_profile(k)
    for t in GRID:
        t = float(t)
        assert kc(t) == pytest.approx(t * k(1.0 / t), rel=1e-12)


def test_conjugate_involution():
    for f in profile_suite():
        K = K_from_rearrangement(f)
        back = conjugate_profile(conjugate_profile(K))
        for t in (0.01, 1.0, 70.0):
            assert back(t) == pytest.approx(K(t), rel=1e-12)


# ---------------------------------------------------------------------------
# Curves
# ---------------------------------------------------------------------------

def test_antiderivative_closure_error():
    curve = PiecewiseCurve((1.0,), ((Atom(1.0, 0.5, 1.0),), ()))
    with pytest.raises(CurveClosureError):
        curve.antiderivative()


def test_non_integrable_at_zero_rejected():
    curve = PiecewiseCurve((1.0,), ((Atom(1.0, -1.5),), ()))
    with pytest.raises(ValueError):
        curve.antiderivative()


def test_rearrangement_monotonicity_enforced():
    with pytest.raises(ValueError, match="increases at t="):
        Rearrangement.staircase((1.0, 2.0), (1.0, 3.0))
    with pytest.raises(ValueError, match="negative at t="):
        Rearrangement(PiecewiseCurve((1.0,), ((Atom(-1.0, 0.0),), ())))


def test_parse_profile_literals():
    assert parse_profile("min1")(0.5) == 0.5
    assert parse_profile("power(0.5)")(4.0) == 2.0
    assert parse_profile("piecewise[(1,1),(10,2)]")(10.0) == 2.0
    with pytest.raises(ValueError):
        parse_profile("spline(3)")


# ---------------------------------------------------------------------------
# Crossing point of a truncation level
# ---------------------------------------------------------------------------

def _crossing_point_200(f: Rearrangement, lam: float) -> float:
    """Reference: the crossing point by the probe walk and a fixed 200-step
    bisection in ln t, whose m = 0, inf, on-a-break and single-power returns
    the solver keeps bit for bit."""
    curve = f.curve
    probes = [1e-12] + list(curve.breaks) + [max(list(curve.breaks) or [1.0]) * 1e12]
    prev_t = probes[0]
    if curve(prev_t) < lam:
        return 0.0
    for t in probes[1:]:
        v = curve(t * (1.0 - 1e-15))
        v_right = curve(t * (1.0 + 1e-15)) if t < probes[-1] else v
        if v >= lam and v_right < lam:
            return t
        if v < lam:
            lo_t, hi_t = prev_t, t
            break
        prev_t = t
    else:
        return math.inf
    piece = curve.pieces[curve.piece_index(math.sqrt(lo_t * hi_t))]
    if len(piece) == 1 and piece[0].logexp == 0.0 and piece[0].power != 0.0:
        a = piece[0]
        return (lam / a.coef) ** (1.0 / a.power)
    x_lo, x_hi = math.log(lo_t), math.log(hi_t)
    for _ in range(200):
        m = 0.5 * (x_lo + x_hi)
        if curve(math.exp(m)) >= lam:
            x_lo = m
        else:
            x_hi = m
        if x_hi - x_lo < 1e-15:
            break
    return math.exp(0.5 * (x_lo + x_hi))


def _piece_root_mp(piece, lam: float, m: float) -> mpmath.mpf:
    """ln t* with sum of the piece's atoms at t* = lam, by a 50-digit
    bisection in ln t around ln m."""
    def excess(x):
        t = mpmath.exp(x)
        total = mpmath.mpf(0)
        for a in piece:
            term = mpmath.mpf(a.coef) * t ** mpmath.mpf(a.power)
            if a.logexp:
                term *= (1 + abs(x)) ** mpmath.mpf(a.logexp)
            total += term
        return total - lam
    with mpmath.workdps(50):
        lo, hi = mpmath.log(m) - mpmath.mpf("1e-9"), mpmath.log(m) + mpmath.mpf("1e-9")
        assert excess(lo) >= 0 > excess(hi)
        for _ in range(120):
            mid = (lo + hi) / 2
            lo, hi = (mid, hi) if excess(mid) >= 0 else (lo, mid)
        return (lo + hi) / 2


def _crossing_panel():
    """(rearrangement, levels): multi-atom pieces with log atoms on both
    sides of 1, a multi-atom piece of pure powers, a single pure power, a
    staircase and a constant; the levels are f* at points from 1e-9 to
    1e9 and at every probe of the crossing search, plus one above f* and
    one below it everywhere."""
    three = Rearrangement(PiecewiseCurve((1.0, 10.0), (
        (Atom(1.0, -0.5), Atom(2.0, -0.2, 0.5)),
        (Atom(2.0, -0.5, -0.5), Atom(0.5, -1.0), Atom(0.25, -0.3, -2.0)),
        (Atom(1.0, -2.0), Atom(0.5, -1.5)))))
    panel = []
    for f in (realize_rearrangement(parse_profile("powerlog(0.55,0.15,-0.15)")),
              three, Rearrangement.power(0.5, support=1.0),
              Rearrangement.staircase((0.01, 1.0, 50.0), (4.0, 1.0, 0.25)),
              Rearrangement.power(0.0)):
        first, rows = _crossing_probes(f.curve)
        levels = [f.curve(math.exp(x)) for x in
                  (-20.7, -12.0, -9.0, -3.0, -0.5, 0.3, 2.0, 9.0, 12.0, 20.7)]
        levels += [first, 2.0 * first] + [v for _, *vs in rows for v in vs]
        panel.append((f, sorted({lam for lam in levels if lam > 0.0})
                      + [1e-30]))
    return panel


def _counted(evals, evaluate):
    """``evaluate`` with 1 added to evals[0] per call."""
    def call(obj, t):
        evals[0] += 1
        return evaluate(obj, t)
    return call


def _count_piece_evaluations(monkeypatch, evals):
    """Count every evaluation of a piece: the probes' curve calls and the
    solver's steps on the piece's atoms."""
    monkeypatch.setattr(PiecewiseCurve, "__call__",
                        _counted(evals, PiecewiseCurve.__call__))
    monkeypatch.setattr(profiles, "_piece_value_slope",
                        _counted(evals, profiles._piece_value_slope))


@pytest.mark.parametrize("log_t", [-12.0, -9.0, 9.0, 12.0])
def test_crossing_point_stops_when_the_bracket_stops(monkeypatch, log_t):
    # at |ln t| > 8 one ulp of ln t exceeds the 1e-15 stop width; inside a
    # two-atom log piece m is within that width (plus two ulps of ln t*) of
    # the 50-digit root, after at most 20 piece evaluations, probes
    # included, where bisection made about 58
    from kinterp.profiles import _crossing_point
    f = realize_rearrangement(parse_profile("powerlog(0.55,0.15,-0.15)"))
    lam = f.curve(math.exp(log_t))
    piece = f.curve.pieces[f.curve.piece_index(math.exp(log_t))]
    assert len(piece) == 2 and all(a.logexp != 0.0 for a in piece)
    evals = [0]
    _count_piece_evaluations(monkeypatch, evals)
    m = _crossing_point(f, lam)
    assert evals[0] <= 20
    x = _piece_root_mp(piece, lam, m)
    with mpmath.workdps(50):
        assert abs(mpmath.log(m) - x) <= 1e-15 + 2.0 * math.ulp(float(x))


def test_crossing_point_panel(monkeypatch):
    # inside a piece, m is within the bisection's 1e-15 stop width (plus
    # two ulps of ln t*) of the exact root, found with at most 20 piece
    # evaluations, probes included; every other return is the bisection's.
    # Where one ulp of f* moves ln t by more than 4 ulps (cond > 4: f*'s
    # atoms cancel, or f* is nearly flat in ln t), evaluating f* in double
    # precision moves the root by up to 4 ulps times cond, and the bound
    # allows that too; two levels of the panel are such
    from kinterp.profiles import _crossing_point
    evals = [0]
    piece_value_slope = profiles._piece_value_slope

    kinds = set()
    ill = 0
    for f, levels in _crossing_panel():
        curve = f.curve
        for lam in levels:
            want = _crossing_point_200(f, lam)
            _count_piece_evaluations(monkeypatch, evals)
            evals[0] = 0
            m = _crossing_point(f, lam)
            monkeypatch.undo()
            assert evals[0] <= 20
            piece = curve.pieces[curve.piece_index(m)] if 0.0 < m < math.inf \
                else ()
            if m in (0.0, math.inf) or m in curve.breaks:
                kinds.add("m = 0" if m == 0.0 else "m = inf"
                          if m == math.inf else "m on a break")
                assert m == want
            elif len(piece) == 1 and piece[0].logexp == 0.0:
                kinds.add("one power")
                assert m == want
            else:
                kinds.add("log piece, " + ("t < 1" if m < 1.0 else "t > 1")
                          if any(a.logexp for a in piece) else "power sum")
                x = _piece_root_mp(piece, lam, m)
                with mpmath.workdps(50):
                    err = abs(mpmath.log(m) - x)
                _, slope = piece_value_slope(piece, m)
                cond = math.fsum(abs(profiles._atom_eval(a, m))
                                 for a in piece) / abs(slope)
                ill += cond > 4.0
                assert err <= 1e-15 + 2.0 * math.ulp(float(x)) \
                    + (4.0 * 2.0 ** -53 * cond if cond > 4.0 else 0.0)
    assert kinds == {"m = 0", "m = inf", "m on a break", "one power",
                     "log piece, t < 1", "log piece, t > 1", "power sum"}
    assert ill == 2
