import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
from mpmath import fp

from kinterp import norms
from kinterp.norms import (
    SpaceSpec,
    _quasi_norm,
    _segments,
    check_condition_monotone_index,
    index,
    index_limit,
    quasi_monotone_constant,
    space_norm,
    weighted_knorm,
)
from kinterp.profiles import (Atom, KProfile, K_from_rearrangement,
                              PiecewiseCurve, _segment_probe, parse_profile,
                              profile_suite)
from kinterp.quadrature import (GridSpec, IntegralOverflowError, STANDARD_GRID,
                                 term_memo)
from kinterp.weights import Flip, head_qnorm, parse_weight, tail_qnorm

INF = math.inf


# ---------------------------------------------------------------------------
# SpaceSpec validation
# ---------------------------------------------------------------------------

def test_limiting_space_requires_class(w_one, w_l02, w_lm20):
    with pytest.raises(ValueError):
        SpaceSpec(0.0, 1.0, w_one)
    with pytest.raises(ValueError):
        SpaceSpec(1.0, 1.0, w_l02)
    SpaceSpec(0.0, 1.0, w_l02)
    SpaceSpec(1.0, 1.0, w_lm20)
    SpaceSpec(0.5, 2.0, w_one)  # interior theta needs no class


@pytest.mark.parametrize("theta,beta", [(0.0, -3.0), (1.0, 2.0)])
def test_limiting_space_check_integrates_one_side(monkeypatch, power_pieces,
                                                  theta, beta):
    # log(2,-3): theta = 0 reads the tail (1+x)^-3 only, theta = 1 the head
    # (1+x)^2 only.  The compiled q-norm integral computes that side's whole
    # term once; the divergent head goes on to the generic call.
    from kinterp import weights
    original = weights.integrate_terms
    handed = []

    def recording(terms):
        handed.extend(terms)
        return original(terms)

    monkeypatch.setattr(weights, "integrate_terms", recording)
    b = parse_weight("log(2,-3)")
    if theta == 0.0:
        SpaceSpec(theta, 1.0, b)
    else:
        with pytest.raises(ValueError, match="head class"):
            SpaceSpec(theta, 1.0, b)
    assert power_pieces == [(beta, 0.0, INF)]
    assert [term.beta for term in handed] == ([] if theta == 0.0 else [beta])


# ---------------------------------------------------------------------------
# space_norm
# ---------------------------------------------------------------------------

def test_space_norm_examples(w_l02, w_one):
    K = KProfile.min1()
    assert space_norm(K, SpaceSpec(0.0, 1.0, w_l02)) == pytest.approx(2.0, rel=1e-12)
    assert space_norm(K, SpaceSpec(1.0, INF, w_one)) == pytest.approx(1.0)
    assert space_norm(K, SpaceSpec(0.5, 2.0, w_one)) == pytest.approx(
        math.sqrt(2.0), rel=1e-12)


def test_space_norm_q_inf_is_the_exact_supremum(far_sup):
    # min1 is 1 on (1, inf), so the norm is the supremum of the weight there
    b, want = far_sup
    got = space_norm(KProfile.min1(), SpaceSpec(0.0, INF, b))
    assert math.isfinite(got)
    assert got == pytest.approx(want, rel=1e-12)


def test_space_norm_divergent(w_l02):
    # an unbounded profile against a theta=0 space diverges at infinity
    K = KProfile.power(0.3)
    assert space_norm(K, SpaceSpec(0.0, 1.0, w_l02)) == INF


def test_space_norm_homogeneous(w_l02):
    K = K_from_rearrangement(profile_suite()[2])
    spec = SpaceSpec(0.0, 1.0, w_l02)
    base = space_norm(K, spec)
    for c in (0.5, 3.0):
        assert space_norm(K.scale(c), spec) == pytest.approx(c * base, rel=1e-12)


def test_space_norm_zero(w_l02):
    assert space_norm(KProfile.zero(), SpaceSpec(0.0, 1.0, w_l02)) == 0.0


# ---------------------------------------------------------------------------
# The segment walk
# ---------------------------------------------------------------------------

def _segments_by_probe(curve, lo, hi):
    """The reference walk: the piece and the side of each segment are those
    of a point probed inside it."""
    cuts = sorted({lo, hi, 1.0} | set(curve.breaks))
    cuts = [c for c in cuts if lo <= c <= hi]
    if cuts[0] != lo:
        cuts.insert(0, lo)
    if cuts[-1] != hi:
        cuts.append(hi)
    probe_breaks = [c for c in cuts if 0.0 < c < INF]
    first = 0 if lo == 0.0 else 1
    for k, (u0, u1) in enumerate(zip(cuts[:-1], cuts[1:])):
        if u0 == u1:
            continue
        mid = _segment_probe(probe_breaks, k + first)
        atoms = curve.pieces[_piece_index_by_scan(curve, mid)]
        if atoms:
            yield u0, u1, "lo" if mid < 1.0 else "hi", atoms


def _piece_index_by_scan(curve, t):
    """The reference piece index: a linear scan for the breaks below t."""
    i = 0
    while i < len(curve.breaks) and t > curve.breaks[i]:
        i += 1
    return i


_POINTS = (0.01, 0.3, 0.5, 1.0, 2.0, 7.0, 40.0)
_ATOMS = st.lists(st.builds(Atom, st.sampled_from((1.0, 0.5, -2.0)),
                            st.sampled_from((-1.0, 0.0, 0.5, 1.0)),
                            st.sampled_from((0.0, 0.0, -1.0, 2.0))),
                  max_size=2)


@settings(max_examples=200, deadline=None)
@given(st.lists(st.sampled_from(_POINTS), unique=True, max_size=5),
       st.data())
def test_segments_match_the_probe_walk(breaks, data):
    # the cut set {lo, hi, 1} | breaks holds every segment end, so the piece
    # is the one below u1 and the side is "lo" exactly when u1 <= 1
    breaks = sorted(breaks)
    pieces = data.draw(st.lists(_ATOMS, min_size=len(breaks) + 1,
                                max_size=len(breaks) + 1))
    curve = PiecewiseCurve(breaks, pieces)
    ends = st.one_of(st.sampled_from((0.0, INF) + _POINTS),
                     st.floats(min_value=1e-3, max_value=1e3))
    lo, hi = sorted(data.draw(st.lists(ends, min_size=2, max_size=2,
                                       unique=True)))
    assert list(_segments(curve, lo, hi)) == list(_segments_by_probe(curve, lo, hi))
    for t in curve.breaks + tuple(_segment_probe(curve.breaks, i)
                                  for i in range(len(curve.breaks) + 1)):
        for s in (math.nextafter(t, 0.0), t, math.nextafter(t, INF)):
            assert curve.piece_index(s) == _piece_index_by_scan(curve, s)


# ---------------------------------------------------------------------------
# partial norms I over (0, t) and J over (t, inf)
# ---------------------------------------------------------------------------

def _partials(K, t, X0, X1):
    """(I, J) at t for the space pair (X0, X1), as the Holmstedt
    right-hand side reads them."""
    return space_norm(K, X0, 0.0, t), space_norm(K, X1, t, INF)


def test_partial_examples(w_l02, w_l03):
    X0, X1 = SpaceSpec(0.0, 1.0, w_l02), SpaceSpec(0.0, 1.0, w_l03)
    I, J = _partials(KProfile.min1(), 1.0, X0, X1)
    assert I == pytest.approx(1.0, rel=1e-12)
    assert J == pytest.approx(0.5, rel=1e-12)
    assert _partials(KProfile.zero(), 1.0, X0, X1) == (0.0, 0.0)


def test_partial_monotonicity(w_l02, w_l03):
    K = K_from_rearrangement(profile_suite()[1])
    X0, X1 = SpaceSpec(0.0, 1.0, w_l02), SpaceSpec(0.0, 2.0, w_l03)
    ts = GridSpec(1e-4, 1e4, 8).points()
    Is, Js = [], []
    for t in ts:
        I, J = _partials(K, float(t), X0, X1)
        Is.append(I)
        Js.append(J)
    assert all(a <= b + 1e-12 for a, b in zip(Is, Is[1:]))
    assert all(a >= b - 1e-12 for a, b in zip(Js, Js[1:]))


def test_a_root_beyond_the_float_range_is_a_named_error():
    # the q-th power fits in a double, its (1/q)-th root does not
    b = parse_weight("mul(explog(0.1),mul(log(-3,-0.336),log(-2.343,1)))")
    with pytest.raises(IntegralOverflowError, match="quasi-norm"):
        space_norm(KProfile.min1(), SpaceSpec(0.5, 1e-3, b))


# ---------------------------------------------------------------------------
# segment plans
# ---------------------------------------------------------------------------

#: breaks 0.1, 0.5, 4 and 20; t = 1 cuts the piece (0.5, 4)
PLAN_PROFILE = "piecewise[(0.1,0.1),(0.5,0.3),(4,1.2),(20,2)]"
#: inside a piece, at a break, at t = 1, and a second point in a piece
PLAN_TS = (0.05, 0.2, 0.3, 0.5, 1.0, 2.0, 3.0, 4.0, 7.0, 20.0, 50.0)
#: (theta, q, weight) of the pieces of I and J: canonical terms, the adaptive
#: fallback (q = 2.5 on a two-atom piece), and divergences at 0 (head of
#: log(0,-0.5) under u^-1 K -> 1) and at inf (tail of log(0,-0.5) under K -> 2)
PLAN_NORMS = ((0.0, 1.0, "log(0,-2)"), (1.0, 2.0, "log(-2,0)"),
              (0.0, 2.5, "log(0,-3)"), (1.0, 1.0, "log(0,-0.5)"),
              (0.0, 1.0, "log(0,-0.5)"))


def _both_sides(curve, theta, q, b, t):
    return (weighted_knorm(curve, theta, q, b, 0.0, t),
            weighted_knorm(curve, theta, q, b, t, INF))


def _record_side_terms(monkeypatch) -> list:
    """(u0, u1) of each segment whose terms ``weighted_knorm`` builds."""
    handed: list = []
    side_terms = norms.side_terms

    def recorded(form, atoms, side, u0, u1):
        handed.append((u0, u1))
        return side_terms(form, atoms, side, u0, u1)

    monkeypatch.setattr(norms, "side_terms", recorded)
    return handed


@pytest.mark.parametrize("theta,q,text", PLAN_NORMS)
def test_plans_give_the_memoless_values(theta, q, text):
    curve = parse_profile(PLAN_PROFILE).curve
    b = parse_weight(text)
    want = [_both_sides(curve, theta, q, b, t) for t in PLAN_TS]
    with term_memo():
        got = [_both_sides(curve, theta, q, b, t) for t in PLAN_TS]
        again = [_both_sides(curve, theta, q, b, t) for t in PLAN_TS]
    assert got == want and again == want
    diverges = any(r.divergent for pair in want for r in pair)
    assert diverges == (text == "log(0,-0.5)")


def test_plans_give_the_memoless_partial_norms(w_l02, w_lm20):
    # (theta, q0, b0, q1, b1) of a theta = 0 and a theta = 1 frame; the
    # tail of log(0,-0.5) diverges, which no SpaceSpec admits, so the
    # quasi-norms are read directly
    curve = parse_profile(PLAN_PROFILE).curve
    b_half = parse_weight("log(0,-0.5)")
    frames = [(0.0, 1.0, w_l02, 2.0, b_half), (1.0, 2.0, w_lm20, 1.0, w_lm20)]

    def partials(t, theta, q0, b0, q1, b1):
        return (_quasi_norm(curve, theta, q0, b0, 0.0, t),
                _quasi_norm(curve, theta, q1, b1, t, INF))

    want = [partials(t, *frame) for frame in frames for t in PLAN_TS]
    with term_memo():
        got = [partials(t, *frame) for frame in frames for t in PLAN_TS]
    assert got == want
    assert all(J == INF for _, J in want[:len(PLAN_TS)])


def test_a_plan_belongs_to_its_curve_alone(w_l02):
    # curves with the same breaks, each dropped after its call: a plan found
    # through anything but the curve object itself would hand a later curve
    # the segments of an earlier one
    def value(c):
        curve = PiecewiseCurve((1.0,), ((Atom(c, 1.0),), (Atom(c, 0.0),)))
        return weighted_knorm(curve, 0.0, 1.0, w_l02, 0.5, INF)

    coefs = [1.0 + k / 8.0 for k in range(24)]
    want = [value(c) for c in coefs]
    with term_memo():
        assert [value(c) for c in coefs] == want


def test_a_second_t_in_a_piece_builds_one_segment_per_side(monkeypatch,
                                                           w_l02, w_l03):
    handed = _record_side_terms(monkeypatch)
    K = parse_profile(PLAN_PROFILE)
    X0, X1 = SpaceSpec(0.0, 1.0, w_l02), SpaceSpec(0.0, 2.0, w_l03)
    with term_memo():
        _partials(K, 2.0, X0, X1)
        assert handed == [(0.0, 0.1), (0.1, 0.5), (0.5, 1.0), (1.0, 2.0),
                          (2.0, 4.0), (4.0, 20.0), (20.0, INF)]
        handed.clear()
        _partials(K, 3.0, X0, X1)
        assert handed == [(1.0, 3.0), (3.0, 4.0)]


def test_a_full_range_call_keeps_no_plan(monkeypatch, w_l02):
    handed = _record_side_terms(monkeypatch)
    curve = parse_profile(PLAN_PROFILE).curve
    with term_memo():
        weighted_knorm(curve, 0.0, 1.0, w_l02)
        assert len(handed) == 6
        handed.clear()
        weighted_knorm(curve, 0.0, 1.0, w_l02, 0.0, 2.0)
        assert handed == [(0.0, 0.1), (0.1, 0.5), (0.5, 1.0), (1.0, 2.0)]


def test_no_plan_outlives_its_scope(monkeypatch, w_l02, w_l03):
    handed = _record_side_terms(monkeypatch)
    K = parse_profile(PLAN_PROFILE)
    X0, X1 = SpaceSpec(0.0, 1.0, w_l02), SpaceSpec(0.0, 2.0, w_l03)

    def sweep() -> int:
        handed.clear()
        for t in PLAN_TS:
            _partials(K, t, X0, X1)
        return len(handed)

    memoless = sweep()
    with term_memo():
        first = sweep()
    assert 0 < first < memoless
    with term_memo():
        assert sweep() == first
    with pytest.raises(KeyError):
        with term_memo():
            sweep()
            raise KeyError("leaves the scope")
    with term_memo():
        assert sweep() == first
    assert sweep() == memoless


# ---------------------------------------------------------------------------
# indices
# ---------------------------------------------------------------------------

def test_index_examples(w_l02, w_l03):
    assert index(1.0, "rho", 1.0, w_l02, 1.0, w_l03).value == pytest.approx(2.0)
    mixed = index(1.0, "rho", 1.0, w_l02, 2.0, w_l02)
    assert mixed.value == pytest.approx(math.sqrt(3.0), rel=1e-12)
    for t in (1.0, math.e, 150.0):
        p = index(t, "rho", 1.0, w_l02, 2.0, w_l02)  # rho_eps at eps = 1/2
        assert p.numerator ** 1.5 / p.denominator \
            == pytest.approx(math.sqrt(3.0), rel=1e-12)


def test_index_undefined(w_one, w_l02):
    # both tails infinite: undefined quotient, reported rather than raised
    p = index(1.0, "rho", 1.0, w_one, 1.0, w_one)
    assert not p.defined


def test_eta_rho_duality(w_l02, w_l03):
    fb0, fb1 = Flip(w_l02), Flip(w_l03)
    for t in (0.07, 1.0, 19.0):
        e = index(t, "eta", 1.0, fb0, 1.0, fb1).value
        r = index(1.0 / t, "rho", 1.0, w_l02, 1.0, w_l03).value
        assert e == r


@pytest.mark.parametrize("b0, q1, b1, zero, inf", [
    # rho -> 0 like 1/ln ln(1/t): a converging head over a ln-growing one
    ("log(-4,-1.2)", 1, "log(-1,-2.7)", -1, 1),
    # both heads converge: rho(0+) is the quotient of the full-line norms
    ("log(-2,-2.2)", 1, "mul(log(-0.3,-3.6),pow(explog(0.3),-0.8))", 0, 1),
    # the benchmark's q1 = 2 shape: rho ~ (ln 1/t)^-1/2 toward 0+
    ("log(-2.182,-2.182)", 2, "log(0,-3.254)", -1, 1),
    # equal stretched factors: the powers of |ln t| decide at inf
    ("mul(log(0,-3),pow(explog(0.5),-1))", 1,
     "mul(log(2,-2),pow(explog(0.5),-1))", 0, -1),
])
def test_index_limit_examples(b0, q1, b1, zero, inf):
    b0, b1 = parse_weight(b0), parse_weight(b1)
    assert index_limit("rho", 1.0, b0, q1, b1, "zero") == zero
    assert index_limit("rho", 1.0, b0, q1, b1, "inf") == inf
    # eta(t) of the flipped weights is rho(1/t); with the slots swapped it
    # is 1/rho(1/t)
    fb0, fb1 = Flip(b0), Flip(b1)
    assert index_limit("eta", 1.0, fb0, q1, fb1, "inf") == zero
    assert index_limit("eta", 1.0, fb0, q1, fb1, "zero") == inf
    assert index_limit("eta", q1, fb1, 1.0, fb0, "inf") == -zero
    assert index_limit("eta", q1, fb1, 1.0, fb0, "zero") == -inf


def test_index_limit_rejects_bad_input(w_one, w_l02):
    with pytest.raises(ValueError, match="index kind"):
        index_limit("rho_eps", 1.0, w_l02, 1.0, w_l02, "inf")
    with pytest.raises(ValueError, match="end"):
        index_limit("rho", 1.0, w_l02, 1.0, w_l02, "one")
    with pytest.raises(ValueError, match="diverges"):
        index_limit("rho", 1.0, w_one, 1.0, w_l02, "inf")


def _side_log_norm(b, q, side, x, tail, other_full):
    """ln of int_x^inf F (``tail``) or of int_0^x F + ``other_full``, for F
    the side form (1+y)^B exp(sum G y^alpha) of b^q, by tanh-sinh quadrature
    (mpmath's float context).  The integrand is F(x +- s)/F(x), written with
    log1p/expm1 so that nothing cancels at x = 1e8."""
    form = b.side(side).scaled(q)
    B, gammas = form.beta, form.gammas
    if not gammas:  # closed forms
        if tail:
            return (B + 1.0) * math.log1p(x) - math.log(-(B + 1.0))
        head = math.log1p(x) if B == -1.0 else math.expm1(
            (B + 1.0) * math.log1p(x)) / (B + 1.0)
        return math.log(head + other_full)
    ln_fx = B * math.log1p(x) + sum(g * x ** a for a, g in gammas)
    sign = 1.0 if tail or max(gammas)[1] < 0.0 else -1.0

    def ratio(s):  # F(x + sign s) / F(x)
        d = sign * s
        return math.exp(B * math.log1p(d / (1.0 + x)) + sum(
            g * x ** a * math.expm1(a * math.log1p(d / x)) for a, g in gammas))

    h = 1.0 / abs(B / (1.0 + x) + sum(g * a * x ** (a - 1.0) for a, g in gammas))
    cuts = [s if sign > 0.0 else min(s, x) for s in (0.0, h, 10.0 * h, 100.0 * h)]
    part = fp.quad(ratio, cuts)
    if tail:
        return ln_fx + math.log(part)
    if sign > 0.0:  # a converging head: the full line less the tail
        return math.log(_full_integral(form) - part * math.exp(ln_fx) + other_full)
    return ln_fx + math.log(part + other_full * math.exp(-ln_fx))


def _full_integral(form) -> float:
    return fp.quad(lambda y: form.value(y), [0.0, 1.0, 100.0, 1e4, fp.inf])


def _oracle_log_index(kind, q0, b0, q1, b1, end, x):
    """ln rho (or eta) at |ln t| = x."""
    side = "lo" if end == "zero" else "hi"
    other = "hi" if end == "zero" else "lo"
    tail = (kind == "rho") == (end == "inf")
    logs = [_side_log_norm(b, q, side, x, tail, 0.0 if tail else
                           _full_integral(b.side(other).scaled(q))) / q
            for q, b in ((q0, b0), (q1, b1))]
    return logs[0] - logs[1]


def _random_limit_spec(rng: random.Random):
    """A random pair of the index's class on a coarse grid of exponents, so
    that the deciding difference already shows at |ln t| = 1e6.  The second
    stretched factor often equals the first, fully or in its leading term,
    which sends the decision to the later comparisons."""
    betas = (-3, -2, -1.5, -1, -0.5, 0, 0.5, 1)

    def stretch():
        return {alpha: rng.choice((-1, -0.5, 0.5, 1))
                for alpha in rng.sample((0.5, 0.7), rng.choice((0, 1, 2)))}

    def weight(factors):
        text = f"log({rng.choice(betas)},{rng.choice(betas)})"
        for alpha, gamma in sorted(factors.items()):
            text = f"mul({text},pow(explog({alpha}),{gamma}))"
        return parse_weight(text)

    while True:
        kind = rng.choice(("rho", "eta"))
        q0, q1 = rng.choice((1, 2)), rng.choice((1, 2))
        s0 = stretch()
        s1 = rng.choice((s0, {**s0, 0.5: rng.choice((-1, 1))}, stretch()))
        b0, b1 = weight(s0), weight(s1)
        norm = tail_qnorm if kind == "rho" else head_qnorm
        if all(math.isfinite(norm(b, q, 1.0)) for q, b in ((q0, b0), (q1, b1))):
            return kind, q0, b0, q1, b1


def test_index_limit_matches_the_oracle():
    """ln of the index at |ln t| = 1e6, 1e7, 1e8 moves in the direction
    :func:`index_limit` names, and for a finite limit it settles."""
    rng = random.Random(5)
    seen = set()
    for _ in range(40):
        spec = _random_limit_spec(rng)
        for end in ("zero", "inf"):
            want = index_limit(*spec, end)
            seen.add(want)
            l6, l7, l8 = (_oracle_log_index(*spec, end, x)
                          for x in (1e6, 1e7, 1e8))
            label = (spec[0], spec[1], spec[2].to_text(), spec[3],
                     spec[4].to_text(), end, want, (l6, l7, l8))
            if want == 0:
                assert abs(l8 - l7) <= abs(l7 - l6) + 1e-9, label
                assert abs(l8 - l6) < 1e-2, label
            else:
                assert want * (l7 - l6) > 0.0 and want * (l8 - l7) > 0.0, label
    assert seen == {-1, 0, 1}


# ---------------------------------------------------------------------------
# quasi-monotone constants
# ---------------------------------------------------------------------------

def test_quasi_monotone_examples(w_l02):
    ts = GridSpec(1e-2, 1e2, 16).points()
    assert quasi_monotone_constant(ts) == 1.0
    assert quasi_monotone_constant(1.0 / ts) == pytest.approx(1e4)
    pairs = [index(float(t), "rho", 1.0, w_l02, 2.0, w_l02)
             for t in GridSpec(1.0, 1e8, 16).points()]
    rho14 = [p.numerator ** 1.25 / p.denominator for p in pairs]
    assert quasi_monotone_constant(rho14) == pytest.approx(1.0)


def test_quasi_monotone_direction(w_l02):
    ts = GridSpec(1e-2, 1e2, 8).points()
    assert quasi_monotone_constant(ts, "nonincreasing") == pytest.approx(1e4)


# ---------------------------------------------------------------------------
# the epsilon-condition checker
# ---------------------------------------------------------------------------

def test_condition_mixed_pair_passes(w_l02):
    rep = check_condition_monotone_index("rho_eps", 1.0, w_l02, 2.0, w_l02)
    assert rep.passed
    assert rep.best_constant <= rep.threshold
    assert rep.best_eps in [eps for eps, _ in rep.per_eps]


def test_condition_decaying_pair_fails(w_l02, w_l01):
    rep = check_condition_monotone_index("rho_eps", 1.0, w_l02, 2.0, w_l01)
    assert not rep.passed
    assert all(c > rep.threshold for _, c in rep.per_eps)


def test_condition_without_evidence_fails(w_one, w_l02):
    # `one` has no finite tail norm, so every grid point is skipped
    rep = check_condition_monotone_index("rho_eps", 1.0, w_one, 2.0, w_l02)
    assert rep.skipped_points == len(STANDARD_GRID.points())
    assert not rep.passed
    assert rep.best_constant == INF and rep.best_eps is None


def test_condition_eta_for_reduced_pairing(w_l02):
    # the head-side gate of the t -> 1/t reduction (slots swapped, weights
    # flipped) opens whenever the original tail-side gate does
    base = check_condition_monotone_index("rho_eps", 1.0, w_l02, 2.0, w_l02)
    red = check_condition_monotone_index(
        "eta_eps", 2.0, Flip(w_l02), 1.0, Flip(w_l02))
    assert base.passed and red.passed


# ---------------------------------------------------------------------------
# scan-supporting inequalities
# ---------------------------------------------------------------------------

def test_rho_J_dominates_tail_times_K(w_l02, w_l03):
    K = K_from_rearrangement(profile_suite()[0])
    for t in GridSpec(1e-4, 1e4, 8).points():
        t = float(t)
        p = index(t, "rho", 1.0, w_l02, 1.0, w_l03)
        J = space_norm(K, SpaceSpec(0.0, 1.0, w_l03), t, INF)
        lhs = p.value * J
        rhs = tail_qnorm(w_l02, 1.0, t) * K(t)
        assert lhs >= rhs * (1.0 - 1e-9)


def test_J_dominates_K_times_weight(w_l02, w_l03):
    # J(t,f) >= c K(t,f) b1(t) with one fixed constant across the suite
    c = 0.2
    for f in profile_suite():
        K = K_from_rearrangement(f)
        for t in (0.01, 1.0, 100.0):
            J = space_norm(K, SpaceSpec(0.0, 1.0, w_l03), t, INF)
            assert J >= c * K(t) * w_l03(t) * (1.0 - 1e-9)


def test_condition_eps_ladder(w_l02):
    # calibration anchor: at threshold 4 on the 8-decade grid the mixed pair
    # is rejected at eps = 1/4 but admitted from eps = 1/8 downward
    rep = check_condition_monotone_index("rho_eps", 1.0, w_l02, 2.0, w_l02)
    by_eps = dict(rep.per_eps)
    assert by_eps[0.25] > rep.threshold
    assert by_eps[0.125] <= rep.threshold


def test_rhs_undefined_index_raises(w_one):
    from kinterp.holmstedt import HolmstedtCase, rhs_formula
    # divergent tails on both slots leave rho undefined at every t
    case = HolmstedtCase("limiting00", 1.0, 1.0, w_one, w_one)
    with pytest.raises(ValueError, match="undefined"):
        rhs_formula(case, KProfile.min1(), 1.0)
