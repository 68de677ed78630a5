import itertools
import math
import random

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st
import mpmath
from mpmath import fp

from kinterp import norms
from kinterp.norms import (
    SpaceSpec,
    _qnorm_samples,
    _segments,
    check_condition_monotone_index,
    index,
    index_limit,
    quasi_monotone_constant,
    segments_norm,
    space_norm,
)
from kinterp.profiles import (Atom, KProfile, K_from_rearrangement,
                              PiecewiseCurve, _segment_probe, parse_profile,
                              profile_suite)
from kinterp.quadrature import GridSpec, IntegralOverflowError, STANDARD_GRID
from kinterp.reiteration import CompositeWeight, ReiterationSpec
from kinterp.weights import Flip, One, head_qnorm, parse_weight, tail_qnorm

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


@pytest.mark.parametrize("q", [1.0, 2.5, INF])
def test_segments_norm_skips_the_empty_segments(w_l02, q):
    # empty pieces below, between and above the nonzero ones; at q = 2.5
    # the two-atom piece does not expand and is integrated adaptively
    curve = PiecewiseCurve((0.1, 0.5, 3.0, 8.0), (
        (), (Atom(1.0, 1.0),), (), (Atom(2.0, 0.0), Atom(0.5, 0.5)), ()))
    segs = list(curve.sided_segments())
    nonzero = [seg for seg in segs if seg[3]]
    assert len(nonzero) == 2 < len(segs)
    got = segments_norm(segs, 0.5, q, w_l02)
    assert 0.0 < got < INF
    assert got == segments_norm(nonzero, 0.5, q, w_l02)
    assert segments_norm(PiecewiseCurve.zero().sided_segments(), 0.5, q,
                         w_l02) == 0.0


# ---------------------------------------------------------------------------
# The segment walk
# ---------------------------------------------------------------------------

def _segments_by_probe(curve):
    """The reference walk over (0, inf): the piece and the side of each
    segment are those of a point probed inside it."""
    probe_breaks = sorted({1.0} | set(curve.breaks))
    cuts = [0.0, *probe_breaks, INF]
    for k, (u0, u1) in enumerate(zip(cuts[:-1], cuts[1:])):
        mid = _segment_probe(probe_breaks, k)
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
    # the cut set {0, inf, 1} | breaks holds every segment end, so the piece
    # is the one below u1 and the side is "lo" exactly when u1 <= 1
    breaks = sorted(breaks)
    pieces = data.draw(st.lists(_ATOMS, min_size=len(breaks) + 1,
                                max_size=len(breaks) + 1))
    curve = PiecewiseCurve(breaks, pieces)
    assert list(_segments(curve)) == list(_segments_by_probe(curve))
    for t in curve.breaks + tuple(_segment_probe(curve.breaks, i)
                                  for i in range(len(curve.breaks) + 1)):
        for s in (math.nextafter(t, 0.0), t, math.nextafter(t, INF)):
            assert curve.piece_index(s) == _piece_index_by_scan(curve, s)


# ---------------------------------------------------------------------------
# partial norms I over (0, t) and J over (t, inf)
# ---------------------------------------------------------------------------

def _partials(K, t, X0, X1):
    """(I, J) at t for the space pair (X0, X1), as the Holmstedt
    right-hand side reads them: a sweep of the one point t."""
    (I,), (J,) = norms.sweep_partials(K, X0, X1, [t])
    return I, J


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


@pytest.mark.parametrize("call", [
    lambda: tail_qnorm(parse_weight("log(300,-3)"), 0.5, 1e-8),
    lambda: head_qnorm(parse_weight("log(-3,300)"), 0.5, 1e8),
    lambda: index(1e-8, "rho", 0.5, parse_weight("log(300,-3)"), 0.5,
                  parse_weight("log(0,-4)")),
    lambda: _qnorm_samples("rho", 0.5, parse_weight("log(300,-3)"), [1e-8, 1.0]),
    lambda: _qnorm_samples("eta", 0.5, parse_weight("log(-3,300)"), [1.0, 1e8]),
    lambda: CompositeWeight(ReiterationSpec(
        0, 0.5, 1.0, One(), 0.5, parse_weight("log(300,-3)"), 0.5,
        parse_weight("log(0,-4)")))(1e-8),
], ids=["tail", "head", "index", "rho-samples", "eta-samples", "composite"])
def test_a_weight_root_beyond_the_float_range_is_a_named_error(call):
    # the q-th power integral fits in a double, its root (the square for
    # q = 0.5) does not
    with pytest.raises(IntegralOverflowError, match="float range"):
        call()


def test_a_piece_coefficient_power_beyond_the_float_range_is_named():
    with pytest.raises(IntegralOverflowError, match=r"piece .*1e\+300"):
        space_norm(parse_profile("piecewise[(1,1e300)]"),
                   SpaceSpec(0.5, 2.0, One()))


def test_a_root_beyond_the_float_range_is_a_named_error():
    # the q-th power fits in a double, its (1/q)-th root does not
    b = parse_weight("mul(explog(0.1),mul(log(-3,-0.336),log(-2.343,1)))")
    with pytest.raises(IntegralOverflowError, match="quasi-norm"):
        space_norm(KProfile.min1(), SpaceSpec(0.5, 1e-3, b))


@pytest.mark.parametrize("q,weight,match", [
    # a stretched canonical term whose integrand peaks near e^1200: QUADPACK
    # met a bare OverflowError in LogTerm.integrand
    (0.3, "explog(0.945)", r"the integral of LogTerm\(.*\) overflows"),
    # the adaptive segment's (u^-theta b K)^q, near e^3740 at its peak
    (30.0, "log(3.048,37.45)", r"\(u\^-0\.5 b K\)\^30\.0 at u = .* exceeds"),
])
def test_an_integrand_beyond_the_float_range_is_a_named_error(q, weight, match):
    profile = parse_profile("piecewise[(0.5,0.7),(3,2)]")
    with pytest.raises(IntegralOverflowError, match=match):
        space_norm(profile, SpaceSpec(0.5, q, parse_weight(weight)))


# ---------------------------------------------------------------------------
# the sweep of the partials over a grid
# ---------------------------------------------------------------------------

#: breaks 0.1, 0.5, 4 and 20; t = 1 cuts the piece (0.5, 4)
SWEEP_PROFILE = "piecewise[(0.1,0.1),(0.5,0.3),(4,1.2),(20,2)]"
#: the points of a scan grid, plus points on every break, on t = 1, a
#: piece holding one point only, and points at the ends of the float range
#: (the smallest subnormal, a subnormal, and near the largest double)
SWEEP_TS = sorted({float(t) for t in GridSpec(1e-3, 1e3, 8).points()}
                  | {0.1, 0.15, 0.5, 1.0, 4.0, 20.0, 5e-324, 1e-310, 1.7e308})
#: (theta, q, weight) of the pieces of I and J: canonical terms, the adaptive
#: fallback (q = 2.5 on a two-atom piece), suprema (q = inf, theta = 0 and
#: 1), and divergences at 0 (head of log(0,-0.5) under u^-1 K -> 1) and at
#: inf (tail of log(0,-0.5) under K -> 2)
SWEEP_NORMS = ((0.0, 1.0, "log(0,-2)"), (1.0, 2.0, "log(-2,0)"),
               (0.0, 2.5, "log(0,-3)"), (0.0, INF, "log(0,-2)"),
               (1.0, INF, "log(-2,0)"), (1.0, 1.0, "log(0,-0.5)"),
               (0.0, 1.0, "log(0,-0.5)"))


def _pointwise(curve, theta, q, b, ts):
    """(I, J) at each point from a sweep of that point alone, one sweep per
    point and side."""
    return ([norms._sweep(curve, theta, q, b, [t], tail=False)[0] for t in ts],
            [norms._sweep(curve, theta, q, b, [t], tail=True)[0] for t in ts])


def _swept(curve, theta, q, b, ts):
    return (norms._sweep(curve, theta, q, b, ts, tail=False),
            norms._sweep(curve, theta, q, b, ts, tail=True))


def _agree(got, want, rel=1e-13) -> bool:
    """The same infinities, and the finite values within ``rel``."""
    return len(got) == len(want) and all(
        g == w if INF in (g, w) else abs(g - w) <= rel * abs(w)
        for g, w in zip(got, want))


@pytest.mark.parametrize("theta,q,text", SWEEP_NORMS)
def test_sweep_gives_the_pointwise_values(theta, q, text):
    curve = parse_profile(SWEEP_PROFILE).curve
    b = parse_weight(text)
    want = _pointwise(curve, theta, q, b, SWEEP_TS)
    got = _swept(curve, theta, q, b, SWEEP_TS)
    assert all(_agree(g, w) for g, w in zip(got, want))
    # a point on a break or on t = 1 sums the whole segments as a sweep of
    # that point alone does, in its order
    edges = [i for i, t in enumerate(SWEEP_TS) if t in (0.1, 0.5, 1.0, 4.0, 20.0)]
    assert len(edges) == 5
    assert all(g[i] == w[i] for g, w in zip(got, want) for i in edges)
    diverges = any(INF in side for side in want)
    assert diverges == (text == "log(0,-0.5)")


def test_sweep_gives_the_pointwise_partial_norms(w_l02, w_lm20):
    # (theta, q0, b0, q1, b1) of a theta = 0 and a theta = 1 frame; the
    # tail of log(0,-0.5) diverges, which no SpaceSpec admits, so the
    # quasi-norms are read directly
    curve = parse_profile(SWEEP_PROFILE).curve
    b_half = parse_weight("log(0,-0.5)")
    for theta, q0, b0, q1, b1 in [(0.0, 1.0, w_l02, 2.0, b_half),
                                  (1.0, 2.0, w_lm20, 1.0, w_lm20)]:
        I = norms._sweep(curve, theta, q0, b0, SWEEP_TS, tail=False)
        J = norms._sweep(curve, theta, q1, b1, SWEEP_TS, tail=True)
        assert _agree(I, _pointwise(curve, theta, q0, b0, SWEEP_TS)[0])
        assert _agree(J, _pointwise(curve, theta, q1, b1, SWEEP_TS)[1])
        assert (b1 is b_half) == (J == [INF] * len(SWEEP_TS))


def _record_side_terms(monkeypatch) -> list:
    """(u0, u1) of each segment whose terms ``norms`` builds."""
    handed: list = []
    side_terms = norms.side_terms

    def recorded(form, atoms, side, u0, u1):
        handed.append((u0, u1))
        return side_terms(form, atoms, side, u0, u1)

    monkeypatch.setattr(norms, "side_terms", recorded)
    return handed


def test_a_second_t_in_a_piece_builds_one_segment_per_side(monkeypatch,
                                                           w_l02, w_l03):
    # t = 2 and t = 3 both lie in the piece (1, 4): each side of the sweep
    # builds the terms of every segment once and one anchor in that piece,
    # (1, 2) for I and (3, 4) for J, not one cut segment per point
    handed = _record_side_terms(monkeypatch)
    K = parse_profile(SWEEP_PROFILE)
    X0, X1 = SpaceSpec(0.0, 1.0, w_l02), SpaceSpec(0.0, 2.0, w_l03)
    norms.sweep_partials(K, X0, X1, [2.0, 3.0])
    segments = [(0.0, 0.1), (0.1, 0.5), (0.5, 1.0), (1.0, 4.0), (4.0, 20.0),
                (20.0, INF)]
    assert handed == segments + [(1.0, 2.0)] + segments + [(3.0, 4.0)]


@pytest.mark.parametrize("text", ["min1", "power(0.4)", "powerlog(0.5,0.25,-0.25)",
                                  SWEEP_PROFILE, "zero"])
def test_sweep_partials_of_every_profile_kind(text, w_l02):
    # an interior frame, where every profile's partials are finite, and a
    # q = inf frame, whose parts are suprema
    K = KProfile.zero() if text == "zero" else parse_profile(text)
    for X0, X1 in [(SpaceSpec(0.25, 1.0, w_l02), SpaceSpec(0.75, 2.0, w_l02)),
                   (SpaceSpec(0.25, INF, w_l02), SpaceSpec(0.75, INF, w_l02))]:
        I, J = norms.sweep_partials(K, X0, X1, SWEEP_TS)
        alone = [_partials(K, t, X0, X1) for t in SWEEP_TS]
        assert _agree(I, [i for i, _ in alone])
        assert _agree(J, [j for _, j in alone])
        assert (text == "zero") == (I + J == [0.0] * (2 * len(SWEEP_TS)))


def test_a_divergent_segment_computes_no_part(monkeypatch):
    # every head of the theta = 1 frame diverges at 0 and every tail of the
    # theta = 0 frame at inf: those points are +inf without an anchor or a
    # running sum, while the finite side still takes both
    curve = parse_profile(SWEEP_PROFILE).curve
    b = parse_weight("log(0,-0.5)")
    sums = []
    running_sums = norms.running_sums

    def recorded(terms, xs, start):
        sums.append(len(xs))
        return running_sums(terms, xs, start)

    monkeypatch.setattr(norms, "running_sums", recorded)
    assert norms._sweep(curve, 1.0, 1.0, b, SWEEP_TS, tail=False) \
        == [INF] * len(SWEEP_TS)
    assert norms._sweep(curve, 0.0, 1.0, b, SWEEP_TS, tail=True) \
        == [INF] * len(SWEEP_TS)
    assert sums == []
    norms._sweep(curve, 1.0, 1.0, b, SWEEP_TS, tail=True)
    # one running sum per piece that holds a point inside: (0, 0.1),
    # (0.1, 0.5), (0.5, 1), (1, 4), (4, 20) and (20, inf)
    assert len(sums) == 6 and sum(sums) == len(SWEEP_TS) - 5


@pytest.mark.parametrize("theta,text,tail,piece", [
    (1.0, "log(1,0)", False, (0.0, 0.1)),  # sup of u^-1 b K at 0
    (0.0, "log(0,1)", True, (20.0, INF)),  # sup of b K at inf
])
def test_a_divergent_supremum_computes_no_part_beyond_it(monkeypatch, theta,
                                                          text, tail, piece):
    # q = inf: the walk computes the parts and the whole of the piece whose
    # supremum is +inf, and no part or whole after it
    curve = parse_profile(SWEEP_PROFILE).curve
    ranges = []
    segment_sup = norms._segment_sup

    def recorded(*args):
        ranges.append(args[-2:])
        return segment_sup(*args)

    monkeypatch.setattr(norms, "_segment_sup", recorded)
    got = norms._sweep(curve, theta, INF, parse_weight(text), SWEEP_TS, tail)
    assert got == [INF] * len(SWEEP_TS)
    inside = [t for t in SWEEP_TS if piece[0] < t < piece[1]]
    parts = [(t, piece[1]) if tail else (piece[0], t)
             for t in (inside[::-1] if tail else inside)]
    assert ranges == parts + [piece]


@pytest.mark.parametrize("q", [2.5, INF])
def test_unexpanded_parts_are_computed_once_per_point(monkeypatch, q):
    # q = inf and a two-atom piece under q = 2.5 have no canonical terms:
    # each whole segment is computed once, and at each point only the part
    # of the segment that holds it; in the theta = 0 and the theta = 1 frame
    curve = parse_profile(SWEEP_PROFILE).curve
    name = "_segment_sup" if q == INF else "_segment_integral"
    ranges = []
    segment = getattr(norms, name)

    def recorded(*args):
        ranges.append(args[-2:])
        return segment(*args)

    monkeypatch.setattr(norms, name, recorded)
    for (theta, text), tail in itertools.product(
            [(0.0, "log(0,-3)"), (1.0, "log(-2,0)")], (False, True)):
        ranges.clear()
        norms._sweep(curve, theta, q, parse_weight(text), SWEEP_TS, tail)
        assert len(ranges) == len(set(ranges))
        edges = {0.0, 0.1, 0.5, 1.0, 4.0, 20.0, INF}
        wholes = [r for r in ranges if set(r) <= edges]
        cuts = [r for r in ranges if not set(r) <= edges]
        assert all(len(set(r) - edges) == 1 and set(r) - edges <= set(SWEEP_TS)
                   for r in cuts)
        # the two-atom pieces are (0.1, 0.5), (0.5, 1), (1, 4) and (4, 20)
        inside = sum(1 for t in SWEEP_TS if 0.1 < t < 20.0 and t not in edges)
        assert len(cuts) == (inside if q != INF else len(SWEEP_TS) - 5)
        assert len(wholes) <= 6


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


# ---------------------------------------------------------------------------
# index samples
# ---------------------------------------------------------------------------

#: grids below 1, above 1, through 1 (with 1 itself) and the hypothesis grid
_INDEX_GRIDS = ([1e-6, 1e-3, 0.2, 0.9], [1.5, 10.0, 3e4, 1e8],
                [1e-8, 0.03, 1.0, 2.0, 5e5], STANDARD_GRID.points().tolist())

_STRETCHED = "mul(log(0,-2),pow(explog(0.294),-1))"
#: its tail exceeds the float range below t = 1e-8
_HUGE_TAIL = "mul(log(240.95,-2),pow(explog(0.3),-1))"


def _index_loop(kind, q0, b0, q1, b1, ts):
    """The per-point loop that :func:`norms.index_samples` replaces."""
    return [index(t, kind, q0, b0, q1, b1) for t in ts]


def _outcome(call):
    """The value of call(), or the class of the error it raises."""
    try:
        return call()
    except Exception as exc:  # the class is the outcome compared
        return type(exc)


@pytest.mark.parametrize("kind,b0,b1", [
    ("rho", "log(0,-2)", "log(-1,-3)"),
    ("rho", "log(1,-4)", "one"),  # b1 has no finite tail: every point skips
    ("eta", "log(-2,0)", "log(-3,-1)"),
    ("eta", "flip(log(0,-2.5))", "log(-1.5,2)"),
])
@pytest.mark.parametrize("q0,q1", [(0.5, 1.0), (1.0, 2.5), (2.5, 0.5),
                                   (1.0, INF)])
def test_index_samples_equal_the_index_without_a_stretched_side(
        kind, b0, b1, q0, q1):
    b0, b1 = parse_weight(b0), parse_weight(b1)
    for ts in _INDEX_GRIDS:
        assert norms.index_samples(kind, q0, b0, q1, b1, ts) \
            == _index_loop(kind, q0, b0, q1, b1, ts)


def _mp_qnorm(kind, b, q, t):
    """tail_qnorm (rho) or head_qnorm (eta) of b at t in 30-digit mpmath, in
    s = ln u with b's side forms."""
    lo, hi = b.side_forms()

    def b_q(s):
        form, x = (hi, s) if s >= 0 else (lo, -s)
        return ((1 + x) ** form.beta * mpmath.exp(
            sum(g * x ** al for al, g in form.gammas))) ** q

    with mpmath.workdps(30):
        lt = mpmath.log(t)
        cuts = sorted({lt, mpmath.mpf(0)})
        if kind == "rho":
            value = mpmath.quad(b_q, [c for c in cuts if c >= lt]
                                + [mpmath.inf])
        else:
            value = mpmath.quad(b_q, [-mpmath.inf]
                                + [c for c in cuts if c <= lt])
        return value ** (1 / mpmath.mpf(q))


@pytest.mark.parametrize("kind,q0,b0,q1,b1", [
    ("rho", 1.0, _STRETCHED, 2.0, "log(0,-2)"),
    ("rho", 2.5, "pow(explog(0.5),-1)", 0.5, _STRETCHED),
    ("rho", 1.0, "explog(0.5)", 1.0, _STRETCHED),  # no finite numerator
    ("eta", 0.5, f"flip({_STRETCHED})", 1.0, "pow(explog(0.5),-1)"),
    ("eta", 2.0, "log(-2,0)", 1.0, "explog(0.5)"),  # undefined everywhere
])
def test_index_samples_of_stretched_weights(kind, q0, b0, q1, b1):
    # running sums from one exact far tail, within 1e-13 of 30-digit mpmath;
    # the same points are skipped as by the per-point loop
    b0, b1 = parse_weight(b0), parse_weight(b1)
    ts = STANDARD_GRID.points().tolist()
    got = norms.index_samples(kind, q0, b0, q1, b1, ts)
    want = _index_loop(kind, q0, b0, q1, b1, ts)
    assert [(p.defined, p.numerator == INF, p.denominator == INF)
            for p in got] == [(p.defined, p.numerator == INF,
                               p.denominator == INF) for p in want]
    for i in range(0, len(ts), 32):
        for q, b, side in ((q0, b0, got[i].numerator),
                           (q1, b1, got[i].denominator)):
            if side != INF:
                exact = _mp_qnorm(kind, b, q, ts[i])
                assert abs(side - exact) <= 1e-13 * exact


@pytest.mark.parametrize("kind,q0,b0,q1,b1,ts", [
    ("rho_eps", 1.0, "log(0,-2)", 1.0, "log(0,-2)", [1.0]),
    ("rho", -1.0, _STRETCHED, 1.0, "log(0,-2)", [0.5, 2.0]),
    ("eta", 1.0, f"flip({_STRETCHED})", 0.0, "log(-2,0)", [0.5, 2.0]),
    ("rho", 1.0, _STRETCHED, 1.0, "log(0,-2)", [0.0, 2.0]),
    ("eta", 1.0, f"flip({_STRETCHED})", 1.0, "log(-2,0)", [-1.0, 2.0]),
    ("rho", 3.0, "log(300,-2)", 1.0, "log(0,-2)", [1e-8, 1.0]),
    ("eta", 3.0, "log(-2,300)", 1.0, "log(-2,0)", [1.0, 1e8]),
    ("rho", math.nan, _STRETCHED, 1.0, "log(0,-2)", [0.5, 2.0]),
    # a stretched tail past the float range toward 0, and its eta mirror
    ("rho", 1.0, _HUGE_TAIL, 1.0, "log(0,-2)", STANDARD_GRID.points().tolist()),
    ("eta", 1.0, f"flip({_HUGE_TAIL})", 1.0, "log(-2,0)",
     STANDARD_GRID.points().tolist()),
])
def test_index_samples_raise_as_the_loop_does(kind, q0, b0, q1, b1, ts):
    b0, b1 = parse_weight(b0), parse_weight(b1)
    got = _outcome(lambda: norms.index_samples(kind, q0, b0, q1, b1, ts))
    want = _outcome(lambda: _index_loop(kind, q0, b0, q1, b1, ts))
    assert isinstance(want, type) and got is want


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


def test_condition_reads_no_tail_per_grid_point(monkeypatch):
    # the rho_eps condition of a stretched numerator on the 257 points of
    # STANDARD_GRID: one exact far tail and running sums of cells, where a
    # QUADPACK tail per point made 385 calls
    from kinterp import quadrature
    b0 = parse_weight(_STRETCHED)
    calls = []
    quad = quadrature._quad

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return quad(*args, **kwargs)

    monkeypatch.setattr(quadrature, "_quad", counted)
    rep = check_condition_monotone_index("rho_eps", 1.0, b0, 2.0,
                                         parse_weight("log(0,-2)"))
    assert rep.skipped_points == 0 and math.isfinite(rep.best_constant)
    assert len(calls) <= 8


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
        J = norms._sweep(K.curve, 0.0, 1.0, w_l03, [t], tail=True)[0]
        lhs = p.value * J
        rhs = tail_qnorm(w_l02, 1.0, t) * K(t)
        assert lhs >= rhs * (1.0 - 1e-9)


def test_J_dominates_K_times_weight(w_l02, w_l03):
    # J(t,f) >= c K(t,f) b1(t) with one fixed constant across the suite
    c = 0.2
    for f in profile_suite():
        K = K_from_rearrangement(f)
        for t in (0.01, 1.0, 100.0):
            J = norms._sweep(K.curve, 0.0, 1.0, w_l03, [t], tail=True)[0]
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
