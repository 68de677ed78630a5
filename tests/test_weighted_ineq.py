import math

import mpmath
import numpy as np
import pytest
from scipy import integrate as sci_integrate

from kinterp import quadrature, weights
from kinterp.cli import run
from kinterp.config import ExpDecay, load_config, parse_function
from kinterp.norms import weighted_knorm
from kinterp.profiles import K_from_rearrangement, KProfile, random_rearrangement
from kinterp.weighted_ineq import (
    _bracket,
    _integral,
    _kernel_ratio,
    _plain_quad,
    _root_ratio,
    _tail,
    DivergentIntegralError,
    InequalitySpec,
    StepFunction,
    best_constant_probe,
    compute_constant,
    hardy_build_v,
    hardy_check,
    hmt_check,
    quasiconcave_ratio,
    window_condition,
)
from kinterp.weights import WeightExpr, parse_weight

INF = math.inf

A3_EXACT = math.sqrt(2.0 / 3.0) * 0.75   # attained at x = e^{-1/3}


@pytest.fixture(scope="module")
def spec_12(w_l02):
    return InequalitySpec(p=1.0, q=2.0, v=w_l02, w=w_l02)


@pytest.fixture(scope="module")
def spec_eq(w_l02):
    return InequalitySpec(p=1.0, q=1.0, v=w_l02, w=w_l02)


# ---------------------------------------------------------------------------
# constants
# ---------------------------------------------------------------------------

def test_A3_example(spec_12):
    rep = compute_constant(spec_12, "A3")
    assert rep.value == pytest.approx(A3_EXACT, rel=1e-6)
    assert rep.argmax == pytest.approx(math.exp(-1.0 / 3.0), rel=1e-2)


def test_identical_weights_give_one(spec_eq):
    assert compute_constant(spec_eq, "A3").value == pytest.approx(1.0, rel=1e-12)
    assert compute_constant(spec_eq, "A1").value == pytest.approx(1.0, rel=1e-9)


def test_ordering_validation(spec_12, spec_eq):
    with pytest.raises(ValueError):
        compute_constant(spec_12, "A2")
    with pytest.raises(ValueError):
        compute_constant(InequalitySpec(p=2.0, q=1.0, v=spec_eq.v, w=spec_eq.w),
                         "A1")


def test_A2_A4_convergence_split(w_l02, w_l03):
    # a left factor that stays order-one toward 0 leaves the outer integral
    # with a non-decaying head: the integral constants are infinite
    divergent = InequalitySpec(p=2.0, q=1.0, v=w_l02, w=w_l03)
    assert compute_constant(divergent, "A4").value == INF
    assert compute_constant(divergent, "A2").value == INF
    # decay on both sides gives finite constants (cross-checked against an
    # independent quadrature: A4 = 1.4916 +- 1%)
    spec = InequalitySpec(p=2.0, q=1.0, v=w_l02, w=parse_weight("log(-2,-3)"))
    a4 = compute_constant(spec, "A4").value
    a2 = compute_constant(spec, "A2").value
    assert a4 == pytest.approx(1.4916, rel=0.01)
    assert math.isfinite(a2)
    # structurally different ASTs of the same weight give the same constant
    same = InequalitySpec(p=2.0, q=1.0, v=w_l02,
                          w=parse_weight("mul(log(-2,-3),one)"))
    assert compute_constant(same, "A4").value == pytest.approx(a4, rel=1e-9)


# ---------------------------------------------------------------------------
# probes
# ---------------------------------------------------------------------------

def test_probe_matches_A3(spec_12):
    grid = np.logspace(-4, 4, 321)
    probe = best_constant_probe(spec_12, "A3", grid)
    assert probe == pytest.approx(A3_EXACT, abs=1e-4)


def test_probe_A1_bracket(spec_12):
    grid = np.logspace(-4, 4, 161)
    a1 = compute_constant(spec_12, "A1").value
    probe = best_constant_probe(spec_12, "A1", grid)
    assert probe <= a1 * (1.0 + 1e-6)
    assert probe >= 0.999 * a1


def test_probe_equal_weights(spec_eq):
    probe = best_constant_probe(spec_eq, "A1", np.logspace(-3, 3, 41))
    assert probe == pytest.approx(1.0, rel=1e-9)


def test_random_quasiconcave_never_beats_A1(spec_12):
    a1 = compute_constant(spec_12, "A1").value
    rng = np.random.default_rng(20240809)
    for _ in range(25):
        h = K_from_rearrangement(random_rearrangement(rng))
        assert quasiconcave_ratio(spec_12, h) <= a1 * (1.0 + 1e-6)


def test_extremal_identity(w_l02):
    # int [min(s,x) w]^q ds/s == head piece + x^q tail piece, by quadrature
    from kinterp.weighted_ineq import _bracket, _min_profile
    for x in np.logspace(-4, 4, 40):
        lhs = weighted_knorm(_min_profile(float(x)).curve, 0.0, 2.0, w_l02).value
        rhs = _bracket(w_l02, 2.0, float(x))
        assert lhs == pytest.approx(rhs, rel=1e-9)


def test_constant_beyond_the_float_range_is_named():
    # A1's bracket of w integrates e^{-2x} (1+x)^2000 over [ln 1e8, inf):
    # Gamma(2001) overflows, so gammaincc * Gamma gives nan, and the QUADPACK
    # fallback's integrand used to raise a bare OverflowError
    spec = InequalitySpec(1.0, 2.0, parse_weight("log(0,-2)"),
                          parse_weight("mul(one,log(1000.0,2.85))"))
    with pytest.raises(quadrature.IntegralOverflowError,
                       match=r"\(1\+x\)\^2000\.0 dx over .* overflows"):
        compute_constant(spec, "A1")


def test_a1_ratio_whose_roots_leave_the_float_range(tmp_path):
    # p = q = 0.001: the kernels, near 1e3, go to the 1000th power, which
    # raised a bare OverflowError; their quotient fits in a double
    spec = InequalitySpec(0.001, 0.001, parse_weight("log(0,-2000)"),
                          parse_weight("log(0,-1500)"))
    num, den = _bracket(spec.w, spec.q, 10.0), _bracket(spec.v, spec.p, 10.0)
    with mpmath.workdps(40):
        want = float(mpmath.mpf(num) ** 1000 / mpmath.mpf(den) ** 1000)
    assert abs(_kernel_ratio(spec, _bracket, 10.0) - want) <= 1e-12
    cfg = tmp_path / "a1.cfg"
    cfg.write_text("[constants a1]\np = 0.001\nq = 0.001\nv = log(0,-2000)\n"
                   "w = log(0,-1500)\nwhich = A1\nout = a1.csv\n")
    # exit 0: a finite A1, and the probe below it
    assert run(load_config(str(cfg)), out_dir=str(tmp_path), quiet=True) == 0


def test_a_ratio_beyond_the_float_range_is_named():
    spec = InequalitySpec(0.001, 0.001, parse_weight("one"), parse_weight("one"))
    assert _root_ratio(spec, 2.0, 2.0, "r") == 1.0  # linear: 2^1000 fits
    assert _root_ratio(spec, 1e3, 1e3, "r") == 1.0  # in logs
    assert _root_ratio(spec, 0.0, 1e-3, "r") == 0.0  # 1e-3000 underflows
    with pytest.raises(quadrature.IntegralOverflowError, match="the A1 ratio"):
        _root_ratio(spec, 1e3, 1e2, "the A1 ratio")


def test_a2_kernel_beyond_the_float_range_is_named():
    # the head of w = log(0,900) integrates e^x (1+x)^900, whose integrand
    # raised a bare OverflowError; over [0, 1.21] its value exceeds a double
    spec = InequalitySpec(2.0, 1.0, parse_weight("log(0,-2)"),
                          parse_weight("log(0,900)"))
    with pytest.raises(quadrature.IntegralOverflowError,
                       match=r"\(1\+x\)\^900\.0 dx over .* overflows"):
        compute_constant(spec, "A2")


# ---------------------------------------------------------------------------
# window conditions
# ---------------------------------------------------------------------------

def test_window_trivial_pass(spec_eq):
    rep = window_condition(spec_eq, "head", lambda t: 1.0)
    assert rep.passed
    assert rep.worst_ratio == pytest.approx(1.0, rel=1e-9)


def test_window_constant_bound(spec_12):
    rep = window_condition(spec_12, "head", lambda t: A3_EXACT)
    assert rep.passed


def test_window_vanishing_bound_fails(spec_12):
    rep = window_condition(spec_12, "tail",
                           lambda t: 1.0 / (1.0 + abs(math.log(t))) ** 2)
    assert not rep.passed


def test_window_integral_branch(w_l02):
    spec = InequalitySpec(p=2.0, q=1.0, v=w_l02, w=parse_weight("log(-2,-3)"))
    a4 = compute_constant(spec, "A4").value
    rep = window_condition(spec, "head", lambda t: a4)
    assert rep.passed
    assert all(math.isfinite(c) for _, c, _ in rep.rows)
    # the divergent pair fails every finite bound on the head side
    bad = InequalitySpec(p=2.0, q=1.0, v=w_l02, w=parse_weight("log(0,-3)"))
    rep2 = window_condition(bad, "head", lambda t: 100.0)
    assert not rep2.passed


def test_window_divergent_head_fails_every_bound(w_l02):
    # A4 of this pair is +inf: every integral over (0, t) diverges at 0, so
    # no finite bound, however large, is met
    spec = InequalitySpec(p=2.0, q=1.0, v=w_l02, w=parse_weight("log(8,-3)"))
    assert compute_constant(spec, "A4").value == INF
    rep = window_condition(spec, "head", lambda t: 1e10)
    assert all(c == INF for _, c, _ in rep.rows)
    assert not rep.passed


def test_window_integral_rows_run_up_to_a4(w_l02):
    spec = InequalitySpec(p=2.0, q=1.0, v=w_l02, w=parse_weight("log(-2,-3)"))
    a4 = compute_constant(spec, "A4").value
    head, tail = ([c for _, c, _ in window_condition(spec, side, lambda t: a4).rows]
                  for side in ("head", "tail"))
    assert head == sorted(head) and tail == sorted(tail, reverse=True)
    assert max(head) <= a4 and max(tail) <= a4


def test_window_rows_are_the_a3_samples(spec_12):
    # the p <= q rows are the running sup of the very samples A3 takes
    samples = [_kernel_ratio(spec_12, _tail, float(t))
               for t in quadrature.STANDARD_GRID.points()]
    for side in ("head", "tail"):
        rep = window_condition(spec_12, side, lambda t: 1.0)
        assert len(rep.rows) == len(samples)
        assert max(c for _, c, _ in rep.rows) == max(samples)


# ---------------------------------------------------------------------------
# Hardy-type lemmas
# ---------------------------------------------------------------------------

def test_hardy_build_v_closed_form():
    v = hardy_build_v("HET1", 2.0, lambda t: math.exp(-t), lambda t: 1.0)
    for t in (0.2, 1.0, 4.0):
        assert v(t) == pytest.approx(math.exp(-t), rel=1e-8)


def test_hardy_build_v_truncated_phi():
    T = 3.0
    phi = lambda t: 1.0 if t < T else 0.0
    v = hardy_build_v("HET3plus", 0.5, lambda t: math.exp(-t), phi)
    t = 1.0  # head integral of phi is t here
    want = phi(t) * t ** (-0.5) * math.exp(-t)
    assert v(t) == pytest.approx(want, rel=1e-7)


def test_hardy_build_v_zero_weight():
    v = hardy_build_v("HET1", 2.0, lambda t: 0.0, lambda t: 1.0)
    assert v(1.0) == 0.0


def test_hardy_case_validation():
    with pytest.raises(ValueError):
        hardy_build_v("HET1", 0.5, lambda t: math.exp(-t), lambda t: 1.0)
    with pytest.raises(ValueError):
        hardy_build_v("HET3", 2.0, lambda t: math.exp(-t), lambda t: 1.0)
    with pytest.raises(ValueError):
        hardy_build_v("HET9", 2.0, lambda t: math.exp(-t), lambda t: 1.0)


def test_hardy_constant_h():
    rep = hardy_check("HET1", 2.0, lambda t: math.exp(-t), lambda t: 1.0,
                      h_family=[StepFunction([], [], tail=1.0)])
    assert rep.max_ratio == pytest.approx(2.0, rel=1e-8)


def test_hardy_zero_h_skipped():
    # a zero h beside a nonzero one is skipped, and the ratio is the other
    # h's; a family of zero h only is no evidence and raises
    args = ("HET1", 2.0, lambda t: math.exp(-t), lambda t: 1.0)
    zero = StepFunction([1.0], [0.0])
    rep = hardy_check(*args, h_family=[zero, StepFunction([], [], tail=1.0)])
    assert rep.skipped == 1 and rep.samples == 2
    assert rep.max_ratio == pytest.approx(2.0, rel=1e-8)
    with pytest.raises(ValueError, match="0/0"):
        hardy_check(*args, h_family=[zero])


@pytest.mark.parametrize("values,tail", [
    ([-1.0], 0.0),  # used to raise TypeError on a complex power in hardy_check
    ([math.nan], 0.0),  # used to give max_ratio 0.0, a pass at any bound
    ([1.0], math.inf),
    ([1.0], math.nan),
], ids=["negative", "nan", "inf-tail", "nan-tail"])
def test_step_function_values_must_be_finite_and_nonnegative(values, tail):
    with pytest.raises(ValueError, match="finite and nonnegative"):
        StepFunction([1.0], values, tail=tail)


@pytest.mark.parametrize("edges", [
    [math.nan],  # used to give max_ratio inf with nothing skipped
    [0.5, math.nan],
    [math.inf],
    [0.0],
    [2.0, 1.0],
], ids=["nan", "nan-last", "inf", "zero", "descending"])
def test_step_function_edges_must_be_finite_positive_ascending(edges):
    with pytest.raises(ValueError, match="finite, positive and ascending"):
        StepFunction(edges, [1.0] * len(edges))


def test_hardy_empty_family_raises():
    # no h, no evidence: a max_ratio of 0.0 would read as a passed check
    with pytest.raises(ValueError, match="at least one h"):
        hardy_check("HET1", 2.0, lambda t: math.exp(-t), lambda t: 1.0,
                    h_family=[])


def test_hardy_het3_nondecreasing():
    h = StepFunction([1.0], [0.5], tail=1.0)
    rep = hardy_check("HET3", 0.5, lambda t: math.exp(-t),
                      lambda t: math.exp(-t), h_family=[h])
    assert 0.0 < rep.max_ratio < INF


def test_hardy_sampled_families_bounded():
    for case, alpha in (("HET1", 2.0), ("HET2", 1.5),
                        ("HET3plus", 0.5), ("HET3", 0.5)):
        rep = hardy_check(case, alpha, lambda t: math.exp(-t),
                          lambda t: math.exp(-0.5 * t), samples=12)
        assert rep.max_ratio < 50.0


def test_hardy_build_v_rejects_divergent_structured_inputs():
    # int_1^inf const(1) du and int_1^inf (1+ln u)^-1/2 du both diverge
    with pytest.raises(ValueError, match="needs a convergent defining integral"):
        hardy_build_v("HET3", 0.5, parse_function("expdecay(1)"),
                      parse_function("const(1)"))
    with pytest.raises(ValueError, match="needs a convergent defining integral"):
        hardy_build_v("HET1", 2.0, parse_function("log(0,-0.5)"),
                      parse_function("const(1)"))


def test_hardy_build_v_probes_phi_when_w_vanishes():
    # HET3 is defined through int_1^inf phi, which diverges for phi = 1
    # whatever w is
    with pytest.raises(ValueError, match="HET3 needs a convergent defining"):
        hardy_build_v("HET3", 0.5, parse_function("const(0)"),
                      parse_function("const(1)"))


def test_plain_quad_reports_divergence():
    # QUADPACK's value here is -1.0; its status says "probably divergent"
    with pytest.raises(DivergentIntegralError):
        _plain_quad(lambda t: 1.0, 1.0, INF)
    assert _plain_quad(lambda t: math.exp(-t), 1.0, INF) == pytest.approx(
        math.exp(-1.0), rel=1e-12)


def test_plain_quad_reports_the_subdivision_limit():
    # QUADPACK stops at its subdivision limit (ier 1) with 145.6 for this
    # divergent integral; HET2 built a v with v(0.5) = 10606.8 from it
    with pytest.raises(DivergentIntegralError, match="ier 1"):
        _plain_quad(lambda t: 1.0 / t, 0.0, 1.0)
    with pytest.raises(ValueError, match="needs a convergent defining integral"):
        hardy_build_v("HET2", 2.0, lambda t: 1.0 / t, lambda t: 1.0)


def test_plain_quad_keeps_the_value_of_a_roundoff_status(monkeypatch):
    # ier 2 (roundoff) leaves a usable value, as in acceptance criterion 14
    message = ("The occurrence of roundoff error is detected, which prevents "
               "\n  the requested tolerance from being achieved.")
    monkeypatch.setattr(sci_integrate, "quad",
                        lambda *args, **kwargs: (1.5, 1e-9, {}, message))
    assert _plain_quad(lambda t: 1.0, 0.0, 1.0) == 1.5


def test_hardy_build_v_rejects_divergent_opaque_input():
    with pytest.raises(ValueError, match="needs a convergent defining integral"):
        hardy_build_v("HET1", 2.0, lambda t: 1.0, lambda t: math.exp(-t))


def test_hardy_build_v_probes_only_its_own_case():
    # int_1^inf phi diverges, but only HET3 is defined through it
    calls = []

    def phi(t):
        calls.append(t)
        return 1.0
    v = hardy_build_v("HET1", 2.0, lambda t: math.exp(-t), phi)
    assert calls == []
    assert v(1.0) == pytest.approx(math.exp(-1.0), rel=1e-8)


def _mp_broken_log(a0, ainf):
    """(1-ln u)^a0 on (0,1], (1+ln u)^ainf beyond, written out in mpmath."""
    def f(u):
        lu = mpmath.log(u)
        return (1 - lu) ** a0 if u <= 1 else (1 + lu) ** ainf
    return f


# (grammar or config text, the same function in mpmath)
_CLOSED_FORMS = [
    ("log(0,-2)", _mp_broken_log(0, -2)),
    ("log(0.5,-2.5)", _mp_broken_log(0.5, -2.5)),
    ("flip(log(-2.5,0.5))", _mp_broken_log(0.5, -2.5)),
    ("const(1.7)", lambda u: mpmath.mpf(1.7)),
    ("expdecay(1)", lambda u: mpmath.exp(-u)),
    ("expdecay(0.35)", lambda u: mpmath.exp(-0.35 * u)),
]


@pytest.mark.parametrize("text,mp_f", _CLOSED_FORMS)
@pytest.mark.parametrize("lo,hi", [(0.3, 7.0), (2.0, 40.0), (0.0, 0.4),
                                   (0.0, 5.0), (0.5, INF), (3.0, INF)])
def test_closed_form_integral_against_mpmath(text, mp_f, lo, hi):
    f = parse_function(text)
    got = _integral(f, lo, hi)
    if hi == INF and not isinstance(f, ExpDecay):
        # slowly varying weights and positive constants are not integrable
        # at infinity
        assert got == INF
        return
    with mpmath.workdps(30):
        pts = [lo] + ([mpmath.mpf(1)] if lo < 1.0 < hi else []) \
            + [mpmath.inf if hi == INF else hi]
        want = float(mpmath.quad(mp_f, pts))
    assert got == pytest.approx(want, rel=1e-12)


def test_exact_integrals_of_degenerate_config_functions():
    assert parse_function("expdecay(0)").integral(1.0, INF) == INF
    assert parse_function("expdecay(0)").integral(1.0, 3.5) == 2.5
    assert parse_function("expdecay(-1)").integral(0.0, INF) == INF
    assert parse_function("expdecay(-1)").integral(0.0, 1e3) == INF
    assert parse_function("const(0)").integral(0.0, INF) == 0.0


def test_hardy_check_keeps_structured_inputs_off_quadpack(monkeypatch):
    quad = sci_integrate.quad
    integrands = []

    def counting_quad(f, *args, **kwargs):
        integrands.append(f)
        return quad(f, *args, **kwargs)

    monkeypatch.setattr(sci_integrate, "quad", counting_quad)
    h = StepFunction([0.5, 3.0], [2.0, 0.7])
    rep = hardy_check("HET1", 2.0, parse_function("expdecay(1)"),
                      parse_function("log(0,-2)"), h_family=[h])
    assert 0.0 < rep.max_ratio < INF
    assert integrands
    for f in integrands:
        owner = getattr(f, "__self__", f)
        assert not isinstance(owner, (WeightExpr, ExpDecay))
        # the outer integrals over composed integrands, or canonical terms
        # in log coordinates inside the quadrature layer
        assert (f.__qualname__ in ("_hardy_lhs.<locals>.outer_integrand",
                                   "hardy_build_v.<locals>.v")
                or f.__module__ == "kinterp.quadrature"), f.__qualname__


# ---------------------------------------------------------------------------
# the monotone-kernel equivalence
# ---------------------------------------------------------------------------

def test_hmt_example():
    rep = hmt_check(1.0, lambda t, u: math.exp(-t - u), lambda t: 1.0,
                    lambda t: math.exp(-t), x_grid=[0.2, 1.0, 3.0], samples=6)
    assert rep.condition_holds and rep.inequality_holds
    assert rep.condition_ratio == pytest.approx(1.0, rel=1e-8)
    assert rep.reduction_discrepancy <= 1e-9


def test_hmt_zero_v_fails():
    rep = hmt_check(1.0, lambda t, u: math.exp(-t - u), lambda t: 1.0,
                    lambda t: 0.0, x_grid=[0.5], samples=2)
    assert not rep.condition_holds and not rep.inequality_holds


def test_hmt_divergent_v_raises():
    with pytest.raises(DivergentIntegralError):
        hmt_check(1.0, lambda t, u: math.exp(-t - u), lambda t: 1.0,
                  lambda t: 1.0, x_grid=[1.0], samples=2)


def test_hmt_empty_x_grid_raises():
    # without an x the kernel condition has no evidence; without h samples
    # the condition alone is checked
    args = (1.0, lambda t, u: math.exp(-t - u), lambda t: 1.0,
            lambda t: math.exp(-t))
    with pytest.raises(ValueError, match="at least one x"):
        hmt_check(*args, x_grid=[], h_samples=[])
    rep = hmt_check(*args, x_grid=[1.0], h_samples=[])
    assert rep.condition_holds and rep.inequality_ratio == 0.0


def test_hmt_all_zero_condition_raises():
    # psi = 0 and v = 0 make every x a 0/0 ratio: no evidence for the
    # condition, which used to pass with condition_ratio 0.0
    with pytest.raises(ValueError, match="0/0"):
        hmt_check(1.0, lambda t, u: 0.0, lambda t: 1.0, lambda t: 0.0,
                  x_grid=[1.0], h_samples=[])


def test_hmt_alpha_validation():
    with pytest.raises(ValueError):
        hmt_check(1.5, lambda t, u: 1.0, lambda t: 1.0, lambda t: 1.0,
                  x_grid=[1.0])


@pytest.mark.parametrize("x", [math.nan, INF, -INF, 0.0, -1.0])
def test_hmt_rejects_a_bad_x_before_any_integral(monkeypatch, x):
    calls = []
    quad = sci_integrate.quad

    def counting_quad(*args, **kwargs):
        calls.append(args)
        return quad(*args, **kwargs)

    monkeypatch.setattr(sci_integrate, "quad", counting_quad)
    with pytest.raises(ValueError, match=r"hmt_check x must be finite and "
                                         r"positive, got (nan|-?inf|0\.0|-1\.0)"):
        hmt_check(1.0, lambda t, u: math.exp(-t - u), lambda t: 1.0,
                  lambda t: math.exp(-t), x_grid=[1.0, x], h_samples=[])
    assert calls == []


def _kernel(a, c, wt, wu):
    """The criterion-14 kernel e^{-a t - c u} wt(t) wu(u)."""
    wt, wu = parse_weight(wt), parse_weight(wu)
    return lambda t, u: math.exp(-a * t - c * u) * wt(t) * wu(u)


def test_hmt_integrates_each_condition_once(monkeypatch):
    # an integral is keyed by the values its integrand closes over and its
    # range, not by its code: the condition's nested integral and the same
    # integral rebuilt through the indicator step count as one integral
    keys: list = []
    quad = sci_integrate.quad

    def recorded(f, x1, x2, *args, **kwargs):
        keys.append((tuple(c.cell_contents for c in f.__closure__ or ()),
                     x1, x2))
        return quad(f, x1, x2, *args, **kwargs)

    monkeypatch.setattr(sci_integrate, "quad", recorded)
    psi = _kernel(1.2, 1.1, "log(0.4,-0.4)", "log(0.7,-0.7)")
    rep = hmt_check(0.9, psi, lambda t: 1.0, lambda t: math.exp(-t),
                    x_grid=[1.0], h_samples=[])
    assert rep.condition_holds and rep.reduction_discrepancy == 0.0
    assert keys and len(keys) == len(set(keys))


@pytest.mark.parametrize("alpha,a,c,wt,wu", [
    # the two hmt_check calls of the hardy benchmark's seed-1 draw
    (0.916, 1.205, 1.149, "log(0.509,-0.509)", "log(0.845,-0.845)"),
    (0.875, 1.414, 1.029, "log(0.514,-0.514)", "log(0.672,-0.672)"),
])
def test_hmt_condition_is_the_direct_nested_integral(alpha, a, c, wt, wu):
    # the indicator step adds 0.0 + 1.0 ** p * y, which is exact: the
    # condition is bit for bit the nested integral written out directly
    psi = _kernel(a, c, wt, wu)
    w, v = (lambda t: 1.0), (lambda t: math.exp(-t))
    rep = hmt_check(alpha, psi, w, v, x_grid=[1.0], h_samples=[])
    lhs = _plain_quad(lambda t: _plain_quad(lambda u: psi(t, u), 1.0, INF)
                      ** alpha * w(t), 0.0, INF)
    assert rep.condition_ratio == lhs / _plain_quad(v, 1.0, INF)


def test_window_single_window(spec_12):
    spec = InequalitySpec(p=1.0, q=2.0, v=spec_12.v, w=spec_12.w,
                          window_t=1.0)
    rep = window_condition(spec, "head", lambda t: A3_EXACT)
    assert len(rep.rows) == 1
    assert rep.passed


def test_window_t_outside_grid_rejected(spec_12):
    spec = InequalitySpec(p=1.0, q=2.0, v=spec_12.v, w=spec_12.w,
                          window_t=1e30)
    with pytest.raises(ValueError):
        window_condition(spec, "head", lambda t: 1.0)


# ---------------------------------------------------------------------------
# one term memo per compute_constant call
# ---------------------------------------------------------------------------

def _record_quad(monkeypatch) -> list:
    """What QUADPACK is asked to integrate: a canonical term's bound
    integrand, or the code and cell contents of a closure over the
    parameters of one, with the range (the keys of test_holmstedt)."""
    keys: list = []
    quad = sci_integrate.quad

    def recorded(f, x1, x2, *args, **kwargs):
        owner = getattr(f, "__self__", None)
        if owner is not None:
            keys.append((owner, x1, x2))
        else:
            cells = tuple(c.cell_contents for c in f.__closure__ or ())
            keys.append((f.__code__, cells, x1, x2))
        return quad(f, x1, x2, *args, **kwargs)

    monkeypatch.setattr(sci_integrate, "quad", recorded)
    return keys


def _record_compiled_pieces(monkeypatch) -> list:
    """(weight, kind, q, beta, x1, x2) of every power integral that a
    compiled q-norm integral computes: its whole far side when it is
    compiled, and the piece of each evaluation."""
    keys: list = []
    owner: list = [None]
    power_integral = weights.power_integral
    compile_integral = weights._compile_integral

    def piece(beta, x1, x2):
        keys.append((*owner[0], beta, x1, x2))
        return power_integral(beta, x1, x2)

    def compiled(b, kind, q):
        owner[0] = (b, kind, q)
        integral = compile_integral(b, kind, q)

        def evaluate(t):
            owner[0] = (b, kind, q)
            return integral(t)
        return evaluate

    monkeypatch.setattr(weights, "power_integral", piece)
    monkeypatch.setattr(weights, "_compile_integral", compiled)
    return keys


@pytest.mark.parametrize("which,v,w", [
    ("A1", "log(0,-2.121)", "log(0,-2.319)"),
    ("A1", "log(0,-1.577)", "log(0,-2.091)"),
    ("A3", "log(0,-1.759)", "log(0,-2.242)"),
])
def test_constant_computes_each_integral_once(monkeypatch, which, v, w):
    # constants scenarios of the closed-form benchmark's first draw; the head
    # and tail terms shared by many grid points (such as the whole lower
    # side for x > 1) are integrated once per call: as canonical terms in
    # the call's memo scope, or once per compiled q-norm integral, where
    # A1's plain tails and all of A3 go
    spec = InequalitySpec(p=1.0, q=2.0, v=parse_weight(v), w=parse_weight(w))
    keys = _record_quad(monkeypatch)
    pieces = _record_compiled_pieces(monkeypatch)
    terms = []
    term_value = quadrature.term_value

    def recorded(term):
        terms.append(term)
        return term_value(term)

    monkeypatch.setattr(quadrature, "term_value", recorded)
    rep = compute_constant(spec, which)
    assert 0.0 < rep.value < INF
    assert pieces and len(pieces) == len(set(pieces))
    assert (terms if which == "A1" else not terms)
    assert len(terms) == len(set(terms))
    assert len(keys) == len(set(keys))


def test_constants_scenario_computes_each_integral_once(monkeypatch, tmp_path):
    # an A1 scenario of the closed-form benchmark's first draw: the probe
    # over min(s, x) reuses the integrals of the constant
    cfg = tmp_path / "a1.cfg"
    cfg.write_text("[constants a1-0]\np = 1\nq = 2\nv = log(0,-2.121)\n"
                   "w = log(0,-2.319)\nwhich = A1\nout = a1-0.csv\n")
    keys = _record_quad(monkeypatch)
    assert run(load_config(str(cfg)), out_dir=str(tmp_path), quiet=True) == 0
    assert keys and len(keys) == len(set(keys))
