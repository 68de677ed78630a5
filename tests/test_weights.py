import copy
import math
import pickle

import mpmath
import numpy as np
import pytest
from hypothesis import example, given, settings, strategies as st

from kinterp.norms import sv_quasimonotone_constant
from kinterp.quadrature import GridSpec, IntegralOverflowError, integrate_terms
from kinterp.weights import (
    ExpLog,
    Flip,
    One,
    Power,
    PowerLog,
    Product,
    WeightSyntaxError,
    _weight_terms,
    classify,
    head_qnorm,
    parse_weight,
    tail_qnorm,
    weight_kernel_integral,
)

INF = math.inf


# ---------------------------------------------------------------------------
# Parsing
# ---------------------------------------------------------------------------

def test_parse_basic():
    assert isinstance(parse_weight("one"), One)
    w = parse_weight("log(0,-2)")
    assert w == PowerLog(0.0, -2.0)
    m = parse_weight("mul(log(2,0), pow(log(0,-2), 0.5))")
    assert isinstance(m, Product)
    assert isinstance(m.right, Power)
    assert m.right.r == 0.5


def test_parse_whitespace_insignificant():
    a = parse_weight("mul( log( 2 , 0 ) , flip( one ) )")
    b = parse_weight("mul(log(2,0),flip(one))")
    assert a == b


@pytest.mark.parametrize("bad,pos", [
    ("log(0,-2", 8),
    ("frog(1)", 4),
    ("explog(1.5)", 11),
    ("one junk", 4),
    ("mul(one)", 7),
])
def test_parse_errors_carry_position(bad, pos):
    with pytest.raises(WeightSyntaxError) as exc:
        parse_weight(bad)
    assert exc.value.pos == pos


def test_explog_range_enforced():
    with pytest.raises(ValueError):
        ExpLog(0.0)
    with pytest.raises(ValueError):
        ExpLog(1.0)


def test_powerlog_exponents_must_be_finite():
    # log(inf,0) would print as a text the parser rejects
    with pytest.raises(WeightSyntaxError):
        parse_weight("log(1e999,0)")
    with pytest.raises(ValueError):
        PowerLog(math.inf, 0.0)
    with pytest.raises(ValueError):
        PowerLog(0.0, -math.inf)


def test_round_trip_text():
    texts = ["one", "log(0,-2)", "explog(0.5)",
             "mul(log(2,0),pow(log(0,-2),0.5))", "flip(log(-2,0))"]
    for text in texts:
        w = parse_weight(text)
        again = parse_weight(w.to_text())
        for t in (0.01, 0.5, 1.0, 3.0, 500.0):
            assert again(t) == w(t)


# ---------------------------------------------------------------------------
# Evaluation
# ---------------------------------------------------------------------------

def test_broken_log_values():
    w = PowerLog(2.0, 3.0)
    assert w(math.exp(-1.0)) == pytest.approx(4.0, rel=1e-14)
    assert w(math.e) == pytest.approx(8.0, rel=1e-14)
    assert Flip(w)(math.e) == pytest.approx(4.0, rel=1e-14)


def test_explog_value():
    w = ExpLog(0.5)
    assert w(math.exp(4.0)) == pytest.approx(math.exp(2.0))
    assert w(math.exp(-4.0)) == pytest.approx(math.exp(2.0))


def test_product_power_closure_exact():
    b1 = PowerLog(2.0, -3.0)
    b2 = ExpLog(0.5)
    prod = Product(b1, b2)
    powr = Power(b1, 1.7)
    for t in (1e-6, 0.3, 1.0, 7.0, 1e7):
        assert prod(t) == b1(t) * b2(t)
        assert powr(t) == pytest.approx(b1(t) ** 1.7, rel=1e-15)


def test_flip_involution():
    w = parse_weight("mul(log(1,-2),explog(0.3))")
    ff = Flip(Flip(w))
    for t in GridSpec(1e-8, 1e8, 8).points():
        assert ff(float(t)) == w(float(t))


def test_positive_everywhere():
    for text in ("one", "log(3,-4)", "explog(0.9)", "pow(log(0,-2),-2)"):
        w = parse_weight(text)
        for t in (1e-12, 1.0, 1e12):
            v = w(t)
            assert v > 0.0 and math.isfinite(v)


# ---------------------------------------------------------------------------
# q-norms
# ---------------------------------------------------------------------------

def test_tail_qnorm_examples(w_l02, w_one):
    assert tail_qnorm(w_l02, 1, math.e) == pytest.approx(0.5, rel=1e-12)
    assert tail_qnorm(w_one, INF, 7.0) == pytest.approx(1.0)
    assert tail_qnorm(w_l02, 2, 1.0) == pytest.approx(math.sqrt(1.0 / 3.0),
                                                      rel=1e-12)


def test_sup_far_from_the_segment_start(far_sup):
    b, want = far_sup
    assert want == pytest.approx(4.54001567628147e25, rel=1e-14)
    assert tail_qnorm(b, INF, 1.0) == pytest.approx(want, rel=1e-12)
    assert head_qnorm(Flip(b), INF, 1.0) == pytest.approx(want, rel=1e-12)


def test_head_qnorm_examples(w_lm20, w_one):
    assert head_qnorm(w_lm20, 1, math.exp(-1.0)) == pytest.approx(0.5, rel=1e-12)
    assert head_qnorm(w_one, 1, 1.0) == INF


@pytest.mark.parametrize("t", [0.0, -0.0, -1.0])
@pytest.mark.parametrize("q", [1.0, 2.5, INF])
def test_head_and_tail_reject_a_t_that_is_not_positive(t, q, w_lm20):
    # one error for both ends; at t = 0 the head once divided by zero
    for qnorm in (head_qnorm, tail_qnorm):
        with pytest.raises(ValueError, match="t must be positive"):
            qnorm(w_lm20, q, t)


def test_head_is_flipped_tail(w_lm20):
    t = math.exp(-1.0)
    assert head_qnorm(w_lm20, 1, t) == tail_qnorm(Flip(w_lm20), 1, 1.0 / t)


def test_tail_monotone_head_monotone(w_l02):
    ts = GridSpec(1e-6, 1e6, 8).points()
    tails = [tail_qnorm(w_l02, 1.5, float(t)) for t in ts]
    heads = [head_qnorm(Flip(w_l02), 1.5, float(t)) for t in ts]
    assert all(a >= b - 1e-12 for a, b in zip(tails, tails[1:]))
    assert all(a <= b + 1e-12 for a, b in zip(heads, heads[1:]))


def test_tail_qnorm_against_mpmath():
    w = parse_weight("mul(log(1,-3),pow(explog(0.4),-1))")
    got = tail_qnorm(w, 2.0, 0.5)
    want = float(mpmath.quad(lambda u: w(float(u)) ** 2 / u,
                             [0.5, 1.0, mpmath.inf])) ** 0.5
    assert got == pytest.approx(want, rel=1e-8)


def test_tail_qnorm_growing_explog_diverges():
    # exp(+|ln u|^0.4) beats any power of the logarithm, so the tail blows up
    w = parse_weight("mul(log(1,-3),explog(0.4))")
    assert tail_qnorm(w, 2.0, 0.5) == INF


def test_kernel_integral_against_mpmath(w_l02):
    got = weight_kernel_integral(w_l02, 1.0, 0.5, 0.0, 3.0)
    want = float(mpmath.quad(lambda u: float(u) ** 0.5 * w_l02(float(u)) / u,
                             [0, 1.0, 3.0]))
    assert got == pytest.approx(want, rel=1e-9)


# ---------------------------------------------------------------------------
# Classification
# ---------------------------------------------------------------------------

def test_classify_examples(w_l02, w_one, w_lm20):
    assert classify(w_l02, 1).in_SV0q is True
    assert classify(w_one, 2).in_SV0q is False
    assert classify(w_lm20, 1).in_SV1q is True


def test_classify_flip_symmetry(w_l02):
    rep = classify(w_l02, 1.5)
    rep_flip = classify(Flip(w_l02), 1.5)
    assert rep.in_SV1q == rep_flip.in_SV0q
    assert rep.in_SV0q == rep_flip.in_SV1q


# ---------------------------------------------------------------------------
# Operationalized slow variation
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("text", ["log(0,-2)", "log(2,-3)", "log(-2,0)",
                                  "explog(0.5)"])
def test_sv_quasimonotone_moderate_eps(text):
    # the admissible constant grows as eps shrinks (the log factor dominates
    # longer stretches of the grid); these envelopes are calibrated against
    # the worst built-in weight at each eps (broken log with exponents 2/-3:
    # 5.4, 63.3 and 6.9e4)
    b = parse_weight(text)
    assert sv_quasimonotone_constant(b, 1.0) <= 6.0
    assert sv_quasimonotone_constant(b, 0.5) <= 70.0
    assert sv_quasimonotone_constant(b, 0.1) <= 1e5


def test_weight_value_beyond_the_float_range_is_named():
    # (1 + ln 1e8)^1000 at t = 1e-8 used to raise a bare OverflowError from
    # the compiled evaluator, which is what an sv-check of this weight runs
    b = parse_weight("log(1000,-3)")
    with pytest.raises(IntegralOverflowError, match=r"weight value b\(1e-08\)"):
        sv_quasimonotone_constant(b, 0.1)


def test_sv_violated_by_power():
    # genuine powers are not slowly varying: t^0.5 fails the downward check
    import numpy as np
    ts = GridSpec(1e-8, 1e8, 16).points()
    down = np.array([t ** 0.5 for t in ts]) * ts ** (-0.25)
    run_min = INF
    worst = 1.0
    for v in down:
        run_min = min(run_min, v)
        worst = max(worst, v / run_min)
    assert worst > 4.0


# ---------------------------------------------------------------------------
# The asymptotic-band identities (head and tail kernel comparisons)
# ---------------------------------------------------------------------------

# The asymptotic comparisons hold with weight- and alpha-dependent constants;
# the worst measured band constant over the built-in weights is ~475 (broken
# log with a +2 head exponent at alpha = 1/2), so the envelope below is a
# verified bound, not a universal one.
_KERNEL_BAND = (1.0 / 11.0, 500.0)


@pytest.mark.parametrize("text", ["log(0,-2)", "log(2,-3)", "log(-2,0)"])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_head_kernel_band(text, alpha):
    b = parse_weight(text)
    ratios = []
    for t in GridSpec(1e-8, 1e8, 8).points():
        t = float(t)
        ratios.append(weight_kernel_integral(b, 1.0, alpha, 0.0, t)
                      / (t ** alpha * b(t)))
    assert all(_KERNEL_BAND[0] <= r <= _KERNEL_BAND[1] for r in ratios)
    # the t -> 0 end carries no memory and settles near 1/alpha
    assert ratios[0] == pytest.approx(1.0 / alpha, rel=0.75)


@pytest.mark.parametrize("text", ["log(0,-2)", "log(2,-3)", "log(-2,0)"])
@pytest.mark.parametrize("alpha", [0.5, 1.0, 2.0])
def test_tail_kernel_band(text, alpha):
    b = parse_weight(text)
    ratios = []
    for t in GridSpec(1e-8, 1e8, 8).points():
        t = float(t)
        ratios.append(weight_kernel_integral(b, 1.0, -alpha, t, INF)
                      / (t ** -alpha * b(t)))
    assert all(_KERNEL_BAND[0] <= r <= _KERNEL_BAND[1] for r in ratios)
    # the t -> inf end carries no memory and settles near 1/alpha
    assert ratios[-1] == pytest.approx(1.0 / alpha, rel=0.75)


@settings(max_examples=25, deadline=None)
@given(st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=-3.0, max_value=3.0),
       st.floats(min_value=0.5, max_value=2.0))
def test_kernel_band_random_broken_logs(a0, ainf, alpha):
    b = PowerLog(a0, ainf)
    for t in (1e-6, 1.0, 1e6):
        ratio = weight_kernel_integral(b, 1.0, alpha, 0.0, t) \
            / (t ** alpha * b(t))
        assert math.isfinite(ratio) and ratio > 0.0


# ---------------------------------------------------------------------------
# randomized AST properties
# ---------------------------------------------------------------------------

_base_weights = st.one_of(
    st.just(One()),
    st.builds(PowerLog, st.floats(min_value=-3, max_value=3),
              st.floats(min_value=-3, max_value=3)),
    st.builds(ExpLog, st.floats(min_value=0.05, max_value=0.95)),
)

_weights = st.recursive(
    _base_weights,
    lambda children: st.one_of(
        st.builds(Product, children, children),
        st.builds(Power, children, st.floats(min_value=-2, max_value=2)),
        st.builds(Flip, children),
    ),
    max_leaves=6,
)


@settings(max_examples=60, deadline=None)
@given(_weights, st.floats(min_value=-15.0, max_value=15.0))
def test_ast_text_round_trip_and_positivity(b, logt):
    t = math.exp(logt)
    v = b(t)
    assert v > 0.0 and math.isfinite(v)
    again = parse_weight(b.to_text())
    assert again(t) == v


def _mp_at_reciprocal(b, t):
    """b(1/t) from b's side forms in 40-digit mpmath, at the exact
    reciprocal of the double t."""
    with mpmath.workdps(40):
        u = 1 / mpmath.mpf(t)
        form = b.side("lo" if u <= 1 else "hi")
        x = abs(mpmath.log(u))
        return (1 + x) ** form.beta * mpmath.exp(
            sum(g * x ** al for al, g in form.gammas))


@settings(max_examples=40, deadline=None)
@given(_weights, st.floats(min_value=-12.0, max_value=12.0))
@example(b=ExpLog(0.25), logt=-1e-12)
def test_ast_flip_evaluates_at_reciprocal(b, logt):
    # the oracle is exact: b(1.0 / t) would round 1/t, an error that
    # |ln t|^(alpha - 1) amplifies near t = 1 (2.8e-8 at the pinned example)
    t = math.exp(logt)
    assert Flip(b)(t) == pytest.approx(float(_mp_at_reciprocal(b, t)), rel=1e-8)


def test_cached_side_forms_leave_equality_and_values_unchanged():
    text = "mul(log(0,-2),pow(explog(0.3),-1))"
    a, b = parse_weight(text), parse_weight(text)
    a(2.5)  # compiles and caches a's side forms; b stays uncompiled
    assert a == b and hash(a) == hash(b)
    assert a.side_forms() == (b._side("lo"), b._side("hi"))
    for t in (1e-6, 0.3, 1.0, 2.5, 1e6):
        fresh = b._side("hi" if t >= 1.0 else "lo")
        assert a(t) == fresh.value(abs(math.log(t)))


# (text, number of stretched terms on each side): the compiled evaluator's
# three shapes, plus pow and flip of them
_EVAL_SHAPES = [
    ("one", 0),
    ("log(0.5,-2)", 0),
    ("explog(0.4)", 1),
    ("mul(pow(explog(0.3),-1),explog(0.7))", 2),
    ("mul(mul(explog(0.2),pow(explog(0.5),-1.5)),explog(0.8))", 3),
    ("pow(mul(log(1,-2),explog(0.6)),-0.5)", 1),
    ("flip(mul(log(0,-2),pow(explog(0.3),-1)))", 1),
]


def _reference(text):
    """t -> SideForm.value on side forms of a node that is never evaluated."""
    node = parse_weight(text)
    lo, hi = node._side("lo"), node._side("hi")
    return lambda t: (hi if t >= 1.0 else lo).value(abs(math.log(t)))


@pytest.mark.parametrize("text,n_gammas", _EVAL_SHAPES)
def test_compiled_evaluator_equals_side_form_value(text, n_gammas):
    b, ref = parse_weight(text), _reference(text)
    assert all(len(form.gammas) == n_gammas for form in b.side_forms())
    ts = np.exp(np.random.default_rng(7).uniform(-30.0, 30.0, 100_003))
    want = [ref(t) for t in ts.tolist()]
    assert [b(t) for t in ts.tolist()] == want
    assert b(1.0) == ref(1.0) == 1.0


def test_compiled_evaluator_input_types():
    b = parse_weight("mul(log(0,-2),pow(explog(0.3),-1))")
    for t in (np.float64(2.5), 3, 7.0, np.int64(5)):
        got = b(t)
        assert type(got) is float and got == b(float(t))


@pytest.mark.parametrize("t", [0.0, -0.0, -2.0, math.nan, math.inf, -math.inf])
def test_compiled_evaluator_rejects_points_outside_domain(t):
    b = parse_weight("explog(0.5)")
    with pytest.raises(ValueError, match="defined on"):
        b(t)


@pytest.mark.parametrize("text,n_gammas", _EVAL_SHAPES)
def test_evaluated_weight_keeps_equality_repr_and_pickling(text, n_gammas):
    # after its scalar evaluator and its q-norm integrals are compiled
    fresh, b = parse_weight(text), parse_weight(text)
    b(2.5)
    norms = [(tail_qnorm(b, q, t), head_qnorm(b, q, t),
              weight_kernel_integral(b, q, 0.0, 0.0, t))
             for q in (1.0, 2.0) for t in (0.3, 1.0, 2.5)]
    assert b == fresh and hash(b) == hash(fresh) and repr(b) == repr(fresh)
    for clone in (pickle.loads(pickle.dumps(b)), copy.deepcopy(b)):
        assert clone == b and hash(clone) == hash(b) and repr(clone) == repr(b)
        for t in (1e-6, 0.3, 1.0, 2.5, 1e6):
            assert clone(t) == b(t)
        assert [(tail_qnorm(clone, q, t), head_qnorm(clone, q, t),
                 weight_kernel_integral(clone, q, 0.0, 0.0, t))
                for q in (1.0, 2.0) for t in (0.3, 1.0, 2.5)] == norms


# (weight, log-uniform draws of t per q): plain sides, beta q = -1 on a
# finite piece (log1p: lo at q = 1 and 0.5, hi at q = 1), a divergent hi
# side (q <= 2), a lo piece that overflows (q = 3, t = 1e-300) and a
# stretched side, which goes through the generic call
_INTEGRAL_WEIGHTS = [
    ("log(-2,-3)", 250),
    ("log(-1,-2)", 250),
    ("log(-2,-1)", 250),
    ("mul(log(1,-2),log(-0.5,-1.5))", 250),
    ("pow(log(0.5,-1.5),2)", 250),
    ("flip(log(-3,-1.2))", 250),
    ("log(0.5,-0.5)", 250),
    ("log(60,-4)", 250),
    ("mul(log(0,-2),pow(explog(0.3),-1))", 30),
]


def _outcome(f):
    """f() as the hex of its float, or the type and text of its error."""
    try:
        return float(f()).hex()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


@pytest.mark.parametrize("text,draws", _INTEGRAL_WEIGHTS)
def test_compiled_integrals_equal_the_generic_call(text, draws):
    # tail_qnorm, head_qnorm and the two kernel-power-0 weight_kernel_integral
    # calls read the compiled integrals; each must be bit for bit the
    # integrate_terms computation (QUADPACK included) and fail as it does
    b = parse_weight(text)
    rng = np.random.default_rng(len(text))
    ts = [1.0, math.nextafter(1.0, 0.0), math.nextafter(1.0, 2.0), 1e-300, 1e300]
    ts += np.exp(rng.uniform(-690.0, 690.0, draws)).tolist()

    def generic(w, q, lo, hi):
        return integrate_terms(_weight_terms(w, q, lo, hi)).value

    def root(w, q, t):
        value = generic(w, q, t, INF)
        return value ** (1.0 / q) if value != INF else INF

    n = 0
    for q in (0.5, 1.0, 1.7, 2.0, 3.0):
        for t in ts:
            assert _outcome(lambda: weight_kernel_integral(b, q, 0.0, t, INF)) \
                == _outcome(lambda: generic(b, q, t, INF))
            assert _outcome(lambda: weight_kernel_integral(b, q, 0.0, 0.0, t)) \
                == _outcome(lambda: generic(b, q, 0.0, t))
            assert _outcome(lambda: tail_qnorm(b, q, t)) \
                == _outcome(lambda: root(b, q, t))
            assert _outcome(lambda: head_qnorm(b, q, t)) \
                == _outcome(lambda: root(Flip(b), q, 1.0 / t))
            n += 1
    assert n == 5 * (draws + 5)
