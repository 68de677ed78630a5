import math
import pickle

import numpy as np
import pytest

from scipy import integrate as sci_integrate

from kinterp import quadrature, reiteration
from kinterp.holmstedt import (HypothesisError, _rhs, rhs_formula,
                               verify_hypotheses)
from kinterp.profiles import (
    K_from_rearrangement,
    KProfile,
    Rearrangement,
    parse_profile,
    profile_suite,
    random_rearrangement,
    realize_rearrangement,
)
from kinterp.norms import weighted_knorm
from kinterp.quadrature import GridSpec, integrate_terms, term_memo
from kinterp.reiteration import (
    CompositeWeight,
    LKSpec,
    ReiterationSpec,
    _composite_norm,
    _index_table,
    build_hat_b,
    build_tilde_b,
    lk_identification_check,
    log_derivative_check,
    lorentz_karamata_norm,
    reiteration_check,
)
from kinterp.weights import (Flip, _weight_terms, parse_weight,
                             weight_kernel_integral)

INF = math.inf


@pytest.fixture(scope="module")
def spec_main(w_one, w_lm22, w_l03):
    return ReiterationSpec(side=0, theta=0.5, q=1.0, b=w_one,
                           q0=1.0, b0=w_lm22, q1=1.0, b1=w_l03)


# ---------------------------------------------------------------------------
# spec validation
# ---------------------------------------------------------------------------

def test_spec_rejects_infinite_q(w_one, w_lm22, w_l03):
    with pytest.raises(ValueError, match="finite q"):
        ReiterationSpec(side=0, theta=0.5, q=INF, b=w_one,
                        q0=1.0, b0=w_lm22, q1=1.0, b1=w_l03)


def test_spec_rejects_wrong_class(w_one, w_l03):
    with pytest.raises(ValueError):
        ReiterationSpec(side=0, theta=0.5, q=1.0, b=w_one,
                        q0=1.0, b0=w_one, q1=1.0, b1=w_l03)


def test_spec_theta_range(w_one, w_lm22, w_l03):
    with pytest.raises(ValueError):
        ReiterationSpec(side=0, theta=1.0, q=1.0, b=w_one,
                        q0=1.0, b0=w_lm22, q1=1.0, b1=w_l03)


# ---------------------------------------------------------------------------
# composite weights
# ---------------------------------------------------------------------------

def test_tilde_b_at_one(spec_main):
    tb = build_tilde_b(spec_main)
    assert tb(1.0) == pytest.approx(math.sqrt(2.0), rel=1e-12)


def test_tilde_b_q_equal_q1_drops_tail_factor(spec_main, w_one, w_lm22, w_l03):
    # with q == q1 the tail-integral exponent vanishes, so the weight is
    # exactly index^(1-theta) * b(index) * b1
    tb = build_tilde_b(spec_main)
    for t in (0.1, 1.0, 25.0):
        idx = spec_main.index_value(t)
        assert tb(t) == pytest.approx(idx ** 0.5 * w_l03(t), rel=1e-12)


def test_hat_flip_duality(spec_main):
    tb = build_tilde_b(spec_main)
    hb = build_hat_b(spec_main.flipped())
    for t in (0.05, 1.0, 40.0):
        assert hb(t) == pytest.approx(tb(1.0 / t), rel=1e-12)


def _composite_reference(spec: ReiterationSpec, t: float) -> float:
    """The composite weight as computed before it was compiled: the index
    of ``norms.index`` and the b1 block of ``weight_kernel_integral``, each
    integral through ``integrate_terms``."""
    def integral(w, q, lo, hi):
        return integrate_terms(_weight_terms(w, q, lo, hi)).value

    def qnorm(w, q, u):
        if u <= 0.0:
            raise ValueError("t must be positive")
        value = integral(w, q, u, INF)
        return value ** (1.0 / q) if value != INF else INF

    if spec.side == 0:
        num, den = qnorm(spec.b0, spec.q0, t), qnorm(spec.b1, spec.q1, t)
    else:
        num = qnorm(Flip(spec.b0), spec.q0, 1.0 / t)
        den = qnorm(Flip(spec.b1), spec.q1, 1.0 / t)
    bad = (num == 0.0 and den == 0.0) or (num == INF and den == INF) \
        or den == 0.0 or not math.isfinite(den)
    idx = None if bad else num / den
    if idx is None or not 0.0 < idx < INF:
        raise ValueError(f"index degenerate at t={t!r}")
    if spec.side == 0:
        block = integral(spec.b1, spec.q1, t, INF)
    else:
        block = integral(spec.b1, spec.q1, 0.0, t)
    if block == INF:
        raise ValueError("divergent defining integral of the b1 block")
    expo = (1.0 - spec.theta) if spec.side == 0 else spec.theta
    return idx ** expo * spec.b(idx) * (spec.b1(t) ** (spec.q1 / spec.q)
                                        * block ** (1.0 / spec.q1 - 1.0 / spec.q))


def _stretched_spec() -> ReiterationSpec:
    """Side 0 with stretched factors in b0 and b1 (the generic integrals)."""
    return ReiterationSpec(
        side=0, theta=0.3, q=1.5, b=parse_weight("log(1,-0.5)"),
        q0=1.0, b0=parse_weight("mul(log(-2,-1),pow(explog(0.2),-1))"),
        q1=2.0, b1=parse_weight("mul(log(0,-2.5),pow(explog(0.3),-0.8))"))


def _outcome(f, t):
    """f(t) as the hex of its float, or the type and text of its error."""
    try:
        return float(f(t)).hex()
    except (ValueError, ArithmeticError) as exc:
        return type(exc), str(exc)


@pytest.fixture(scope="module")
def quadpack_nodes() -> list[float]:
    """The points QUADPACK asks for in the composite-weight norms of a
    benchmark-shaped side-0 reiteration check, on two profiles."""
    spec, nodes = _bench_spec(0), []

    def recorded(t):
        nodes.append(t)
        return _composite_reference(spec, t)

    for text in ("min1", PIECEWISE):
        weighted_knorm(parse_profile(text).curve, 0.0, spec.q, recorded)
    return nodes


@pytest.mark.parametrize("make,stride", [
    (lambda: _bench_spec(0), 1), (lambda: _bench_spec(1), 1),
    (_stretched_spec, 12), (lambda: _stretched_spec().flipped(), 12),
], ids=["bench0", "bench1", "stretched0", "stretched1"])
def test_composite_weight_equals_its_defining_formula(quadpack_nodes, make,
                                                      stride):
    # at QUADPACK's nodes (and their reciprocals, where side 1 asks) and at
    # the ends of the float range: bit for bit, or the same error; the
    # stretched specs, whose every integral goes to QUADPACK, on a subset
    spec = make()
    composite = CompositeWeight(spec)
    nodes = quadpack_nodes[::stride]
    assert len(nodes) > 100
    for t in nodes + [1.0 / t for t in nodes] + [1e-300, 1.0, 1e300]:
        assert _outcome(composite, t) == _outcome(
            lambda u: _composite_reference(spec, u), t)
    clone = pickle.loads(pickle.dumps(composite))  # the closure is rebuilt
    assert _outcome(clone, nodes[0]) == _outcome(composite, nodes[0])


def test_composite_weight_keeps_the_degenerate_index_error(w_one, w_l02):
    # the b1 tail integral underflows to 0 far out, so the index is 0/0
    spec = ReiterationSpec(side=0, theta=0.5, q=1.0, b=w_one, q0=1.0,
                           b0=w_l02, q1=1.0, b1=parse_weight("log(0,-400)"))
    with pytest.raises(ValueError, match="index degenerate at t=1e[+]300"):
        CompositeWeight(spec)(1e300)
    assert CompositeWeight(spec)(2.0) == _composite_reference(spec, 2.0)


def test_side_mismatch(spec_main):
    with pytest.raises(ValueError):
        build_hat_b(spec_main)
    with pytest.raises(ValueError):
        build_tilde_b(spec_main.flipped())


# ---------------------------------------------------------------------------
# log-derivative condition
# ---------------------------------------------------------------------------

def test_log_derivative_band(spec_main):
    rep = log_derivative_check(spec_main)
    assert rep.passed
    assert 0.2 <= rep.band_lo <= rep.band_hi <= 5.0


def test_log_derivative_degenerate(w_one, w_l03):
    spec = ReiterationSpec(side=0, theta=0.5, q=1.0, b=w_one,
                           q0=1.0, b0=w_l03, q1=1.0, b1=w_l03)
    rep = log_derivative_check(spec)
    assert not rep.passed


def test_hypotheses_fail_for_degenerate(w_one, w_l03):
    spec = ReiterationSpec(side=0, theta=0.5, q=1.0, b=w_one,
                           q0=1.0, b0=w_l03, q1=1.0, b1=w_l03)
    with pytest.raises(HypothesisError):
        spec.verify_hypotheses()


def test_hypotheses_pass(spec_main):
    notes = spec_main.verify_hypotheses()
    assert any("rho" in n for n in notes)


# ---------------------------------------------------------------------------
# reiteration identity
# ---------------------------------------------------------------------------

def test_reiteration_band(spec_main):
    rep = reiteration_check(spec_main, profile_suite())
    assert rep.rows and rep.skipped == 0
    assert rep.variation <= 1e3
    for _, lhs, rhs, ratio in rep.rows:
        assert 1e-3 <= ratio <= 1e3


def test_reiteration_zero_profile(spec_main):
    rep = reiteration_check(spec_main, [Rearrangement.zero()])
    assert rep.rows == [] and rep.skipped == 1


def test_reiteration_homogeneity(spec_main):
    f = profile_suite()[0]
    rep = reiteration_check(spec_main, [f, f.scale(3.0)])
    (_, l1, r1, _), (_, l2, r2, _) = rep.rows
    assert l2 == pytest.approx(3.0 * l1, rel=1e-9)
    assert r2 == pytest.approx(3.0 * r1, rel=1e-9)


# ---------------------------------------------------------------------------
# Lorentz-Karamata norms
# ---------------------------------------------------------------------------

def test_lk_norm_examples(w_one, w_lm20):
    chi = Rearrangement.indicator(1.0)
    assert lorentz_karamata_norm(chi, LKSpec(1.0, 1.0, w_one)) \
        == pytest.approx(1.0, rel=1e-12)
    assert lorentz_karamata_norm(chi, LKSpec(INF, 1.0, w_lm20)) \
        == pytest.approx(1.0, rel=1e-12)
    assert lorentz_karamata_norm(Rearrangement.zero(),
                                 LKSpec(1.0, 1.0, w_one)) == 0.0


def test_lk_norm_sup_case(w_one):
    chi = Rearrangement.indicator(1.0)
    # p=2, q=inf: sup t^{1/2} chi = 1
    assert lorentz_karamata_norm(chi, LKSpec(2.0, INF, w_one)) \
        == pytest.approx(1.0, rel=1e-9)


def test_lk_identification_chi(w_lm20):
    rep = lk_identification_check([Rearrangement.indicator(1.0)], 1.0, w_lm20)
    (_, lk, interp, ratio), = rep.rows
    assert lk == pytest.approx(1.0, rel=1e-12)
    assert interp == pytest.approx(2.0, rel=1e-12)
    assert ratio == pytest.approx(2.0, rel=1e-12)


def test_lk_identification_scaling(w_lm20):
    chi = Rearrangement.indicator(1.0)
    rep = lk_identification_check([chi, chi.scale(3.0)], 1.0, w_lm20)
    (_, lk1, i1, _), (_, lk3, i3, _) = rep.rows
    assert lk3 == pytest.approx(3.0 * lk1, rel=1e-12)
    assert i3 == pytest.approx(3.0 * i1, rel=1e-12)


def test_lk_identification_ratio_at_least_one(w_lm20):
    rng = np.random.default_rng(5150)
    suite = [random_rearrangement(rng) for _ in range(10)]
    rep = lk_identification_check(suite, 1.0, w_lm20)
    assert rep.skipped == 0
    assert rep.ratio_min >= 1.0 - 1e-9
    assert rep.ratio_max <= 1e2


def test_lk_identification_requires_head_class(w_l02):
    with pytest.raises(ValueError):
        lk_identification_check([Rearrangement.indicator(1.0)], 1.0, w_l02)


@pytest.mark.parametrize("text", ["one", "log(-0.5,-3)"])
def test_lk_identification_names_the_head_class(text):
    with pytest.raises(ValueError, match="head class"):
        lk_identification_check([Rearrangement.indicator(1.0)], 1.0,
                                parse_weight(text))


def test_lk_identification_integrates_the_head_term_once(monkeypatch,
                                                         power_pieces):
    # the head q-norm of b at t = 1 is the only weight q-norm of the check:
    # its compiled integral computes the one head term once, as a power
    # integral, and hands integrate_terms nothing
    from kinterp import weights
    original = weights.integrate_terms
    handed = []

    def recording(terms):
        handed.extend(terms)
        return original(terms)

    monkeypatch.setattr(weights, "integrate_terms", recording)
    b = parse_weight("log(-2.714,0)")
    rep = lk_identification_check([Rearrangement.indicator(1.0)], 1.0, b)
    assert rep.rows
    assert handed == []
    assert power_pieces == [(term.beta, term.x1, term.x2)
                            for term in _weight_terms(Flip(b), 1.0, 1.0, INF)]


def test_reiteration_mixed_exponents(w_one, w_lm22, w_l02):
    # different inner exponents route through the eps condition and keep the
    # nontrivial tail factor of the composite weight
    spec = ReiterationSpec(side=0, theta=0.5, q=1.0, b=w_one,
                           q0=1.0, b0=w_lm22, q1=2.0, b1=w_l02)
    notes = spec.verify_hypotheses()
    assert any("eps" in n for n in notes)
    rep = reiteration_check(spec, profile_suite())
    assert rep.rows and rep.variation <= 1e3


def test_eps_note_matches_the_scan(w_one, w_lm22, w_l02):
    # the side-0 spec and the limiting00 scan of its inner pair run the same
    # rho_eps gate and report it in the same words
    spec = ReiterationSpec(side=0, theta=0.5, q=1.0, b=w_one,
                           q0=1.0, b0=w_lm22, q1=2.0, b1=w_l02)
    scan_notes = verify_hypotheses(spec.inner_case())
    assert scan_notes[0].startswith("rho_eps passes at eps=")
    assert spec.verify_hypotheses()[-1] == scan_notes[0]


def test_reiteration_side1_valid_spec(w_one, w_lm22, w_l03):
    from kinterp.weights import Flip
    spec1 = ReiterationSpec(side=1, theta=0.5, q=1.0, b=w_one,
                            q0=1.0, b0=Flip(w_l03), q1=1.0, b1=Flip(w_lm22))
    spec1.verify_hypotheses()
    assert build_hat_b(spec1)(1.0) == pytest.approx(1.0 / math.sqrt(2.0),
                                                    rel=1e-12)
    rep = reiteration_check(spec1, profile_suite())
    # unbounded representatives fall outside the upper-limiting spaces
    assert rep.rows and rep.variation <= 1e3


def test_formula_mirror_is_not_theorem_valid(spec_main):
    # the formula mirror inverts the index direction, so its own hypothesis
    # check must fail; the weight duality itself is exact regardless
    from kinterp.holmstedt import HypothesisError
    with pytest.raises(HypothesisError):
        spec_main.flipped().verify_hypotheses()


# rho -> 0 toward 0+ like 1/ln ln(1/t): rho(1e-150) is still 0.83
LOGLOG = ("log(-4,-1.2)", "log(-1,-2.7)")
# both head integrals converge, so rho(0+) is finite (0.30 at t = 1e-300)
FINITE_AT_ZERO = ("log(-2,-2.2)", "mul(log(-0.3,-3.6),pow(explog(0.3),-0.8))")


def _limit_specs(texts) -> tuple[ReiterationSpec, ReiterationSpec]:
    """The side-0 spec and its t -> 1/t mirror with the slots swapped."""
    b0, b1 = map(parse_weight, texts)
    one = parse_weight("one")
    return (ReiterationSpec(0, 0.5, 1.0, one, 1.0, b0, 1.0, b1),
            ReiterationSpec(1, 0.5, 1.0, one, 1.0, Flip(b1), 1.0, Flip(b0)))


def test_index_limits_slower_than_any_float_probe():
    spec, mirror = _limit_specs(LOGLOG)
    notes = spec.verify_hypotheses()
    assert notes[1] == ("rho -> 0 toward 0+ and -> inf toward inf "
                        "(exact limits of the weight algebra)")
    assert notes[2].startswith("log-derivative band [0.88")
    # the mirror passes both limits and fails only the next condition
    with pytest.raises(HypothesisError) as exc:
        mirror.verify_hypotheses()
    assert exc.value.condition == "log-derivative equivalence"


def test_index_with_a_finite_limit_at_zero_fails():
    spec, mirror = _limit_specs(FINITE_AT_ZERO)
    with pytest.raises(HypothesisError) as exc:
        spec.verify_hypotheses()
    assert exc.value.condition == "rho -> 0 toward 0+"
    assert "finite positive limit" in str(exc.value)
    with pytest.raises(HypothesisError) as exc:
        mirror.verify_hypotheses()
    assert exc.value.condition == "eta -> inf toward inf"
    # the limit is the quotient of the full-line norms
    full = [weight_kernel_integral(b, 1.0, 0.0, 0.0, INF)
            for b in (spec.b0, spec.b1)]
    assert full[0] / full[1] == pytest.approx(0.28646, rel=1e-4)
    assert spec.index_value(1e-300) == pytest.approx(full[0] / full[1],
                                                     rel=0.05)


# ---------------------------------------------------------------------------
# shared index table and per-sweep memo
# ---------------------------------------------------------------------------

CHECK_GRID = GridSpec(1e-12, 1e12, 12)
PIECEWISE = "piecewise[(0.163,0.46),(0.326,0.619),(2.67,1.52)]"


def _bench_spec(side: int) -> ReiterationSpec:
    """A spec of the reiteration benchmark's shape; side 1 is the t -> 1/t
    mirror with the weight slots swapped."""
    b0, b1 = parse_weight("log(-2.2,-2.2)"), parse_weight("log(0,-3.25)")
    if side == 0:
        return ReiterationSpec(side=0, theta=0.45, q=1.0, b=parse_weight("one"),
                               q0=1.0, b0=b0, q1=2.0, b1=b1)
    return ReiterationSpec(side=1, theta=0.55, q=2.0, b=parse_weight("log(0,-1)"),
                           q0=1.0, b0=Flip(b1), q1=1.0, b1=Flip(b0))


@pytest.mark.parametrize("side", [0, 1])
def test_index_table_sweep_equals_rhs_formula(side):
    spec = _bench_spec(side)
    case = spec.inner_case()
    spaces = case.spaces()
    _, rows = _index_table(spec, CHECK_GRID)
    live = [row for row in rows if row is not None]
    assert len(rows) == len(CHECK_GRID.points()) and len(live) > 200
    for text in ("min1", PIECEWISE):
        K = parse_profile(text)
        want = [rhs_formula(case, K, t) for t, _, _ in live]
        with term_memo() as memo:
            for (t, idx, _), rhs in zip(live, want):
                assert idx == spec.index_value(t)
                assert _rhs(spaces, K, t, idx) == rhs
        assert memo


def test_zero_profile_sweep_is_zero():
    spec = _bench_spec(0)
    t, idx, _ = next(r for r in _index_table(spec, CHECK_GRID)[1] if r)
    zero = KProfile.zero()
    assert _rhs(spec.inner_case().spaces(), zero, t, idx) == 0.0 \
        == rhs_formula(spec.inner_case(), zero, t)


def _count_quad(monkeypatch) -> list:
    calls: list = []
    quad = sci_integrate.quad

    def counted(*args, **kwargs):
        calls.append(args[1:3])
        return quad(*args, **kwargs)

    monkeypatch.setattr(sci_integrate, "quad", counted)
    return calls


@pytest.mark.parametrize("side", [0, 1])
def test_sweep_hands_quadpack_each_term_once(monkeypatch, side):
    # segments of I and J that do not move with t (such as [1, inf) in J for
    # t < 1) give the same canonical term at every grid point of a sweep
    spec = _bench_spec(side)
    calls = _count_quad(monkeypatch)
    sweeps: list[dict] = []
    active: list = [None]  # QUADPACK calls per term of the running sweep
    term_value = quadrature.term_value

    def traced_term_value(term):
        before = len(calls)
        out = term_value(term)
        if active[0] is not None and len(calls) > before:
            active[0][term] = active[0].get(term, 0) + 1
        return out

    def traced_composite_norm(*args, **kwargs):
        active[0] = {}
        sweeps.append(active[0])
        try:
            return _composite_norm(*args, **kwargs)
        finally:
            active[0] = None

    monkeypatch.setattr(quadrature, "term_value", traced_term_value)
    monkeypatch.setattr(reiteration, "_composite_norm", traced_composite_norm)
    suite = [realize_rearrangement(parse_profile(p)) for p in ("min1", PIECEWISE)]
    rep = reiteration_check(spec, suite)
    assert rep.rows
    assert len(sweeps) == 2 and all(sweeps)
    for sweep in sweeps:
        assert max(sweep.values()) == 1


def test_no_cache_outlives_a_check(monkeypatch):
    # profiles no other test uses, so a cache that outlived earlier checks
    # would still be cold for the first call here
    spec = _bench_spec(0)
    suite = [realize_rearrangement(parse_profile(p)) for p in
             ("piecewise[(0.0713,0.29),(4.1,2.3)]", "piecewise[(0.5,0.8),(20,3)]")]
    calls = _count_quad(monkeypatch)
    first = reiteration_check(spec, suite)
    n_first = len(calls)
    second = reiteration_check(spec, suite)
    assert n_first > 0
    assert len(calls) - n_first == n_first
    assert first.rows == second.rows


def test_lost_row_skips_composite_weight(monkeypatch):
    spec = _bench_spec(0)
    power = realize_rearrangement(parse_profile("power(0.4)"))
    table = _index_table(spec, CHECK_GRID)
    assert _composite_norm(spec, K_from_rearrangement(power), table) == INF
    evals = [0]
    composite_call = CompositeWeight.__call__

    def counted(self, t):
        evals[0] += 1
        return composite_call(self, t)

    monkeypatch.setattr(CompositeWeight, "__call__", counted)
    rep = reiteration_check(spec, [power])
    assert rep.rows == [] and rep.skipped == 1
    assert evals[0] == 0
    rep = reiteration_check(spec, [realize_rearrangement(parse_profile("min1"))])
    assert len(rep.rows) == 1 and evals[0] > 0
