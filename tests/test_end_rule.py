"""The one end rule, ``quadrature.leading_exponent``, against the rules it
replaced: each reference below is the earlier, separately written decision
(a lexicographic growth triple, a dict of log-norm levels walked from the
top, and the atom tests of ``antiderivative`` and ``_vanishes_at_zero``),
and every panel asserts the same decision, errors included."""

import math
import random

import pytest

from kinterp import profiles
from kinterp.holmstedt import _demo_setup
from kinterp.norms import _log_norm_order, index_limit
from kinterp.profiles import Atom, CurveClosureError, PiecewiseCurve
from kinterp.quadrature import (LogTerm, exp_pow_integral, leading_exponent,
                                sup_terms, term_diverges_at_inf)
from kinterp.weights import (ExpLog, Flip, One, Power, PowerLog, Product,
                             WeightExpr, head_qnorm)

INF, NAN = math.inf, math.nan
BELOW, ABOVE = math.nextafter(-1.0, -INF), math.nextafter(-1.0, INF)


# ---------------------------------------------------------------------------
# References
# ---------------------------------------------------------------------------

def _ref_growth(a, beta, gammas):
    lead_alpha, lead = -1.0, 0.0
    for alpha, gamma in gammas:
        if gamma != 0.0 and alpha > lead_alpha:
            lead_alpha, lead = alpha, gamma
    return a, lead, beta


def _ref_diverges(a, beta, gammas=()):
    return _ref_growth(a, beta, gammas) >= (0.0, 0.0, -1.0)


def _ref_sup_end(terms):
    """The end class sup_terms took on x2 = inf: "inf", the top coefficient
    ("coef"), 0 ("zero") or no end value ("none")."""
    gammas = terms[0].gammas
    top = max(terms, key=lambda t: _ref_growth(t.a, t.beta, gammas))
    order = _ref_growth(top.a, top.beta, gammas)
    if order > (0.0, 0.0, 0.0) and top.coef > 0.0:
        return "inf"
    if order <= (0.0, 0.0, 0.0):
        return "coef" if order == (0.0, 0.0, 0.0) else "zero"
    return "none"


def _sup_end(terms):
    """The same end class read as ``sup_terms`` now reads it."""
    top = max(terms, key=lambda t: (t.a, t.beta))
    order = leading_exponent(top.a, top.beta, terms[0].gammas)
    if order > 0.0 and top.coef > 0.0:
        return "inf"
    if order <= 0.0:
        return "coef" if order == 0.0 else "zero"
    return "none"


def _ref_log_norm_order(b, q, side, tail):
    form = b.side(side)
    scaled = form.scaled(q)
    if _ref_diverges(0.0, scaled.beta, scaled.gammas) == tail:
        if tail:
            raise ValueError(f"the {q:g}-norm of {b.to_text()} diverges")
        return {}
    order = {alpha: gamma for alpha, gamma in form.gammas if gamma != 0.0}
    if order:
        order[0.0] = form.beta + (1.0 - max(order)) / q
    elif scaled.beta != -1.0:
        order[0.0] = form.beta + 1.0 / q
    else:
        order[-1.0] = 1.0 / q
    return order


def _ref_index_limit(kind, q0, b0, q1, b1, end):
    tail = (kind == "rho") == (end == "inf")
    order0, order1 = (_ref_log_norm_order(b, q, "lo" if end == "zero" else "hi",
                                          tail) for q, b in ((q0, b0), (q1, b1)))
    for k in sorted(order0.keys() | order1.keys(), reverse=True):
        d = order0.get(k, 0.0) - order1.get(k, 0.0)
        if d != 0.0:
            return 1 if d > 0.0 else -1
    return 0


def _ref_antiderivative_check(first):
    for a in first:
        ok = a.power > -1.0 and a.logexp == 0.0
        ok = ok or (a.power == -1.0 and a.logexp < -1.0)
        if not ok:
            if a.power < -1.0 or (a.power == -1.0 and a.logexp >= -1.0):
                return ValueError
            return CurveClosureError
    return None


def _ref_vanishes_at_zero(curve):
    _, hi, first = next(curve.segments())
    on_lo = hi <= 1.0
    for a in first:
        if a.power < 0.0:
            return False
        if a.power == 0.0 and not (on_lo and a.logexp < 0.0):
            return False
    return True


def _outcome(f, *args):
    """f's value, or the class of the ValueError it raises."""
    try:
        return f(*args)
    except ValueError as exc:
        return type(exc)


# ---------------------------------------------------------------------------
# The rule itself
# ---------------------------------------------------------------------------

@pytest.mark.parametrize("args,want", [
    ((0.0,), 0.0), ((-0.0, -0.0, (), -0.0), 0.0), ((2.0, -5.0), 2.0),
    ((0.0, -5.0, ((0.5, 1.0),)), 1.0), ((0.0, 3.0, ((0.5, 0.0),)), 3.0),
    ((0.0, 0.0, (), -1.0), -1.0),
    # the summed gamma of the largest alpha: a quotient's forms cancel there
    ((0.0, -2.0, ((0.3, 1.0), (0.5, 1.0), (0.5, -1.0))), 1.0),
])
def test_leading_exponent_levels(args, want):
    assert leading_exponent(*args) == want


@pytest.mark.parametrize("args", [
    (NAN, 1.0), (0.0, 1.0, ((0.5, NAN),)), (0.0, NAN), (0.0, 0.0, (), NAN)])
def test_a_nan_fails_every_sign_test(args):
    e = leading_exponent(*args)
    assert not (e > 0.0 or e >= 0.0 or e == 0.0 or e < 0.0 or e <= 0.0)


def _draw_term_panel(rng):
    a_pool = [0.0, -0.0, 1e-300, -1e-300, 0.5, -0.5, 2.0, -2.0, NAN]
    beta_pool = [-1.0, BELOW, ABOVE, 0.0, -0.0, 1e-300, -1e-300, -2.0, 0.5,
                 -0.5, 1.0, NAN]
    g_pool = [0.0, -0.0, 1e-300, -1e-300, 1.0, -1.0, NAN]

    def number(pool):
        return rng.choice(pool) if rng.random() < 0.8 else rng.uniform(-3, 3)

    def gammas(nan_ok):
        pool = g_pool if nan_ok else g_pool[:-1]
        alphas = rng.sample([0.25, 0.5, 0.75], rng.randint(0, 2))
        return tuple(sorted((al, number(pool)) for al in alphas))

    for _ in range(200_000):
        n = rng.choice((1, 1, 2, 3))
        # with several terms a NaN gamma would tie the old growth triples of
        # equal a, which the old max broke by position: keep it to one term
        gs = gammas(n == 1)
        ab = {(number(a_pool), number(beta_pool)) for _ in range(n)}
        yield [LogTerm(rng.choice((1.0, -1.0, 0.5)), a, b, 0.0, INF, gs)
               for a, b in ab]


def test_term_panel_decides_as_the_growth_triples():
    rng = random.Random(20261021)
    diverging = 0
    for terms in _draw_term_panel(rng):
        t = terms[0]
        want = _ref_diverges(t.a, t.beta, t.gammas)
        assert term_diverges_at_inf(t.a, t.beta, t.gammas) == want, t
        assert _sup_end(terms) == _ref_sup_end(terms), terms
        if want and not t.gammas:
            diverging += 1
            with pytest.raises(ValueError, match="divergent"):
                exp_pow_integral(t.a, t.beta, 0.0, INF)
    assert diverging > 10_000


def test_sup_terms_reads_the_end_class():
    # sup_terms itself on one- and two-term sums from 0 to inf: +inf exactly
    # where the top term grows with a positive coefficient, and at least the
    # top coefficient where the top term tends to it
    rng = random.Random(7)
    seen = set()
    for _ in range(3_000):
        gammas = rng.choice(((), ((0.5, rng.choice((-1.0, 0.0, 1.0))),)))
        ab = {(rng.choice((0.0, -0.0, 0.5, -0.5)),
               rng.choice((-1.0, BELOW, ABOVE, 0.0, -0.0, 1.0, -2.0)))
              for _ in range(rng.choice((1, 2)))}
        terms = [LogTerm(rng.choice((1.0, -1.0)), a, b, 0.0, INF, gammas)
                 for a, b in ab]
        end = _ref_sup_end(terms)
        seen.add(end)
        got = sup_terms(terms)
        assert (got == INF) == (end == "inf"), terms
        if end == "coef":
            top = max(terms, key=lambda t: (t.a, t.beta))
            assert got >= top.coef, terms
    assert seen == {"inf", "coef", "zero", "none"}


# ---------------------------------------------------------------------------
# index_limit
# ---------------------------------------------------------------------------

def _random_weight(rng, depth=0) -> WeightExpr:
    exps = (-3.0, -2.0, -1.2, -1.0, -0.5, 0.0, 0.5, 1.0)
    pick = rng.random()
    if depth >= 2 or pick < 0.35:
        return PowerLog(rng.choice(exps), rng.choice(exps))
    if pick < 0.5:
        return ExpLog(rng.choice((0.3, 0.5)))
    if pick < 0.55:
        return One()
    if pick < 0.8:
        return Product(_random_weight(rng, depth + 1),
                       _random_weight(rng, depth + 1))
    if pick < 0.9:
        return Power(_random_weight(rng, depth + 1),
                     rng.choice((-1.0, -0.5, 0.5, 2.0)))
    return Flip(_random_weight(rng, depth + 1))


def test_index_limit_panel_decides_as_the_level_loop():
    rng = random.Random(31)
    outcomes = set()
    for _ in range(3_000):
        b0, b1 = _random_weight(rng), _random_weight(rng)
        q0, q1 = rng.choice((0.5, 1.0, 2.0, 3.0)), rng.choice((0.5, 1.0, 2.0, 3.0))
        kind, end = rng.choice(("rho", "eta")), rng.choice(("zero", "inf"))
        args = (kind, q0, b0, q1, b1, end)
        want = _outcome(_ref_index_limit, *args)
        assert _outcome(index_limit, *args) == want, args
        outcomes.add(want)
    assert outcomes == {-1, 0, 1, ValueError}


# ---------------------------------------------------------------------------
# The first piece of a curve
# ---------------------------------------------------------------------------

def _random_first_piece(rng):
    powers = (-1.0, BELOW, ABOVE, 0.0, -0.0, 1e-300, -1e-300, -2.0, 0.5, 1.0)
    logs = (-1.0, BELOW, ABOVE, 0.0, -0.0, 1e-300, -1e-300, -2.0, 0.5, -0.5)
    atoms = []
    for _ in range(rng.randint(1, 3)):
        p = rng.choice(powers) if rng.random() < 0.8 else rng.uniform(-2, 1)
        l = rng.choice(logs) if rng.random() < 0.8 else rng.uniform(-2, 1)
        atoms.append(Atom(rng.choice((1.0, -0.5, 2.0)), p, l))
    return atoms


def test_first_piece_panel_decides_as_the_atom_tests():
    rng = random.Random(16)
    seen = set()
    for _ in range(20_000):
        curve = PiecewiseCurve([0.5], [_random_first_piece(rng), ()])
        want = _ref_antiderivative_check(curve.pieces[0])
        got = _outcome(curve.antiderivative)
        assert (got if isinstance(got, type) else None) == want, curve.pieces
        vanishes = _ref_vanishes_at_zero(curve)
        assert profiles._vanishes_at_zero(curve) == vanishes, curve.pieces
        seen.add((want, vanishes))
    assert {w for w, _ in seen} == {None, ValueError, CurveClosureError}
    assert {v for _, v in seen} == {True, False}


# ---------------------------------------------------------------------------
# The demo's theorem
# ---------------------------------------------------------------------------

def test_demo_end_order_is_positive_for_every_grammar_pair():
    # the verdict's reason: the head of g^r is infinite, or M's leading
    # exponent at 0+, the head's form over g's, is > 0
    rng = random.Random(1509)
    infinite = finite = 0
    for _ in range(300):
        b0, b1 = _random_weight(rng), _random_weight(rng)
        q0, q1 = rng.sample((0.5, 1.0, 1.5, 2.0, 3.0, INF), 2)
        r, g, _ = _demo_setup(q0, q1, b0, b1)
        try:
            beta, gammas, loglog = _log_norm_order(g, r, "lo", tail=True)
        except ValueError:
            assert head_qnorm(g, r, 1e-3) == INF, (b0, b1)
            infinite += 1
            continue
        lo = g.side("lo")
        order = leading_exponent(0.0, beta - lo.beta, gammas + tuple(
            (al, -gm) for al, gm in lo.gammas), loglog)
        assert order > 0.0, (b0, b1, q0, q1)
        finite += 1
    assert infinite > 20 and finite > 100
