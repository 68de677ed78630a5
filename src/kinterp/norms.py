"""Interpolation quasi-norms, the partial quantities I/J, and the index algebra.

The space quasi-norm is ||t^{-theta-1/q} b(t) K(t,f)||_{q,(0,inf)}.  Products
of a profile piece (atom sums) with a weight side form stay inside the
canonical e^{a x}(1+x)^beta family whenever the piece is a single atom or q is
a small integer (multinomial expansion); other segments integrate adaptively.
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from typing import Iterator, Optional, Sequence

import numpy as np

from .profiles import Atom, KProfile, PiecewiseCurve
from .quadrature import (
    AT_INFINITY,
    AT_ZERO,
    IntegralOverflowError,
    IntegralResult,
    STANDARD_GRID,
    _TERM_MEMO,
    _quad,
    integrate_terms,
    sup_terms,
    term_diverges_at_inf,
)
from .weights import WeightExpr, head_qnorm, side_terms, tail_qnorm

__all__ = [
    "SpaceSpec",
    "IndexPair",
    "ConditionReport",
    "space_norm",
    "weighted_knorm",
    "partial_norms",
    "index",
    "index_limit",
    "quasi_monotone_constant",
    "sv_quasimonotone_constant",
    "check_condition_monotone_index",
    "DEFAULT_EPS_GRID",
    "MONOTONE_THRESHOLD",
]

_INF = math.inf

#: epsilon search grid for the monotone-index conditions.
DEFAULT_EPS_GRID = tuple(2.0 ** -k for k in range(0, 11))

#: "equivalent to a monotone function" means quasi-monotonicity constant <= 4.
MONOTONE_THRESHOLD = 4.0

_MAX_EXPAND_Q = 4


# ---------------------------------------------------------------------------
# Space specifications
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SpaceSpec:
    """A K-interpolation space (theta, q, b); limiting thetas require the
    matching integrability class of the weight."""

    theta: float
    q: float
    b: WeightExpr

    def __post_init__(self) -> None:
        if not (0.0 <= self.theta <= 1.0):
            raise ValueError("theta must lie in [0, 1]")
        if not (self.q > 0.0):
            raise ValueError("q must be positive (inf allowed)")
        if self.theta == 0.0 and not math.isfinite(
                tail_qnorm(self.b, self.q, 1.0)):
            raise ValueError("theta = 0 requires the tail class of the weight")
        if self.theta == 1.0 and not math.isfinite(
                head_qnorm(self.b, self.q, 1.0)):
            raise ValueError("theta = 1 requires the head class of the weight")

    def label(self) -> str:
        return f"(theta={self.theta:g}, q={self.q:g}, b={self.b.to_text()})"


# ---------------------------------------------------------------------------
# The weighted K-norm core
# ---------------------------------------------------------------------------

def _expand_piece(atoms: Sequence[Atom], q: float) -> Optional[list[Atom]]:
    """(sum of atoms)^q as a list of product atoms, or None if not expandable."""
    if len(atoms) == 0:
        return []
    if len(atoms) == 1:
        a = atoms[0]
        if a.coef < 0.0:
            return None
        return [Atom(a.coef ** q, a.power * q, a.logexp * q)]
    if q != int(q) or not (1 <= q <= _MAX_EXPAND_Q):
        return None
    n = int(q)
    out: list[Atom] = []
    for combo in itertools.combinations_with_replacement(range(len(atoms)), n):
        counts: dict[int, int] = {}
        for i in combo:
            counts[i] = counts.get(i, 0) + 1
        mult = math.factorial(n)
        coef = 1.0
        power = 0.0
        logexp = 0.0
        for i, k in counts.items():
            mult //= math.factorial(k)
            coef *= atoms[i].coef ** k
            power += atoms[i].power * k
            logexp += atoms[i].logexp * k
        out.append(Atom(mult * coef, power, logexp))
    out.sort(key=lambda a: (a.power, a.logexp))
    return out


def _segment_adaptive(curve: PiecewiseCurve, theta: float, q: float,
                      b, u0: float, u1: float) -> tuple[float, float]:
    """Adaptive fallback for one segment; returns (value, error)."""

    def f(x: float) -> float:
        if abs(x) > 690.0:
            return 0.0
        u = math.exp(x)
        ku = curve(u)
        if ku <= 0.0:
            return 0.0
        return (u ** -theta * b(u) * ku) ** q

    x1 = math.log(u0) if u0 > 0.0 else -_INF
    x2 = math.log(u1) if u1 != _INF else _INF
    if x1 == -_INF or x2 == _INF:
        # probe decade decay to decide convergence before quad sees infinity
        base = x2 - 1.0 if x1 == -_INF else x1 + 1.0
        step = -1.0 if x1 == -_INF else 1.0
        vals = [abs(f(base + step * k * math.log(10.0))) for k in range(1, 6)]
        if vals[-1] >= vals[-2] * 0.999 and vals[-1] > 0.0:
            return _INF, _INF
    return _quad(f, x1, x2)


def _segments(curve: PiecewiseCurve, lo: float, hi: float
              ) -> Iterator[tuple[float, float, str, Sequence[Atom]]]:
    """(u0, u1, side, atoms) for each nonzero piece of the curve on (lo, hi),
    cut at 1 and at the curve's breakpoints."""
    if not lo < hi:
        return
    br = curve.breaks
    cuts = [lo, *br[bisect.bisect_right(br, lo):bisect.bisect_left(br, hi)], hi]
    if lo < 1.0 < hi and 1.0 not in br:
        bisect.insort(cuts, 1.0)
    for u0, u1 in zip(cuts[:-1], cuts[1:]):
        atoms = curve.pieces[curve.piece_index(u1)]
        if atoms:
            yield u0, u1, "lo" if u1 <= 1.0 else "hi", atoms


def weighted_knorm(curve: PiecewiseCurve, theta: float, q: float,
                   b: WeightExpr, lo: float = 0.0, hi: float = _INF
                   ) -> IntegralResult:
    """int_lo^hi (u^{-theta} b(u) K(u))^q du/u with K given as a curve.

    Returns the q-th power of the quasi-norm (callers take the root), +inf
    with the divergent end when the integral blows up.

    Inside a :func:`~kinterp.quadrature.term_memo` scope a call with a cut
    (lo > 0 or hi < inf) and a :class:`WeightExpr` weight reads and fills the
    scope's *plan* for (curve, theta, q, b), which maps each segment (u0, u1)
    to its finished result.  As t moves along a grid, I(t) and J(t) then
    integrate only the segment cut at t and add the cached results of the
    whole ones in the same order, so every value is bit-identical.  The plan
    holds the curve itself and goes when the scope does; a full-range call
    sees each curve once, so it keeps no plan.
    """
    total = 0.0
    err = 0.0
    structured: Optional[WeightExpr] = b if isinstance(b, WeightExpr) else None
    memo = _TERM_MEMO.get() if lo > 0.0 or hi < _INF else None
    plan = None if memo is None or structured is None \
        else memo.setdefault((curve, theta, q, structured), {})
    for u0, u1, side, atoms in _segments(curve, lo, hi):
        res = plan.get((u0, u1)) if plan is not None else None
        if res is None:
            expanded = None if structured is None else _expand_piece(atoms, q)
            if expanded is not None:
                terms = side_terms(structured.side(side).scaled(q),
                                   [(a.coef, a.power - theta * q, a.logexp)
                                    for a in expanded], side, u0, u1)
                terms.sort(key=lambda tm: (-abs(tm.a), tm.beta))
                res = integrate_terms(terms)
            else:
                v, e = _segment_adaptive(curve, theta, q, b, u0, u1)
                res = IntegralResult(v, e if v != _INF else _INF,
                                     None if v != _INF else
                                     (AT_ZERO if side == "lo" else AT_INFINITY))
            if plan is not None:
                plan[u0, u1] = res
        if res.divergent:
            return res
        total += res.value
        err += res.error_bound
    return IntegralResult(total, err)


def _quasi_norm(curve: PiecewiseCurve, theta: float, q: float, b: WeightExpr,
                lo: float = 0.0, hi: float = _INF) -> float:
    """||u^{-theta} b(u) K(u)||_{q,(lo,hi)} with the measure du/u; +inf when
    divergent.  For q = inf it is the largest exact supremum of the q = 1
    terms of each segment."""
    if q != _INF:
        res = weighted_knorm(curve, theta, q, b, lo, hi)
        try:
            return res.value ** (1.0 / q) if not res.divergent else _INF
        except OverflowError:  # the integral fits in a double, its root not
            raise IntegralOverflowError(
                f"the quasi-norm ||u^-{theta:g} b K||_{q:g} over ({lo:g}, "
                f"{hi:g}) exceeds the float range") from None
    best = 0.0
    for u0, u1, side, atoms in _segments(curve, lo, hi):
        terms = side_terms(b.side(side), [(a.coef, a.power - theta, a.logexp)
                                          for a in atoms], side, u0, u1)
        best = max(best, sup_terms(terms))
    return best


def space_norm(f: KProfile, s: SpaceSpec,
               lo: float = 0.0, hi: float = _INF) -> float:
    """||t^{-theta-1/q} b(t) K(t,f)||_{q,(lo,hi)}; +inf allowed."""
    return _quasi_norm(f.curve, s.theta, s.q, s.b, lo, hi)


# ---------------------------------------------------------------------------
# Partial quantities I, J, I1, J1
# ---------------------------------------------------------------------------

def partial_norms(f: KProfile, t: float, case: str,
                  q0: float, b0: WeightExpr, q1: float, b1: WeightExpr
                  ) -> tuple[float, float]:
    """(I, J) of the limiting frames.

    ``limiting0``: I = ||u^{-1/q0} b0 K||_{q0,(0,t)} and
    J = ||u^{-1/q1} b1 K||_{q1,(t,inf)}; ``limiting1`` carries the extra
    u^{-1} factor on both pieces.
    """
    if t <= 0.0:
        raise ValueError("t must be positive")
    if case not in ("limiting0", "limiting1"):
        raise ValueError(f"unknown case {case!r}")
    theta = 0.0 if case == "limiting0" else 1.0
    if f.curve.is_zero():
        return 0.0, 0.0
    return (_quasi_norm(f.curve, theta, q0, b0, 0.0, t),
            _quasi_norm(f.curve, theta, q1, b1, t, _INF))


# ---------------------------------------------------------------------------
# Indices rho / eta and their epsilon variants
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class IndexPair:
    value: Optional[float]
    numerator: float
    denominator: float

    @property
    def defined(self) -> bool:
        return self.value is not None


def index(t: float, kind: str, q0: float, b0: WeightExpr,
          q1: float, b1: WeightExpr, eps: float = 0.0) -> IndexPair:
    """rho / rho_eps (tail quotients) and eta / eta_eps (head quotients)."""
    if kind in ("rho", "rho_eps"):
        num = tail_qnorm(b0, q0, t)
        den = tail_qnorm(b1, q1, t)
    elif kind in ("eta", "eta_eps"):
        num = head_qnorm(b0, q0, t)
        den = head_qnorm(b1, q1, t)
    else:
        raise ValueError(f"unknown index kind {kind!r}")
    if kind.endswith("_eps"):
        if eps <= 0.0:
            raise ValueError("eps must be positive for the eps variants")
        num = num ** (1.0 + eps)
    bad = (num == 0.0 and den == 0.0) or (num == _INF and den == _INF) \
        or den == 0.0 or not math.isfinite(den)
    value = None if bad else num / den
    return IndexPair(value, num, den)


def _log_norm_order(b: WeightExpr, q: float, side: str, tail: bool
                    ) -> dict[float, float]:
    """The leading terms of ln ||u^{-1/q} b(u)||_q over (t, inf) (``tail``)
    or (0, t) as x = |ln t| grows on ``side`` of 1: {k: c} for c x^k
    (0 < k < 1), c ln x (k = 0) and c ln ln x (k = -1).

    With (1+x)^B exp(sum G x^alpha) the side form of b^q, Karamata's theorem
    (Bingham-Goldie-Teugels 1.5-1.6) gives: a tail int_x^inf converges and
    behaves like x^(B+1-alpha) exp(sum G x^alpha) when a stretched term leads
    (alpha the largest with G != 0), otherwise like x^(B+1); a head int_0^x
    tends to a constant when it converges, else grows like that stretched
    form, like x^(B+1) when B > -1 and like ln x when B = -1.  The q-th root
    divides each coefficient by q.
    """
    form = b.side(side)
    scaled = form.scaled(q)
    if term_diverges_at_inf(0.0, scaled.beta, scaled.gammas) == tail:
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


def index_limit(kind: str, q0: float, b0: WeightExpr, q1: float,
                b1: WeightExpr, end: str) -> int:
    """-1, 0 or +1 as rho (or eta) tends to 0, to a finite positive limit or
    to inf as t -> 0+ (``end="zero"``) or t -> inf (``end="inf"``).

    rho at inf is a quotient of tails of the "hi" side forms, at 0+ of heads
    of the "lo" ones plus constants; eta(t) is rho of the flipped weights at
    1/t.  The sign of the leading term of ln rho decides
    (:func:`_log_norm_order`).
    """
    if kind not in ("rho", "eta"):
        raise ValueError(f"unknown index kind {kind!r}")
    if end not in ("zero", "inf"):
        raise ValueError("end must be 'zero' or 'inf'")
    tail = (kind == "rho") == (end == "inf")
    order0, order1 = (_log_norm_order(b, q, "lo" if end == "zero" else "hi",
                                      tail) for q, b in ((q0, b0), (q1, b1)))
    for k in sorted(order0.keys() | order1.keys(), reverse=True):
        d = order0.get(k, 0.0) - order1.get(k, 0.0)
        if d != 0.0:
            return 1 if d > 0.0 else -1
    return 0


def quasi_monotone_constant(vals, direction: str = "nondecreasing") -> float:
    """C = sup over ordered pairs i < j of vals[i] / vals[j] (toward
    nondecreasing) or vals[j] / vals[i] (toward nonincreasing): 1 for a
    monotone sequence, +inf when a value is not positive and finite.

    ``vals`` are the values at increasing grid points.
    """
    if direction not in ("nondecreasing", "nonincreasing"):
        raise ValueError("direction must be nondecreasing or nonincreasing")
    vals = np.asarray(vals, dtype=float)
    if np.any(vals <= 0.0) or not np.all(np.isfinite(vals)):
        return _INF
    if direction == "nondecreasing":
        ratios = np.maximum.accumulate(vals) / vals
    else:
        ratios = vals / np.minimum.accumulate(vals)
    return float(np.max(ratios, initial=1.0))


def sv_quasimonotone_constant(b: WeightExpr, eps: float) -> float:
    """Worst quasi-monotonicity constant of t^eps b(t) (toward nondecreasing)
    and t^-eps b(t) (toward nonincreasing) on :data:`STANDARD_GRID`."""
    ts = STANDARD_GRID.points()
    vals = np.array([b(float(t)) for t in ts])
    return max(quasi_monotone_constant(vals * ts ** eps),
               quasi_monotone_constant(vals * ts ** (-eps), "nonincreasing"))


@dataclass
class ConditionReport:
    kind: str
    passed: bool
    best_eps: Optional[float]
    best_constant: float
    threshold: float
    per_eps: list[tuple[float, float]] = field(default_factory=list)
    skipped_points: int = 0


def check_condition_monotone_index(kind: str, q0: float, b0: WeightExpr,
                                   q1: float, b1: WeightExpr) -> ConditionReport:
    """Search DEFAULT_EPS_GRID for a quasi-nondecreasing rho_eps (or eta_eps)
    on STANDARD_GRID, skipping the points where the index is undefined or its
    numerator is 0 or inf; with no point left it fails with constant inf."""
    if kind not in ("rho_eps", "eta_eps"):
        raise ValueError("kind must be rho_eps or eta_eps")
    pairs = [index(float(t), kind.split("_")[0], q0, b0, q1, b1)
             for t in STANDARD_GRID.points()]
    kept = [p for p in pairs if p.defined and p.numerator not in (0.0, _INF)]
    nums = np.array([p.numerator for p in kept])
    dens = np.array([p.denominator for p in kept])
    per_eps: list[tuple[float, float]] = []
    best_eps: Optional[float] = None
    best_c = _INF
    for eps in DEFAULT_EPS_GRID if kept else ():
        vals = nums ** (1.0 + eps) / dens
        c = quasi_monotone_constant(vals)
        per_eps.append((eps, c))
        if c < best_c:
            best_c, best_eps = c, eps
    return ConditionReport(kind=kind, passed=best_c <= MONOTONE_THRESHOLD,
                           best_eps=best_eps, best_constant=best_c,
                           threshold=MONOTONE_THRESHOLD, per_eps=per_eps,
                           skipped_points=len(pairs) - len(kept))
