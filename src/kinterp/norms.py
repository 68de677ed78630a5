"""Interpolation quasi-norms and the index algebra.

The space quasi-norm is ||t^{-theta-1/q} b(t) K(t,f)||_{q,(0,inf)}.  Products
of a profile piece (atom sums) with a weight side form stay inside the
canonical e^{a x}(1+x)^beta family whenever the piece is a single atom or q is
a small integer (multinomial expansion); other segments integrate adaptively.
The Holmstedt partials over (0, t) and (t, inf), at one point or at every
point of a grid, come from one walk of the profile's segments each
(:func:`sweep_partials`), in the frame of the spaces themselves for every
theta: theta0 = theta1 = 1 goes through t -> 1/t for the left-hand side of
a scan only (:mod:`kinterp.holmstedt`).  Every other norm here is over all
of (0, inf).
"""

from __future__ import annotations

import bisect
import itertools
import math
from dataclasses import dataclass, field
from typing import Callable, Iterable, Iterator, Optional, Sequence

import numpy as np

from .profiles import Atom, KProfile, PiecewiseCurve, Segment, _atom_eval
from .quadrature import (
    AT_INFINITY,
    AT_ZERO,
    IntegralOverflowError,
    IntegralResult,
    LogTerm,
    STANDARD_GRID,
    _qth_root,
    _quad,
    integrate_terms,
    leading_exponent,
    running_sums,
    sup_terms,
    term_diverges_at_inf,
)
from .weights import (Flip, WeightExpr, _root_overflow, head_qnorm,
                      kernel_samples, side_terms, tail_qnorm)

__all__ = [
    "SpaceSpec",
    "IndexPair",
    "ConditionReport",
    "space_norm",
    "segments_norm",
    "sweep_partials",
    "weighted_knorm",
    "index",
    "index_samples",
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
        try:
            return [Atom(a.coef ** q, a.power * q, a.logexp * q)]
        except OverflowError:
            raise IntegralOverflowError(
                f"the piece {a} to the power {q!r} exceeds the float range"
            ) from None
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


def _segment_adaptive(K: Callable[[float], float], theta: float, q: float,
                      b, u0: float, u1: float) -> tuple[float, float]:
    """Adaptive fallback for one segment on which the profile is ``K``;
    returns (value, error)."""

    def f(x: float) -> float:
        if abs(x) > 690.0:
            return 0.0
        u = math.exp(x)
        ku = K(u)
        if ku <= 0.0:
            return 0.0
        try:
            return (u ** -theta * b(u) * ku) ** q
        except OverflowError:
            raise IntegralOverflowError(f"(u^-{theta!r} b K)^{q!r} at u = {u!r}"
                                        " exceeds the float range") from None

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


def _segments(curve: PiecewiseCurve) -> Iterator[Segment]:
    """(u0, u1, side, atoms) for each nonzero piece of the curve on (0, inf),
    cut at 1 and at the curve's breakpoints."""
    return (seg for seg in curve.sided_segments() if seg[3])


def _segment_terms(theta: float, q: float, b, side: str,
                   atoms: Sequence[Atom], u0: float, u1: float
                   ) -> Optional[list[LogTerm]]:
    """The canonical terms of int_u0^u1 (u^-theta b K)^q du/u on one segment
    of the curve, in the order they are summed; None when b is not a
    :class:`WeightExpr` or the piece does not expand (:func:`_expand_piece`)."""
    expanded = _expand_piece(atoms, q) if isinstance(b, WeightExpr) else None
    if expanded is None:
        return None
    terms = side_terms(b.side(side).scaled(q),
                       [(a.coef, a.power - theta * q, a.logexp)
                        for a in expanded], side, u0, u1)
    terms.sort(key=lambda tm: (-abs(tm.a), tm.beta))
    return terms


def _segment_integral(theta: float, q: float, b, side: str,
                      atoms: Sequence[Atom], u0: float, u1: float
                      ) -> IntegralResult:
    """int_u0^u1 (u^-theta b K)^q du/u on one segment on which K is the sum
    of ``atoms``: its canonical terms, or the adaptive fallback, which
    evaluates the atoms as the curve does inside the segment."""
    terms = _segment_terms(theta, q, b, side, atoms, u0, u1)
    if terms is not None:
        return integrate_terms(terms)
    v, e = _segment_adaptive(
        lambda u: math.fsum(_atom_eval(a, u) for a in atoms),
        theta, q, b, u0, u1)
    return IntegralResult(v, e if v != _INF else _INF, None if v != _INF
                          else (AT_ZERO if side == "lo" else AT_INFINITY))


def _segment_sup(theta: float, b: WeightExpr, side: str,
                 atoms: Sequence[Atom], u0: float, u1: float) -> float:
    """sup of u^-theta b K over (u0, u1) on one segment of the curve: the
    exact supremum of its q = 1 terms."""
    return sup_terms(side_terms(b.side(side), [(a.coef, a.power - theta,
                                                a.logexp) for a in atoms],
                                side, u0, u1))


def _segments_integral(segs: Iterable[Segment], theta: float, q: float, b
                       ) -> IntegralResult:
    """The sum of :func:`_segment_integral` over the segments, in order;
    the first divergent one's result when one diverges."""
    total = 0.0
    err = 0.0
    for u0, u1, side, atoms in segs:
        res = _segment_integral(theta, q, b, side, atoms, u0, u1)
        if res.divergent:
            return res
        total += res.value
        err += res.error_bound
    return IntegralResult(total, err)


def weighted_knorm(curve: PiecewiseCurve, theta: float, q: float,
                   b: WeightExpr) -> IntegralResult:
    """int_0^inf (u^{-theta} b(u) K(u))^q du/u with K given as a curve.

    Returns the q-th power of the quasi-norm (callers take the root), +inf
    with the divergent end when the integral blows up.  Each segment goes
    through the term memo when a :func:`~kinterp.quadrature.term_memo`
    scope is open.
    """
    return _segments_integral(_segments(curve), theta, q, b)


def _root(value: float, q: float, theta: float, lo: float, hi: float
          ) -> float:
    """The quasi-norm value^(1/q) of a q-th power integral over (lo, hi);
    raises :class:`IntegralOverflowError` when the root leaves the float
    range."""
    return _qth_root(value, q, lambda: IntegralOverflowError(
        f"the quasi-norm ||u^-{theta:g} b K||_{q:g} over ({lo:g}, "
        f"{hi:g}) exceeds the float range"))


def segments_norm(segs: Iterable[Segment], theta: float, q: float,
                  b: WeightExpr) -> float:
    """||u^{-theta} b(u) K(u)||_{q,(0,inf)} with the measure du/u, for K
    given by its nonzero segments, each on one side of 1
    (:meth:`~kinterp.profiles.PiecewiseCurve.sided_segments`); +inf when
    divergent.  For q = inf it is the largest exact supremum of the q = 1
    terms of each segment.  Each segment is integrated whole, through the
    term memo when a scope is open; partials over (0, t) and (t, inf) come
    from :func:`sweep_partials` alone."""
    if q != _INF:
        res = _segments_integral(segs, theta, q, b)
        return _root(res.value, q, theta, 0.0, _INF)
    best = 0.0
    for u0, u1, side, atoms in segs:
        best = max(best, _segment_sup(theta, b, side, atoms, u0, u1))
    return best


def _quasi_norm(curve: PiecewiseCurve, theta: float, q: float, b: WeightExpr
                ) -> float:
    """:func:`segments_norm` of the curve's segments."""
    return segments_norm(_segments(curve), theta, q, b)


def _sweep(curve: PiecewiseCurve, theta: float, q: float, b: WeightExpr,
           ts: Sequence[float], tail: bool) -> list[float]:
    """||u^{-theta} b(u) K(u)||_q over (0, t), or over (t, inf) when ``tail``,
    at each of the ascending points ts in (0, inf), in one walk over the
    segments.

    The walk starts at the end of the range that no point bounds: at 0 for
    the head, visiting the segments and the points upward, at inf for the
    tail, visiting them downward.  It folds the whole segments it passes,
    each integrated once, in walk order.  A point takes that fold, plus the
    part of the segment that holds it, between the segment's near end and
    the point: (u0, t) for the head and (t, u1) for the tail.  A point on a
    break or on t = 1 has no part.  The parts of one segment are an anchor,
    the part at the first point the walk meets, through
    :func:`integrate_terms`, plus the :func:`running_sums` of the segment's
    canonical terms between its points.  With q = inf, or a piece that does
    not expand, each part is computed on its own.  A divergent segment makes
    every point the walk meets after it +inf without computing that point's
    part, and the walk stops where no point is left.
    """
    sup = q == _INF
    segs = list(_segments(curve))
    terms = [None if sup else _segment_terms(theta, q, b, side, atoms, u0, u1)
             for u0, u1, side, atoms in segs]

    def value(seg: Segment, lo: float, hi: float) -> float:
        """The integral (supremum) over (lo, hi) inside the segment."""
        if sup:
            return _segment_sup(theta, b, seg[2], seg[3], lo, hi)
        return _segment_integral(theta, q, b, seg[2], seg[3], lo, hi).value

    def parts(seg: Segment, seg_terms: Optional[list[LogTerm]], near: float,
              pts: Sequence[float]) -> list[float]:
        """The values over the parts (near, t) of the segment, ends in
        ascending order, at the points pts inside it, in walk order."""
        cuts = [(near, t)[::step] for t in pts]
        if seg_terms is None:
            return [value(seg, *cut) for cut in cuts]
        _, _, side, atoms = seg
        anchor = integrate_terms(_segment_terms(theta, q, b, side, atoms,
                                                *cuts[0]))
        if anchor.divergent:
            return [_INF] * len(pts)
        sign = 1.0 if side == "hi" else -1.0
        return running_sums(seg_terms, [sign * math.log(t) for t in pts],
                            anchor.value)

    step = -1 if tail else 1  # the walk visits ascending step * t
    pts = ts[::step]
    keys = [step * t for t in pts]
    out: list[float] = []
    acc = 0.0  # the whole segments the walk has passed
    for seg, seg_terms in list(zip(segs, terms))[::step]:
        near, far = seg[:2][::step]
        i = bisect.bisect_right(keys, step * near)  # points up to its near end
        j = bisect.bisect_left(keys, step * far)  # and inside it
        out += [acc] * (i - len(out))
        if i < j:
            out += [_INF] * (j - i) if acc == _INF else [
                _fold(acc, p, sup)
                for p in parts(seg, seg_terms, near, pts[i:j])]
        if j == len(pts) or acc == _INF:
            break
        acc = _fold(acc, value(seg, *seg[:2]) if seg_terms is None
                    else integrate_terms(seg_terms).value, sup)
    out += [acc] * (len(pts) - len(out))
    if tail:
        out.reverse()
    if sup:
        return out
    return [_root(v, q, theta, *((t, _INF) if tail else (0.0, t)))
            for v, t in zip(out, ts)]


def _fold(acc: float, value: float, sup: bool) -> float:
    """One step of the sweep's walk: the maximum of ``acc`` and ``value``
    when ``sup``, otherwise their sum."""
    return max(acc, value) if sup else acc + value


def sweep_partials(f: KProfile, X0: SpaceSpec, X1: SpaceSpec,
                   ts: Sequence[float]) -> tuple[list[float], list[float]]:
    """(I, J) at each of the ascending points ts in (0, inf): I(t) =
    ||f||_{X0} over (0, t) and J(t) = ||f||_{X1} over (t, inf), the
    partials of the Holmstedt right-hand side I + s J, each in one walk of
    the profile's segments (:func:`_sweep`): I upward from 0, J downward
    from inf, both in the frame of the spaces themselves for every theta,
    1 included; +inf where divergent.  This is the only code that computes
    a partial: :func:`~kinterp.holmstedt.rhs_formula` is the sweep at one
    point, and :func:`~kinterp.holmstedt.equivalence_scan` the sweep of its
    grid."""
    return (_sweep(f.curve, X0.theta, X0.q, X0.b, ts, tail=False),
            _sweep(f.curve, X1.theta, X1.q, X1.b, ts, tail=True))


def space_norm(f: KProfile, s: SpaceSpec) -> float:
    """||t^{-theta-1/q} b(t) K(t,f)||_{q,(0,inf)}; +inf allowed."""
    return _quasi_norm(f.curve, s.theta, s.q, s.b)


# ---------------------------------------------------------------------------
# Indices rho / eta
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
          q1: float, b1: WeightExpr) -> IndexPair:
    """rho (a quotient of tails) or eta (of heads) at t, undefined (None)
    unless the denominator lies in (0, inf)."""
    if kind not in ("rho", "eta"):
        raise ValueError(f"unknown index kind {kind!r}")
    qnorm = tail_qnorm if kind == "rho" else head_qnorm
    num, den = qnorm(b0, q0, t), qnorm(b1, q1, t)
    return IndexPair(num / den if 0.0 < den < _INF else None, num, den)


def _qnorm_samples(kind: str, q: float, b: WeightExpr, ts: Sequence[float]
                   ) -> list[float]:
    """:func:`~kinterp.weights.tail_qnorm` (``kind`` "rho") or
    :func:`~kinterp.weights.head_qnorm` ("eta") of b at each of the
    ascending points ts.

    With 0 < q < inf and every point and its reciprocal in (0, inf) the
    q-th powers are one pass of :func:`~kinterp.weights.kernel_samples`:
    the tails of b at ts, or, as head_qnorm reads a head, the tails of
    flip(b) at the points 1/t.  A value past the float range raises
    :class:`IntegralOverflowError`, as the norm at that point does.
    Otherwise, and for q = inf, each point is the norm itself.
    """
    qnorm = tail_qnorm if kind == "rho" else head_qnorm
    ends = (ts[0], ts[-1]) if ts else ()
    if not (0.0 < q < _INF and all(0.0 < t < _INF and 1.0 / t < _INF
                                   for t in ends)):
        return [qnorm(b, q, t) for t in ts]
    if kind == "rho":
        values = kernel_samples(b, q, 0.0, ts, tail=True)
    else:
        values = kernel_samples(Flip(b), q, 0.0, [1.0 / t for t in ts[::-1]],
                                tail=True)
        values.reverse()
    return [_qth_root(v, q, lambda: _root_overflow(
        b, q, *((t, _INF) if kind == "rho" else (0.0, t))))
        for v, t in zip(values, ts)]


def index_samples(kind: str, q0: float, b0: WeightExpr, q1: float,
                  b1: WeightExpr, ts: Sequence[float]) -> list[IndexPair]:
    """:func:`index` at each of the ascending points ts in (0, inf), with
    each side's norms sampled in one pass (:func:`_qnorm_samples`).  A side
    without a stretched term gives the norms of :func:`index` bit for bit;
    a stretched side sums them as running Gauss-Kronrod cells from one
    exact far tail, in place of one adaptive tail per point."""
    if kind not in ("rho", "eta"):
        raise ValueError(f"unknown index kind {kind!r}")
    nums = _qnorm_samples(kind, q0, b0, ts)
    dens = _qnorm_samples(kind, q1, b1, ts)
    return [IndexPair(num / den if 0.0 < den < _INF else None, num, den)
            for num, den in zip(nums, dens)]


def _log_norm_order(b: WeightExpr, q: float, side: str, tail: bool
                    ) -> tuple[float, tuple[tuple[float, float], ...], float]:
    """The exponents (beta, gammas, loglog) of the leading form of
    ||u^{-1/q} b(u)||_q over (t, inf) (``tail``) or (0, t) as x = |ln t|
    grows on ``side`` of 1 (:func:`~kinterp.quadrature.leading_exponent`).

    With (1+x)^B exp(sum G x^alpha) the side form of b^q, Karamata's theorem
    (Bingham-Goldie-Teugels 1.5-1.6) gives: a tail int_x^inf converges and
    behaves like x^(B+1-alpha) exp(sum G x^alpha) when a stretched term leads
    (alpha the largest with G != 0), otherwise like x^(B+1); a head int_0^x
    tends to a constant when it converges, else grows like that stretched
    form, like x^(B+1) when B > -1 and like ln x when B = -1.  The q-th root
    divides each exponent by q.
    """
    form = b.side(side)
    scaled = form.scaled(q)
    if term_diverges_at_inf(0.0, scaled.beta, scaled.gammas) == tail:
        if tail:
            raise ValueError(f"the {q:g}-norm of {b.to_text()} diverges")
        return 0.0, (), 0.0
    alpha = max((al for al, g in form.gammas if g != 0.0), default=None)
    if alpha is not None:
        return form.beta + (1.0 - alpha) / q, form.gammas, 0.0
    if scaled.beta != -1.0:
        return form.beta + 1.0 / q, (), 0.0
    return 0.0, (), 1.0 / q


def index_limit(kind: str, q0: float, b0: WeightExpr, q1: float,
                b1: WeightExpr, end: str) -> int:
    """-1, 0 or +1 as rho (or eta) tends to 0, to a finite positive limit or
    to inf as t -> 0+ (``end="zero"``) or t -> inf (``end="inf"``).

    rho at inf is a quotient of tails of the "hi" side forms, at 0+ of heads
    of the "lo" ones plus constants; eta(t) is rho of the flipped weights at
    1/t.  The sign of the leading exponent of the quotient of the two norms'
    forms (:func:`_log_norm_order`) decides.
    """
    if kind not in ("rho", "eta"):
        raise ValueError(f"unknown index kind {kind!r}")
    if end not in ("zero", "inf"):
        raise ValueError("end must be 'zero' or 'inf'")
    tail = (kind == "rho") == (end == "inf")
    (beta0, gammas0, loglog0), (beta1, gammas1, loglog1) = (
        _log_norm_order(b, q, "lo" if end == "zero" else "hi", tail)
        for q, b in ((q0, b0), (q1, b1)))
    order = leading_exponent(0.0, beta0 - beta1, gammas0 + tuple(
        (al, -g) for al, g in gammas1), loglog0 - loglog1)
    return 1 if order > 0.0 else 0 if order == 0.0 else -1


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
    numerator is 0 or inf; with no point left it fails with constant inf.
    The numerators and denominators are :func:`index_samples` of the grid,
    one pass per side."""
    if kind not in ("rho_eps", "eta_eps"):
        raise ValueError("kind must be rho_eps or eta_eps")
    pairs = index_samples(kind.split("_")[0], q0, b0, q1, b1,
                          STANDARD_GRID.points().tolist())
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
