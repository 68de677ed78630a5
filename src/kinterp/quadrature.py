"""Deterministic integration and supremum evaluation on (0, inf) in log coordinates.

Every quasi-norm in this package is of the form ``||g||_{q,(a,b)}`` with the
measure du/u.  Substituting x = ln u (or x = ln(1/u) on the lower side) turns
each integrand produced by the weight algebra and the profile machinery into a
finite sum of canonical terms

    coef * exp(a*x) * (1+x)**beta * exp(sum_i gamma_i * x**alpha_i),

integrated over [x1, x2] inside [0, inf].  Terms without the stretched
exponential factor integrate in closed form when a == 0 or beta == 0, through
the upper incomplete gamma function when a < 0 and beta > -1, and by adaptive
quadrature otherwise.  The q = inf quasi-norms are exact suprema of the same
sums (:func:`sup_terms`).

:func:`_quad` is the package's one call to QUADPACK: the canonical terms
above, the adaptive segments of ``norms`` and the opaque callables of
``weighted_ineq`` all go through it, and it raises
:class:`DivergentIntegralError` when QUADPACK stops at its subdivision limit
(ier 1) or reports the integral as probably divergent (ier 5).
"""

from __future__ import annotations

import math
import sys
from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from decimal import Decimal, localcontext
from typing import Callable, Iterator, Optional, Sequence

import numpy as np
from scipy import integrate as _sci_integrate
from scipy import special as _sci_special

__all__ = [
    "AT_ZERO",
    "AT_INFINITY",
    "GridSpec",
    "IntegralResult",
    "IntegralOverflowError",
    "DivergentIntegralError",
    "LogTerm",
    "term_diverges_at_inf",
    "power_integral",
    "exp_pow_integral",
    "term_value",
    "integrate_terms",
    "sup_terms",
    "term_memo",
    "golden_min",
]

AT_ZERO = "at_zero"
AT_INFINITY = "at_infinity"

_INF = math.inf

_QUAD_EPSREL = 1e-11

#: the dict of the innermost open scope; None outside every scope
_TERM_MEMO: ContextVar[Optional[dict]] = ContextVar("term_memo", default=None)


# ---------------------------------------------------------------------------
# Grids
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class GridSpec:
    """Logarithmic evaluation grid on (0, inf)."""

    t_min: float = 1e-12
    t_max: float = 1e12
    points_per_decade: int = 64

    def __post_init__(self) -> None:
        if not (0.0 < self.t_min < self.t_max < math.inf):
            raise ValueError("GridSpec requires 0 < t_min < t_max < inf")
        if self.points_per_decade < 8:
            raise ValueError("GridSpec requires points_per_decade >= 8")

    @property
    def decades(self) -> float:
        return math.log10(self.t_max / self.t_min)

    def points(self) -> np.ndarray:
        n = int(round(self.decades * self.points_per_decade)) + 1
        return np.logspace(math.log10(self.t_min), math.log10(self.t_max), n)


#: Default grid used by the SV-class and monotonicity checks.
STANDARD_GRID = GridSpec(1e-8, 1e8, 16)

#: Default grid for equivalence scans (speed/coverage balance).
SCAN_GRID = GridSpec(1e-6, 1e6, 13)


# ---------------------------------------------------------------------------
# Results
# ---------------------------------------------------------------------------

@dataclass
class IntegralResult:
    value: float
    error_bound: float = 0.0
    divergent_end: Optional[str] = None

    def __post_init__(self) -> None:
        if self.divergent_end is not None and self.value != _INF:
            raise ValueError("divergent result must carry value = +inf")

    @property
    def divergent(self) -> bool:
        return self.divergent_end is not None


class NonFiniteIntegrandError(ValueError):
    """The integrand evaluated to NaN or a signed infinity."""


class IntegralOverflowError(ValueError):
    """A convergent integral, a finite supremum, a weight value or a quotient
    of them exceeds the float range.

    This is not a divergence: the quantity exists, but does not fit in a
    double.
    """


class DivergentIntegralError(ValueError):
    """QUADPACK reports an integral as probably divergent, or stops at its
    subdivision limit."""


# ---------------------------------------------------------------------------
# Canonical terms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LogTerm:
    """coef * e^{a x} (1+x)^beta exp(sum gamma x^alpha) on [x1, x2] in [0, inf].

    ``end`` records which endpoint of the original u-axis the direction
    x -> inf corresponds to ('zero' for the lower side u -> 0+, 'inf' for
    u -> inf); it is only used to attribute divergences.
    """

    coef: float
    a: float
    beta: float
    x1: float
    x2: float
    gammas: tuple[tuple[float, float], ...] = ()  # (alpha, gamma) pairs
    end: str = "inf"

    def integrand(self, x: float) -> float:
        extra = sum(g * x ** al for al, g in self.gammas)
        return self.coef * math.exp(self.a * x + extra) * (1.0 + x) ** self.beta


def _growth(a: float, beta: float,
            gammas: Sequence[tuple[float, float]]) -> tuple[float, float, float]:
    """Order of growth of e^{ax}(1+x)^beta exp(sum gamma x^alpha) as x -> inf.

    The triples compare lexicographically: a decides first, then the gamma of
    the largest alpha, then beta; (0, 0, p) is the order of (1+x)^p.
    """
    lead_alpha, lead = -1.0, 0.0
    for alpha, gamma in gammas:
        if gamma != 0.0 and alpha > lead_alpha:
            lead_alpha, lead = alpha, gamma
    return a, lead, beta


def term_diverges_at_inf(a: float, beta: float,
                         gammas: Sequence[tuple[float, float]] = ()) -> bool:
    """Whether int^inf e^{ax}(1+x)^beta exp(sum gamma x^alpha) dx diverges."""
    return _growth(a, beta, gammas) >= (0.0, 0.0, -1.0)


#: the messages scipy's ``quad`` returns for the QUADPACK statuses that leave
#: no integral: ier 1 (subdivision limit) and ier 5 (probably divergent)
_QUADPACK_FAILURES = (
    ("The maximum number of subdivisions", "ier 1, subdivision limit"),
    ("The integral is probably divergent", "ier 5, probably divergent"))


def _quad(f: Callable[[float], float], x1: float, x2: float,
          epsabs: float = 0.0, epsrel: float = _QUAD_EPSREL
          ) -> tuple[float, float]:
    """(value, error) of int_x1^x2 f(x) dx by QUADPACK, the only call to it;
    raises :class:`DivergentIntegralError` on status ier 1 or 5.  Status
    ier 2 (roundoff) returns the value."""
    val, err, _, *message = _sci_integrate.quad(
        f, x1, x2, epsabs=epsabs, epsrel=epsrel, limit=200, full_output=1)
    for prefix, status in _QUADPACK_FAILURES:
        if message and message[0].startswith(prefix):
            raise DivergentIntegralError(
                f"QUADPACK status {status}, over ({x1!r}, {x2!r})")
    return val, err


#: ln of the largest finite double
_LOG_FLOAT_MAX = math.log(sys.float_info.max)


def _overflow(a: float, beta: float, x1: float, x2: float) -> IntegralOverflowError:
    return IntegralOverflowError(
        f"int e^({a!r} x) (1+x)^{beta!r} dx over [{x1!r}, {x2!r}] overflows")


def power_integral(beta: float, x1: float, x2: float) -> float:
    """int_{x1}^{x2} (1+x)^beta dx, [x1,x2] in [0,inf]: the a = 0 case of
    :func:`exp_pow_integral`; +inf when x2 = inf and beta >= -1."""
    if x2 == _INF:
        if beta >= -1.0:
            return _INF
        return -((1.0 + x1) ** (beta + 1.0)) / (beta + 1.0)
    if beta == -1.0:
        return math.log1p(x2) - math.log1p(x1)
    return ((1.0 + x2) ** (beta + 1.0) - (1.0 + x1) ** (beta + 1.0)) / (beta + 1.0)


#: 1/2 ln(2 pi), and the Stirling coefficients B_2k / (2k (2k-1)), k = 1..8
_HALF_LN_2PI = Decimal("0.9189385332046727417803297364056176398614")
_STIRLING = ((1, 12), (-1, 360), (1, 1260), (-1, 1680), (1, 1188),
             (-691, 360360), (1, 156), (-3617, 122400))


def _decimal_lgamma(s: Decimal) -> Decimal:
    """ln Gamma(s), s > 0, by Stirling's series after shifting s to >= 20
    (truncation below 1e-20)."""
    shift = Decimal(0)
    while s < 20:
        shift += s.ln()
        s += 1
    series = sum(Decimal(p) / q / s ** (2 * k - 1)
                 for k, (p, q) in enumerate(_STIRLING, 1))
    return (s - Decimal("0.5")) * s.ln() - s + _HALF_LN_2PI + series - shift


def _gamma_fraction(s: float, z: float) -> Optional[float]:
    """z e^z z^-s Gamma(s, z), z > s + 1, by the modified Lentz evaluation
    of Legendre's continued fraction (Numerical Recipes 6.2), every partial
    numerator and denominator scaled by 1/z so that no step leaves the
    normal float range; None when it has not converged in 1000 steps."""
    tiny, inv = 1e-300, 1.0 / z
    b = (z + 1.0 - s) * inv
    c, d = 1.0 / tiny, 1.0 / b
    h = d
    for i in range(1, 1001):
        an = -i * (i - s) * inv * inv
        b += 2.0 * inv
        d = an * d + b
        d = 1.0 / (d if abs(d) > tiny else tiny)
        c = b + an / c
        c = c if abs(c) > tiny else tiny
        h *= d * c
        if abs(d * c - 1.0) < 1e-16:
            return h
    return None


def _log_gamma_tail(a: float, beta: float, x1: float) -> float:
    """int_{x1}^inf e^{a x} (1+x)^beta dx, a < 0 < beta + 1, in logs.

    The integral is e^{a x1} (1+x1)^s C with s = beta + 1, z = -a (1+x1) and
    C = e^z z^-s Gamma(s, z).  Where the continued fraction converges,
    z > s + 1, C is that fraction (scipy's Q(s, z) loses up to 1e-12
    relative in its far tail there, or underflows); elsewhere ln C is
    z - s ln z + ln Gamma(s) + ln Q(s, z) while Q is a normal float.  The
    logs are summed in decimal arithmetic with 40 digits beyond the size of
    s and z, so terms that cancel keep the value's last bits.  Raises
    :class:`IntegralOverflowError` when the value exceeds the float range
    or neither route applies.
    """
    s, z = beta + 1.0, -a * (1.0 + x1)
    zc = _gamma_fraction(s, z) if s + 1.0 < z < _INF else None
    q = float(_sci_special.gammaincc(s, z))
    size = max(math.log10(s), math.log10(-a) + math.log1p(x1) / math.log(10.0))
    with localcontext() as ctx:
        ctx.prec = 43 + max(0, int(size))
        da, dx, ds = Decimal(a), Decimal(x1), Decimal(beta) + 1
        dz = -da * (1 + dx)
        if zc is not None:
            log_c = Decimal(math.log(zc)) - dz.ln()
        elif z == _INF:  # C = (1 + O(s / z)) / z
            log_c = -dz.ln()
        elif q >= sys.float_info.min:
            log_c = dz - ds * dz.ln() + _decimal_lgamma(ds) + Decimal(math.log(q))
        else:
            raise _overflow(a, beta, x1, _INF)
        log_val = da * dx + ds * (1 + dx).ln() + log_c
        val = float(log_val.exp()) if log_val < 710 else _INF
    if val == _INF:
        raise _overflow(a, beta, x1, _INF)
    return val


def exp_pow_integral(a: float, beta: float, x1: float, x2: float) -> tuple[float, float]:
    """(value, error) of int_{x1}^{x2} e^{a x} (1+x)^beta dx, [x1,x2] in [0,inf].

    Assumes convergence (check :func:`term_diverges_at_inf` first when x2=inf).
    Raises :class:`IntegralOverflowError` on a finite segment where a*x
    exceeds 700, and on an infinite one whose value exceeds the float range,
    instead of returning an infinity that reads as divergence.  Where the
    incomplete-gamma product of an infinite range is not a positive finite
    float (a factor over- or underflowed), :func:`_log_gamma_tail`
    evaluates it in logs.
    """
    if x1 == x2:
        return 0.0, 0.0
    if a == 0.0:
        if x2 == _INF and beta >= -1.0:
            raise ValueError("divergent exp_pow_integral")
        val = power_integral(beta, x1, x2)
        return val, 4e-16 * abs(val)
    if beta == 0.0:
        if x2 == _INF:
            if a >= 0.0:
                raise ValueError("divergent exp_pow_integral")
            val = -math.exp(a * x1) / a
            return val, 4e-16 * abs(val)
        if a * max(x1, x2) > 700.0:
            raise _overflow(a, beta, x1, x2)
        val = (math.exp(a * x2) - math.exp(a * x1)) / a
        return val, 4e-16 * abs(val)
    if x2 == _INF:
        if a >= 0.0:
            raise ValueError("divergent exp_pow_integral")
        s = -a
        if beta > -1.0:
            # e^{-a} s^{-(beta+1)} Gamma(beta+1, s(1+x1))
            z = s * (1.0 + x1)
            g = float(_sci_special.gammaincc(beta + 1.0, z)) \
                * float(_sci_special.gamma(beta + 1.0))
            try:
                val = math.exp(s) * s ** (-(beta + 1.0)) * g
            except OverflowError:
                val = _INF
            if not 0.0 < val < _INF:  # a factor left the float range
                val = _log_gamma_tail(a, beta, x1)
            return val, 1e-13 * abs(val)
        return _quad(lambda x: math.exp(a * x) * (1.0 + x) ** beta, x1, _INF)
    # general finite segment: scale out the endpoint maximum to avoid overflow
    xm = x2 if a > 0.0 else x1
    scale = a * xm
    if scale > 700.0:
        raise _overflow(a, beta, x1, x2)
    try:
        val, err = _quad(lambda x: math.exp(a * (x - xm)) * (1.0 + x) ** beta,
                         x1, x2)
    except OverflowError:  # (1+x)^beta leaves the float range
        return _peak_scaled_segment(a, beta, x1, x2)
    m = math.exp(scale)
    return val * m, err * m


def _peak_scaled_segment(a: float, beta: float, x1: float, x2: float
                         ) -> tuple[float, float]:
    """(value, error) of int_{x1}^{x2} e^{a x} (1+x)^beta dx, x2 finite,
    integrating the integrand over its maximum on [x1, x2], all in logs:
    the larger endpoint value or, for a < 0 < beta, the value at the turning
    point x = -beta/a - 1.  Raises :class:`IntegralOverflowError` when the
    value exceeds the float range."""
    def log_f(x: float) -> float:
        return a * x + beta * math.log1p(x)

    peaks = [x1, x2]
    if a < 0.0 < beta and x1 < -beta / a - 1.0 < x2:
        peaks.append(-beta / a - 1.0)
    log_m = max(log_f(x) for x in peaks)
    val, err = _quad(lambda x: math.exp(log_f(x) - log_m), x1, x2)
    log_val = math.log(val) + log_m
    if log_val > _LOG_FLOAT_MAX:
        raise _overflow(a, beta, x1, x2)
    out = math.exp(log_val)
    return out, err / val * out


def term_value(term: LogTerm) -> tuple[float, float]:
    """(value, error) of one canonical term; +inf when divergent."""
    if term.coef == 0.0 or term.x1 == term.x2:
        return 0.0, 0.0
    if term.x2 == _INF and term_diverges_at_inf(term.a, term.beta, term.gammas):
        return _INF, _INF
    if not term.gammas:
        val, err = exp_pow_integral(term.a, term.beta, term.x1, term.x2)
        return term.coef * val, abs(term.coef) * err
    f = term.integrand
    val, err = _quad(f, term.x1, term.x2)
    return val, err


@contextmanager
def term_memo() -> Iterator[dict]:
    """Open the canonical-term cache that :func:`integrate_terms` reads.

    A computation that integrates the same terms many times (one scan, one
    profile sweep, one constant) runs inside one scope; the dict also holds
    the segment plans of :func:`kinterp.norms.weighted_knorm`.  Entering
    makes a fresh dict, or yields the open one when scopes nest; the dict is
    dropped when the scope that made it exits, also through an exception.
    """
    active = _TERM_MEMO.get()
    memo = {} if active is None else active
    token = _TERM_MEMO.set(memo)
    try:
        yield memo
    finally:
        _TERM_MEMO.reset(token)


def integrate_terms(terms: Sequence[LogTerm]) -> IntegralResult:
    """Sum canonical terms in the given (fixed) order.

    Inside a :func:`term_memo` scope each term value is stored and reused.
    A term without ``gammas`` is stored under its coefficient-free integral ``(a, beta, x1, x2)`` and scaled by ``coef`` on
    every use, which is the arithmetic :func:`term_value` does itself; a
    stretched-exponential term is stored under the whole :class:`LogTerm`,
    because QUADPACK integrates its coefficient inside the integrand.
    Results are bit-identical inside and outside a scope.
    """
    memo = _TERM_MEMO.get()
    total = 0.0
    err = 0.0
    for term in terms:
        v, e = term_value(term) if memo is None else _memo_value(term, memo)
        if v == _INF:
            return IntegralResult(_INF, _INF,
                                  AT_ZERO if term.end == "zero" else AT_INFINITY)
        if not math.isfinite(v):
            raise NonFiniteIntegrandError(
                f"non-finite term value for a={term.a} beta={term.beta}")
        total += v
        err += e
    return IntegralResult(total, err)


def _memo_value(term: LogTerm, memo: dict) -> tuple[float, float]:
    """``term_value(term)`` through ``memo`` (see :func:`integrate_terms`)."""
    if term.gammas or term.coef == 0.0 or term.x1 == term.x2:
        ve = memo.get(term)
        if ve is None:
            ve = memo[term] = term_value(term)
        return ve
    key = (term.a, term.beta, term.x1, term.x2)
    ve = memo.get(key)
    if ve is None:
        ve = memo[key] = term_value(LogTerm(1.0, *key))
    v, e = ve
    if v == _INF:  # +inf for any sign of coef when divergent; not a product
        return term_value(term)
    return term.coef * v, abs(term.coef) * e


# ---------------------------------------------------------------------------
# Suprema
# ---------------------------------------------------------------------------

_LN2 = math.log(2.0)
#: the cuts of a bracket in 32 by which _falling_turns narrows a turn
_CUT_FRACTIONS = np.linspace(0.0, 1.0, 33)


def sup_terms(terms: Sequence[LogTerm]) -> float:
    """Supremum over [x1, x2] of a sum of distinct canonical terms sharing one
    segment and one stretched factor E(x) = exp(sum gamma x^alpha); the
    q = inf counterpart of :func:`integrate_terms`.

    It is +inf when x2 = inf and the dominant term grows with a positive
    coefficient.  Otherwise it is the largest value at x1, at x2 (the limit
    when x2 = inf) and where the derivative turns from positive to negative
    (:func:`_falling_turns`).  Raises :class:`IntegralOverflowError` when
    that value exceeds the float range.
    """
    terms = [t for t in terms if t.coef != 0.0]
    if not terms:
        return 0.0
    x1, x2, gammas = terms[0].x1, terms[0].x2, terms[0].gammas
    if any((t.x1, t.x2, t.gammas) != (x1, x2, gammas) for t in terms) \
            or len({(t.a, t.beta) for t in terms}) < len(terms):
        raise ValueError("sup_terms needs distinct terms on one segment "
                         "with one stretched factor")
    top = max(terms, key=lambda t: _growth(t.a, t.beta, gammas))
    order = _growth(top.a, top.beta, gammas)
    if x2 == _INF and order > (0.0, 0.0, 0.0) and top.coef > 0.0:
        return _INF

    def value(x: float) -> float:  # a signed infinity beyond the float range
        g = sum(gamma * x ** alpha for alpha, gamma in gammas)
        logs = [t.a * x + t.beta * math.log1p(x) + g for t in terms]
        big = max(logs)
        s = sum(t.coef * math.exp(lg - big) for t, lg in zip(terms, logs))
        return s * math.exp(big) if big < 709.0 else math.copysign(_INF, s)

    if x2 != _INF:
        ends = [value(x2)]
    elif order <= (0.0, 0.0, 0.0):  # the limit: a constant top term, or 0
        ends = [top.coef if order == (0.0, 0.0, 0.0) else 0.0]
    else:  # falls to -inf
        ends = []
    best = max([value(x1)] + ends + [value(x) for x in _falling_turns(terms)])
    if best == _INF:
        raise IntegralOverflowError(
            f"supremum over [{x1!r}, {x2!r}] exceeds the float range")
    return best


def _falling_turns(terms: list[LogTerm]) -> list[float]:
    """Where the derivative of the sum of ``terms`` turns from positive to
    non-positive.

    The derivative is E(x) times a sum of n monomials k e^{ax}(1+x)^p x^s.
    Its sign is sampled at 16 points per e-fold of x from x1 out to X (from
    1e-300 when x1 = 0, where the value at 0 stands for the stretch below),
    and each change is narrowed to adjacent floats.
    Beyond X >= 1 the monomial of highest order (a, then p + s) outweighs
    the sum of the others, so the sign cannot change.  X comes in closed
    form from bounds for x >= 1: (1+x)^p x^s lies between min(1, 2^p) and
    max(1, 2^p) times x^(p+s), and ln x <= sqrt(x); each other monomial is
    held below 1/n of the leading one.
    """
    x1, x2, gammas = terms[0].x1, terms[0].x2, terms[0].gammas
    mons = [(t.coef * k, t.a, p, s) for t in terms
            for k, p, s in ((t.a, t.beta, 0.0), (t.beta, t.beta - 1.0, 0.0),
                            *((g * al, t.beta, al - 1.0) for al, g in gammas))
            if k != 0.0]
    if not mons:
        return []
    k0, a0, p0, s0 = max(mons, key=lambda m: (m[1], m[2] + m[3]))
    base = math.log(abs(k0) / len(mons)) + min(p0, 0.0) * _LN2
    ln_x = 0.0
    for k, a, p, s in mons:  # e^(-da x) x^(-de) <= e^ln_r for every x >= X
        ln_r = base - math.log(abs(k)) - max(p, 0.0) * _LN2
        da, de = a0 - a, p0 + s0 - p - s
        if da > 0.0:
            ln_x = max(ln_x, math.log(max(-2.0 * ln_r / da,
                                          (2.0 * min(de, 0.0) / da) ** 2, 1.0)))
        elif de > 0.0:
            ln_x = max(ln_x, -ln_r / de)
    lo, hi = max(x1, 1e-300), min(x2, max(x1, math.exp(min(ln_x, 690.0))))
    if hi <= lo:
        return []

    def rising(x: np.ndarray) -> np.ndarray:
        logs = [math.log(abs(k)) + a * x + p * np.log1p(x)
                + (s * np.log(x) if s else 0.0) for k, a, p, s in mons]
        big = np.max(logs, axis=0)
        return sum(math.copysign(1.0, m[0]) * np.exp(lg - big)
                   for m, lg in zip(mons, logs)) > 0.0

    xs = np.geomspace(lo, hi, max(64, int(16.0 * (math.log(hi) - math.log(lo))) + 2))
    up = rising(xs)
    turn = np.flatnonzero(up[:-1] & ~up[1:])
    a, b, rows = xs[turn], xs[turn + 1], np.arange(len(turn))
    while True:  # cut each bracket in 32 until no cut falls strictly inside
        cut = a[:, None] + (b - a)[:, None] * _CUT_FRACTIONS
        cut[:, -1] = b
        i = np.maximum(np.argmin(rising(cut), axis=1), 1)  # the first fall
        if np.array_equal(cut[rows, i - 1], a) and np.array_equal(cut[rows, i], b):
            return a.tolist()
        a, b = cut[rows, i - 1], cut[rows, i]


_INV_PHI = (math.sqrt(5.0) - 1.0) / 2.0
_INV_PHI2 = (3.0 - math.sqrt(5.0)) / 2.0


def golden_min(f: Callable[[float], float], a: float, b: float,
               rel_tol: float = 1e-4, max_iter: int = 120) -> tuple[float, float]:
    """Golden-section minimum of f on [a, b] with a relative plateau criterion.

    Stops once the bracketed function values agree to ``rel_tol`` relative, or
    the bracket collapses.  Returns (argmin, min).
    """
    a, b = (a, b) if a <= b else (b, a)
    h = b - a
    c = a + _INV_PHI2 * h
    d = a + _INV_PHI * h
    yc, yd = f(c), f(d)
    best_x, best_y = (c, yc) if yc <= yd else (d, yd)
    for _ in range(max_iter):
        if yc < yd:
            b, d, yd = d, c, yc
            h *= _INV_PHI
            c = a + _INV_PHI2 * h
            yc = f(c)
        else:
            a, c, yc = c, d, yd
            h *= _INV_PHI
            d = a + _INV_PHI * h
            yd = f(d)
        if yc <= best_y:
            best_x, best_y = c, yc
        if yd < best_y:
            best_x, best_y = d, yd
        span = max(abs(yc), abs(yd), 1e-300)
        if abs(yc - yd) <= rel_tol * span and h <= _INV_PHI * (abs(a) + abs(b) + 1.0):
            break
        if h < 1e-14 * (abs(a) + abs(b) + 1.0):
            break
    return best_x, best_y
