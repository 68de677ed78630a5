"""Deterministic integration and supremum evaluation on (0, inf) in log coordinates.

Every quasi-norm in this package is of the form ``||g||_{q,(a,b)}`` with the
measure du/u.  Substituting x = ln u (or x = ln(1/u) on the lower side) turns
each integrand produced by the weight algebra and the profile machinery into a
finite sum of canonical terms

    coef * exp(a*x) * (1+x)**beta * exp(sum_i gamma_i * x**alpha_i),

integrated over [x1, x2] inside [0, inf].  Terms without the stretched
exponential factor integrate in closed form when a == 0 or beta == 0.  On
[x1, inf) with a < 0 they reduce to the upper incomplete gamma function
Gamma(beta + 1, z), z = -a (1+x1): through scipy's Q(s, z) when beta > -1,
and by Legendre's continued fraction when beta <= -1 and z >= 1.  The rest,
finite segments and heavy tails with z < 1, go to adaptive quadrature.  A
stretched term's shape picks its route: QUADPACK on the integrand itself when
it cannot rise (a, beta and every gamma <= 0), else QUADPACK on it over its
largest value, cut where it turns (:func:`term_value`).  Every term is
integrated without its coefficient, which :func:`integrate_terms` applies.  A
term sampled at many points of one grid is integrated cell by cell between
them, all cells at once by a Gauss-Kronrod pair (:func:`cell_integrals`).
The q = inf quasi-norms are exact suprema of the same sums (:func:`sup_terms`).

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
from itertools import accumulate
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
    "leading_exponent",
    "term_diverges_at_inf",
    "power_integral",
    "running_sums",
    "KRONROD_RTOL",
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
    """A term value is NaN, or a signed infinity that is not its coefficient
    times a finite integral (that one is an :class:`IntegralOverflowError`)."""


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


def leading_exponent(a: float, beta: float = 0.0,
                     gammas: Sequence[tuple[float, float]] = (),
                     loglog: float = 0.0) -> float:
    """The leading nonzero exponent of e^{ax} (1+x)^beta exp(sum gamma x^alpha)
    (ln x)^loglog as x -> inf: a, else the summed gamma of the largest alpha,
    else beta, else loglog, else 0.0.  Its sign, the one end rule, says
    whether the form tends to inf, to a constant > 0 or to 0; the sign for a
    quotient, whose exponents are the differences, orders two forms.  A NaN
    is returned at its level, so every > 0, >= 0 and == 0 test on it fails.
    """
    if a != 0.0:
        return a
    if gammas:
        for alpha in sorted({al for al, _ in gammas}, reverse=True):
            lead = sum(g for al, g in gammas if al == alpha)
            if lead != 0.0:
                return lead
    return beta if beta != 0.0 else loglog


def term_diverges_at_inf(a: float, beta: float,
                         gammas: Sequence[tuple[float, float]] = ()) -> bool:
    """Whether int^inf e^{ax}(1+x)^beta exp(sum gamma x^alpha) dx diverges;
    for floats, beta + 1.0 >= 0 exactly when beta >= -1."""
    return leading_exponent(a, beta + 1.0, gammas) >= 0.0


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


#: ln of the largest finite double, and the float epsilon
_LOG_FLOAT_MAX, _EPS = math.log(sys.float_info.max), sys.float_info.epsilon


def _overflow(a: float, beta: float, x1: float, x2: float) -> IntegralOverflowError:
    return IntegralOverflowError(
        f"int e^({a!r} x) (1+x)^{beta!r} dx over [{x1!r}, {x2!r}] overflows")


def _times_exp(val: float, log_scale: float,
               overflow: Callable[[], IntegralOverflowError]) -> float:
    """val e^log_scale for val computed at the scale e^-log_scale, the one
    overflow rule: raises ``overflow()`` (-inf for val < 0) where the product,
    not a factor, exceeds the float range: ln |val| + log_scale > ln(max).
    A NaN product raises :class:`NonFiniteIntegrandError`."""
    if log_scale <= _LOG_FLOAT_MAX:
        out = val * math.exp(log_scale)
    else:  # a scale beyond the float range: the product by its log
        log_val = math.log(abs(val)) + log_scale if val else -_INF
        out = (math.copysign(_INF, val) if log_val > _LOG_FLOAT_MAX
               else val * math.exp(0.5 * log_scale) * math.exp(0.5 * log_scale)
               if log_scale <= 2.0 * _LOG_FLOAT_MAX
               else math.copysign(math.exp(log_val), val))  # |val| < 1e-308
    if out < _INF:  # finite, or -inf below the float range
        return out
    if out != out:
        raise NonFiniteIntegrandError(
            f"the value {val!r} times e^{log_scale!r} is not a number")
    raise overflow()


def _qth_root(value: float, q: float,
              overflow: Callable[[], IntegralOverflowError]) -> float:
    """The quasi-norm value^(1/q) of a q-th power integral, +inf for +inf;
    raises ``overflow()`` where the root, not the value, exceeds the float
    range (as q < 1 can)."""
    try:
        return value ** (1.0 / q) if value != _INF else _INF
    except OverflowError:
        raise overflow() from None


def power_integral(beta: float, x1: float, x2: float) -> float:
    """int_{x1}^{x2} (1+x)^beta dx, [x1,x2] in [0,inf]: the a = 0 case of
    :func:`exp_pow_integral`; +inf when x2 = inf and beta >= -1.  Raises
    :class:`IntegralOverflowError` when the value exceeds the float range."""
    try:
        if x2 == _INF:
            if beta >= -1.0:
                return _INF
            return -((1.0 + x1) ** (beta + 1.0)) / (beta + 1.0)
        if beta == -1.0:
            return math.log1p(x2) - math.log1p(x1)
        return ((1.0 + x2) ** (beta + 1.0) - (1.0 + x1) ** (beta + 1.0)) \
            / (beta + 1.0)
    except OverflowError:  # (1+x2)^s times the rest, s = beta + 1 > 0 (named
        s, l2 = beta + 1.0, math.log1p(x2)  # without the sign of a zero x1)
        return _times_exp(-math.expm1(s * (math.log1p(x1) - l2)) / s, s * l2,
                          lambda: _overflow(0.0, beta, x1 + 0.0, x2))


def _power_integral_error(beta: float, x1: float, x2: float, val: float
                          ) -> float:
    """A bound on the rounding error of ``val = power_integral(beta, x1,
    x2)``, computed apart so that the function itself costs nothing more.

    Each power (1+x)^s, s = beta + 1, carries the rounding of 1 + x times
    |s| plus its own, and their difference cancels: the bound is (|s| + 2)
    eps (A + B) / |s| + eps |val| with A = (1+x2)^s (0 when x2 = inf) and
    B = (1+x1)^s.  The log1p form for beta = -1 carries eps ln(1+x) per
    end.  Where A leaves the float range the value is e^(s l2) times
    -expm1(s (l1 - l2)) / s, l = ln(1+x): (A + B) / s is |val| (1 + r) /
    (1 - r), r = e^(s (l1 - l2)), and the exponents add eps s (l1 + l2) to
    the cancelled ratio and eps s l2 to the scale.
    """
    if beta == -1.0:
        return _EPS * (math.log1p(x1) + math.log1p(x2) + abs(val))
    s = beta + 1.0
    try:
        powers = (1.0 + x1) ** s + (1.0 + x2) ** s
    except OverflowError:  # s > 0 and x2 > x1
        l1, l2 = math.log1p(x1), math.log1p(x2)
        if not (val and l1 < l2):
            return _INF
        cancel = (1.0 + math.exp(s * (l1 - l2))) / -math.expm1(s * (l1 - l2))
        return _EPS * abs(val) * ((s + 2.0 + s * (l1 + l2)) * cancel
                                  + s * l2 + 1.0)
    return (abs(s) + 2.0) * _EPS * powers / abs(s) + _EPS * abs(val)


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
    """z e^z z^-s Gamma(s, z) by the modified Lentz evaluation of Legendre's
    continued fraction (Numerical Recipes 6.2), every partial numerator and
    denominator scaled by 1/z so that no step leaves the normal float range;
    None when it has not converged in 1000 steps.  It converges fast where
    z > s + 1, and where z >= 1 with s <= 0 (at most about 100 steps for
    s in [-60, 0]), the two places it is called."""
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
        k = log_val.to_integral_value()
        scaled = float((log_val - k).exp())
    return _times_exp(scaled, float(k), lambda: _overflow(a, beta, x1, _INF))


def exp_pow_integral(a: float, beta: float, x1: float, x2: float) -> tuple[float, float]:
    """(value, error) of int_{x1}^{x2} e^{a x} (1+x)^beta dx, [x1,x2] in [0,inf].

    Assumes convergence (check :func:`term_diverges_at_inf` first when x2=inf).
    Raises :class:`IntegralOverflowError` where the value exceeds the float
    range (:func:`_times_exp`), not an infinity that reads as divergence.  A
    finite segment integrates exp(a (x-xm) + beta log1p((x-xm)/(1+xm))), the
    integrand over its value at its peak xm (a turning point if a < 0 < beta).

    An infinite range with a < 0 is e^{a x1} (1+x1)^s C with s = beta + 1,
    z = -a (1+x1) and C = e^z z^-s Gamma(s, z).  For beta > -1 it comes from
    scipy's Q(s, z) (1e-13 relative, 1e-12 in its far tail z > s + 1), or
    from :func:`_log_gamma_tail` where a factor is not a normal float.  For
    beta <= -1 and z >= 1, z C is :func:`_gamma_fraction` (1e-13 relative,
    plus a few ulps of 0); with z < 1 the tail goes to QUADPACK.
    """
    if x1 == x2:
        return 0.0, 0.0
    if x2 == _INF and term_diverges_at_inf(a, beta):
        raise ValueError("divergent exp_pow_integral")
    if a == 0.0:
        val = power_integral(beta, x1, x2)
        return val, _power_integral_error(beta, x1, x2, val)
    if beta == 0.0:  # e^{a xm} times the rest, xm the larger end
        xm = x2 if a > 0.0 else x1
        rest = -math.expm1(-abs(a) * (x2 - x1))  # 1 when x2 = inf
        val = _times_exp(rest / abs(a), a * xm, lambda: _overflow(a, beta, x1, x2))
        return val, (4e-16 + _EPS * abs(a * xm)) * val
    if x2 == _INF:
        s, z = -a, -a * (1.0 + x1)
        if beta > -1.0:
            # e^{-a} s^{-(beta+1)} Gamma(beta+1, s(1+x1))
            q = float(_sci_special.gammaincc(beta + 1.0, z))
            try:
                p = s ** (-(beta + 1.0))
                val = math.exp(s) * p * (q * float(_sci_special.gamma(beta + 1.0)))
            except OverflowError:
                p = val = _INF
            if not 0.0 < val < _INF or min(p, q) < sys.float_info.min:  # a factor
                # left the float range, or lost digits below its normal range
                val = _log_gamma_tail(a, beta, x1)
            return val, (1e-12 if z > beta + 2.0 else 1e-13) * abs(val)
        zc = _gamma_fraction(beta + 1.0, z) if 1.0 <= z < _INF else None
        if zc is not None:
            # every factor is at most 1, so no step overflows, and a product
            # below the normal range is off by at most an ulp of 0 per step
            val = math.exp(a * x1) * (1.0 + x1) ** (beta + 1.0) * zc / z
            return val, 1e-13 * val + 4.0 * math.ulp(0.0)
        return _quad(lambda x: math.exp(a * x) * (1.0 + x) ** beta, x1, _INF)
    xm = min(max(-beta / a - 1.0, x1), x2) if a < 0.0 < beta else x2 if (
        a * (x2 - x1) + beta * (math.log1p(x2) - math.log1p(x1)) > 0.0) else x1
    inv, lm, exp, log1p = 1.0 / (1.0 + xm), math.log1p(xm), math.exp, math.log1p
    val, err = _quad(lambda x: exp(a * (d := x - xm) + beta * log1p(d * inv)), x1, x2)
    out = _times_exp(val, a * xm + beta * lm, lambda: _overflow(a, beta, x1, x2))
    # QUADPACK's bound plus the rounding of the scale's exponent
    return out, (err / val + _EPS * (abs(a * xm) + abs(beta * lm))) * out


def term_value(a: float, beta: float, x1: float, x2: float,
               gammas: tuple[tuple[float, float], ...] = ()
               ) -> tuple[float, float]:
    """(value, error) of a convergent canonical term without its coefficient.
    Its shape picks the route: :func:`exp_pow_integral` when plain, QUADPACK
    on an integrand <= 1 (a, beta, every gamma <= 0), else on e^(log_f - L)
    over the cuts where it turns, L its largest log_f there."""
    if x1 == x2:
        return 0.0, 0.0
    if not gammas:
        return exp_pow_integral(a, beta, x1, x2)
    if not (a > 0.0 or beta > 0.0 or any(g > 0.0 for _, g in gammas)):
        return _quad(lambda x: math.exp(a * x + sum(
            g * x ** al for al, g in gammas)) * (1.0 + x) ** beta, x1, x2)
    unit = LogTerm(1.0, a, beta, x1, x2, gammas)
    cuts = [x1, *_falling_turns([unit]), x2]

    def log_f(x: float) -> float:
        return a * x + beta * math.log1p(x) + sum(g * x ** al for al, g in gammas)

    # the exponent is capped at 0: a turn is placed to 1e-16 |a x| only, so
    # where the cap acts, |a x| puts e^L itself far beyond the float range
    log_m = max(log_f(x) for x in cuts if x < _INF)
    val, err = map(sum, zip(*(_quad(lambda x: math.exp(min(log_f(x) - log_m, 0.0)),
                                    lo, hi) for lo, hi in zip(cuts, cuts[1:]))))
    if val != val:  # a NaN exponent, which is no overflow
        return val, val
    out = _times_exp(val, log_m,
                     lambda: IntegralOverflowError(f"the integral of {unit} overflows"))
    return out, err / val * out


#: the Gauss-Kronrod pair G7/K15 on [-1, 1] from QUADPACK's qk15 table
#: (Piessens et al.): the nonnegative nodes, descending, their K15 weights,
#: and the G7 weights of the Gauss nodes among them (_XGK[1::2]).  These are
#: numpy's leggauss(7) to an ulp; leggauss itself is not called, because
#: its eigensolver loads LAPACK, about 1 MB in every process
_XGK = np.array([0.991455371120812639206854697526329,
                 0.949107912342758524526189684047851,
                 0.864864423359769072789712788640926,
                 0.741531185599394439863864773280788,
                 0.586087235467691130294144845693013,
                 0.405845151377397166906606412076961,
                 0.207784955007898467600689403773245,
                 0.0])
_WGK = np.array([0.022935322010529224963732008058970,
                 0.063092092629978553290700663189204,
                 0.104790010322250183839876322541518,
                 0.140653259715525918745189590510238,
                 0.169004726639267902826583426598550,
                 0.190350578064785409913256402421014,
                 0.204432940075298892414161999234649,
                 0.209482141084727828012999174891714])
_WG = np.array([0.129484966168869693270611432679082,
                0.279705391489276667901467771423780,
                0.381830050505118944950369775488975,
                0.417959183673469387755102040816327])
#: all 15 nodes, ascending, with their weights; _K15_X[1::2] are the G7 nodes
_K15_X = np.concatenate([-_XGK[:-1], _XGK[::-1]])
_K15_W = np.concatenate([_WGK[:-1], _WGK[::-1]])
_G7_W = np.concatenate([_WG, _WG[-2::-1]])

#: a cell whose K15 and G7 values differ by more than this, relative to its
#: K15 value, is integrated by :func:`term_value` instead
KRONROD_RTOL = 1e-14


def cell_integrals(a: float, beta: float,
                   gammas: tuple[tuple[float, float], ...],
                   edges: Sequence[float]) -> np.ndarray:
    """int_{e_i}^{e_{i+1}} e^{a x} (1+x)^beta exp(sum gamma x^alpha) dx over
    each cell of the ascending finite ``edges`` in [0, inf), by K15 on all
    cells at once, each cell's e^{a x} (1+x)^beta scaled by its peak on the
    cell as in :func:`exp_pow_integral`.

    A cell goes to :func:`term_value` where its K15 and G7 values disagree
    beyond :data:`KRONROD_RTOL` (the x^alpha cusp of a stretched term at
    x = 0, or a cell too wide for the rule) and where its value or its scale
    leaves the float range; there the scalar route decides, and raises
    :class:`IntegralOverflowError` where it would.
    """
    lo, hi = np.asarray(edges[:-1], float), np.asarray(edges[1:], float)
    half = 0.5 * (hi - lo)
    x = (0.5 * (hi + lo))[:, None] + half[:, None] * _K15_X
    xm = np.clip(-beta / a - 1.0, lo, hi) if a < 0.0 < beta else np.where(
        a * lo + beta * np.log1p(lo) < a * hi + beta * np.log1p(hi), hi, lo)
    with np.errstate(over="ignore", invalid="ignore"):
        expo = a * (dx := x - xm[:, None]) + beta * np.log1p(dx / (1.0 + xm[:, None]))
        for alpha, gamma in gammas:
            expo += gamma * x ** alpha
        f = np.exp(expo)
        k15 = half * (f * _K15_W).sum(axis=1)
        g7 = half * (f[:, 1::2] * _G7_W).sum(axis=1)
        vals = k15 * np.exp(a * xm + beta * np.log1p(xm))
        fine = (np.abs(k15 - g7) <= KRONROD_RTOL * np.abs(k15)) & np.isfinite(vals)
    for i in np.flatnonzero(~fine):
        vals[i] = term_value(a, beta, float(lo[i]), float(hi[i]), gammas)[0]
    return vals


def running_sums(terms: Sequence[LogTerm], xs: Sequence[float],
                 start: float) -> list[float]:
    """``start`` plus the integral of the sum of ``terms`` from xs[0] to each
    of the monotone finite points xs in [0, inf), one value per point: a
    running sum of the cells between consecutive points, each cell the sum
    over the terms, in their order, of ``coef`` times its
    :func:`cell_integrals`.  The ranges of the terms are not read, and xs
    may ascend or descend."""
    if len(xs) < 2:
        return [start] * len(xs)
    backward = xs[0] > xs[-1]
    edges = xs[::-1] if backward else xs
    cells = sum((term.coef * cell_integrals(term.a, term.beta, term.gammas,
                                            edges) for term in terms),
                np.zeros(len(xs) - 1))
    return list(accumulate((cells[::-1] if backward else cells).tolist(),
                           initial=start))


@contextmanager
def term_memo() -> Iterator[dict]:
    """Open the canonical-term cache that :func:`integrate_terms` reads.

    A computation that integrates the same terms many times (one scan, one
    reiteration check, one constant) runs inside one scope.  Entering
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
    """Sum canonical terms in the given (fixed) order; +inf, at the end of
    the first divergent term, when any term on [x1, inf) diverges, which is
    decided before any term is evaluated (a finite term of the same sum may
    exceed the float range).

    Each term with a nonzero coefficient is its :func:`term_value` times
    ``coef`` (the error times ``|coef|``), the one place a coefficient is
    applied.  Inside a :func:`term_memo` scope the coefficient-free value
    is stored under ``(a, beta, x1, x2, gammas)`` and reused for every
    coefficient, so results are bit-identical inside and outside a scope.
    """
    for term in terms:
        if term.x2 == _INF and term.coef != 0.0 and term.x1 != _INF \
                and term_diverges_at_inf(term.a, term.beta, term.gammas):
            return IntegralResult(_INF, _INF,
                                  AT_ZERO if term.end == "zero" else AT_INFINITY)
    memo = _TERM_MEMO.get()
    if memo is None:  # outside every scope, a memo of this sum only
        memo = {}
    total = 0.0
    err = 0.0
    for term in terms:
        if term.coef == 0.0:
            continue
        key = (term.a, term.beta, term.x1, term.x2, term.gammas)
        ve = memo.get(key)
        if ve is None:
            ve = memo[key] = term_value(*key)
        v = term.coef * ve[0]
        if not math.isfinite(v):  # not a divergence, which is decided above
            if v == v and math.isfinite(ve[0]):
                raise IntegralOverflowError(
                    f"the coefficient times the integral of {term} exceeds "
                    "the float range")
            raise NonFiniteIntegrandError(
                f"non-finite term value for a={term.a} beta={term.beta}")
        total += v
        err += abs(term.coef) * ve[1]
    return IntegralResult(total, err)


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
    one of those values exceeds the float range.
    """
    terms = [t for t in terms if t.coef != 0.0]
    if not terms:
        return 0.0
    x1, x2, gammas = terms[0].x1, terms[0].x2, terms[0].gammas
    if any((t.x1, t.x2, t.gammas) != (x1, x2, gammas) for t in terms) \
            or len({(t.a, t.beta) for t in terms}) < len(terms):
        raise ValueError("sup_terms needs distinct terms on one segment "
                         "with one stretched factor")
    top = max(terms, key=lambda t: (t.a, t.beta))
    order = leading_exponent(top.a, top.beta, gammas)
    if x2 == _INF and order > 0.0 and top.coef > 0.0:
        return _INF

    def value(x: float) -> float:  # -inf below the float range
        g = sum(gamma * x ** alpha for alpha, gamma in gammas)
        logs = [t.a * x + t.beta * math.log1p(x) + g for t in terms]
        big = max(logs)
        s = sum(t.coef * math.exp(lg - big) for t, lg in zip(terms, logs))
        return _times_exp(s, big, lambda: IntegralOverflowError(
            f"supremum over [{x1!r}, {x2!r}] exceeds the float range"))

    if x2 != _INF:
        ends = [value(x2)]
    elif order <= 0.0:  # the limit: a constant top term, or 0
        ends = [top.coef if order == 0.0 else 0.0]
    else:  # falls to -inf
        ends = []
    return max([value(x1)] + ends + [value(x) for x in _falling_turns(terms)])


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
