"""Best constants and condition checks for quasi-concave weighted inequalities,
plus the constructed-weight Hardy inequalities and the monotone-kernel
equivalence check.

The base inequality compares ||h w||_{q, ds/s} with C ||h v||_{p, ds/s} over
all quasi-concave h.  For p <= q the best constant is the supremum A1 of the
plug-in ratio of the extremal family h_x(s) = min(s, x); for slowly varying
weights the head pieces are absorbed and the tail-quotient functional A3 takes
over (its own extremal family is the tail indicators chi_(x,inf), which the A3
probe uses).  A2/A4 are the integral-form constants of the q < p regime.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Sequence

import numpy as np

from .norms import weighted_knorm
from .profiles import KProfile
from .quadrature import (DivergentIntegralError, IntegralOverflowError,
                         STANDARD_GRID, _quad, _times_exp, golden_min,
                         term_memo)
from .weights import (
    WeightExpr,
    kernel_samples,
    tail_qnorm,
    weight_kernel_integral,
)

__all__ = [
    "InequalitySpec",
    "ConstantReport",
    "DivergentIntegralError",
    "StepFunction",
    "compute_constant",
    "best_constant_probe",
    "hardy_build_v",
    "hardy_check",
    "HardyReport",
    "hmt_check",
    "HmtReport",
    "PASS_CONSTANT",
]

_INF = math.inf

#: conditions "hold" when the observed constant stays below this threshold.
PASS_CONSTANT = 4.0

#: the points of the A2/A4 trapezoid and the seed of the steps hmt_check draws
_TRAPEZOID_POINTS = 2048
_HMT_SEED = 97531


@dataclass(frozen=True)
class InequalitySpec:
    p: float
    q: float
    v: WeightExpr
    w: WeightExpr

    def __post_init__(self) -> None:
        if not (0.0 < self.p < _INF and 0.0 < self.q < _INF):
            raise ValueError("p and q must be finite and positive")

    def require_sv_classes(self) -> None:
        if not math.isfinite(tail_qnorm(self.v, self.p, 1.0)):
            raise ValueError("v must lie in the tail class for exponent p")
        if not math.isfinite(tail_qnorm(self.w, self.q, 1.0)):
            raise ValueError("w must lie in the tail class for exponent q")


@dataclass
class ConstantReport:
    which: str
    value: float
    argmax: Optional[float] = None


# ---------------------------------------------------------------------------
# The four constants
# ---------------------------------------------------------------------------

_Samples = Callable[[WeightExpr, float, list[float]], list[float]]


def _bracket(b: WeightExpr, r: float, x: float) -> float:
    """int_0^x s^r b^r ds/s + x^r int_x^inf b^r ds/s (the plug-in identity):
    the kernel of A1 and A2; +inf, without the head, when the tail is.  The
    constants read it through :func:`_bracket_samples`; this is its scalar
    reference."""
    tail = _tail(b, r, x)
    if tail == _INF:
        return _INF
    return weight_kernel_integral(b, r, r, 0.0, x) + _times_power(x, r, tail)


def _tail(b: WeightExpr, r: float, x: float) -> float:
    """int_x^inf b^r ds/s: the kernel of A3 and A4, which the constants read
    through :func:`_tail_samples`; this is its scalar reference."""
    return weight_kernel_integral(b, r, 0.0, x, _INF)


def _tail_samples(b: WeightExpr, r: float, ts: list[float]) -> list[float]:
    """``_tail`` at each of the ascending points ts, in one pass."""
    return kernel_samples(b, r, 0.0, ts, tail=True)


def _bracket_samples(b: WeightExpr, r: float, ts: list[float]) -> list[float]:
    """``_bracket`` at each of the ascending points ts: the tails first, then
    the heads where the tail is finite, each one pass of
    :func:`kinterp.weights.kernel_samples` from its outermost point."""
    tails = _tail_samples(b, r, ts)
    live = [i for i, tail in enumerate(tails) if tail != _INF]
    out = [_INF] * len(ts)
    heads = kernel_samples(b, r, r, [ts[i] for i in live], tail=False)
    for i, head in zip(live, heads):
        out[i] = head + _times_power(ts[i], r, tails[i])
    return out


def _times_power(x: float, r: float, tail: float) -> float:
    """x^r tail, as tail e^(r ln x): x^r may exceed a double where it does not."""
    return _times_exp(tail, r * math.log(x), lambda: IntegralOverflowError(
        f"x^{r!r} times the tail at x = {x!r} exceeds the float range"))


def _ratio_samples(spec: InequalitySpec, samples: _Samples,
                   ts: list[float]) -> list[float]:
    """The plug-in ratio kernel(w, q, x)^(1/q) / kernel(v, p, x)^(1/p) of A1
    (kernel ``_bracket``) or A3 (``_tail``) at each of the ascending points
    ts, from one pass of their ``samples`` (``_bracket_samples`` or
    ``_tail_samples``) per weight; a one-point pass, which each golden step
    of :func:`_sup_on_grid` takes, is the scalar kernel bit for bit."""
    nums, dens = samples(spec.w, spec.q, ts), samples(spec.v, spec.p, ts)
    return [_plug_in_ratio(spec, num, den, x)
            for num, den, x in zip(nums, dens, ts)]


def _plug_in_ratio(spec: InequalitySpec, num: float, den: float,
                   x: float) -> float:
    """num^(1/q) / den^(1/p) at x; 0.0 where a kernel value is degenerate
    (the numerator +inf, the denominator 0 or +inf)."""
    if num == _INF or den == _INF or den == 0.0:
        return 0.0
    return _root_ratio(spec, num, den, f"the plug-in ratio at x={x!r}")


def _root_ratio(spec: InequalitySpec, num: float, den: float,
                name: str) -> float:
    """num^(1/q) / den^(1/p) for num >= 0 and den in (0, inf): as floats,
    and in logs only where a root leaves the float range (an overflow, or
    the denominator's root underflowing to 0).  Raises
    :class:`IntegralOverflowError` naming ``name`` when the quotient itself
    exceeds the float range."""
    try:
        return num ** (1.0 / spec.q) / den ** (1.0 / spec.p)
    except (OverflowError, ZeroDivisionError):
        log_ratio = (math.log(num) / spec.q if num > 0.0 else -_INF) \
            - math.log(den) / spec.p
    return _times_exp(1.0, log_ratio, lambda: IntegralOverflowError(
        f"{name} exceeds the float range"))


def _log_integrand(spec: InequalitySpec, samples: _Samples, x_power: float,
                   xs: list[float]) -> np.ndarray:
    """ln of the integrand of A2 (``_bracket_samples``, ``x_power`` = q) or
    A4 (``_tail_samples``, ``x_power`` = 0) at s = e^x for each of the
    ascending xs, each weight's kernel from one pass of ``samples``:
    q/(p-q) ln(kernel(w, q, s) / kernel(v, p, s)) + x_power x + q ln w(s);
    +inf where the w kernel is +inf (the v kernel is then not sampled),
    -inf where a kernel is 0 or the v kernel +inf."""
    p, q, v, w = spec.p, spec.q, spec.v, spec.w
    expo = q / (p - q)
    ts = [math.exp(x) for x in xs]
    nums = samples(w, q, ts)
    live = [i for i, num in enumerate(nums) if num != _INF]
    dens = dict(zip(live, samples(v, p, [ts[i] for i in live])))
    out = []
    for i, (x, t, num) in enumerate(zip(xs, ts, nums)):
        den = dens.get(i, _INF)
        if num == _INF:
            out.append(_INF)
        elif num == 0.0 or den == 0.0 or den == _INF:
            out.append(-_INF)
        else:
            out.append(expo * (math.log(num) - math.log(den))
                       + x_power * x + q * math.log(w(t)))
    return np.array(out)


def _sup_on_grid(spec: InequalitySpec,
                 samples: _Samples) -> tuple[float, float]:
    """(sup, argmax) of the plug-in ratio: its largest sample on
    STANDARD_GRID, refined by a golden section over the neighbouring cells
    that samples one point at a time."""
    ts = STANDARD_GRID.points().tolist()
    vals = _ratio_samples(spec, samples, ts)
    i = int(np.argmax(vals))
    best_x, best = ts[i], vals[i]
    a = math.log(ts[max(i - 1, 0)])
    b = math.log(ts[min(i + 1, len(ts) - 1)])
    if b > a and math.isfinite(best):
        x, y = golden_min(
            lambda lx: -_ratio_samples(spec, samples, [math.exp(lx)])[0],
            a, b, 1e-6, 200)
        if -y > best:
            best_x, best = math.exp(x), -y
    return best, best_x


def _edge_tail(ls: np.ndarray, xs: np.ndarray, side: str,
               m: float, total: float) -> float:
    """Tail of int exp(ls) dx beyond an open window end, in units of exp(m).

    The integrands of this module decay like powers of L = 1 + |ln t| at the
    window ends (their stretched-exponential or genuine-power parts decay much
    faster and classify trivially): the log-log slope s in L estimated across
    the outer two decades decides convergence (s > 1) and gives the analytic
    remainder f_edge * L_edge / (s - 1).  Returns +inf for a marginal or
    non-decaying tail, 0.0 for a negligible one.
    """
    h = float(xs[1] - xs[0])
    step = max(int(math.log(10.0) / h), 1)
    if side == "lo":
        i0, i2 = 0, 2 * step
    else:
        i0, i2 = len(xs) - 1, len(xs) - 1 - 2 * step
    f_edge = math.exp(float(ls[i0]) - m)
    if f_edge * step * h <= 1e-12 * max(total, 1e-300):
        return 0.0
    L0 = 1.0 + abs(float(xs[i0]))
    L2 = 1.0 + abs(float(xs[i2]))
    slope = (float(ls[i2]) - float(ls[i0])) / (math.log(L0) - math.log(L2))
    if slope <= 1.02:
        return _INF
    return f_edge * L0 / (slope - 1.0)


def _log_integral(spec: InequalitySpec, samples: _Samples,
                  x_power: float) -> float:
    """log of int exp(log_f(x)) dx over the range of STANDARD_GRID (x = ln t)
    by trapezoid on _TRAPEZOID_POINTS points, log_f the :func:`_log_integrand`
    of A2 or A4, stable for huge exponents; +inf when an open-end tail fails
    the power-log convergence test, with the convergent power-log remainders
    added analytically."""
    xs = np.linspace(math.log(STANDARD_GRID.t_min),
                     math.log(STANDARD_GRID.t_max), _TRAPEZOID_POINTS)
    ls = _log_integrand(spec, samples, x_power, xs.tolist())
    m = float(np.max(ls))
    if not math.isfinite(m):
        return _INF if m == _INF else -_INF
    weights = np.exp(ls - m) * float(xs[1] - xs[0])
    total = float(np.sum(weights)) - 0.5 * float(weights[0] + weights[-1])
    for side in ("lo", "hi"):
        tail = _edge_tail(ls, xs, side, m, total)
        if tail == _INF:
            return _INF
        total += tail
    return m + math.log(total)


def compute_constant(spec: InequalitySpec, which: str) -> ConstantReport:
    """A1/A2 for general positive weights, A3/A4 for slowly varying ones."""
    p, q = spec.p, spec.q
    if which in ("A1", "A3") and not p <= q:
        raise ValueError(f"{which} requires p <= q")
    if which in ("A2", "A4") and not q < p:
        raise ValueError(f"{which} requires q < p")
    samples = (_bracket_samples if which in ("A1", "A2")
               else _tail_samples)
    with term_memo():  # each distinct integral of the call is computed once
        if which in ("A3", "A4"):
            spec.require_sv_classes()
        if which in ("A1", "A3"):
            value, argmax = _sup_on_grid(spec, samples)
            return ConstantReport(which, value, argmax)
        log_val = _log_integral(spec, samples, q if which == "A2" else 0.0)
        return ConstantReport(which, math.exp(log_val * (1.0 / q - 1.0 / p)))


def _min_profile(x: float) -> KProfile:
    """The extremal quasi-concave h_x(s) = min(s, x)."""
    return KProfile.from_nodes([(x, x)])


def quasiconcave_ratio(spec: InequalitySpec, h: KProfile) -> float:
    """||h w||_{q,ds/s} / ||h v||_{p,ds/s} for one quasi-concave h."""
    num = weighted_knorm(h.curve, 0.0, spec.q, spec.w)
    den = weighted_knorm(h.curve, 0.0, spec.p, spec.v)
    if num.divergent or den.divergent or den.value == 0.0:
        return 0.0
    return _root_ratio(spec, num.value, den.value,
                       "the ratio ||h w||_q / ||h v||_p")


def best_constant_probe(spec: InequalitySpec, which: str,
                        x_grid: Sequence[float]) -> float:
    """Empirical supremum of the plug-in ratio over the constant's extremal
    family: min(s, x) for A1, the tail indicators for A3, whose ratios are
    one pass of :func:`_ratio_samples` over the points."""
    if which == "A1":
        return max(quasiconcave_ratio(spec, _min_profile(float(x)))
                   for x in x_grid)
    if which == "A3":
        return max([0.0] + _ratio_samples(spec, _tail_samples,
                                          sorted(float(x) for x in x_grid)))
    raise ValueError("probe supports A1 and A3")


# ---------------------------------------------------------------------------
# Constructed-weight Hardy inequalities
# ---------------------------------------------------------------------------

HARDY_CASES = ("HET1", "HET2", "HET3plus", "HET3")


def _plain_quad(f: Callable[[float], float], lo: float, hi: float) -> float:
    """int_lo^hi f(u) du of an opaque callable by :func:`quadrature._quad`
    (so :class:`DivergentIntegralError` on QUADPACK status ier 1 or 5); 0.0
    for an empty range."""
    if lo >= hi:
        return 0.0
    return _quad(f, lo, hi, 1e-13, 1e-10)[0]


def _integral(f: Callable[[float], float], lo: float, hi: float) -> float:
    """int_lo^hi f(u) du; +inf when divergent.

    A weight expression integrates through its canonical terms (closed form,
    the incomplete gamma function, or quadrature of the smooth term in log
    coordinates where neither applies), an object with an ``integral(lo, hi)``
    method (``const``, ``expdecay``) through that method; only an opaque
    callable goes to QUADPACK.
    """
    if lo >= hi:
        return 0.0
    if isinstance(f, WeightExpr):
        return weight_kernel_integral(f, 1.0, 1.0, lo, hi)
    integral = getattr(f, "integral", None)
    if integral is not None:
        return integral(lo, hi)
    return _plain_quad(f, lo, hi)


def hardy_build_v(case: str, alpha: float, w: Callable[[float], float],
                  phi: Callable[[float], float]) -> Callable[[float], float]:
    """The constructed right-hand weight v of the four Hardy-type estimates.

    Raises ValueError when the case's defining integral diverges.  That probe
    is exact for weight expressions, ``const`` and ``expdecay``; for an opaque
    callable it rests on QUADPACK's status (:func:`_plain_quad` raises
    :class:`DivergentIntegralError` when QUADPACK reports divergence or stops
    at its subdivision limit), so a slowly divergent opaque integrand can
    still pass it.
    """
    if case not in HARDY_CASES:
        raise ValueError(f"unknown hardy case {case!r}")
    if case in ("HET1", "HET2") and not alpha > 1.0:
        raise ValueError(f"{case} requires alpha > 1")
    if case in ("HET3plus", "HET3") and not 0.0 < alpha < 1.0:
        raise ValueError(f"{case} requires 0 < alpha < 1")

    f, lo, hi = {"HET1": (w, 1.0, _INF), "HET2": (w, 0.0, 1.0),
                 "HET3plus": (w, 1.0, _INF), "HET3": (phi, 1.0, _INF)}[case]
    try:
        probe = _integral(f, lo, hi)
    except DivergentIntegralError:
        probe = _INF
    if not math.isfinite(probe):
        raise ValueError(f"{case} needs a convergent defining integral")

    if case == "HET1":
        def v(t: float) -> float:
            wt = w(t)
            if wt == 0.0:
                return 0.0
            return wt ** (1.0 - alpha) * (phi(t) * _integral(w, t, _INF)) ** alpha
    elif case == "HET2":
        def v(t: float) -> float:
            wt = w(t)
            if wt == 0.0:
                return 0.0
            return wt ** (1.0 - alpha) * (phi(t) * _integral(w, 0.0, t)) ** alpha
    elif case == "HET3plus":
        def v(t: float) -> float:
            head = _integral(phi, 0.0, t)
            if head <= 0.0:
                return 0.0
            return phi(t) * head ** (alpha - 1.0) * _integral(w, t, _INF)
    else:  # HET3
        def v(t: float) -> float:
            tail = _integral(phi, t, _INF)
            if tail <= 0.0:
                return 0.0
            return phi(t) * tail ** (alpha - 1.0) * _integral(w, 0.0, t)
    return v


class StepFunction:
    """Nonnegative step function: values[i] on (edge[i-1], edge[i]], ``tail``
    beyond the last edge (the support may be unbounded)."""

    def __init__(self, edges: Sequence[float], values: Sequence[float],
                 tail: float = 0.0):
        if len(edges) != len(values):
            raise ValueError("need one value per edge")
        if not all(0.0 < e < _INF for e in edges) or list(edges) != sorted(edges):
            raise ValueError("edges must be finite, positive and ascending")
        self.edges = [float(e) for e in edges]
        self.values = [float(v) for v in values]
        self.tail = float(tail)
        if not all(0.0 <= v < _INF for v in self.values + [self.tail]):
            raise ValueError("step values must be finite and nonnegative")

    def pieces(self) -> list[tuple[float, float, float]]:
        out = []
        prev = 0.0
        for e, v in zip(self.edges, self.values):
            out.append((prev, e, v))
            prev = e
        out.append((prev, _INF, self.tail))
        return out

    def weighted_integral(self, g: Callable[[float], float],
                          lo: float, hi: float, power: float = 1.0) -> float:
        """int_lo^hi h(u)^power g(u) du for this step function h."""
        total = 0.0
        for a, b, v in self.pieces():
            a2, b2 = max(a, lo), min(b, hi)
            if v == 0.0 or a2 >= b2:
                continue
            total += v ** power * _integral(g, a2, b2)
        return total


def _random_steps(rng: np.random.Generator, monotonicity: str) -> StepFunction:
    n = int(rng.integers(1, 6))
    edges = sorted(float(x) for x in np.exp(rng.uniform(math.log(1e-2),
                                                        math.log(30.0), n)))
    vals = [float(x) for x in np.exp(rng.uniform(math.log(1e-2),
                                                 math.log(10.0), n))]
    if monotonicity == "nonincreasing":
        vals = sorted(vals, reverse=True)
        return StepFunction(edges, vals, 0.0)
    if monotonicity == "nondecreasing":
        vals = sorted(vals)
        return StepFunction(edges, vals, tail=vals[-1])
    return StepFunction(edges, vals, 0.0)


@dataclass
class HardyReport:
    case: str
    alpha: float
    max_ratio: float
    samples: int
    skipped: int = 0


def hardy_check(case: str, alpha: float, w: Callable[[float], float],
                phi: Callable[[float], float],
                h_family: Optional[Sequence[StepFunction]] = None,
                samples: int = 50, seed: int = 13579) -> HardyReport:
    """Max observed ratio LHS/RHS of the case's inequality over sampled h;
    a ValueError when every h gives 0/0."""
    v = hardy_build_v(case, alpha, w, phi)
    monot = {"HET1": "any", "HET2": "any",
             "HET3plus": "nonincreasing", "HET3": "nondecreasing"}[case]
    if h_family is None:
        rng = np.random.default_rng(seed)
        h_family = [_random_steps(rng, monot) for _ in range(samples)]
    if len(h_family) == 0:
        raise ValueError("hardy_check needs at least one h")
    worst, skipped = _worst_ratio(
        (_hardy_lhs(case, alpha, w, phi, h),
         h.weighted_integral(v, 0.0, _INF, power=alpha)) for h in h_family)
    return HardyReport(case, alpha, worst, len(h_family), skipped)


def _worst_ratio(pairs: Iterable[tuple[float, float]]) -> tuple[float, int]:
    """(largest lhs / rhs over the (lhs, rhs) pairs, number of 0 / 0 pairs
    skipped); +inf, without reading further pairs, at a nonzero lhs over
    rhs = 0; (0.0, 0) for no pair.  Raises ValueError when every pair is
    0 / 0: such a sample is no evidence for any bound."""
    worst = 0.0
    n = skipped = 0
    for n, (lhs, rhs) in enumerate(pairs, 1):
        if rhs == 0.0:
            if lhs == 0.0:
                skipped += 1
                continue
            return _INF, skipped
        worst = max(worst, lhs / rhs)
    if n and skipped == n:
        raise ValueError(f"all {n} sampled ratios are 0/0")
    return worst, skipped


def _hardy_lhs(case: str, alpha: float, w, phi, h: StepFunction) -> float:
    inner_head = case == "HET1"

    edges = [e for e in h.edges]
    last = edges[-1] if edges else 1.0

    def inner(t: float) -> float:
        if inner_head:
            return h.weighted_integral(phi, 0.0, t)
        return h.weighted_integral(phi, t, _INF)

    def outer_integrand(t: float) -> float:
        iv = inner(t)
        return iv ** alpha * w(t) if iv > 0.0 else 0.0

    total = 0.0
    prev = 0.0
    for e in edges + [last * 4.0]:
        total += _plain_quad(outer_integrand, prev, e)
        prev = e
    if inner_head and h.tail == 0.0:
        const = inner(prev)  # h vanishes beyond its support: inner is flat
        if const > 0.0:
            total += const ** alpha * _integral(w, prev, _INF)
    else:
        total += _plain_quad(outer_integrand, prev, _INF)
    return total


# ---------------------------------------------------------------------------
# Monotone-kernel equivalence (integral kernel, nondecreasing h)
# ---------------------------------------------------------------------------

@dataclass
class HmtReport:
    condition_holds: bool
    inequality_holds: bool
    condition_ratio: float
    inequality_ratio: float
    reduction_discrepancy: float


def hmt_check(alpha: float, psi: Callable[[float, float], float],
              w: Callable[[float], float], v: Callable[[float], float],
              x_grid: Sequence[float],
              h_samples: Optional[Sequence[StepFunction]] = None,
              samples: int = 12) -> HmtReport:
    """Check the kernel condition and the sampled inequality, 0 < alpha <= 1.

    The condition at x is the inequality at the step h = chi_(x,inf), so
    each x is integrated once, as the inequality's two sides at that step:
    int_0^inf (int_x^inf psi(t, u) du)^alpha w(t) dt and int_x^inf v.  The
    step's zero piece adds exactly (``0.0 + 1.0 ** p * y``), so these are
    the floats of the nested integral written out directly, and
    ``reduction_discrepancy`` is 0.0 by construction.  It stays only because
    the benchmark gate compares every report field; its removal waits for
    the benchmark change of ROADMAP item 8.  A ValueError is raised for an x
    that is not finite and positive (before any integral), and when every x
    (or every h sample) gives 0/0; a :class:`DivergentIntegralError` from
    the quadrature of an opaque kernel, w or v propagates.
    """
    if not (0.0 < alpha <= 1.0):
        raise ValueError("alpha must lie in (0, 1]")
    if len(x_grid) == 0:
        raise ValueError("hmt_check needs at least one x")
    xs = [float(x) for x in x_grid]
    for x in xs:
        if not 0.0 < x < _INF:
            raise ValueError(f"hmt_check x must be finite and positive, got {x}")

    def sides(h: StepFunction) -> tuple[float, float]:
        def outer(t: float) -> float:
            iv = h.weighted_integral(lambda u: psi(t, u), 0.0, _INF)
            return iv ** alpha * w(t)
        return (_plain_quad(outer, 0.0, _INF),
                h.weighted_integral(v, 0.0, _INF, power=alpha))

    pairs = [sides(StepFunction([x], [0.0], tail=1.0)) for x in xs]
    cond_ratio, _ = _worst_ratio(pairs)

    if h_samples is None:
        rng = np.random.default_rng(_HMT_SEED)
        h_samples = [_random_steps(rng, "nondecreasing") for _ in range(samples)]
    ineq_ratio, _ = _worst_ratio(sides(h) for h in h_samples)
    return HmtReport(condition_holds=cond_ratio <= PASS_CONSTANT,
                     inequality_holds=ineq_ratio <= PASS_CONSTANT,
                     condition_ratio=cond_ratio, inequality_ratio=ineq_ratio,
                     reduction_discrepancy=0.0)
