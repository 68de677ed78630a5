"""Reiteration weights, the log-derivative condition, and Lorentz-Karamata norms.

For a pair of limiting spaces with tail-quotient index rho(t), the composite
weight of the reiterated space is

    b~(t) = rho(t)^(1-theta) b(rho(t)) b1(t)^(q1/q)
            (int_t^inf b1(u)^q1 du/u)^(1/q1 - 1/q),

with the head-quotient analogue b^ in the opposite limiting frame.  The outer
quasi-norm of the reiterated space is evaluated through the substitution
s = rho(t): the Holmstedt right-hand side I + rho J stands in for the inner
K-functional, and the measure picks up the factor rho'(t)/rho(t), obtained by
central differences in log t.  A genuine double-layer decomposition infimum
would stack a second search on top of the first without adding verification
power.

Neither the index nor its log-derivative depends on the profile, so
:func:`reiteration_check` tabulates them once per spec and shares the table
across profiles.  Each profile's sweep over the table runs in one
:func:`~kinterp.quadrature.term_memo` scope, where the segment plans of
:func:`~kinterp.norms.weighted_knorm` integrate each whole segment of I and
J once: at each t only the segment that holds t is new.  A profile whose
iterated-space norm is 0 or infinite is skipped before the composite-weight
norm is computed.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from functools import cached_property
from typing import Callable, Optional, Sequence

import numpy as np

from .holmstedt import (HolmstedtCase, HypothesisError, RatioReport, ScanRow,
                        _eps_condition_note, _index_note, _rhs)
from .norms import (
    SpaceSpec,
    index,
    index_limit,
    space_norm,
    _quasi_norm,
)
from .profiles import KProfile, K_from_rearrangement, Rearrangement
from .quadrature import GridSpec, term_memo
from .weights import (Flip, WeightExpr, head_qnorm, tail_qnorm,
                      weight_kernel_integral)

__all__ = [
    "ReiterationSpec",
    "LKSpec",
    "build_tilde_b",
    "build_hat_b",
    "log_derivative_check",
    "LogDerivativeReport",
    "reiteration_check",
    "lorentz_karamata_norm",
    "lk_identification_check",
]

_INF = math.inf

#: what the index tends to, by :func:`kinterp.norms.index_limit`
_LIMITS = {-1: "0", 0: "a finite positive limit", 1: "inf"}


@dataclass(frozen=True)
class ReiterationSpec:
    """Parameters of one reiteration identity.

    ``side`` 0 composes two lower-limiting spaces through the tail quotient
    rho; side 1 composes two upper-limiting spaces through the head quotient
    eta.  Requires 0 < theta < 1 and finite positive q's.
    """

    side: int
    theta: float
    q: float
    b: WeightExpr
    q0: float
    b0: WeightExpr
    q1: float
    b1: WeightExpr

    def __post_init__(self) -> None:
        if self.side not in (0, 1):
            raise ValueError("side must be 0 or 1")
        if not (0.0 < self.theta < 1.0):
            raise ValueError("theta must lie in (0, 1)")
        for name, qv in (("q", self.q), ("q0", self.q0), ("q1", self.q1)):
            if not (0.0 < qv < _INF):
                raise ValueError(
                    f"reiteration requires finite {name} (q = inf is outside "
                    "the supported hypotheses)")
        qnorm_at_1 = tail_qnorm if self.side == 0 else head_qnorm
        for j, (qj, bj) in enumerate(((self.q0, self.b0), (self.q1, self.b1))):
            if not math.isfinite(qnorm_at_1(bj, qj, 1.0)):
                raise ValueError(f"b{j} is not in the required integrability "
                                 f"class for side {self.side}")

    def index_kind(self) -> str:
        return "rho" if self.side == 0 else "eta"

    def index_value(self, t: float) -> Optional[float]:
        return index(t, self.index_kind(), self.q0, self.b0,
                     self.q1, self.b1).value

    def inner_case(self) -> HolmstedtCase:
        kind = "limiting00" if self.side == 0 else "limiting11"
        return HolmstedtCase(kind, self.q0, self.q1, self.b0, self.b1)

    def flipped(self) -> "ReiterationSpec":
        """The mirror spec under t -> 1/t (theta -> 1-theta, weights flipped)."""
        return ReiterationSpec(side=1 - self.side, theta=1.0 - self.theta,
                               q=self.q, b=self.b, q0=self.q0,
                               b0=Flip(self.b0), q1=self.q1, b1=Flip(self.b1))

    def verify_hypotheses(self) -> list[str]:
        case = self.inner_case()
        notes = [_index_note(case)]
        kind = self.index_kind()
        for end, want, where in (("zero", -1, "0 toward 0+"),
                                 ("inf", 1, "inf toward inf")):
            got = index_limit(kind, self.q0, self.b0, self.q1, self.b1, end)
            if got != want:
                raise HypothesisError(f"{kind} -> {where}",
                                      f"it tends to {_LIMITS[got]}")
        notes.append(f"{kind} -> 0 toward 0+ and -> inf toward inf "
                     "(exact limits of the weight algebra)")
        if self.q0 != self.q1:
            notes.append(_eps_condition_note(case))
        else:
            rep = log_derivative_check(self)
            if not rep.passed:
                raise HypothesisError("log-derivative equivalence",
                                      f"band [{rep.band_lo:.3g}, {rep.band_hi:.3g}]")
            notes.append(f"log-derivative band [{rep.band_lo:.3g}, "
                         f"{rep.band_hi:.3g}]")
        return notes


# ---------------------------------------------------------------------------
# Composite weights
# ---------------------------------------------------------------------------

class CompositeWeight:
    """Evaluable reiteration weight; not itself a grammar expression.  Its
    scalar evaluator is compiled once and not pickled."""

    def __init__(self, spec: ReiterationSpec):
        self.spec = spec

    @cached_property
    def _compiled(self) -> Callable[[float], float]:
        """t -> index^expo b(index) b1(t)^(q1/q) block^(1/q1 - 1/q) with the
        IEEE operations of ``norms.index`` and of ``weight_kernel_integral``
        of b1 over (t, inf) or (0, t).  On side 0 one b1 tail integral is the
        block and, to the power 1/q1, the index denominator."""
        s = self.spec
        side0 = s.side == 0
        kind = "tail" if side0 else "flip"  # eta(t) is a quotient of tails at 1/t
        num_of, den_of = s.b0._integral(kind, s.q0), s.b1._integral(kind, s.q1)
        block_of = den_of if side0 else s.b1._integral("head", s.q1)
        expo = (1.0 - s.theta) if side0 else s.theta

        def value(t: float) -> float:
            u = t if side0 else 1.0 / t
            if u <= 0.0:
                raise ValueError("t must be positive")
            num, den = num_of(u), den_of(u)
            num = num ** (1.0 / s.q0) if num != _INF else _INF
            root = den ** (1.0 / s.q1) if den != _INF else _INF
            idx = num / root if 0.0 < root < _INF else math.nan
            if not 0.0 < idx < _INF:
                raise ValueError(f"index degenerate at t={t!r}")
            block = den if side0 else block_of(t)
            if block == _INF:
                raise ValueError("divergent defining integral of the b1 block")
            return idx ** expo * s.b(idx) * (
                s.b1(t) ** (s.q1 / s.q) * block ** (1.0 / s.q1 - 1.0 / s.q))
        return value

    def __call__(self, t) -> float:
        return self._compiled(float(t))

    def __getstate__(self) -> dict:
        return {"spec": self.spec}


def build_tilde_b(spec: ReiterationSpec) -> CompositeWeight:
    """Composite weight of the lower-limiting reiteration (side 0)."""
    if spec.side != 0:
        raise ValueError("build_tilde_b needs a side-0 spec")
    return CompositeWeight(spec)


def build_hat_b(spec: ReiterationSpec) -> CompositeWeight:
    """Composite weight of the upper-limiting reiteration (side 1)."""
    if spec.side != 1:
        raise ValueError("build_hat_b needs a side-1 spec")
    return CompositeWeight(spec)


# ---------------------------------------------------------------------------
# Log-derivative condition (equal exponents branch)
# ---------------------------------------------------------------------------

_LOG_STEP = 1e-3

#: the grid of log_derivative_check and the open band its ratio passes in
LOG_DERIVATIVE_GRID = GridSpec(1e-6, 1e6, 8)
LOG_DERIVATIVE_BAND = (1e-2, 1e2)


def _dlog_index(spec: ReiterationSpec, t: float) -> float:
    """d ln(index)/d ln t by central differences."""
    up = spec.index_value(t * math.exp(_LOG_STEP))
    dn = spec.index_value(t * math.exp(-_LOG_STEP))
    if up is None or dn is None or up <= 0.0 or dn <= 0.0:
        return math.nan
    return (math.log(up) - math.log(dn)) / (2.0 * _LOG_STEP)


@dataclass
class LogDerivativeReport:
    band_lo: float
    band_hi: float
    passed: bool
    rows: list[tuple[float, float]] = field(default_factory=list)


def log_derivative_check(spec: ReiterationSpec) -> LogDerivativeReport:
    """Band of (index'/index) / (t^-1 b1^q1 / b1-block integral) on the grid.

    The two sides agree up to constants exactly when the equal-exponent
    reiteration hypothesis holds; the acceptance band is generous.
    """
    s = spec
    rows: list[tuple[float, float]] = []
    lo_band, hi_band = _INF, 0.0
    for t in LOG_DERIVATIVE_GRID.points():
        t = float(t)
        num = _dlog_index(spec, t)  # = t * index'/index
        if s.side == 0:
            block = weight_kernel_integral(s.b1, s.q1, 0.0, t, _INF)
        else:
            block = weight_kernel_integral(s.b1, s.q1, 0.0, 0.0, t)
        den = s.b1(t) ** s.q1 / block if block not in (0.0, _INF) else math.nan
        ratio = num / den if den and not math.isnan(num) else math.nan
        rows.append((t, ratio))
        if not math.isnan(ratio):
            lo_band = min(lo_band, ratio)
            hi_band = max(hi_band, ratio)
    passed = (math.isfinite(lo_band) and lo_band > LOG_DERIVATIVE_BAND[0]
              and hi_band < LOG_DERIVATIVE_BAND[1])
    return LogDerivativeReport(lo_band, hi_band, passed, rows)


# ---------------------------------------------------------------------------
# Reiteration identity check
# ---------------------------------------------------------------------------

#: (grid step in ln t, one row per grid point): a row is (t, index,
#: d ln index / d ln t), or None where the index is degenerate or its
#: log-derivative is not positive, so the outer integrand is 0 there.
IndexTable = tuple[float, list[Optional[tuple[float, float, float]]]]

#: the t grid of the outer trapezoid of :func:`reiteration_check`
REITERATION_GRID = GridSpec(1e-12, 1e12, 12)


def _index_table(spec: ReiterationSpec, grid: GridSpec) -> IndexTable:
    """The profile-independent part of the s = index(t) substitution."""
    xs = np.log(grid.points())
    rows: list[Optional[tuple[float, float, float]]] = []
    for x in xs:
        t = math.exp(float(x))
        idx = spec.index_value(t)
        if idx is None or not (0.0 < idx < _INF):
            rows.append(None)
            continue
        ell = _dlog_index(spec, t)  # measure factor d ln(index)
        if math.isnan(ell) or ell <= 0.0:
            rows.append(None)
            continue
        rows.append((t, idx, ell))
    return xs[1] - xs[0], rows


def _composite_norm(spec: ReiterationSpec, f: KProfile,
                    table: IndexTable) -> float:
    """Outer quasi-norm of the iterated space via the s = index(t) substitution.

    ``table`` comes from :func:`_index_table` and is shared by every profile
    of a check; the sweep runs in its own :func:`term_memo` scope.
    """
    h, rows = table
    spaces = spec.inner_case().spaces()
    vals = []
    with term_memo():
        for row in rows:
            if row is None:
                vals.append(0.0)
                continue
            t, idx, ell = row
            surrogate = _rhs(spaces, f, t, idx)
            if not (0.0 <= surrogate < _INF):
                return _INF
            vals.append((idx ** -spec.theta * spec.b(idx) * surrogate)
                        ** spec.q * ell)
    total = float(np.sum(vals)) * h - 0.5 * h * (vals[0] + vals[-1])
    return total ** (1.0 / spec.q)


def reiteration_check(spec: ReiterationSpec,
                      profiles: Sequence[Rearrangement]) -> RatioReport:
    """Compare the iterated-space norm against the composite-weight norm.

    The index table on REITERATION_GRID is built once and shared across
    profiles.
    A profile whose iterated-space norm is not in (0, inf) counts as skipped
    without evaluating the composite-weight side.
    """
    report = RatioReport(f"side={spec.side}, theta={spec.theta:g}",
                         notes=spec.verify_hypotheses())
    table = _index_table(spec, REITERATION_GRID)
    composite = CompositeWeight(spec)
    theta_side = 0.0 if spec.side == 0 else 1.0
    for f in profiles:
        K = K_from_rearrangement(f)
        lhs = _composite_norm(spec, K, table)
        if not (0.0 < lhs < _INF):
            report.skipped += 1
            continue
        report.add(f.label, lhs,
                   _quasi_norm(K.curve, theta_side, spec.q, composite))
    return report


# ---------------------------------------------------------------------------
# Lorentz-Karamata norms and the limiting identification
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class LKSpec:
    p: float
    q: float
    b: WeightExpr

    def __post_init__(self) -> None:
        if not (0.0 < self.p <= _INF and 0.0 < self.q <= _INF):
            raise ValueError("p and q must be positive (inf allowed)")


def lorentz_karamata_norm(f: Rearrangement, spec: LKSpec) -> float:
    """||t^{1/p-1/q} b(t) f*(t)||_{q,(0,inf)}."""
    theta = 0.0 if spec.p == _INF else -1.0 / spec.p
    if f.curve.is_zero():
        return 0.0
    return _quasi_norm(f.curve, theta, spec.q, spec.b)


def lk_identification_check(suite: Sequence[Rearrangement], q: float, b: WeightExpr
                  ) -> RatioReport:
    """Ratios of the limiting interpolation norm over the L_{inf,q;b} norm.

    The interpolation side uses K(t,f) = int_0^t f*; since K(t,f) >= t f*(t)
    the ratio is bounded below by 1 up to quadrature error.  A row reads
    (label, lk, interp, interp / lk).
    """
    space = SpaceSpec(1.0, q, b)  # raises ValueError without the head class
    lk_spec = LKSpec(_INF, q, b)
    report = RatioReport()
    for f in suite:
        lk = lorentz_karamata_norm(f, lk_spec)
        interp = space_norm(K_from_rearrangement(f), space)
        if 0.0 < lk < _INF and 0.0 < interp < _INF:
            report.rows.append(ScanRow(f.label, lk, interp, interp / lk))
        else:
            report.skipped += 1
    return report
