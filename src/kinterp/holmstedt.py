"""Two-sided Holmstedt-type scans and the equal-theta nonexistence demo.

The left-hand side is the decomposition infimum over the truncation family on
the couple (L1, Linf): for each level lam the split f = (f*-lam)_+ + min(f*,lam)
realizes a near-optimal decomposition, so

    lhs(s) = inf_lam ||f0(lam)||_{X0} + s ||f1(lam)||_{X1}

(together with the two trivial decompositions) is an upper bound for the true
K-functional that the scanned equivalences bound from below.  Reports label this
quantity the truncation K-functional.

The theta0 = theta1 = 1 frame is evaluated through the substitution t -> 1/t,
which swaps the couple and conjugates the profile (K(t) -> t K(1/t)); the
truncation family maps onto itself under that substitution, level by level,
so the reduction is exact and not an approximation.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from typing import NamedTuple, Optional, Union

import numpy as np

from .norms import (
    MONOTONE_THRESHOLD,
    SpaceSpec,
    check_condition_monotone_index,
    index,
    quasi_monotone_constant,
    space_norm,
)
from .profiles import (
    KProfile,
    K_from_rearrangement,
    Rearrangement,
    conjugate_profile,
    realize_rearrangement,
    truncation_split,
)
from .quadrature import (GridSpec, IntegralOverflowError, SCAN_GRID,
                         STANDARD_GRID, golden_min, term_memo)
from .weights import Flip, Power, Product, WeightExpr, head_qnorm

__all__ = [
    "HolmstedtCase",
    "HypothesisError",
    "ScanRow",
    "RatioReport",
    "DecompositionTable",
    "index_value",
    "rhs_formula",
    "lhs_decomposition",
    "equivalence_scan",
    "NegativeDemoReport",
    "incompatibility_M",
    "negative_demo",
]

_INF = math.inf

CASE_KINDS = ("limiting00", "limiting11", "interior_equal_q", "nonlimiting")


class HypothesisError(RuntimeError):
    """A scan precondition failed; carries the name of the failed condition."""

    def __init__(self, condition: str, detail: str = ""):
        super().__init__(f"hypothesis check failed: {condition}"
                         + (f" ({detail})" if detail else ""))
        self.condition = condition


@dataclass(frozen=True)
class HolmstedtCase:
    kind: str
    q0: float
    q1: float
    b0: WeightExpr
    b1: WeightExpr
    theta: Optional[float] = None       # interior_equal_q
    theta0: Optional[float] = None      # nonlimiting
    theta1: Optional[float] = None

    def __post_init__(self) -> None:
        if self.kind not in CASE_KINDS:
            raise ValueError(f"unknown case kind {self.kind!r}")
        if self.kind == "interior_equal_q":
            if self.q0 != self.q1:
                raise ValueError("interior_equal_q requires q0 == q1")
            if self.theta is None or not (0.0 < self.theta < 1.0):
                raise ValueError("interior_equal_q requires theta in (0, 1)")
        if self.kind == "nonlimiting":
            if self.theta0 is None or self.theta1 is None \
                    or not (0.0 < self.theta0 < self.theta1 < 1.0):
                raise ValueError("nonlimiting requires 0 < theta0 < theta1 < 1")

    def spaces(self) -> tuple[SpaceSpec, SpaceSpec]:
        if self.kind == "limiting00":
            th0 = th1 = 0.0
        elif self.kind == "limiting11":
            th0 = th1 = 1.0
        elif self.kind == "interior_equal_q":
            th0 = th1 = float(self.theta)
        else:
            th0, th1 = float(self.theta0), float(self.theta1)
        return (SpaceSpec(th0, self.q0, self.b0),
                SpaceSpec(th1, self.q1, self.b1))

    def label(self) -> str:
        extra = ""
        if self.kind == "interior_equal_q":
            extra = f", theta={self.theta:g}"
        if self.kind == "nonlimiting":
            extra = f", theta0={self.theta0:g}, theta1={self.theta1:g}"
        return (f"{self.kind}[q0={self.q0:g}, b0={self.b0.to_text()}, "
                f"q1={self.q1:g}, b1={self.b1.to_text()}{extra}]")


def _flip_reduced(case: HolmstedtCase) -> HolmstedtCase:
    """The limiting00 case equivalent to a limiting11 case under t -> 1/t."""
    return HolmstedtCase("limiting00", q0=case.q1, q1=case.q0,
                         b0=Flip(case.b1), b1=Flip(case.b0))


def _index_kind(case: HolmstedtCase) -> str:
    """The index of a limiting case: rho for limiting00, eta for limiting11."""
    return "rho" if case.kind == "limiting00" else "eta"


def index_value(case: HolmstedtCase, t: float) -> Optional[float]:
    """The argument s at which the outer K-functional is evaluated."""
    if case.kind in ("limiting00", "limiting11"):
        return index(t, _index_kind(case), case.q0, case.b0,
                     case.q1, case.b1).value
    ratio = case.b0(t) / case.b1(t)
    if case.kind == "interior_equal_q":
        return ratio
    return t ** (case.theta1 - case.theta0) * ratio


# ---------------------------------------------------------------------------
# Right-hand sides
# ---------------------------------------------------------------------------

def rhs_formula(case: HolmstedtCase, f: KProfile, t: float) -> float:
    """The Holmstedt right-hand side I + s J of the given case at t."""
    if f.curve.is_zero():
        return 0.0
    s = index_value(case, t)
    if s is None:
        raise ValueError(f"index undefined at t={t!r}")
    return _rhs(case.spaces(), f, t, s)


def _rhs(spaces: tuple[SpaceSpec, SpaceSpec], f: KProfile, t: float,
         s: float) -> float:
    """I + s J at t, with I = ||f||_{X0} over (0, t) and J = ||f||_{X1}
    over (t, inf) for the case's ``spaces`` (X0, X1), and an index value s
    the caller already has."""
    X0, X1 = spaces
    return space_norm(f, X0, 0.0, t) + s * space_norm(f, X1, t, _INF)


# ---------------------------------------------------------------------------
# Truncation-family decomposition infimum
# ---------------------------------------------------------------------------

LAMBDA_GRID_POINTS = 32
PLATEAU_RTOL = 1e-4


class DecompositionTable:
    """Cached piece norms N0(lam), N1(lam) for one profile and one space pair.

    The objective N0(lam) + s*N1(lam) is then a vector operation per scan row,
    and the golden-section refinement memoizes any extra levels it probes.
    The levels share segments whose terms differ only in ``coef``, so inside
    a scan (see :func:`equivalence_scan`) each such integral is computed
    once.
    """

    def __init__(self, f: Rearrangement, X0: SpaceSpec, X1: SpaceSpec):
        self.f = f
        self.X0 = X0
        self.X1 = X1
        K = K_from_rearrangement(f)
        self.norm_full_0 = space_norm(K, X0)
        self.norm_full_1 = space_norm(K, X1)
        self._memo: dict[float, tuple[float, float]] = {}
        levels = f.node_values()
        if levels:
            lo, hi = min(levels), max(levels)
            if hi > lo:
                grid = np.logspace(math.log10(lo), math.log10(hi),
                                   LAMBDA_GRID_POINTS)
                levels = sorted(set(levels) | {float(x) for x in grid})
        self.levels = [lam for lam in levels if lam > 0.0]
        for lam in self.levels:
            self.piece_norms(lam)

    def piece_norms(self, lam: float) -> tuple[float, float]:
        got = self._memo.get(lam)
        if got is not None:
            return got
        f0, f1 = truncation_split(self.f, lam)
        n0 = space_norm(K_from_rearrangement(f0), self.X0)
        n1 = space_norm(K_from_rearrangement(f1), self.X1)
        self._memo[lam] = (n0, n1)
        return n0, n1

    def objective(self, lam: float, s: float) -> float:
        n0, n1 = self.piece_norms(lam)
        return n0 + s * n1

    def best(self, s: float) -> float:
        if self.f.curve.is_zero():
            return 0.0
        objs = [self.objective(lam, s) for lam in self.levels]
        best = min([self.norm_full_0, s * self.norm_full_1] + objs)
        if not self.levels or best == _INF:
            return best
        i = int(np.argmin(objs))
        if 0 < i < len(self.levels) - 1 and math.isfinite(best):
            a = math.log(self.levels[i - 1])
            b = math.log(self.levels[i + 1])
            _, y = golden_min(lambda x: self.objective(math.exp(x), s), a, b,
                              rel_tol=PLATEAU_RTOL)
            best = min(best, y)
        return best


def _as_rearrangement(f) -> Rearrangement:
    if isinstance(f, Rearrangement):
        return f
    if isinstance(f, KProfile):
        return realize_rearrangement(f)
    raise TypeError("expected a KProfile or a Rearrangement")


def lhs_decomposition(case: HolmstedtCase, f, s: float,
                      table: Optional[DecompositionTable] = None) -> float:
    """inf over the truncation family of ||f0||_{X0} + s ||f1||_{X1}.

    For the upper-limiting frame the infimum is taken through the exact
    t -> 1/t conjugation; a ``table`` passed for that case must then belong
    to the reduced (flipped, slot-swapped) pair and the conjugate profile.
    """
    if s <= 0.0:
        raise ValueError("the evaluated index s must be positive")
    fr = _as_rearrangement(f)
    if fr.curve.is_zero():
        return 0.0
    if table is None:
        table = _decomposition_table(case, fr)
    if case.kind == "limiting11":
        return s * table.best(1.0 / s)
    return table.best(s)


def _decomposition_table(case: HolmstedtCase, fr: Rearrangement
                         ) -> DecompositionTable:
    """The table :func:`lhs_decomposition` reads; for limiting11 that of the
    reduced pair and the conjugate profile (the exact t -> 1/t reduction)."""
    if case.kind == "limiting11":
        conj = realize_rearrangement(conjugate_profile(K_from_rearrangement(fr)))
        return DecompositionTable(conj, *_flip_reduced(case).spaces())
    return DecompositionTable(fr, *case.spaces())


# ---------------------------------------------------------------------------
# Equivalence scans
# ---------------------------------------------------------------------------

class ScanRow(NamedTuple):
    """One row of a :class:`RatioReport`: the grid point ``t`` of a scan (a
    profile's label in a per-profile check), both sides and lhs / rhs."""

    t: Union[float, str]
    lhs: float
    rhs: float
    ratio: float


@dataclass
class RatioReport:
    """The rows of one lhs / rhs check, the rows it skipped (a side not in
    (0, inf)) and the notes of its hypothesis checks."""

    label: str = ""
    rows: list[ScanRow] = field(default_factory=list)
    skipped: int = 0
    notes: list[str] = field(default_factory=list)

    def add(self, t: Union[float, str], lhs: float, rhs: float) -> None:
        if 0.0 < lhs < _INF and 0.0 < rhs < _INF:
            self.rows.append(ScanRow(t, lhs, rhs, lhs / rhs))
        else:
            self.skipped += 1

    @property
    def ratio_min(self) -> float:
        return min((r.ratio for r in self.rows), default=_INF)

    @property
    def ratio_max(self) -> float:
        return max((r.ratio for r in self.rows), default=0.0)

    @property
    def variation(self) -> float:
        return self.ratio_max / self.ratio_min if self.rows else _INF


def _quasi_nondecreasing_note(vals, condition: str, name: str) -> str:
    """The note for grid values of ``name`` whose quasi-monotonicity constant
    is at most :data:`MONOTONE_THRESHOLD`; raises :class:`HypothesisError`
    for ``condition`` otherwise."""
    c = quasi_monotone_constant(vals)
    if c > MONOTONE_THRESHOLD:
        raise HypothesisError(condition, f"quasi-monotone constant {c:.3g}")
    return f"{name} quasi-nondecreasing (constant {c:.3g})"


def _index_note(case: HolmstedtCase) -> str:
    """The note of a limiting case's index (rho or eta) sampled on
    :data:`STANDARD_GRID`; raises :class:`HypothesisError` unless every
    sample is positive and finite and the samples are quasi-nondecreasing."""
    kind = _index_kind(case)
    vals = [index_value(case, float(t)) for t in STANDARD_GRID.points()]
    if any(v is None or not (0.0 < v < _INF) for v in vals):
        raise HypothesisError(f"{kind} positive and finite on the grid")
    return _quasi_nondecreasing_note(vals, f"{kind} increasing", kind)


def _eps_condition_note(case: HolmstedtCase) -> str:
    """The note of a limiting case's passing rho_eps or eta_eps condition;
    raises :class:`HypothesisError` when it fails."""
    kind = f"{_index_kind(case)}_eps"
    rep = check_condition_monotone_index(kind, case.q0, case.b0,
                                         case.q1, case.b1)
    if not rep.passed:
        raise HypothesisError(f"{kind} equivalent to a nondecreasing function",
                              f"best constant {rep.best_constant:.3g} over eps "
                              f"grid, threshold {rep.threshold:g}")
    return (f"{kind} passes at eps={rep.best_eps:g} "
            f"(constant {rep.best_constant:.3g})")


def verify_hypotheses(case: HolmstedtCase) -> list[str]:
    """Run the case's precondition checks; raises HypothesisError on failure."""
    notes: list[str] = []
    case.spaces()  # SV-class preconditions raise ValueError on their own
    if case.kind in ("limiting00", "limiting11"):
        notes.append(_index_note(case) if case.q0 == case.q1
                     else _eps_condition_note(case))
    elif case.kind == "interior_equal_q":
        ratio = [case.b0(float(t)) / case.b1(float(t))
                 for t in STANDARD_GRID.points()]
        notes.append(_quasi_nondecreasing_note(ratio, "b0/b1 nondecreasing",
                                              "b0/b1"))
    return notes


def equivalence_scan(case: HolmstedtCase, f, t_grid: GridSpec = SCAN_GRID
                     ) -> RatioReport:
    """Scan lhs/rhs over the t grid after verifying the case hypotheses.

    The scan runs in one :func:`kinterp.quadrature.term_memo` scope, shared
    by the hypothesis checks, the index at every row, the decomposition table
    and the right-hand sides, so each distinct integral of the scan is
    computed once; the rows are bit-identical to ``lhs_decomposition`` and
    ``rhs_formula`` called outside a scope.
    """
    with term_memo():
        notes = verify_hypotheses(case)
        fr = _as_rearrangement(f)
        report = RatioReport(case.label(), notes=notes)
        table = _decomposition_table(case, fr)
        profile = K_from_rearrangement(table.f)
        spaces = case.spaces()
        if case.kind == "limiting11":
            red = _flip_reduced(case)
            report.notes.append("computed through the t -> 1/t symmetry")
        for t in t_grid.points():
            t = float(t)
            s = index_value(case, t)
            if s is None or not (0.0 < s < _INF):
                report.skipped += 1
                continue
            lhs = lhs_decomposition(case, fr, s, table)
            if case.kind == "limiting11":
                rhs = s * rhs_formula(red, profile, 1.0 / t)
            else:
                rhs = _rhs(spaces, profile, t, s)
            report.add(t, lhs, rhs)
    return report


# ---------------------------------------------------------------------------
# Nonexistence demo (equal interior theta, different q)
# ---------------------------------------------------------------------------

@dataclass
class NegativeDemoReport:
    theta: float
    r_exponent: float
    swapped: bool
    rows: list[tuple[float, float, float, float]]  # (t, head_bound, upper_bound, M)
    verdict: str
    growth_ratio: float
    monotone_decades: float
    note: str

    @property
    def confirmed(self) -> bool:
        return self.verdict == "nonexistence confirmed"


def _demo_setup(q0: float, q1: float, b0: WeightExpr, b1: WeightExpr
                ) -> tuple[float, WeightExpr, bool]:
    """(r, g, swapped) of the demo: the roles of the two spaces swap when
    q0 > q1, then r = q0 q1 / (q1 - q0) and g = b0 / b1."""
    if q0 == q1:
        raise ValueError("the demo needs q0 != q1")
    swapped = q0 > q1
    if swapped:
        q0, q1, b0, b1 = q1, q0, b1, b0
    return q0 * q1 / (q1 - q0), Product(b0, Power(b1, -1.0)), swapped


def _demo_row(r: float, g: WeightExpr, t: float) -> tuple[float, ...]:
    """(t, head bound, upper bound g(t), M(t)), M = +inf with the head bound.
    Raises IntegralOverflowError where g(t) > 0 underflows to 0."""
    head, upper = head_qnorm(g, r, t), g(t)
    if upper == 0.0 and head != _INF:
        raise IntegralOverflowError(
            f"M(t) at t={t!r} exceeds the float range: g(t) underflows to 0")
    return t, head, upper, head / upper if head != _INF else _INF


def incompatibility_M(q0: float, q1: float, b0: WeightExpr, b1: WeightExpr,
                      t: float) -> float:
    """One value of the incompatibility quotient M(t) (role swap included)."""
    r, g, _ = _demo_setup(q0, q1, b0, b1)
    return _demo_row(r, g, t)[3]


def negative_demo(theta: float, q0: float, q1: float,
                  b0: WeightExpr, b1: WeightExpr,
                  t_grid: GridSpec = SCAN_GRID) -> NegativeDemoReport:
    """Incompatibility table M(t) for equal interior theta with q0 != q1.

    M(t) = (int_0^t (g(s))^r ds/s)^{1/r} / g(t) with g = b0/b1 and
    r = q0 q1 / (q1 - q0) when q0 < q1 (roles of the two spaces swap
    otherwise).  Both quantities bound the same hypothetical scaling function
    from opposite sides, so M staying bounded is necessary for a two-sided
    formula; unbounded growth toward t -> 0+ confirms nonexistence.  The head
    bound is implemented in its positive-exponent form r > 0.
    """
    if not (0.0 < theta < 1.0):
        raise ValueError("theta must lie in (0, 1)")
    r, g, swapped = _demo_setup(q0, q1, b0, b1)
    rows = [_demo_row(r, g, float(t)) for t in t_grid.points()]
    ms = [row[3] for row in rows]
    if any(m == _INF for m in ms):
        verdict = "nonexistence confirmed"
        growth, decades = _INF, _INF
    else:
        mid = len(rows) // 2
        decades = math.log10(rows[mid][0] / rows[0][0])
        monotone = all(ms[i] >= ms[i + 1] * (1.0 - 1e-9) for i in range(mid))
        growth = ms[0] / ms[mid] if ms[mid] > 0.0 else _INF
        ok = monotone and decades >= 6.0 - 1e-9 and growth >= 3.0
        verdict = "nonexistence confirmed" if ok else "inconclusive"
    note = ("head bound taken in its positive-exponent form "
            f"r = q0*q1/|q1-q0| = {r:g}; the sign-flipped variant of this "
            "bound is inconsistent with the windowed tail-quotient "
            "criterion and is not used")
    if swapped:
        note += "; roles of the two spaces were swapped (q0 > q1)"
    return NegativeDemoReport(theta=theta, r_exponent=r, swapped=swapped,
                              rows=rows, verdict=verdict, growth_ratio=growth,
                              monotone_decades=decades, note=note)
