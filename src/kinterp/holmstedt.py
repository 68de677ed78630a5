"""Two-sided Holmstedt-type scans and the equal-theta nonexistence demo.

The left-hand side is the decomposition infimum over the truncation family on
the couple (L1, Linf): for each level lam the split f = (f*-lam)_+ + min(f*,lam)
realizes a near-optimal decomposition, so

    lhs(s) = inf_lam ||f0(lam)||_{X0} + s ||f1(lam)||_{X1}

(together with the two trivial decompositions) is an upper bound for the true
K-functional that the scanned equivalences bound from below.  Reports label this
quantity the truncation K-functional.

The right-hand side I + s J is read in each case's own frame, theta0 =
theta1 = 1 included (:func:`~kinterp.norms.sweep_partials`).  Only the
left-hand side of that frame goes through the substitution t -> 1/t, which
swaps the couple and conjugates the profile (K(t) -> t K(1/t)); the
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
    index_limit,
    index_samples,
    quasi_monotone_constant,
    segments_norm,
    space_norm,
    sweep_partials,
)
from .profiles import (
    KProfile,
    K_from_rearrangement,
    Rearrangement,
    TruncationLevels,
    conjugate_profile,
    realize_rearrangement,
)
from .quadrature import (GridSpec, IntegralOverflowError, SCAN_GRID,
                         STANDARD_GRID, golden_min, leading_exponent,
                         term_memo)
from .weights import Flip, Power, Product, WeightExpr, head_qnorm

__all__ = [
    "HolmstedtCase",
    "HypothesisError",
    "ScanRow",
    "RatioReport",
    "DecompositionTable",
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
    """The Holmstedt right-hand side I + s J of the given case at t, with
    I = ||f||_{X0} over (0, t) and J = ||f||_{X1} over (t, inf) read from
    :func:`~kinterp.norms.sweep_partials` at the one point t.  A t outside
    (0, inf) or an undefined index raises :class:`ValueError`, also for the
    zero profile, whose right-hand side is 0 elsewhere."""
    s = index_value(case, t)
    if s is None:
        raise ValueError(f"index undefined at t={t!r}")
    if f.curve.is_zero():
        return 0.0
    (I,), (J,) = sweep_partials(f, *case.spaces(), [t])
    return I + s * J


# ---------------------------------------------------------------------------
# Truncation-family decomposition infimum
# ---------------------------------------------------------------------------

LAMBDA_GRID_POINTS = 32
PLATEAU_RTOL = 1e-4


class DecompositionTable:
    """The piece norms N0(lam) = ||f0(lam)||_{X0} and N1(lam) =
    ||f1(lam)||_{X1} of the truncation family of one profile on one space
    pair, at every level of a fixed set, and the infimum over lam of
    N0 + s N1 for a given s (:meth:`best`).

    The levels are f*'s node values and :data:`LAMBDA_GRID_POINTS`
    log-spaced ones between the smallest and the largest; both norms are
    computed at each when the table is built.  :meth:`best` takes the
    minimum over them in a Python loop, then runs a golden section between
    the neighbours of the argmin to :data:`PLATEAU_RTOL`, and the norms of
    each level it probes are memoized.  Each level's K0 and K1 are read from
    K's own segments cut at the crossing point (:class:`TruncationLevels`),
    with no curve built; the levels share segments whose terms differ only
    in ``coef``, so inside a scan (see :func:`equivalence_scan`) each such
    integral is computed once.
    """

    def __init__(self, f: Rearrangement, X0: SpaceSpec, X1: SpaceSpec):
        self.f = f
        self.X0 = X0
        self.X1 = X1
        K = K_from_rearrangement(f)
        self.norm_full_0 = space_norm(K, X0)
        self.norm_full_1 = space_norm(K, X1)
        self._truncations = TruncationLevels(f)
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
        segs0, segs1 = self._truncations.split(lam)
        n0 = segments_norm(segs0, self.X0.theta, self.X0.q, self.X0.b)
        n1 = segments_norm(segs1, self.X1.theta, self.X1.q, self.X1.b)
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
    reduced pair, the limiting00 case of the flipped weights with the slots
    swapped, and the conjugate profile (the exact t -> 1/t reduction)."""
    if case.kind == "limiting11":
        conj = realize_rearrangement(conjugate_profile(K_from_rearrangement(fr)))
        reduced = HolmstedtCase("limiting00", q0=case.q1, q1=case.q0,
                                b0=Flip(case.b1), b1=Flip(case.b0))
        return DecompositionTable(conj, *reduced.spaces())
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


def _check_ends(condition: str, at_zero: float, at_inf: float) -> None:
    """Raise :class:`HypothesisError` for ``condition``, a function being
    quasi-nondecreasing, when it tends to 0 toward inf or to inf toward 0+:
    ``at_inf`` < 0 or ``at_zero`` > 0, the signs of its ends' exponents."""
    if at_inf < 0.0:
        raise HypothesisError(condition, "it tends to 0 toward inf")
    if at_zero > 0.0:
        raise HypothesisError(condition, "it tends to inf toward 0+")


def _index_note(case: HolmstedtCase) -> str:
    """The note of a limiting case's index (rho or eta) sampled on
    :data:`STANDARD_GRID` in one pass per side
    (:func:`~kinterp.norms.index_samples`); raises :class:`HypothesisError`
    unless every sample is positive and finite, its exact ends allow it to
    increase (:func:`~kinterp.norms.index_limit`, for q0 and q1 finite) and
    the samples are quasi-nondecreasing."""
    kind = _index_kind(case)
    vals = [p.value for p in index_samples(kind, case.q0, case.b0, case.q1,
                                           case.b1,
                                           STANDARD_GRID.points().tolist())]
    if any(v is None or not (0.0 < v < _INF) for v in vals):
        raise HypothesisError(f"{kind} positive and finite on the grid")
    if case.q0 < _INF and case.q1 < _INF:
        _check_ends(f"{kind} increasing", *(
            index_limit(kind, case.q0, case.b0, case.q1, case.b1, end)
            for end in ("zero", "inf")))
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
        _check_ends("b0/b1 nondecreasing", *(
            leading_exponent(0.0, f.beta, f.gammas) for f in
            Product(case.b0, Power(case.b1, -1.0)).side_forms()))
        ratio = [case.b0(float(t)) / case.b1(float(t))
                 for t in STANDARD_GRID.points()]
        notes.append(_quasi_nondecreasing_note(ratio, "b0/b1 nondecreasing",
                                              "b0/b1"))
    return notes


def equivalence_scan(case: HolmstedtCase, f, t_grid: GridSpec = SCAN_GRID
                     ) -> RatioReport:
    """Scan lhs/rhs over the t grid after verifying the case hypotheses.

    The scan runs in one :func:`kinterp.quadrature.term_memo` scope, shared
    by the hypothesis checks, the index at every row, the decomposition
    table and the right-hand sides, so each distinct integral of the scan
    is computed once.  The partials I and J of every row, of every case
    kind, come from one sweep over the grid in the case's own frame
    (:func:`~kinterp.norms.sweep_partials`), as :func:`rhs_formula` reads
    them, and the rhs is I + s J; the sweep also visits the rows that are
    skipped, so an error it raises ends the scan.  The lhs are those of
    ``lhs_decomposition`` called outside a scope (for limiting11 through
    the exact t -> 1/t reduction), the rhs those of ``rhs_formula``, the
    sweep at one point, to 1e-13 relative.
    """
    with term_memo():
        notes = verify_hypotheses(case)
        fr = _as_rearrangement(f)
        report = RatioReport(case.label(), notes=notes)
        table = _decomposition_table(case, fr)
        if case.kind == "limiting11":
            report.notes.append("lhs computed through the t -> 1/t symmetry")
        ts = [float(t) for t in t_grid.points()]
        I, J = sweep_partials(K_from_rearrangement(fr), *case.spaces(), ts)
        for i, t in enumerate(ts):
            s = index_value(case, t)
            if s is None or not (0.0 < s < _INF):
                report.skipped += 1
                continue
            lhs = lhs_decomposition(case, fr, s, table)
            report.add(t, lhs, I[i] + s * J[i])
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
    q0 > q1, then r = q0 q1 / (q1 - q0), its limit q0 when q1 = inf, and
    g = b0 / b1."""
    if q0 == q1:
        raise ValueError("the demo needs q0 != q1")
    swapped = q0 > q1
    if swapped:
        q0, q1, b0, b1 = q1, q0, b1, b0
    r = q0 if q1 == _INF else q0 * q1 / (q1 - q0)
    return r, Product(b0, Power(b1, -1.0)), swapped


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
    formula.  The verdict is "nonexistence confirmed" for every weight pair:
    an infinite head makes M = inf, and a finite one makes M grow toward 0+
    like x^(1/r), x = ln(1/t), or like x^((1 - alpha)/r) when a stretched
    term x^alpha leads (Bingham-Goldie-Teugels Prop 1.5.9b).  The rows,
    ``growth_ratio`` (M at the first row over M at the middle one) and
    ``monotone_decades`` (the decades between them) are its evidence.  The
    head bound is implemented in its positive-exponent form r > 0.
    """
    if not (0.0 < theta < 1.0):
        raise ValueError("theta must lie in (0, 1)")
    r, g, swapped = _demo_setup(q0, q1, b0, b1)
    rows = [_demo_row(r, g, float(t)) for t in t_grid.points()]
    ms = [row[3] for row in rows]
    if any(m == _INF for m in ms):
        growth, decades = _INF, _INF
    else:
        mid = len(rows) // 2
        decades = math.log10(rows[mid][0] / rows[0][0])
        growth = ms[0] / ms[mid] if ms[mid] > 0.0 else _INF
    note = ("head bound taken in its positive-exponent form "
            f"r = q0*q1/|q1-q0| = {r:g}; the sign-flipped variant of this "
            "bound is inconsistent with the windowed tail-quotient "
            "criterion and is not used")
    if swapped:
        note += "; roles of the two spaces were swapped (q0 > q1)"
    return NegativeDemoReport(theta=theta, r_exponent=r, swapped=swapped,
                              rows=rows, verdict="nonexistence confirmed",
                              growth_ratio=growth,
                              monotone_decades=decades, note=note)
