"""Quasi-concave K-profiles and nonincreasing rearrangements on (0, inf).

Both kinds of object are piecewise sums of atoms  c * t^p * L(t)^beta  with
L(t) = 1 - ln t on (0,1] and 1 + ln t on [1,inf); a breakpoint at t = 1 is
inserted whenever a log factor is present.  The family is closed under the
operations the rest of the package needs: scaling, differentiation,
truncation at a level, the conjugate transform K(t) -> t K(1/t), and (for the
combinations that admit one) exact antiderivatives.  Rearrangements remember
the exact integral curve of their K-functional whenever it is known, so the
round trip rearrangement <-> profile is exact rather than quadrature-based.

Profile literals accepted by :func:`parse_profile`:

    min1 | power(theta) | powerlog(theta,a0,aInf) | piecewise[(t,k),...]
"""

from __future__ import annotations

import bisect
import math
from dataclasses import dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .quadrature import GridSpec

__all__ = [
    "Atom",
    "PiecewiseCurve",
    "CurveClosureError",
    "KProfile",
    "Rearrangement",
    "QuasiConcavityReport",
    "parse_profile",
    "check_quasiconcave",
    "K_from_rearrangement",
    "realize_rearrangement",
    "truncation_split",
    "conjugate_profile",
    "profile_suite",
    "random_rearrangement",
]

_INF = math.inf

#: where :func:`check_quasiconcave` samples, besides its segment probes
QUASICONCAVE_GRID = GridSpec(1e-8, 1e8, 8)
#: where a rearrangement is checked nonnegative and nonincreasing (with probes)
REARRANGEMENT_PROBES = np.logspace(-9, 9, 37).tolist()


class CurveClosureError(ValueError):
    """The requested operation leaves the closed piecewise power-log family."""


# ---------------------------------------------------------------------------
# Atoms and curves
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class Atom:
    coef: float
    power: float
    logexp: float = 0.0

    def scaled(self, c: float) -> "Atom":
        return Atom(self.coef * c, self.power, self.logexp)


def _atom_eval(atom: Atom, t: float) -> float:
    val = atom.coef * t ** atom.power
    if atom.logexp != 0.0:
        L = 1.0 - math.log(t) if t <= 1.0 else 1.0 + math.log(t)
        val *= L ** atom.logexp
    return val


def _merge_atoms(atoms: Iterable[Atom]) -> tuple[Atom, ...]:
    acc: dict[tuple[float, float], float] = {}
    for a in atoms:
        key = (a.power, a.logexp)
        acc[key] = acc.get(key, 0.0) + a.coef
    merged = [Atom(c, p, b) for (p, b), c in acc.items() if c != 0.0]
    merged.sort(key=lambda a: (a.power, a.logexp))
    return tuple(merged)


class PiecewiseCurve:
    """Finite atom sums between breakpoints 0 < b_1 < ... < b_m < inf."""

    __slots__ = ("breaks", "pieces")

    def __init__(self, breaks: Sequence[float], pieces: Sequence[Sequence[Atom]]):
        breaks = [float(b) for b in breaks]
        if any(b <= 0.0 or not math.isfinite(b) for b in breaks):
            raise ValueError("breakpoints must be positive and finite")
        if sorted(breaks) != breaks:
            raise ValueError("breakpoints must be ascending")
        if len(pieces) != len(breaks) + 1:
            raise ValueError("need exactly len(breaks)+1 pieces")
        pieces = [_merge_atoms(p) for p in pieces]
        # log atoms must not straddle t = 1
        if any(a.logexp != 0.0 for p in pieces for a in p) and 1.0 not in breaks:
            lo = [i for i, b in enumerate(breaks) if b < 1.0]
            idx = (lo[-1] + 1) if lo else 0
            breaks.insert(idx, 1.0)
            pieces.insert(idx, pieces[idx])
        self.breaks = tuple(breaks)
        self.pieces = tuple(pieces)

    # -- basics ------------------------------------------------------------

    @staticmethod
    def zero() -> "PiecewiseCurve":
        return PiecewiseCurve((), ((),))

    def is_zero(self) -> bool:
        return all(not p for p in self.pieces)

    def piece_index(self, t: float) -> int:
        """The index of the piece holding t: the count of breaks below t."""
        return bisect.bisect_left(self.breaks, t)

    def segments(self) -> Iterator[tuple[float, float, tuple[Atom, ...]]]:
        """(lo, hi, piece) of each piece, from lo = 0 to hi = inf.  A piece
        with a log atom lies on one side of 1, the lower one when hi <= 1."""
        edges = (0.0,) + self.breaks + (_INF,)
        return zip(edges[:-1], edges[1:], self.pieces)

    def __call__(self, t) -> float:
        t = float(t)
        if not (t > 0.0):
            raise ValueError("curves are defined on (0, inf)")
        piece = self.pieces[self.piece_index(t)]
        return math.fsum(_atom_eval(a, t) for a in piece) if piece else 0.0

    # -- algebra -----------------------------------------------------------

    def scale(self, c: float) -> "PiecewiseCurve":
        if c == 0.0:
            return PiecewiseCurve.zero()
        return PiecewiseCurve(self.breaks,
                              [tuple(a.scaled(c) for a in p) for p in self.pieces])

    # -- calculus ----------------------------------------------------------

    def derivative(self) -> "PiecewiseCurve":
        new_pieces = []
        for _, hi, piece in self.segments():
            on_lo_side = hi <= 1.0
            atoms: list[Atom] = []
            for a in piece:
                atoms.append(Atom(a.coef * a.power, a.power - 1.0, a.logexp))
                if a.logexp != 0.0:
                    sgn = -1.0 if on_lo_side else 1.0
                    atoms.append(Atom(sgn * a.coef * a.logexp, a.power - 1.0,
                                      a.logexp - 1.0))
            new_pieces.append(tuple(atoms))
        return PiecewiseCurve(self.breaks, new_pieces)

    def _piece_antiderivative(self, piece: Sequence[Atom], on_lo_side: bool
                              ) -> tuple[Atom, ...]:
        atoms: list[Atom] = []
        for a in piece:
            if a.logexp == 0.0:
                if a.power == -1.0:
                    # int c/u du = c ln u = +-c (L - 1)
                    sgn = -1.0 if on_lo_side else 1.0
                    atoms.append(Atom(sgn * a.coef, 0.0, 1.0))
                    atoms.append(Atom(-sgn * a.coef, 0.0, 0.0))
                else:
                    atoms.append(Atom(a.coef / (a.power + 1.0), a.power + 1.0))
            elif a.power == -1.0:
                if a.logexp == -1.0:
                    raise CurveClosureError(
                        "antiderivative of u^-1 L^-1 is a log-log, not an atom")
                sgn = -1.0 if on_lo_side else 1.0
                atoms.append(Atom(sgn * a.coef / (a.logexp + 1.0), 0.0,
                                  a.logexp + 1.0))
            else:
                raise CurveClosureError(
                    "atoms mixing a power and a log factor have no atomic "
                    "antiderivative")
        return tuple(atoms)

    def antiderivative(self) -> "PiecewiseCurve":
        """F with F(t) = int_0^t curve, requiring closed-form pieces.

        Raises :class:`CurveClosureError` when a piece leaves the family and
        ValueError when the curve is not integrable at 0.
        """
        first = self.pieces[0]
        for a in first:
            ok = a.power > -1.0 and a.logexp == 0.0
            ok = ok or (a.power == -1.0 and a.logexp < -1.0)
            if not ok:
                if a.power < -1.0 or (a.power == -1.0 and a.logexp >= -1.0):
                    raise ValueError("curve is not integrable at 0")
                raise CurveClosureError(
                    "leading piece has no atomic antiderivative vanishing at 0")
        # c/u integrates to +-c ln u, a log atom whose sign depends on the side
        curve = self.split_at(1.0) if any(a.power == -1.0 for p in self.pieces
                                          for a in p) else self
        new_pieces = []
        for b, hi, piece in curve.segments():
            F = self._piece_antiderivative(piece, hi <= 1.0)
            if new_pieces:
                left_val = math.fsum(_atom_eval(a, b) for a in new_pieces[-1]) \
                    if new_pieces[-1] else 0.0
                here_val = math.fsum(_atom_eval(a, b) for a in F) if F else 0.0
                shift = left_val - here_val
                F += (Atom(shift, 0.0),) if shift != 0.0 else ()
            new_pieces.append(F)
        return PiecewiseCurve(curve.breaks, new_pieces)

    # -- support helpers ----------------------------------------------------

    def split_at(self, t: float) -> "PiecewiseCurve":
        """Same curve with an explicit breakpoint at t."""
        if t in self.breaks or t <= 0.0 or not math.isfinite(t):
            return self
        i = self.piece_index(t)
        breaks = list(self.breaks)
        pieces = list(self.pieces)
        breaks.insert(i, t)
        pieces.insert(i, pieces[i])
        return PiecewiseCurve(breaks, pieces)


def _segment_probe(breaks: Sequence[float], i: int) -> float:
    """A point strictly inside segment i of the given breakpoints."""
    if not breaks:
        return 1.0
    if i == 0:
        return breaks[0] / 2.0
    if i == len(breaks):
        return breaks[-1] * 2.0
    return math.sqrt(breaks[i - 1] * breaks[i])


def _probe_points(breaks: Sequence[float], rel: float) -> list[float]:
    """A point inside each segment of the breakpoints, and the points a
    relative ``rel`` below and above each breakpoint."""
    pts = [_segment_probe(breaks, i) for i in range(len(breaks) + 1)]
    for b in breaks:
        pts.extend((b * (1.0 - rel), b * (1.0 + rel)))
    return pts


# ---------------------------------------------------------------------------
# K-profiles
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class QuasiConcavityReport:
    ok: bool
    violation: Optional[str] = None
    location: Optional[float] = None


class KProfile:
    """Quasi-concave profile t -> K(t): nondecreasing with K(t)/t nonincreasing."""

    __slots__ = ("curve", "label")

    def __init__(self, curve: PiecewiseCurve, label: str = "profile"):
        self.curve = curve
        self.label = label

    def __call__(self, t) -> float:
        return self.curve(t)

    def __repr__(self) -> str:
        return f"KProfile({self.label!r})"

    def scale(self, c: float) -> "KProfile":
        if c < 0.0:
            raise ValueError("profiles scale by positive constants")
        return KProfile(self.curve.scale(c), f"{c}*{self.label}")

    # constructors ----------------------------------------------------------

    @staticmethod
    def zero() -> "KProfile":
        return KProfile(PiecewiseCurve.zero(), "0")

    @staticmethod
    def min1() -> "KProfile":
        curve = PiecewiseCurve((1.0,), ((Atom(1.0, 1.0),), (Atom(1.0, 0.0),)))
        return KProfile(curve, "min1")

    @staticmethod
    def power(theta: float, coef: float = 1.0) -> "KProfile":
        if not 0.0 <= theta <= 1.0:
            raise ValueError("power profile exponent must lie in [0, 1]")
        return KProfile(PiecewiseCurve((), ((Atom(coef, theta),),)),
                        f"power({theta})")

    @staticmethod
    def powerlog(theta: float, a0: float, a_inf: float) -> "KProfile":
        if not 0.0 <= theta <= 1.0:
            raise ValueError("powerlog profile exponent must lie in [0, 1]")
        if not (math.isfinite(a0) and math.isfinite(a_inf)):
            raise ValueError("powerlog log exponents must be finite")
        curve = PiecewiseCurve((1.0,), ((Atom(1.0, theta, a0),),
                                        (Atom(1.0, theta, a_inf),)))
        return KProfile(curve, f"powerlog({theta},{a0},{a_inf})")

    @staticmethod
    def from_nodes(pairs: Sequence[tuple[float, float]]) -> "KProfile":
        """Piecewise-affine profile through (t_i, k_i); linear left tail through
        the origin, constant right tail."""
        pts = sorted((float(t), float(k)) for t, k in pairs)
        if not pts or not all(0.0 < t < _INF and 0.0 < k < _INF for t, k in pts):
            raise ValueError("nodes must be positive and finite")
        breaks = [t for t, _ in pts]
        pieces: list[tuple[Atom, ...]] = [(Atom(pts[0][1] / pts[0][0], 1.0),)]
        for (t0, k0), (t1, k1) in zip(pts[:-1], pts[1:]):
            slope = (k1 - k0) / (t1 - t0)
            pieces.append(_merge_atoms((Atom(k0 - slope * t0, 0.0),
                                        Atom(slope, 1.0))))
        pieces.append((Atom(pts[-1][1], 0.0),))
        return KProfile(PiecewiseCurve(breaks, pieces),
                        "piecewise[" + ",".join(f"({t:g},{k:g})" for t, k in pts) + "]")


def check_quasiconcave(k: KProfile) -> QuasiConcavityReport:
    """Verify K nondecreasing and K(t)/t nonincreasing at nodes and samples."""
    curve = k.curve
    if curve.is_zero():
        return QuasiConcavityReport(True)
    deriv = curve.derivative()
    samples = (list(QUASICONCAVE_GRID.points())
               + _probe_points(curve.breaks, 1e-9))
    samples = sorted(set(s for s in samples if s > 0.0))
    tol = 1e-12
    prev_t, prev_v = None, None
    for t in samples:
        v = curve(t)
        if v < -tol:
            return QuasiConcavityReport(False, "negative value", t)
        d = deriv(t)
        scale = max(abs(v), abs(d) * t, 1e-300)
        if d * t < -tol * scale:
            return QuasiConcavityReport(False, "decreasing segment", t)
        if d * t - v > tol * scale:
            return QuasiConcavityReport(False, "K(t)/t increasing", t)
        if prev_v is not None:
            scale = max(prev_v, v, 1e-300)
            if v < prev_v * (1.0 - 1e-12):
                return QuasiConcavityReport(False, "decreasing across nodes", t)
            if v / t > (prev_v / prev_t) * (1.0 + 1e-12):
                return QuasiConcavityReport(False, "K(t)/t increasing across nodes", t)
        prev_t, prev_v = t, v
    return QuasiConcavityReport(True)


# ---------------------------------------------------------------------------
# Rearrangements
# ---------------------------------------------------------------------------

class Rearrangement:
    """Nonincreasing nonnegative representative f* on (0, inf).

    ``integral_curve`` caches the exact curve of t -> int_0^t f*(u) du when it
    is known by construction.
    """

    __slots__ = ("curve", "integral_curve", "label")

    def __init__(self, curve: PiecewiseCurve,
                 integral_curve: Optional[PiecewiseCurve] = None,
                 label: str = "f*", validate: bool = True):
        self.curve = curve
        self.integral_curve = integral_curve
        self.label = label
        if validate:
            self._validate()

    def _validate(self) -> None:
        t = _first_rise(self.curve)
        if t is not None:
            what = "negative" if self.curve(t) < -1e-12 else "increases"
            raise ValueError(f"rearrangement {what} at t={t!r}")

    def __call__(self, t) -> float:
        return self.curve(t)

    def __repr__(self) -> str:
        return f"Rearrangement({self.label!r})"

    def scale(self, c: float) -> "Rearrangement":
        if c < 0.0:
            raise ValueError("rearrangements scale by positive constants")
        integral = self.integral_curve.scale(c) if self.integral_curve else None
        return Rearrangement(self.curve.scale(c), integral,
                             f"{c}*{self.label}", validate=False)

    def node_values(self) -> list[float]:
        """Distinct positive values of f* at segment probes and break limits."""
        vals = {self.curve(t) for t in
                _probe_points(self.curve.breaks, 1e-12) + [1e-10, 1e10]}
        return sorted(v for v in vals if v > 0.0 and math.isfinite(v))

    # constructors ----------------------------------------------------------

    @staticmethod
    def zero() -> "Rearrangement":
        return Rearrangement(PiecewiseCurve.zero(), PiecewiseCurve.zero(), "0",
                             validate=False)

    @staticmethod
    def indicator(T: float = 1.0) -> "Rearrangement":
        curve = PiecewiseCurve((T,), ((Atom(1.0, 0.0),), ()))
        integral = PiecewiseCurve((T,), ((Atom(1.0, 1.0),),
                                         (Atom(float(T), 0.0),)))
        return Rearrangement(curve, integral, f"1.0*chi(0,{T})", validate=False)

    @staticmethod
    def staircase(breaks: Sequence[float], values: Sequence[float]
                  ) -> "Rearrangement":
        """Right-open staircase: values[i] on (breaks[i-1], breaks[i]], 0
        beyond the last break."""
        if len(values) != len(breaks):
            raise ValueError("need one value per break")
        pieces = [((Atom(v, 0.0),) if v != 0.0 else ()) for v in values]
        pieces.append(())
        curve = PiecewiseCurve(breaks, pieces)
        return Rearrangement(curve, curve.antiderivative(), "staircase")

    @staticmethod
    def power(gamma: float, coef: float = 1.0, support: float = _INF
              ) -> "Rearrangement":
        """f*(u) = coef * u^-gamma (0 <= gamma < 1), optionally cut at
        ``support``."""
        if not 0.0 <= gamma < 1.0:
            raise ValueError("power rearrangements need 0 <= gamma < 1")
        if support == _INF:
            curve = PiecewiseCurve((), ((Atom(coef, -gamma),),))
        else:
            curve = PiecewiseCurve((support,), ((Atom(coef, -gamma),), ()))
        return Rearrangement(curve, curve.antiderivative(),
                             f"{coef}*u^-{gamma}")


def K_from_rearrangement(f: Rearrangement) -> KProfile:
    """K(t) = int_0^t f*(u) du as an exact profile."""
    if f.curve.is_zero():
        return KProfile.zero()
    if f.integral_curve is not None:
        return KProfile(f.integral_curve, f"K[{f.label}]")
    return KProfile(f.curve.antiderivative(), f"K[{f.label}]")


def realize_rearrangement(phi: KProfile) -> Rearrangement:
    """A rearrangement whose (L1, Linf) K-functional reproduces the profile.

    Concave profiles differentiate exactly; quasi-concave but non-concave
    input goes through the least concave majorant (upper hull of the nodes in
    linear coordinates, which is exact for piecewise-affine profiles), so the
    output K-functional stays within the documented [1/2, 2] band.
    """
    report = check_quasiconcave(phi)
    if not report.ok:
        raise ValueError(f"profile is not quasi-concave: {report.violation} "
                         f"near t={report.location!r}")
    if phi.curve.is_zero():
        return Rearrangement.zero()
    deriv = phi.curve.derivative()
    if _vanishes_at_zero(phi.curve) and _first_rise(deriv) is None:
        return Rearrangement(deriv, phi.curve, f"d[{phi.label}]", validate=False)
    return _hull_realization(phi)


def _vanishes_at_zero(curve: PiecewiseCurve) -> bool:
    _, hi, first = next(curve.segments())
    on_lo = hi <= 1.0
    for a in first:
        if a.power < 0.0:
            return False
        if a.power == 0.0 and not (on_lo and a.logexp < 0.0):
            return False
    return True


def _first_rise(curve: PiecewiseCurve) -> Optional[float]:
    """The first probe t, in increasing order, where the curve is negative
    or above its value at the previous probe (beyond 1e-9 relative); None
    when the curve passes as nonnegative and nonincreasing."""
    pts = _probe_points(curve.breaks, 1e-9) + REARRANGEMENT_PROBES
    prev = None
    for t in sorted(set(pts)):
        v = curve(t)
        if v < -1e-12 or (prev is not None and v > prev * (1.0 + 1e-9) + 1e-300):
            return t
        prev = v
    return None


def _hull_realization(phi: KProfile) -> Rearrangement:
    curve = phi.curve
    ts: list[float] = list(curve.breaks)
    if not ts:
        ts = [1.0]
    lo = min(ts) * 1e-4
    hi = max(ts) * 1e4
    ts = sorted(set(ts) | set(np.logspace(math.log10(lo), math.log10(hi), 129)))
    pts = [(0.0, 0.0)] + [(t, curve(t)) for t in ts]
    hull: list[tuple[float, float]] = []
    for p in pts:  # upper hull, slopes strictly decreasing
        while len(hull) >= 2:
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            if (y2 - y1) * (p[0] - x2) <= (p[1] - y2) * (x2 - x1):
                hull.pop()
            else:
                break
        hull.append(p)
    breaks = [x for x, _ in hull[1:]]
    values: list[float] = []
    for (x1, y1), (x2, y2) in zip(hull[:-1], hull[1:]):
        values.append(max((y2 - y1) / (x2 - x1), 0.0))
    f_curve = PiecewiseCurve(breaks, [((Atom(v, 0.0),) if v > 0.0 else ())
                                      for v in values] + [()])
    return Rearrangement(f_curve, f_curve.antiderivative(),
                         f"hull[{phi.label}]", validate=False)


# ---------------------------------------------------------------------------
# Truncation
# ---------------------------------------------------------------------------

def _crossing_point(f: Rearrangement, lam: float) -> float:
    """Largest t with f*(t) >= lam (0 when f* < lam everywhere, inf when
    f* >= lam everywhere)."""
    curve = f.curve
    probes = [1e-12] + list(curve.breaks) + [max(list(curve.breaks) or [1.0]) * 1e12]
    prev_t = probes[0]
    if curve(prev_t) < lam:
        return 0.0
    for t in probes[1:]:
        v = curve(t * (1.0 - 1e-15))
        v_right = curve(t * (1.0 + 1e-15)) if t < probes[-1] else v
        if v >= lam and v_right < lam:
            return t
        if v < lam:
            lo_t, hi_t = prev_t, t
            break
        prev_t = t
    else:
        return _INF
    # single pure-power atom pieces solve exactly
    piece = curve.pieces[curve.piece_index(math.sqrt(lo_t * hi_t))]
    if len(piece) == 1 and piece[0].logexp == 0.0 and piece[0].power != 0.0:
        a = piece[0]
        return (lam / a.coef) ** (1.0 / a.power)
    x_lo, x_hi = math.log(lo_t), math.log(hi_t)
    for _ in range(200):
        m = 0.5 * (x_lo + x_hi)
        if m == x_lo or m == x_hi:  # the bracket is one ulp wide; m is the answer
            break
        if curve(math.exp(m)) >= lam:
            x_lo = m
        else:
            x_hi = m
        if x_hi - x_lo < 1e-15:
            break
    return math.exp(0.5 * (x_lo + x_hi))


def truncation_split(f: Rearrangement, lam: float
                     ) -> tuple[Rearrangement, Rearrangement]:
    """(f0, f1) with f1 = min(f*, lam) and f0 = (f* - lam)_+ , exactly additive."""
    if lam <= 0.0:
        raise ValueError("truncation level must be positive")
    if f.curve.is_zero():
        return Rearrangement.zero(), Rearrangement.zero()
    t_cross = _crossing_point(f, lam)
    K = f.integral_curve if f.integral_curve is not None \
        else f.curve.antiderivative()
    if t_cross == 0.0:
        return Rearrangement.zero(), Rearrangement(f.curve, K, f.label,
                                                   validate=False)
    if t_cross == _INF:
        f0c = PiecewiseCurve(f.curve.breaks, [tuple(p) + (Atom(-lam, 0.0),)
                                              for p in f.curve.pieces])
        K0 = PiecewiseCurve(K.breaks, [tuple(p) + (Atom(-lam, 1.0),)
                                       for p in K.pieces])
        return (Rearrangement(f0c, K0, "f0", validate=False),
                Rearrangement(PiecewiseCurve((), ((Atom(lam, 0.0),),)),
                              PiecewiseCurve((), ((Atom(lam, 1.0),),)), "f1",
                              validate=False))
    base = f.curve.split_at(t_cross)
    Kb = K.split_at(t_cross)
    idx = base.breaks.index(t_cross)
    idx_k = Kb.breaks.index(t_cross)

    f1_pieces = [(Atom(lam, 0.0),)] * (idx + 1) + list(base.pieces[idx + 1:])
    f1c = PiecewiseCurve(base.breaks, f1_pieces)
    f0_pieces = [tuple(p) + (Atom(-lam, 0.0),) for p in base.pieces[:idx + 1]] \
        + [()] * (len(base.pieces) - idx - 1)
    f0c = PiecewiseCurve(base.breaks, f0_pieces)

    shift = lam * t_cross - Kb(t_cross)
    K1_pieces = [(Atom(lam, 1.0),)] * (idx_k + 1) \
        + [tuple(p) + ((Atom(shift, 0.0),) if shift != 0.0 else ())
           for p in Kb.pieces[idx_k + 1:]]
    K1 = PiecewiseCurve(Kb.breaks, K1_pieces)
    K0_pieces = [tuple(p) + (Atom(-lam, 1.0),) for p in Kb.pieces[:idx_k + 1]] \
        + [((Atom(-shift, 0.0),) if shift != 0.0 else ())] * (len(Kb.pieces) - idx_k - 1)
    K0 = PiecewiseCurve(Kb.breaks, K0_pieces)
    return (Rearrangement(f0c, K0, "f0", validate=False),
            Rearrangement(f1c, K1, "f1", validate=False))


# ---------------------------------------------------------------------------
# Conjugation  K(t) -> t K(1/t)
# ---------------------------------------------------------------------------

def _conjugate_curve(curve: PiecewiseCurve) -> PiecewiseCurve:
    breaks = tuple(1.0 / b for b in reversed(curve.breaks))
    pieces = [tuple(Atom(a.coef, 1.0 - a.power, a.logexp) for a in p)
              for p in reversed(curve.pieces)]
    return PiecewiseCurve(breaks, pieces)


def conjugate_profile(k: KProfile) -> KProfile:
    """The profile t -> t K(1/t); exact on atoms."""
    return KProfile(_conjugate_curve(k.curve), f"conj[{k.label}]")


# ---------------------------------------------------------------------------
# Profile suites
# ---------------------------------------------------------------------------

def profile_suite() -> list[Rearrangement]:
    """Six deterministic rearrangements with bounded K at infinity."""
    return [
        Rearrangement.indicator(1.0),
        Rearrangement.power(0.5, support=1.0),
        Rearrangement.staircase((0.01, 1.0, 50.0), (4.0, 1.0, 0.25)),
        Rearrangement.staircase((1e-4, 10.0), (10.0, 0.3)),
        Rearrangement.power(0.3, coef=0.7, support=1.0),
        Rearrangement(
            PiecewiseCurve((0.1, 5.0), ((Atom(1.0, -0.5),), (Atom(1.0, 0.0),), ())),
            PiecewiseCurve((0.1, 5.0),
                           ((Atom(2.0, 0.5),),
                            (Atom(2.0 * math.sqrt(0.1) - 0.1, 0.0), Atom(1.0, 1.0)),
                            (Atom(2.0 * math.sqrt(0.1) - 0.1 + 5.0, 0.0),))),
            "mixed"),
    ]


def random_rearrangement(rng: np.random.Generator) -> Rearrangement:
    """Random positive staircase rearrangement with compact support: 1 to 5
    steps, breaks log-uniform in (1e-4, 1e3), values in (1e-3, 1e2)."""
    n = int(rng.integers(1, 6))
    breaks = sorted(math.exp(x) for x in
                    rng.uniform(math.log(1e-4), math.log(1e3), size=n))
    values = sorted((math.exp(x) for x in
                     rng.uniform(math.log(1e-3), math.log(1e2), size=n)),
                    reverse=True)
    return Rearrangement.staircase(breaks, values)


# ---------------------------------------------------------------------------
# Profile literals
# ---------------------------------------------------------------------------

def parse_profile(text: str) -> KProfile:
    s = text.strip()
    if s == "min1":
        return KProfile.min1()
    if s.startswith("power(") and s.endswith(")"):
        return KProfile.power(float(s[6:-1]))
    if s.startswith("powerlog(") and s.endswith(")"):
        parts = s[9:-1].split(",")
        if len(parts) != 3:
            raise ValueError(f"powerlog needs three parameters: {text!r}")
        return KProfile.powerlog(*(float(p) for p in parts))
    if s.startswith("piecewise[") and s.endswith("]"):
        body = s[len("piecewise["):-1]
        pairs = []
        for chunk in body.replace("(", " ").split(")"):
            chunk = chunk.strip().strip(",").strip()
            if not chunk:
                continue
            t_str, k_str = chunk.split(",")
            pairs.append((float(t_str), float(k_str)))
        if not pairs:
            raise ValueError(f"empty piecewise profile: {text!r}")
        return KProfile.from_nodes(pairs)
    raise ValueError(f"unknown profile literal: {text!r}")
