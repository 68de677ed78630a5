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
from dataclasses import astuple, dataclass
from typing import Iterable, Iterator, Optional, Sequence

import numpy as np

from .quadrature import leading_exponent, sup_terms, term_diverges_at_inf
from .weights import SideForm, side_terms

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
    "TruncationLevels",
    "conjugate_profile",
    "profile_suite",
    "random_rearrangement",
]

_INF = math.inf


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


def _piece_value(piece: Iterable[Atom], t: float) -> float:
    return math.fsum(_atom_eval(a, t) for a in piece)


def _log_slope(piece: Iterable[Atom], side: str, s: float, v: float
               ) -> Iterator[Atom]:
    """The atoms of s t g' + v g for the atom sum g of a piece on one side
    of 1, each at its own power: c t^p L^l gives c (s p + v) t^p L^l and
    s c l t^p L^(l-1) dL/d(ln t), with dL/d(ln t) = -1 below 1, +1 above."""
    ds = -s if side == "lo" else s
    for a in piece:
        yield Atom(a.coef * (s * a.power + v), a.power, a.logexp)
        yield Atom(ds * a.coef * a.logexp, a.power, a.logexp - 1.0)


def _merge_atoms(atoms: Iterable[Atom]) -> tuple[Atom, ...]:
    acc: dict[tuple[float, float], float] = {}
    for a in atoms:
        key = (a.power, a.logexp)
        acc[key] = acc.get(key, 0.0) + a.coef
    merged = [Atom(c, p, b) for (p, b), c in acc.items() if c != 0.0]
    merged.sort(key=lambda a: (a.power, a.logexp))
    return tuple(merged)


#: (u0, u1, side, atoms): a piece of a curve on (u0, u1), on the side of 1
#: ("lo" or "hi") that a weight's side form belongs to
Segment = tuple[float, float, str, tuple[Atom, ...]]


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

    def sided_segments(self) -> Iterator[Segment]:
        """(u0, u1, side, piece) of each piece on (0, inf), empty ones
        included, cut at the breaks and at 1: the side is "lo" when u1 <= 1
        and "hi" otherwise."""
        cuts = [0.0, *self.breaks, _INF]
        if 1.0 not in self.breaks:
            bisect.insort(cuts, 1.0)
        for u0, u1 in zip(cuts[:-1], cuts[1:]):
            yield (u0, u1, "lo" if u1 <= 1.0 else "hi",
                   self.pieces[self.piece_index(u1)])

    def __call__(self, t) -> float:
        t = float(t)
        if not (t > 0.0):
            raise ValueError("curves are defined on (0, inf)")
        return _piece_value(self.pieces[self.piece_index(t)], t)

    # -- algebra -----------------------------------------------------------

    def scale(self, c: float) -> "PiecewiseCurve":
        if c == 0.0:
            return PiecewiseCurve.zero()
        return PiecewiseCurve(self.breaks,
                              [tuple(a.scaled(c) for a in p) for p in self.pieces])

    # -- calculus ----------------------------------------------------------

    def derivative(self) -> "PiecewiseCurve":
        return PiecewiseCurve(self.breaks, [
            [Atom(a.coef, a.power - 1.0, a.logexp) for a in
             _log_slope(piece, "lo" if hi <= 1.0 else "hi", 1.0, 0.0)]
            for _, hi, piece in self.segments()])

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
        for a in self.pieces[0]:  # u^p L^l du = e^(-(p+1) x) (1+x)^l dx
            if term_diverges_at_inf(-(a.power + 1.0), a.logexp):
                raise ValueError("curve is not integrable at 0")
            if a.logexp != 0.0 and a.power != -1.0:
                raise CurveClosureError(
                    "leading piece has no atomic antiderivative vanishing at 0")
        # c/u integrates to +-c ln u, a log atom whose sign depends on the side
        curve = self.split_at(1.0) if any(a.power == -1.0 for p in self.pieces
                                          for a in p) else self
        new_pieces = []
        for b, hi, piece in curve.segments():
            F = self._piece_antiderivative(piece, hi <= 1.0)
            if new_pieces:
                shift = _piece_value(new_pieces[-1], b) - _piece_value(F, b)
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
    """Decide exactly that K is nondecreasing with K(t)/t nonincreasing: K
    is continuous to 1e-12 relative at each break, and -t K' - 1e-12 K <= 0
    and t K' - (1 + 1e-12) K <= 0 on each segment (located at its start)."""
    for b, left, right in _break_values(k.curve):
        if abs(right - left) > 1e-12 * abs(left):
            return QuasiConcavityReport(False, "jump across a node", b)
    for seg in k.curve.sided_segments():
        if not _nonpositive(seg, -1.0, -1e-12):
            return QuasiConcavityReport(False, "decreasing segment", seg[0])
        if not _nonpositive(seg, 1.0, -1.0 - 1e-12):
            return QuasiConcavityReport(False, "K(t)/t increasing", seg[0])
    return QuasiConcavityReport(True)


def _break_values(curve: PiecewiseCurve) -> Iterator[tuple[float, float, float]]:
    """(b, g(b-), g(b+)) at each break b of the curve g."""
    for b, left, right in zip(curve.breaks, curve.pieces, curve.pieces[1:]):
        yield b, _piece_value(left, b), _piece_value(right, b)


def _nonpositive(seg: Segment, s: float, v: float) -> bool:
    """Whether s t g' + v g <= 0 on the segment (u0, u1, side, g): at once
    when no coefficient of :func:`_log_slope` is positive, else by the
    exact supremum (:func:`sup_terms`) of its canonical terms."""
    u0, u1, side, piece = seg
    atoms = _merge_atoms(_log_slope(piece, side, s, v))
    return all(a.coef <= 0.0 for a in atoms) or sup_terms(side_terms(
        SideForm(), map(astuple, atoms), side, u0, u1)) <= 0.0


def _rearrangement_fault(curve: PiecewiseCurve) -> Optional[str]:
    """Why the curve g is no rearrangement, or None, decided exactly: g(b-)
    >= -1e-12 and g(b+) <= g(b-) at each break b, lim g >= 0 at inf, and
    t g' - 1e-9 g <= 0 on each segment (a rise is named at its start)."""
    for b, left, right in _break_values(curve):
        if left < -1e-12:
            return f"negative at t={b!r}"
        if right > left:
            return f"increases at t={b!r}"
    top = max(curve.pieces[-1], key=lambda a: (a.power, a.logexp),
              default=Atom(0.0, 0.0))
    if top.coef < 0.0 and leading_exponent(top.power, top.logexp) >= 0.0:
        return "negative at t=inf"
    for seg in curve.sided_segments():
        if not _nonpositive(seg, 1.0, -1e-9):
            return f"increases at t={seg[0]!r}"
    return None


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
        if validate and (fault := _rearrangement_fault(curve)) is not None:
            raise ValueError(f"rearrangement {fault}")

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

    f* = K' when K(0+) = 0, K is continuous at its breaks and K' passes the
    exact rearrangement rule: K is then concave.  Otherwise a profile that
    passes :func:`check_quasiconcave` and is piecewise affine through 0 goes
    through its exact least concave majorant (the upper hull of the origin,
    its nodes and its last piece's ray), within the documented [1/2, 2]
    band; any other profile is a ValueError that names it.
    """
    curve = phi.curve
    if curve.is_zero():
        return Rearrangement.zero()
    deriv = curve.derivative()
    if _vanishes_at_zero(curve) and _rearrangement_fault(deriv) is None \
            and all(abs(r - l) <= 1e-12 * abs(l) for _, l, r in _break_values(curve)):
        return Rearrangement(deriv, curve, f"d[{phi.label}]", validate=False)
    report = check_quasiconcave(phi)
    if not report.ok:
        raise ValueError(f"profile is not quasi-concave: {report.violation} "
                         f"near t={report.location!r}")
    return _hull_realization(phi)


def _vanishes_at_zero(curve: PiecewiseCurve) -> bool:
    # u^p L^l is e^(-p x) (1+x)^l with x = ln(1/u) -> inf
    return all(leading_exponent(-a.power, a.logexp) < 0.0
               for a in curve.pieces[0])


def _hull_realization(phi: KProfile) -> Rearrangement:
    """f* of the least concave majorant of a piecewise-affine profile
    through 0: the upper hull of the origin, the nodes and the last piece's
    ray, whose slope is f*'s last value.  Any other profile is a ValueError
    that names it."""
    curve = phi.curve
    if not _vanishes_at_zero(curve):
        raise ValueError(f"{phi.label} has K(0+) > 0, which no rearrangement's"
                         " K-functional has")
    if any(a.logexp != 0.0 or a.power not in (0.0, 1.0)
           for p in curve.pieces for a in p):
        raise ValueError(f"{phi.label} is neither concave nor piecewise "
                         "affine: its least concave majorant is not built")
    ray = math.fsum(a.coef for a in curve.pieces[-1] if a.power == 1.0)
    hull = [(0.0, 0.0)]
    for p in [(t, curve(t)) for t in curve.breaks] + [None]:  # None: the ray
        while len(hull) >= 2:  # slopes strictly decreasing, above the ray's
            (x1, y1), (x2, y2) = hull[-2], hull[-1]
            dx, dy = (1.0, ray) if p is None else (p[0] - x2, p[1] - y2)
            if (y2 - y1) * dx > dy * (x2 - x1):
                break
            hull.pop()
        hull.append(p)
    slopes = [(y2 - y1) / (x2 - x1) for (x1, y1), (x2, y2)
              in zip(hull[:-2], hull[1:-1])] + [ray]
    f_curve = PiecewiseCurve([x for x, _ in hull[1:-1]],
                             [(Atom(v, 0.0),) for v in slopes])
    return Rearrangement(f_curve, f_curve.antiderivative(),
                         f"hull[{phi.label}]", validate=False)


# ---------------------------------------------------------------------------
# Truncation
# ---------------------------------------------------------------------------

def _crossing_probes(curve: PiecewiseCurve
                     ) -> tuple[float, list[tuple[float, float, float]]]:
    """f*'s values at the probes of :func:`_crossing_point`, which do not
    depend on the level: (f*(1e-12), [(t, f*(t (1 - 1e-15)), f*(t (1 +
    1e-15))) for t = each break, then the largest break (or 1) times
    1e12]); the last probe has no right value and repeats its left one."""
    probes = list(curve.breaks) + [max(list(curve.breaks) or [1.0]) * 1e12]
    rows = []
    for t in probes:
        v = curve(t * (1.0 - 1e-15))
        rows.append((t, v, curve(t * (1.0 + 1e-15)) if t < probes[-1] else v))
    return curve(1e-12), rows


def _crossing_point(f: Rearrangement, lam: float,
                    probes: Optional[tuple[float, list]] = None) -> float:
    """Largest t with f*(t) >= lam (0 when f* < lam everywhere, inf when
    f* >= lam everywhere); ``probes`` are f*'s :func:`_crossing_probes`,
    computed here when not given.

    The probes find m on a break, or bracket it between two breaks (or
    1e-12 and the last probe), so inside one piece.  A piece of one pure
    power solves exactly; any other is solved on its own atoms by
    :func:`_piece_crossing`, from the probes' values at the bracket's ends.
    """
    curve = f.curve
    first, rows = _crossing_probes(curve) if probes is None else probes
    prev_t, prev_v = 1e-12, first
    if first < lam:
        return 0.0
    for t, v, v_right in rows:
        if v >= lam and v_right < lam:
            return t
        if v < lam:
            break
        prev_t, prev_v = t, v_right
    else:
        return _INF
    # single pure-power atom pieces solve exactly
    piece = curve.pieces[curve.piece_index(math.sqrt(prev_t * t))]
    if len(piece) == 1 and piece[0].logexp == 0.0 and piece[0].power != 0.0:
        a = piece[0]
        return (lam / a.coef) ** (1.0 / a.power)
    return _piece_crossing(piece, lam, (math.log(prev_t), prev_v),
                           (math.log(t), v))


def _piece_value_slope(piece: Sequence[Atom], t: float) -> tuple[float, float]:
    """(g(t), t g'(t)) for the atom sum g of one piece, g(t) as
    :meth:`PiecewiseCurve.__call__` computes it.  L = 1 + |ln t| has
    dL/d(ln t) = -1 for t <= 1 and +1 above, and a piece with a log atom
    lies on one side of 1."""
    side = -1.0 if t <= 1.0 else 1.0
    L = 1.0 + abs(math.log(t))
    vals = [_atom_eval(a, t) for a in piece]
    return (math.fsum(vals),
            math.fsum(v * (a.power + side * a.logexp / L)
                      for v, a in zip(vals, piece)))


def _piece_crossing(piece: Sequence[Atom], lam: float,
                    lo: tuple[float, float], hi: tuple[float, float]) -> float:
    """The t in the bracket where the nonincreasing atom sum g of one piece
    crosses lam; ``lo`` and ``hi`` are (ln t, g) at its ends, with g >= lam
    at the lower one and g < lam at the upper one.

    Newton on h = ln(g / lam) in x = ln t, which is close to linear on a
    piece of powers and logs, kept inside the bracket.  Each step evaluates
    the piece once (:func:`_piece_value_slope`) and moves the end on the
    same side of lam to it.  The first point, and a Newton point outside
    the bracket, is the secant root of h between the ends, moved at least
    d = max(0.5e-15, one ulp) inside, so a root next to an end closes the
    bracket at once; where g does not fall, or the secant is not finite,
    the step is the midpoint.
    It stops when the Newton step is below d, at the point it steps to, or
    when the bracket is narrower than 1e-15 or one ulp wide, at its
    midpoint: the bisection's stop width in ln t.
    """
    def ln_ratio(g: float) -> float:
        return math.log(g / lam) if g > 0.0 else -_INF

    def secant() -> float:
        x = x_lo + (x_hi - x_lo) * h_lo / (h_lo - h_hi) if h_lo > h_hi \
            else math.nan
        return min(max(x, x_lo + d), x_hi - d)

    (x_lo, g_lo), (x_hi, g_hi) = lo, hi
    h_lo, h_hi = ln_ratio(g_lo), ln_ratio(g_hi)
    d = max(0.5e-15, math.ulp(x_lo), math.ulp(x_hi))
    x = secant()
    for _ in range(200):
        if not x_lo < x < x_hi:
            x = 0.5 * (x_lo + x_hi)
            if x in (x_lo, x_hi):
                break
        g, slope = _piece_value_slope(piece, math.exp(x))
        h = ln_ratio(g)
        if g >= lam:
            x_lo, h_lo = x, h
        else:
            x_hi, h_hi = x, h
        if x_hi - x_lo < 1e-15:
            break
        d = max(0.5e-15, math.ulp(x_lo), math.ulp(x_hi))
        if not (g > 0.0 and slope < 0.0):
            x = math.nan  # the midpoint
            continue
        newton = x - h * g / slope
        if abs(newton - x) < d:
            return math.exp(min(max(newton, x_lo), x_hi))
        x = newton if x_lo < newton < x_hi else secant()
    return math.exp(0.5 * (x_lo + x_hi))


def _truncated_atoms(piece: Sequence[Atom], below: bool, lam: float,
                     shift: float) -> tuple[tuple[Atom, ...], tuple[Atom, ...]]:
    """The atoms of K0 and K1 on a piece of K = K0 + K1 that lies below (or
    above) the crossing point m of level lam, with shift = lam m - K(m):
    K1 = lam t below m and K + shift above it, so K1(t) = lam min(t, m) +
    (K(t) - K(m))_+.  ``piece`` is merged, as every piece of a curve is."""
    if below:
        return _merge_atoms((*piece, Atom(-lam, 1.0))), (Atom(lam, 1.0),)
    if shift == 0.0:
        return (), tuple(piece)
    return (Atom(-shift, 0.0),), _merge_atoms((*piece, Atom(shift, 0.0)))


def truncation_split(f: Rearrangement, lam: float
                     ) -> tuple[Rearrangement, Rearrangement]:
    """(f0, f1) with f1 = min(f*, lam) and f0 = (f* - lam)_+ , exactly additive."""
    if lam <= 0.0:
        raise ValueError("truncation level must be positive")
    if f.curve.is_zero():
        return Rearrangement.zero(), Rearrangement.zero()
    t_cross = _crossing_point(f, lam)
    K = K_from_rearrangement(f).curve
    if t_cross == 0.0:
        return Rearrangement.zero(), Rearrangement(f.curve, K, f.label,
                                                   validate=False)
    if t_cross == _INF:
        f0c = PiecewiseCurve(f.curve.breaks, [tuple(p) + (Atom(-lam, 0.0),)
                                              for p in f.curve.pieces])
        K0 = PiecewiseCurve(K.breaks, [_truncated_atoms(p, True, lam, 0.0)[0]
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
    K0_pieces, K1_pieces = zip(*(_truncated_atoms(p, i <= idx_k, lam, shift)
                                 for i, p in enumerate(Kb.pieces)))
    return (Rearrangement(f0c, PiecewiseCurve(Kb.breaks, K0_pieces), "f0",
                          validate=False),
            Rearrangement(f1c, PiecewiseCurve(Kb.breaks, K1_pieces), "f1",
                          validate=False))


class TruncationLevels:
    """The truncation family f* = (f* - lam)_+ + min(f*, lam) of one
    rearrangement, read level by level from K's own segments.

    Built once: K, its segments cut at its breaks and at 1 (the cuts of
    :meth:`PiecewiseCurve.sided_segments`), and f*'s values at the probes
    of the crossing search.  Each level then costs its crossing point m and
    one atom merge per segment (:func:`_truncated_atoms`); it builds no
    curve and no rearrangement.  The segments are those of the K0 and K1 of
    :func:`truncation_split`, atom for atom.
    """

    __slots__ = ("f", "K", "_probes", "_segments")

    def __init__(self, f: Rearrangement):
        self.f = f
        self.K = K_from_rearrangement(f).curve
        self._probes = _crossing_probes(f.curve)
        self._segments = list(self.K.sided_segments())

    def split(self, lam: float) -> tuple[list[Segment], list[Segment]]:
        """The nonzero segments (u0, u1, side, atoms) of K0 and K1 at level
        lam > 0; K0 has none where f0 = (f* - lam)_+ vanishes."""
        if lam <= 0.0:
            raise ValueError("truncation level must be positive")
        curve = self.f.curve
        if curve.is_zero():
            return [], []
        m = _crossing_point(self.f, lam, self._probes)
        if m == 0.0:
            return [], [s for s in self._segments if s[3]]
        # f0 = f* - lam up to m vanishes where each piece there is lam itself
        upto = len(curve.pieces) if m == _INF else curve.piece_index(m) + 1
        f0_zero = all(p == (Atom(lam, 0.0),) for p in curve.pieces[:upto])
        shift = 0.0 if m == _INF else lam * m - self.K(m)
        segs0: list[Segment] = []
        segs1: list[Segment] = []
        for u0, u1, side, piece in self._segments:
            parts = ((u0, u1, u1 <= m),) if u1 <= m or u0 >= m \
                else ((u0, m, True), (m, u1, False))
            for lo, hi, below in parts:
                a0, a1 = _truncated_atoms(piece, below, lam, shift)
                if a0 and not f0_zero:
                    segs0.append((lo, hi, side, a0))
                if a1:
                    segs1.append((lo, hi, side, a1))
        if m == _INF:  # truncation_split's f1 = lam is one piece, cut at 1
            segs1 = [(0.0, 1.0, "lo", (Atom(lam, 1.0),)),
                     (1.0, _INF, "hi", (Atom(lam, 1.0),))]
        return segs0, segs1


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
