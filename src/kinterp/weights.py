"""Slowly varying weight algebra: combinator ASTs, evaluation, q-norms, classes.

The grammar (ASCII, whitespace insignificant) is

    one | log(a0,aInf) | explog(a) | mul(w,w) | pow(w,r) | flip(w)

``log(a0,aInf)`` is the broken logarithm (1-ln t)^a0 on (0,1] and
(1+ln t)^aInf on (1,inf); ``explog(a)`` is exp(|ln t|^a) with 0 < a < 1;
``flip(w)`` evaluates w at 1/t.  Every expression reduces, on each side of
t = 1, to (1+|ln t|)^beta * exp(sum gamma |ln t|^alpha), which is what the
closed-form quadrature consumes.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, fields
from functools import cached_property
from typing import Callable, Iterable, Sequence

from .quadrature import (IntegralOverflowError, LogTerm, _qth_root,
                         integrate_terms, power_integral, running_sums,
                         sup_terms)

__all__ = [
    "WeightExpr",
    "One",
    "PowerLog",
    "ExpLog",
    "Product",
    "Power",
    "Flip",
    "SideForm",
    "SVClassReport",
    "WeightSyntaxError",
    "parse_weight",
    "tail_qnorm",
    "head_qnorm",
    "classify",
]

_INF = math.inf


class WeightSyntaxError(ValueError):
    """Weight grammar error with a character position."""

    def __init__(self, message: str, pos: int):
        super().__init__(f"{message} (at position {pos})")
        self.pos = pos


# ---------------------------------------------------------------------------
# Side forms
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SideForm:
    """(1+x)^beta * exp(sum gamma x^alpha) with x = |ln t| on one side of 1."""

    beta: float = 0.0
    gammas: tuple[tuple[float, float], ...] = ()  # sorted (alpha, gamma)

    def scaled(self, r: float) -> "SideForm":
        return SideForm(self.beta * r, tuple((al, g * r) for al, g in self.gammas))

    def combined(self, other: "SideForm") -> "SideForm":
        acc: dict[float, float] = {}
        for al, g in self.gammas + other.gammas:
            acc[al] = acc.get(al, 0.0) + g
        gammas = tuple(sorted((al, g) for al, g in acc.items() if g != 0.0))
        return SideForm(self.beta + other.beta, gammas)

    def value(self, x: float) -> float:
        extra = sum(g * x ** al for al, g in self.gammas)
        return (1.0 + x) ** self.beta * math.exp(extra)


# ---------------------------------------------------------------------------
# AST nodes
# ---------------------------------------------------------------------------

class WeightExpr:
    """Base class of weight expressions; positive and finite on (0, inf).

    Subclasses give their side form through ``_side``; :meth:`side_forms`
    compiles the (lo, hi) pair once and caches it on the node, and the
    closures built from that pair are cached beside it, in ``_compiled``.
    Both caches live outside the dataclass fields, so equality and hashing
    ignore them; the closures are also left out of the pickled state.
    """

    def _side(self, side: str) -> SideForm:
        raise NotImplementedError

    def side_forms(self) -> tuple[SideForm, SideForm]:
        forms = self.__dict__.get("_side_forms")
        if forms is None:
            forms = (self._side("lo"), self._side("hi"))
            object.__setattr__(self, "_side_forms", forms)
        return forms

    def side(self, side: str) -> SideForm:
        lo, hi = self.side_forms()
        return lo if side == "lo" else hi

    @cached_property
    def _compiled(self) -> dict:
        """Compiled closures: "value" (t -> b(t)) and, by (kind, q), those of
        :meth:`_integral`."""
        return {"value": _compile_weight(*self.side_forms())}

    def _integral(self, kind: str, q: float) -> Callable[[float], float]:
        """t -> int_t^inf b(u)^q du/u (``kind`` "tail"), int_0^t ("head"), or
        the tail of flip(b) ("flip"), compiled on first use."""
        integral = self._compiled.get((kind, q))
        if integral is None:
            integral = _compile_integral(self, kind, q)
            if q == q:  # a nan key would never be found again
                self._compiled[kind, q] = integral
        return integral

    def __call__(self, t: float) -> float:
        return self._compiled["value"](t if type(t) is float else float(t))

    def __getstate__(self) -> dict:
        state = dict(self.__dict__)
        state.pop("_compiled", None)
        return state

    def to_text(self) -> str:
        """The grammar text of this node, which parses back to an equal one."""
        name, kinds = _NAMES[type(self)]
        args = (getattr(self, f.name) for f in fields(self))
        text = ",".join(a.to_text() if kind == "w" else _fmt(a)
                        for kind, a in zip(kinds, args))
        return f"{name}({text})" if kinds else name

    def __repr__(self) -> str:
        return f"{type(self).__name__}({self.to_text()!r})"


@dataclass(frozen=True, repr=False)
class One(WeightExpr):
    def _side(self, side: str) -> SideForm:
        return SideForm()


@dataclass(frozen=True, repr=False)
class PowerLog(WeightExpr):
    alpha0: float
    alpha_inf: float

    def __post_init__(self) -> None:
        if not (math.isfinite(self.alpha0) and math.isfinite(self.alpha_inf)):
            raise ValueError("log exponents must be finite")

    def _side(self, side: str) -> SideForm:
        return SideForm(self.alpha0 if side == "lo" else self.alpha_inf)


@dataclass(frozen=True, repr=False)
class ExpLog(WeightExpr):
    alpha: float

    def __post_init__(self) -> None:
        if not (0.0 < self.alpha < 1.0):
            raise ValueError("explog exponent must lie in (0, 1)")

    def _side(self, side: str) -> SideForm:
        return SideForm(0.0, ((self.alpha, 1.0),))


@dataclass(frozen=True, repr=False)
class Product(WeightExpr):
    left: WeightExpr
    right: WeightExpr

    def _side(self, side: str) -> SideForm:
        return self.left.side(side).combined(self.right.side(side))


@dataclass(frozen=True, repr=False)
class Power(WeightExpr):
    base: WeightExpr
    r: float

    def __post_init__(self) -> None:
        if not math.isfinite(self.r):
            raise ValueError("pow exponent must be finite")

    def _side(self, side: str) -> SideForm:
        return self.base.side(side).scaled(self.r)


@dataclass(frozen=True, repr=False)
class Flip(WeightExpr):
    inner: WeightExpr

    def _side(self, side: str) -> SideForm:
        return self.inner.side("hi" if side == "lo" else "lo")


#: the grammar: each constructor's node class and its argument kinds, "w"
#: for a weight and "n" for a number, in the order of the node's fields
_CONSTRUCTORS = {
    "one": (One, ""),
    "log": (PowerLog, "nn"),
    "explog": (ExpLog, "n"),
    "mul": (Product, "ww"),
    "pow": (Power, "wn"),
    "flip": (Flip, "w"),
}
_NAMES = {cls: (name, kinds) for name, (cls, kinds) in _CONSTRUCTORS.items()}


def _fmt(x: float) -> str:
    return repr(int(x)) if float(x).is_integer() and abs(x) < 1e15 else repr(x)


def _compile_side(form: SideForm) -> Callable[[float], float]:
    """x -> ``form.value(x)`` with the same IEEE operations, specialised by
    shape (no stretched term, one, several).

    ``sum`` starts from 0 and adds left to right, and 0 + y == y up to the
    sign of a zero, which ``exp`` ignores; CPython 3.12 made ``sum`` of
    floats compensated, so there the several-term shape can differ from
    ``form.value`` in the last bit.
    """
    beta, gammas = form.beta, form.gammas
    exp = math.exp
    if not gammas:
        # exp(0) == 1.0 and y * 1.0 == y, so the factor is dropped exactly
        return lambda x: (1.0 + x) ** beta
    if len(gammas) == 1:
        ((alpha, gamma),) = gammas
        return lambda x: (1.0 + x) ** beta * exp(gamma * x ** alpha)
    (alpha0, gamma0), rest = gammas[0], gammas[1:]

    def several(x: float) -> float:
        extra = gamma0 * x ** alpha0
        for alpha, gamma in rest:
            extra += gamma * x ** alpha
        return (1.0 + x) ** beta * exp(extra)
    return several


def _compile_weight(lo: SideForm, hi: SideForm) -> Callable[[float], float]:
    """The scalar evaluator t -> b(t) of the weight with side forms (lo, hi)."""
    value_lo, value_hi = _compile_side(lo), _compile_side(hi)
    log, isfinite = math.log, math.isfinite

    def value(t: float) -> float:
        if not (t > 0.0) or not isfinite(t):
            raise ValueError(f"weights are defined on (0, inf), got t={t!r}")
        try:
            if t >= 1.0:
                return value_hi(log(t))
            return value_lo(-log(t))
        except OverflowError:  # a pow or exp of the side form overflows
            raise IntegralOverflowError(
                f"the weight value b({t!r}) exceeds the float range") from None
    return value


# ---------------------------------------------------------------------------
# Parser (recursive descent over the flat grammar)
# ---------------------------------------------------------------------------

class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.pos = 0

    def error(self, message: str) -> WeightSyntaxError:
        return WeightSyntaxError(message, self.pos)

    def skip_ws(self) -> None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1

    def expect(self, ch: str) -> None:
        self.skip_ws()
        if self.pos >= len(self.text) or self.text[self.pos] != ch:
            raise self.error(f"expected {ch!r}")
        self.pos += 1

    def ident(self) -> str:
        self.skip_ws()
        start = self.pos
        while self.pos < len(self.text) and self.text[self.pos].isalpha():
            self.pos += 1
        if start == self.pos:
            raise self.error("expected a weight constructor")
        return self.text[start:self.pos]

    def number(self) -> float:
        self.skip_ws()
        start = self.pos
        if self.pos < len(self.text) and self.text[self.pos] in "+-":
            self.pos += 1
        digits = False
        while self.pos < len(self.text) and (self.text[self.pos].isdigit()
                                             or self.text[self.pos] in ".eE+-"):
            if self.text[self.pos] in "+-" and self.text[self.pos - 1] not in "eE":
                break
            digits = digits or self.text[self.pos].isdigit()
            self.pos += 1
        if not digits:
            raise self.error("expected a decimal literal")
        try:
            return float(self.text[start:self.pos])
        except ValueError:
            self.pos = start
            raise self.error("malformed decimal literal") from None

    def expr(self) -> WeightExpr:
        name = self.ident()
        if name not in _CONSTRUCTORS:
            raise self.error(f"unknown weight constructor {name!r}")
        cls, kinds = _CONSTRUCTORS[name]
        args = []
        for i, kind in enumerate(kinds):
            self.expect("," if i else "(")
            args.append(self.expr() if kind == "w" else self.number())
        if kinds:
            self.expect(")")
        try:
            return cls(*args)
        except ValueError as exc:
            raise self.error(str(exc)) from None


def parse_weight(text: str) -> WeightExpr:
    parser = _Parser(text)
    node = parser.expr()
    parser.skip_ws()
    if parser.pos != len(text):
        raise parser.error("trailing input after weight expression")
    return node


# ---------------------------------------------------------------------------
# q-norms of bare weights
# ---------------------------------------------------------------------------

def side_terms(form: SideForm, atoms: Iterable[tuple[float, float, float]],
               side: str, u0: float, u1: float) -> list[LogTerm]:
    """Canonical terms of int_{u0}^{u1} sum c u^p (1 + |ln u|)^l w(u) du/u,
    for the atoms (c, p, l) and a weight power w with side form ``form``, on
    one side of 1: x = ln u on the "hi" side (end "inf") and x = -ln u on the
    "lo" side (end "zero"), so u^p = e^{+-p x}."""
    if side == "hi":
        x1, x2 = math.log(u0), math.log(u1) if u1 != _INF else _INF
        sign, end = 1.0, "inf"
    else:
        x1, x2 = -math.log(u1), -math.log(u0) if u0 > 0.0 else _INF
        sign, end = -1.0, "zero"
    return [LogTerm(c, sign * p, l + form.beta, x1, x2, form.gammas, end=end)
            for c, p, l in atoms]


def _weight_terms(b: WeightExpr, q: float, lo: float, hi: float,
                  kernel_power: float = 0.0) -> list[LogTerm]:
    """Canonical terms of int_lo^hi u^kernel_power b(u)^q du/u."""
    atom = [(1.0, kernel_power, 0.0)]
    terms: list[LogTerm] = []
    if lo < 1.0:
        terms += side_terms(b.side("lo").scaled(q), atom, "lo", lo, min(hi, 1.0))
    if hi > 1.0:
        terms += side_terms(b.side("hi").scaled(q), atom, "hi", max(lo, 1.0), hi)
    return [term for term in terms if term.x2 > term.x1]


def _compile_integral(b: WeightExpr, kind: str, q: float) -> Callable[[float], float]:
    """The closure of :meth:`WeightExpr._integral`: at t, the value of
    ``integrate_terms(_weight_terms(...)).value`` by the same IEEE operations:
    the :func:`power_integral` of the side of t plus the whole far side,
    integrated here once (the sum commutes, and no power integral reads the
    sign of a zero end).  The generic call itself takes a stretched side, a
    divergent far side, t outside (0, inf) and every non-finite value.
    """
    lo, hi = b.side_forms()
    if kind == "flip":
        b, lo, hi = Flip(b), hi, lo
    tail = kind != "head"
    far, near = (hi, lo) if tail else (lo, hi)
    far, near = far.scaled(q), near.scaled(q)

    def generic(t: float) -> float:
        span = (t, _INF) if tail else (0.0, t)
        return integrate_terms(_weight_terms(b, q, *span)).value
    whole = _INF if far.gammas else 0.0 + power_integral(far.beta, 0.0, _INF)
    if not math.isfinite(whole):  # a stretched or a divergent far side
        return generic
    b_far, b_near, plain_near = far.beta, near.beta, not near.gammas
    log, isfinite = math.log, math.isfinite

    def integral(t: float) -> float:
        if t == 1.0:
            return whole
        if not 0.0 < t < _INF:
            return generic(t)
        x = abs(log(t))
        if (t > 1.0) == tail:  # the rest of the far side
            v = 0.0 + power_integral(b_far, x, _INF)
        elif plain_near:
            v = whole + power_integral(b_near, 0.0, x)
        else:
            return generic(t)
        return v if isfinite(v) else generic(t)
    return integral


def weight_kernel_integral(b: WeightExpr, q: float, kernel_power: float,
                           lo: float, hi: float) -> float:
    """int_lo^hi u^kernel_power b(u)^q du/u; +inf when divergent."""
    if kernel_power == 0.0 and hi == _INF:
        return b._integral("tail", q)(lo)
    if kernel_power == 0.0 and lo == 0.0:
        return b._integral("head", q)(hi)
    return integrate_terms(_weight_terms(b, q, lo, hi, kernel_power)).value


def kernel_samples(b: WeightExpr, q: float, kernel_power: float,
                   ts: Sequence[float], tail: bool) -> list[float]:
    """``weight_kernel_integral(b, q, kernel_power, t, inf)`` (``tail``) or
    ``weight_kernel_integral(b, q, kernel_power, 0.0, t)`` at each of the
    ascending points ts in (0, inf), in one pass.

    Kernel power 0 on a weight without a stretched side is b's compiled
    tail or head integral at each point.  Otherwise the pass starts at the
    outermost point, the largest for a tail and the smallest for a head,
    with the exact integral there, and walks inward: each value is the one
    before it plus the cell between the two points (:func:`running_sums` of
    each side's canonical term).  It crosses t = 1, through x = 0, only when
    points lie on both sides of 1, so a one-point sample is the exact
    integral itself.  A divergent kernel is +inf at every point; any other
    value past the float range raises :class:`IntegralOverflowError`.

    It samples the A1-A4 kernels (:mod:`kinterp.weighted_ineq`), the b1
    blocks of :func:`kinterp.reiteration.log_derivative_check` and the norms
    of :func:`kinterp.norms.index_samples`: rho's tails of b, and eta's
    heads as the tails of flip(b) at the points 1/t.
    """
    if kernel_power == 0.0 and not any(form.gammas for form in b.side_forms()):
        integral = b._integral("tail" if tail else "head", q)
        return [integral(t) for t in ts]
    if not ts:
        return []
    walk = list(ts[::-1] if tail else ts)  # from the outermost point inward
    far = weight_kernel_integral(b, q, kernel_power,
                                 *((walk[0], _INF) if tail else (0.0, walk[0])))
    if far == _INF:
        return [_INF] * len(ts)
    above = walk[0] >= 1.0
    n = sum((t >= 1.0) == above for t in walk)  # the points on walk[0]'s side
    atom = [(1.0, kernel_power, 0.0)]
    values = [far]
    for k, (side, run) in enumerate(zip(("hi", "lo") if above else ("lo", "hi"),
                                        (walk[:n], walk[n:]))):
        if run:  # x = |ln u|: toward 0 on the first side, from 0 on the second
            terms = side_terms(b.side(side).scaled(q), atom, side,
                               min(run + [1.0]), max(run + [1.0]))
            xs = [0.0] * k + [abs(math.log(t)) for t in run] \
                + [0.0] * (k == 0 and n < len(walk))
            values += running_sums(terms, xs, values.pop())[k:]
    if not all(math.isfinite(v) for v in values):
        raise IntegralOverflowError(
            f"a kernel integral of {b.to_text()}^{q!r} exceeds the float range")
    return values[::-1] if tail else values


def _root_overflow(b: WeightExpr, q: float, lo: float, hi: float
                   ) -> IntegralOverflowError:
    return IntegralOverflowError(
        f"||u^-1/q b||_q of {b.to_text()} over ({lo!r}, {hi!r}), q = {q!r}, "
        "exceeds the float range")


def tail_qnorm(b: WeightExpr, q: float, t: float) -> float:
    """||u^{-1/q} b(u)||_{q,(t,inf)}; +inf when divergent."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    if q == _INF:  # the supremum of b on (t, inf); +inf when b blows up
        return max(sup_terms([term]) for term in _weight_terms(b, 1.0, t, _INF))
    if q <= 0.0:
        raise ValueError("q must be positive or inf")
    return _qth_root(b._integral("tail", q)(t), q,
                     lambda: _root_overflow(b, q, t, _INF))


def head_qnorm(b: WeightExpr, q: float, t: float) -> float:
    """||u^{-1/q} b(u)||_{q,(0,t)}; the exact mirror of the tail norm: the
    tail norm of flip(b) at 1/t, read from b's compiled "flip" integral."""
    if t <= 0.0:
        raise ValueError("t must be positive")
    s = 1.0 / t
    if not (s > 0.0 and 0.0 < q < _INF):  # the supremum, or the error
        return tail_qnorm(Flip(b), q, s)
    return _qth_root(b._integral("flip", q)(s), q,
                     lambda: _root_overflow(b, q, 0.0, t))


# ---------------------------------------------------------------------------
# SV classes
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SVClassReport:
    q: float
    in_SV0q: bool
    in_SV1q: bool
    tail_value_at_1: float
    head_value_at_1: float


def classify(b: WeightExpr, q: float) -> SVClassReport:
    """The q-norms of b on (1, inf) and (0, 1)."""
    tail = tail_qnorm(b, q, 1.0)
    head = head_qnorm(b, q, 1.0)
    return SVClassReport(q=q, in_SV0q=math.isfinite(tail),
                         in_SV1q=math.isfinite(head),
                         tail_value_at_1=tail, head_value_at_1=head)

