"""Seed-drawn inputs of the three benchmark workloads.

A seed selects one of ``DRAWS`` draws (``seed % DRAWS``): odd seeds the draw
used while tuning the benchmark, even seeds a held-out draw for checking a
claim on inputs nobody looked at while making it.  The reference outcomes in
``bench/reference/`` cover both draws, so any seed can be checked.
Every draw has the same scenario mix: the same slots in the same order, with
the same discrete choices (grammar shapes, exponents q, weight kinds); the
seed picks only the numbers inside each slot.  Parameter ranges keep every
scenario passing at the commit that recorded the reference and keep the cost
of a batch close to the same on every draw.

The program receives only the files written here: ``workload.cfg`` (a
``kinterp run`` config), the profile files it names, and for ``hardy``
``api.json`` with the ``hmt_check`` calls no config kind covers.
"""

from __future__ import annotations

import json
import math
import os
import random

WORKLOADS = ("closed-form", "reiteration", "hardy")
DRAWS = 2

#: scan grid of every holmstedt scenario: 65 rows over eight decades
SCAN_GRID = "1e-4,1e4,8"


def draw_index(seed: int) -> int:
    return seed % DRAWS


def _f(x: float) -> str:
    return f"{x:.3f}".rstrip("0").rstrip(".") if x != int(x) else str(int(x))


class _Draw:
    """Helpers over two ``random.Random`` streams so a slot reads as a recipe.

    ``pick`` (a discrete choice: a grammar shape, an exponent q, a weight
    kind) draws from ``choices``, which is the same on every draw, so every
    draw makes the same choices in the same slots.  The numbers inside a slot
    come from ``rng``, which the seed selects.  A discrete choice can change
    a scenario's cost by half (``b = one`` against a log weight in a
    reiteration), so drawing it per seed would make draws differ in cost.
    """

    def __init__(self, rng: random.Random, choices: random.Random):
        self.rng = rng
        self.choices = choices

    def u(self, lo: float, hi: float) -> float:
        return round(self.rng.uniform(lo, hi), 3)

    def pick(self, seq):
        return seq[self.choices.randrange(len(seq))]

    def logu(self, lo: float, hi: float) -> float:
        return float(f"{math.exp(self.rng.uniform(math.log(lo), math.log(hi))):.3g}")


# ---------------------------------------------------------------------------
# weights and profiles
# ---------------------------------------------------------------------------

def _shape(d: _Draw, a0: float, ai: float) -> str:
    """The broken logarithm log(a0,ai) written as one of several grammar
    shapes, so parsing and evaluation see ``pow``, ``flip`` and ``mul``."""
    shape = d.pick(("log", "pow", "flip", "mul"))
    if shape == "log":
        return f"log({_f(a0)},{_f(ai)})"
    if shape == "pow":
        r = d.pick((0.5, 2.0))
        return f"pow(log({_f(a0 / r)},{_f(ai / r)}),{_f(r)})"
    if shape == "flip":
        return f"flip(log({_f(ai)},{_f(a0)}))"
    return f"mul(log({_f(a0)},0),log(0,{_f(ai)}))"


def _tail_weight(d: _Draw) -> str:
    """A weight in the tail class for q <= 2 (tail exponent below -1)."""
    return _shape(d, d.u(-2.0, 0.0), d.u(-3.0, -2.0))


def _tail_pair(d: _Draw) -> tuple[str, str]:
    """(b0, b1) in the tail class with b1 decaying faster at both ends, so
    the tail quotient rho = ||b0|| / ||b1|| is nondecreasing."""
    a0, ai = d.u(-2.0, -1.0), d.u(-2.5, -1.5)
    return (_shape(d, a0, ai),
            _shape(d, a0 + d.u(0.0, 1.0), ai - d.u(0.5, 1.0)))


def _mixed_pair(d: _Draw) -> tuple[str, str]:
    """(b0, b1) for q0 = 1, q1 = 2 in the tail class with a nondecreasing
    rho: the tail exponent of b1 is at most that of b0."""
    a0, ai = d.u(-2.0, 0.0), d.u(-3.0, -2.0)
    return _shape(d, a0, ai), f"log(0,{_f(ai - d.u(0.0, 0.5))})"


def _profile(d: _Draw, form: str, theta=(0.2, 0.8)) -> str:
    """A profile literal of the given form; ``theta`` bounds the exponent of
    the power forms."""
    if form == "min1":
        return "min1"
    if form == "power":
        return f"power({_f(d.u(*theta))})"
    if form == "powerlog":
        # concave on this range, so it realizes by exact differentiation
        # rather than the sampled upper hull
        th = d.u(max(theta[0], 0.45), min(theta[1], 0.6))
        return f"powerlog({_f(th)},{_f(d.u(-0.2, 0.0))},{_f(d.u(-0.2, 0.0))})"
    ts = sorted(d.logu(1e-2, 1e2) for _ in range(3))
    ts = [ts[0], max(ts[1], ts[0] * 2), max(ts[2], ts[1] * 4)]
    g = d.u(0.3, 0.7)
    nodes = ",".join(f"({t:.3g},{t ** g:.3g})" for t in ts)
    return f"piecewise[{nodes}]"


PROFILE_FORMS = ("min1", "power", "powerlog", "piecewise")


# ---------------------------------------------------------------------------
# config writing
# ---------------------------------------------------------------------------

def _block(kind: str, name: str, **params) -> str:
    lines = [f"[{kind} {name}]"]
    lines += [f"{k} = {v}" for k, v in params.items()]
    return "\n".join(lines) + "\n"


def _closed_form(d: _Draw, files: dict) -> list[str]:
    blocks = []

    def scan(name, case, q0, b0, q1, b1, profile, **extra):
        blocks.append(_block("holmstedt", name, case=case, q0=q0, b0=b0, q1=q1,
                             b1=b1, **extra, profile=profile, grid=SCAN_GRID,
                             out=f"{name}.csv"))

    # limiting frames need a K bounded at infinity: min1 and piecewise
    bounded = ("min1", "piecewise")
    for i in range(4):
        b0, b1 = _mixed_pair(d)
        scan(f"l00-mixed-{i}", "limiting00", 1, b0, 2, b1,
             _profile(d, bounded[i % 2]))
    for i in range(4):
        q = d.pick((1, 2))
        b0, b1 = _tail_pair(d)
        scan(f"l00-equal-{i}", "limiting00", q, b0, q, b1,
             _profile(d, bounded[(i + 1) % 2]))
    for i in range(2):  # the t -> 1/t mirror of the limiting00 slots
        q = d.pick((1, 2))
        b0, b1 = _tail_pair(d)
        scan(f"l11-equal-{i}", "limiting11", q, f"flip({b1})", q, f"flip({b0})",
             _profile(d, bounded[i % 2]))
        b0, b1 = _mixed_pair(d)
        scan(f"l11-mixed-{i}", "limiting11", 2, f"flip({b1})", 1, f"flip({b0})",
             _profile(d, bounded[(i + 1) % 2]))
    for i in range(4):
        p0, p1 = d.u(-1.0, 0.0), d.u(-1.0, 1.0)
        q = d.pick((1, 2))
        scan(f"interior-{i}", "interior_equal_q", q, f"log({_f(p0)},{_f(p1)})",
             q, f"flip(log({_f(p1 - d.u(0.0, 1.0))},{_f(p0 + d.u(0.0, 1.0))}))",
             _profile(d, bounded[i % 2]), theta=_f(d.u(0.3, 0.7)))
    for i in range(4):
        # unbounded power profiles have finite norms strictly between the
        # two thetas; narrow ranges keep the adaptive share of these scans,
        # and so the cost of a draw, steady
        th0 = d.u(0.24, 0.26)
        th1 = th0 + d.u(0.38, 0.42)
        scan(f"nonlimiting-{i}", "nonlimiting", 1,
             f"log({_f(d.u(-0.2, 0.2))},{_f(d.u(-0.2, 0.2))})", 2,
             f"pow(log({_f(d.u(-0.1, 0.1))},{_f(d.u(-0.1, 0.1))}),2)",
             _profile(d, ("power", "powerlog")[i % 2], (th0 + 0.1, th1 - 0.1)),
             theta0=_f(th0), theta1=_f(th1))
    # a narrow exponent range: the scan's cost grows as the exponent shrinks
    scan("explog-scan", "limiting00", 1,
         f"mul(log(0,-2),pow(explog({_f(d.u(0.29, 0.31))}),-1))", 2,
         "log(0,-2)", "min1")
    for i, form in enumerate(PROFILE_FORMS):
        blocks.append(_block(
            "norm", f"norm-{i}", profile=_profile(d, form), theta=0,
            q=d.pick((1, 2)), b=_tail_weight(d), out=f"norm-{i}.csv"))
    sv_weights = (_tail_weight(d), f"flip({_tail_weight(d)})",
                  f"mul({_tail_weight(d)},pow(explog({_f(d.u(0.2, 0.6))}),-1))",
                  f"flip(pow(explog({_f(d.u(0.2, 0.6))}),{_f(d.u(-2.0, -0.5))}))")
    for i, w in enumerate(sv_weights):
        blocks.append(_block("sv-check", f"sv-{i}", weight=w, q=d.pick((1, 2)),
                             out=f"sv-{i}.csv"))
    for i in range(2):
        blocks.append(_block(
            "lk-check", f"lk-{i}", q=1,
            b=f"log({_f(d.u(-3.0, -1.5))},{_f(d.u(-1.0, 0.0))})",
            count=4, seed=d.rng.randrange(10000), out=f"lk-{i}.csv"))
    for i in range(2):
        blocks.append(_block(
            "negative-demo", f"demo-{i}", theta=_f(d.u(0.3, 0.7)), q0=1, q1=2,
            b0=f"log({_f(d.u(-3.5, -2.5))},{_f(d.u(-3.5, -2.5))})", b1="one",
            grid="1e-6,1e6,8", out=f"demo-{i}.csv"))
    for which, i in (("A1", 0), ("A1", 1), ("A3", 0), ("A3", 1)):
        blocks.append(_block(
            "constants", f"{which.lower()}-{i}", p=1, q=2,
            v=f"log(0,{_f(d.u(-2.5, -1.5))})", w=f"log(0,{_f(d.u(-2.5, -1.5))})",
            which=which, out=f"{which.lower()}-{i}.csv"))
    return blocks


def _reiteration(d: _Draw, files: dict) -> list[str]:
    blocks = []
    for i in range(8):
        side = 0 if i < 5 else 1
        name = f"reit-{side}-{i}"
        prof_file = f"{name}.profiles"
        files[prof_file] = "".join(_profile(d, form) + "\n"
                                   for form in PROFILE_FORMS)
        # c - a >= 1 makes rho grow fast enough to pass the limit probes
        a = d.u(1.8, 2.5)
        c = a + d.u(1.0, 1.5)
        b0, b1 = f"log({_f(-a)},{_f(-a)})", f"log(0,{_f(-c)})"
        q1 = d.pick((1, 2))
        if side == 1:
            # the t -> 1/t mirror with the slots swapped; eta tends to 0
            # at 0+ only for equal exponents here
            b0, b1, q1 = f"flip({b1})", f"flip({b0})", 1
        blocks.append(_block(
            "reiterate", name, side=side, theta=_f(d.u(0.3, 0.7)),
            q=d.pick((1, 2)), b=d.pick(("one", "log(0,-1)", "log(1,1)")),
            q0=1, b0=b0, q1=q1, b1=b1, profiles=prof_file, out=f"{name}.csv"))
    return blocks


def _hardy(d: _Draw, files: dict) -> list[str]:
    blocks = [
        # the grammar-weight cliff: phi = log(0,-2) sends every inner
        # integral through nested QUADPACK over scalar weight evaluation
        _block("hardy-check", "cliff", case="HET1", alpha=2, w="expdecay(1)",
               phi="log(0,-2)", samples=2, seed=13579, out="cliff.csv"),
        _block("hardy-check", "grammar-phi", case="HET1",
               alpha=_f(d.u(1.8, 2.2)), w=f"expdecay({_f(d.u(0.9, 1.1))})",
               phi=f"log(0,{_f(d.u(-2.2, -1.8))})", samples=1, seed=2,
               out="grammar-phi.csv"),
        _block("hardy-check", "opaque-het1", case="HET1",
               alpha=_f(d.u(1.5, 3.0)), w=f"expdecay({_f(d.u(0.5, 2.0))})",
               phi=f"const({_f(d.u(0.5, 2.0))})", samples=8, seed=11,
               out="opaque-het1.csv"),
        _block("hardy-check", "opaque-het3plus", case="HET3plus",
               alpha=_f(d.u(0.3, 0.8)), w=f"expdecay({_f(d.u(0.5, 2.0))})",
               phi=f"const({_f(d.u(0.5, 2.0))})", samples=8, seed=5,
               out="opaque-het3plus.csv"),
        _block("hardy-check", "opaque-het3", case="HET3",
               alpha=_f(d.u(0.3, 0.8)), w=f"expdecay({_f(d.u(1.5, 2.5))})",
               phi=f"expdecay({_f(d.u(0.5, 1.2))})", samples=8, seed=5,
               out="opaque-het3.csv"),
    ]
    for which in ("A2", "A4"):
        blocks.append(_block(
            "constants", which.lower(), p=2, q=1,
            v=f"log({_f(d.u(-0.3, 0.0))},-2)",
            w=f"log({_f(d.u(-2.3, -1.8))},{_f(d.u(-3.3, -2.7))})",
            which=which, out=f"{which.lower()}.csv"))
    calls = []
    for i in range(2):  # criterion-14 shape: psi = e^{-a t - c u} wt(t) wu(u)
        # nonnegative head exponents and x = 1: negative exponents and
        # small x slow the kernel integrals several-fold
        e0, e1 = d.u(0.05, 1.0), d.u(0.05, 1.0)
        calls.append({
            "name": f"hmt-{i}", "alpha": d.u(0.7, 1.0),
            "a": d.u(1.0, 1.5), "c": d.u(1.0, 1.5),
            "wt": f"log({_f(e0)},{_f(-abs(e0))})",
            "wu": f"log({_f(e1)},{_f(-abs(e1))})", "x": 1.0})
    files["api.json"] = json.dumps({"hmt_check": calls}, indent=1,
                                   sort_keys=True) + "\n"
    return blocks


_BUILDERS = {"closed-form": _closed_form, "reiteration": _reiteration,
             "hardy": _hardy}


def generate(workload: str, seed: int, out_dir: str) -> dict:
    """Write the inputs of one draw into ``out_dir``; returns their names.

    Paths inside the config are relative to ``out_dir``, which is where the
    workload process runs.
    """
    if workload not in _BUILDERS:
        raise ValueError(f"unknown workload {workload!r}")
    rng = random.Random(f"{workload}:{draw_index(seed)}")
    files: dict[str, str] = {}
    blocks = _BUILDERS[workload](
        _Draw(rng, random.Random(f"{workload}:choices")), files)
    files["workload.cfg"] = (f"# {workload}, draw {draw_index(seed)}\n\n"
                             + "\n".join(blocks))
    os.makedirs(out_dir, exist_ok=True)
    for name, text in sorted(files.items()):
        with open(os.path.join(out_dir, name), "w", encoding="utf-8") as fh:
            fh.write(text)
    return {"config": "workload.cfg",
            "api": "api.json" if "api.json" in files else None}
