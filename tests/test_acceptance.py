"""End-to-end acceptance suite: one test per criterion, stated tolerances.

Run with ``pytest -s tests/test_acceptance.py`` to see one PASS/FAIL line per
criterion.
"""

import json
import math
import textwrap

import numpy as np
import pytest
from scipy import integrate as sci_integrate

from kinterp.cli import main
from kinterp.holmstedt import (
    DecompositionTable,
    HolmstedtCase,
    HypothesisError,
    equivalence_scan,
    incompatibility_M,
    negative_demo,
    rhs_formula,
)
from kinterp.norms import (
    SpaceSpec,
    check_condition_monotone_index,
    index,
    space_norm,
    weighted_knorm,
)
from kinterp.profiles import (
    KProfile,
    K_from_rearrangement,
    Rearrangement,
    conjugate_profile,
    profile_suite,
    random_rearrangement,
    realize_rearrangement,
)
from kinterp.quadrature import GridSpec
from kinterp.reiteration import (
    LKSpec,
    ReiterationSpec,
    build_tilde_b,
    lk_identification_check,
    log_derivative_check,
    lorentz_karamata_norm,
    reiteration_check,
)
from kinterp.weighted_ineq import (
    InequalitySpec,
    StepFunction,
    _hardy_lhs,
    best_constant_probe,
    compute_constant,
    hardy_build_v,
    hardy_check,
    hmt_check,
)
from kinterp.weights import (
    Flip,
    One,
    head_qnorm,
    parse_weight,
    tail_qnorm,
    weight_kernel_integral,
)

INF = math.inf

L02 = parse_weight("log(0,-2)")
L03 = parse_weight("log(0,-3)")
L01 = parse_weight("log(0,-1)")
LM20 = parse_weight("log(-2,0)")
LM22 = parse_weight("log(-2,-2)")
LM33 = parse_weight("log(-3,-3)")
ONE = One()

SCAN_GRID = GridSpec(1e-6, 1e6, 13)


def _report(n: int, title: str, ok: bool, detail: str = "") -> None:
    status = "PASS" if ok else "FAIL"
    line = f"ACCEPTANCE {n:02d} [{status}] {title}"
    if detail:
        line += f" -- {detail}"
    print(line)


def test_criterion_01_closed_form_quadrature():
    tail = tail_qnorm(L02, 1, math.e)
    head = head_qnorm(LM20, 1, math.exp(-1.0))
    ok = abs(tail - 0.5) / 0.5 <= 1e-9 and abs(head - 0.5) / 0.5 <= 1e-9
    _report(1, "closed-form tail/head integrals", ok,
            f"tail={tail!r} head={head!r}")
    assert ok


def test_criterion_02_asymptotic_bands():
    # The stated band [1/10, 10] is exceeded by the true equivalence
    # constants of the broken-log weights with positive head exponents (the
    # plain integral int_0^1 u^{-1/2}(1-ln u)^2 du alone equals 26), so this
    # criterion records an honest failure; see the worst offenders below.
    weights = [L02, parse_weight("log(2,-3)"), LM20, parse_weight("explog(0.5)")]
    worst = 1.0
    worst_at = ""
    for b in weights:
        for alpha in (0.5, 1.0, 2.0):
            for t in GridSpec(1e-8, 1e8, 8).points():
                t = float(t)
                head_ratio = weight_kernel_integral(b, 1.0, alpha, 0.0, t) \
                    / (t ** alpha * b(t))
                tail_ratio = weight_kernel_integral(b, 1.0, -alpha, t, INF) \
                    / (t ** -alpha * b(t))
                for r in (head_ratio, tail_ratio):
                    c = max(r, 1.0 / r)
                    if c > worst:
                        worst = c
                        worst_at = f"b={b.to_text()} alpha={alpha} t={t:.3g}"
    ok = worst <= 10.0
    _report(2, "head/tail kernel bands within [1/10, 10]", ok,
            f"worst constant {worst:.4g} at {worst_at}")
    assert ok, (f"band constant {worst:.4g} exceeds 10 at {worst_at}; "
                "the stated band is unattainable for these weights")


def test_criterion_03_best_constant_A3():
    spec = InequalitySpec(p=1.0, q=2.0, v=L02, w=L02)
    value = compute_constant(spec, "A3").value
    probe = best_constant_probe(spec, "A3", np.logspace(-4, 4, 321))
    ok = abs(value - 0.6124) <= 1e-3 and abs(probe - value) <= 1e-3
    _report(3, "best constant A3 and its probe", ok,
            f"A3={value:.6f} probe={probe:.6f}")
    assert ok


def test_criterion_04_extremal_identity():
    from kinterp.weighted_ineq import _bracket, _min_profile
    worst = 0.0
    for x in np.logspace(-5, 5, 40):
        x = float(x)
        lhs = weighted_knorm(_min_profile(x).curve, 0.0, 2.0, L02).value
        rhs = _bracket(L02, 2.0, x)
        worst = max(worst, abs(lhs - rhs) / rhs)
    ok = worst <= 1e-9
    _report(4, "plug-in identity for min(s,x)", ok, f"worst rel err {worst:.2e}")
    assert ok


def test_criterion_05_limiting00_scan():
    case = HolmstedtCase("limiting00", 1.0, 2.0, L02, L02)
    cond = check_condition_monotone_index("rho_eps", 1.0, L02, 2.0, L02)
    ratios = []
    for f in profile_suite():
        rep = equivalence_scan(case, f, SCAN_GRID)
        ratios.extend(r.ratio for r in rep.rows)
    variation = max(ratios) / min(ratios)
    in_band = all(1e-3 <= r <= 1e3 for r in ratios)
    ok = cond.passed and variation <= 1e3 and in_band
    _report(5, "limiting00 scan over the 6-profile suite", ok,
            f"variation {variation:.4g}, gate eps={cond.best_eps:g}")
    assert ok


def test_criterion_06_equal_exponent_scan():
    case = HolmstedtCase("limiting00", 1.0, 1.0, L02, L03)
    K = K_from_rearrangement(Rearrangement.indicator(1.0))
    rhs1 = rhs_formula(case, K, 1.0)
    rep = equivalence_scan(case, Rearrangement.indicator(1.0), SCAN_GRID)
    ok = abs(rhs1 - 2.0) <= 1e-6 and rep.variation <= 1e3
    _report(6, "equal-exponent scan with closed-form anchor", ok,
            f"rhs(1)={rhs1!r} variation {rep.variation:.4g}")
    assert ok


def test_criterion_07_necessity_gate():
    cond = check_condition_monotone_index("rho_eps", 1.0, L02, 2.0, L01)
    all_fail = not cond.passed and all(c > cond.threshold
                                       for _, c in cond.per_eps)
    case = HolmstedtCase("limiting00", 1.0, 2.0, L02, L01)
    refused = False
    condition_name = ""
    try:
        equivalence_scan(case, Rearrangement.indicator(1.0), SCAN_GRID)
    except HypothesisError as exc:
        refused = True
        condition_name = exc.condition
    # the CLI surfaces the refusal as exit code 1 with the named condition
    import tempfile, os
    with tempfile.TemporaryDirectory() as tmp:
        cfg = os.path.join(tmp, "gate.cfg")
        with open(cfg, "w") as fh:
            fh.write(textwrap.dedent("""\
                [holmstedt gated]
                case = limiting00
                q0 = 1
                b0 = log(0,-2)
                q1 = 2
                b1 = log(0,-1)
                profile = min1
                """))
        code = main(["run", cfg, "--out-dir", tmp, "--quiet"])
        with open(os.path.join(tmp, "summary.json")) as fh:
            summary = json.load(fh)
        named = summary["results"][0]["summary"].get("condition", "")
    ok = all_fail and refused and code == 1 and "rho_eps" in named
    _report(7, "necessity gate refuses the decaying pair", ok,
            f"best constant {cond.best_constant:.4g}, exit={code}")
    assert ok


def test_criterion_08_symmetry():
    case00 = HolmstedtCase("limiting00", 1.0, 2.0, L02, L02)
    case11 = HolmstedtCase("limiting11", q0=2.0, q1=1.0,
                           b0=Flip(L02), b1=Flip(L02))
    grid = GridSpec(1e-6, 1e6, 13)
    worst = 0.0
    for f in (Rearrangement.indicator(1.0), profile_suite()[2]):
        conj = realize_rearrangement(conjugate_profile(K_from_rearrangement(f)))
        rep00 = equivalence_scan(case00, f, grid)
        rep11 = equivalence_scan(case11, conj, grid)
        by_logt = {round(math.log10(r.t), 9): r for r in rep00.rows}
        assert len(rep11.rows) == len(rep00.rows)
        for r in rep11.rows:
            mirror = by_logt[round(-math.log10(r.t), 9)]
            worst = max(worst, abs(r.ratio - mirror.ratio) / mirror.ratio,
                        abs(r.lhs / r.rhs - mirror.lhs / mirror.rhs))
    ok = worst <= 1e-9
    _report(8, "upper-limit scan mirrors the lower-limit scan", ok,
            f"worst row discrepancy {worst:.2e}")
    assert ok


def test_criterion_09_nonexistence_demo():
    m3 = incompatibility_M(1.0, 2.0, LM33, ONE, math.exp(-3.0))
    m99 = incompatibility_M(1.0, 2.0, LM33, ONE, math.exp(-99.0))
    rep = negative_demo(0.5, 1.0, 2.0, LM33, ONE, SCAN_GRID)
    ok = (abs(m3 - 0.894) <= 1e-3 and abs(m99 - 4.472) <= 1e-3
          and rep.confirmed)
    _report(9, "equal-theta nonexistence demo", ok,
            f"M(e^-3)={m3:.6f} M(e^-99)={m99:.6f} verdict={rep.verdict!r}")
    assert ok


def test_criterion_10_equal_spaces_exactness():
    case = HolmstedtCase("limiting00", 1.0, 1.0, L02, L02)
    f = profile_suite()[2]
    norm = space_norm(K_from_rearrangement(f), SpaceSpec(0.0, 1.0, L02))
    table = DecompositionTable(f, *case.spaces())
    worst = 0.0
    for t in np.logspace(-3.0, 3.0, 20):
        s = index(float(t), "rho", 1.0, L02, 1.0, L02).value
        got = table.best(s)
        worst = max(worst, abs(got - norm) / norm)
    ok = worst <= 1e-9
    _report(10, "equal-spaces decomposition is exactly the norm", ok,
            f"worst rel err {worst:.2e}")
    assert ok


def test_criterion_11_reiteration():
    spec = ReiterationSpec(side=0, theta=0.5, q=1.0, b=ONE,
                           q0=1.0, b0=LM22, q1=1.0, b1=L03)
    tb = build_tilde_b(spec)
    anchor = abs(tb(1.0) - math.sqrt(2.0))
    deriv = log_derivative_check(spec)
    rep = reiteration_check(spec, profile_suite())
    ok = (anchor <= 1e-6 and 0.1 <= deriv.band_lo <= deriv.band_hi <= 10.0
          and rep.variation <= 1e3 and rep.skipped == 0)
    _report(11, "reiteration weight, derivative band, identity scan", ok,
            f"tilde(1)={tb(1.0):.9f} band=[{deriv.band_lo:.3g}, "
            f"{deriv.band_hi:.3g}] variation {rep.variation:.4g}")
    assert ok


def test_criterion_12_lorentz_karamata():
    chi = Rearrangement.indicator(1.0)
    lk = lorentz_karamata_norm(chi, LKSpec(INF, 1.0, LM20))
    interp = space_norm(K_from_rearrangement(chi), SpaceSpec(1.0, 1.0, LM20))
    rng = np.random.default_rng(424242)
    suite = [random_rearrangement(rng) for _ in range(10)]
    rep = lk_identification_check(suite, 1.0, LM20)
    ok = (abs(lk - 1.0) <= 1e-6 and abs(interp - 2.0) <= 1e-6
          and rep.ratio_min >= 1.0 - 1e-9 and rep.ratio_max <= 1e2)
    _report(12, "limiting Lorentz-Karamata identification", ok,
            f"norms ({lk!r}, {interp!r}), suite band "
            f"[{rep.ratio_min:.4g}, {rep.ratio_max:.4g}]")
    assert ok


def test_criterion_13_hardy_lemma():
    w = lambda t: math.exp(-t)
    phi = lambda t: 1.0
    v = hardy_build_v("HET1", 2.0, w, phi)
    h_one = StepFunction([], [], tail=1.0)
    lhs = _hardy_lhs("HET1", 2.0, w, phi, h_one)
    rhs = h_one.weighted_integral(v, 0.0, INF, power=2.0)
    rep = hardy_check("HET1", 2.0, w, phi, samples=50, seed=90210)
    ok = (abs(lhs - 2.0) <= 1e-6 and abs(rhs - 1.0) <= 1e-6
          and rep.max_ratio <= 10.0)
    _report(13, "constructed-weight Hardy inequality", ok,
            f"lhs={lhs:.8f} rhs={rhs:.8f} suite C={rep.max_ratio:.4g}")
    assert ok


def _scipy_quad(f, lo):
    return sci_integrate.quad(f, lo, math.inf, epsabs=1e-13, epsrel=1e-10,
                              limit=200, full_output=1)[0]


def test_criterion_14_kernel_reduction():
    rng = np.random.default_rng(1414)
    worst = worst_direct = 0.0
    for _ in range(20):
        a = float(rng.uniform(0.3, 2.0))
        c = float(rng.uniform(0.3, 2.0))
        e0 = float(rng.uniform(-1.0, 1.0))
        e1 = float(rng.uniform(-1.0, 1.0))
        wt = parse_weight(f"log({e0:.3f},{-abs(e0):.3f})")
        wu = parse_weight(f"log({e1:.3f},{-abs(e1):.3f})")
        psi = lambda t, u, a=a, c=c, wt=wt, wu=wu: \
            math.exp(-a * t - c * u) * wt(t) * wu(u)
        x = float(math.exp(rng.uniform(math.log(0.05), math.log(5.0))))
        alpha = float(rng.uniform(0.4, 1.0))
        rep = hmt_check(alpha, psi, lambda t: 1.0, lambda t: math.exp(-t),
                        x_grid=[x], h_samples=[])
        worst = max(worst, rep.reduction_discrepancy)
        # the condition written out directly, by scipy with hmt's tolerances
        lhs = _scipy_quad(lambda t: _scipy_quad(lambda u: psi(t, u), x)
                          ** alpha, 0.0)
        direct = lhs / _scipy_quad(lambda t: math.exp(-t), x)
        worst_direct = max(worst_direct,
                           abs(rep.condition_ratio - direct) / direct)
    ok = worst <= 1e-9 and worst_direct <= 1e-9
    _report(14, "indicator reduction of the kernel inequality", ok,
            f"worst discrepancy {worst:.2e}, against the direct condition "
            f"{worst_direct:.2e}")
    assert ok


def test_criterion_15_determinism(tmp_path):
    cfg = tmp_path / "full.cfg"
    cfg.write_text(textwrap.dedent("""\
        [sv-check s]
        weight = log(0,-2)
        q = 1
        out = sv.csv

        [holmstedt h]
        case = limiting00
        q0 = 1
        b0 = log(0,-2)
        q1 = 2
        b1 = log(0,-2)
        profile = min1
        grid = 1e-4,1e4,8
        out = h.csv

        [negative-demo n]
        theta = 0.5
        q0 = 1
        q1 = 2
        b0 = log(-3,-3)
        b1 = one
        grid = 1e-6,1e6,8
        out = n.csv

        [lk-check l]
        q = 1
        b = log(-2,0)
        count = 5
        seed = 99
        out = l.csv

        [hardy-check hc]
        case = HET1
        alpha = 2
        w = expdecay(1)
        phi = const(1)
        samples = 10
        seed = 3
        out = hc.csv
        """))
    import os
    outs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["run", str(cfg), "--out-dir", str(out), "--quiet"]) == 0
        outs.append(out)
    identical = True
    for name in sorted(os.listdir(outs[0])):
        if (outs[0] / name).read_bytes() != (outs[1] / name).read_bytes():
            identical = False
    ok = identical
    _report(15, "byte-identical reruns", ok)
    assert ok
