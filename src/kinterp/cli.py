"""Command line front end: scenario execution with reproducible CSV/JSON output.

Exit codes: 0 when every scenario passes, 1 when any condition or scan check
fails, 2 on configuration errors.  Identical config and seed produce
byte-identical outputs; floats are printed with 17 significant digits.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
import tempfile
from typing import Iterable, Optional

import numpy as np

from .config import (KINDS, ConfigError, Scenario, _parse_int, _validate,
                     load_config, parse_grid)
from .holmstedt import (
    HolmstedtCase,
    HypothesisError,
    equivalence_scan,
    negative_demo,
    realize_rearrangement,
)
from .norms import SpaceSpec, space_norm, sv_quasimonotone_constant
from .profiles import profile_suite, random_rearrangement
from .quadrature import GridSpec, SCAN_GRID, term_memo
from .reiteration import ReiterationSpec, lk_identification_check, reiteration_check
from .weighted_ineq import InequalitySpec, best_constant_probe, compute_constant, hardy_check
from .weights import classify

__all__ = ["main", "run"]

#: where a constants scenario probes A1/A3 through best_constant_probe
PROBE_GRID = GridSpec(1e-6, 1e6, 16)


def _fmt(x) -> str:
    if isinstance(x, str):
        return x
    if x is None:
        return ""
    if isinstance(x, bool):
        return "true" if x else "false"
    if isinstance(x, (int, np.integer)):
        return str(int(x))
    v = float(x)
    if math.isinf(v):
        return "inf" if v > 0 else "-inf"
    if math.isnan(v):
        return "nan"
    return "%.17g" % v


def _write_atomic(path: str, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".kinterp-")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _csv(header: Iterable[str], rows: Iterable[Iterable]) -> str:
    lines = [",".join(header)]
    for row in rows:
        lines.append(",".join(_fmt(x) for x in row))
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# Scenario runners: each returns (passed, summary dict, csv text or None)
# ---------------------------------------------------------------------------

def _run_sv_check(s: Scenario):
    b = s.params["_weight"]
    q = s.params["_q"]
    rep = classify(b, q)
    consts = {eps: sv_quasimonotone_constant(b, eps) for eps in (1.0, 0.5, 0.1)}
    passed = all(s.params.get(key, got) == got for key, got in
                 (("_expect_sv0q", rep.in_SV0q), ("_expect_sv1q", rep.in_SV1q)))
    summary = {"in_SV0q": rep.in_SV0q, "in_SV1q": rep.in_SV1q,
               "tail_value_at_1": rep.tail_value_at_1,
               "head_value_at_1": rep.head_value_at_1,
               "quasi_monotone": {str(eps): c for eps, c in consts.items()}}
    csv = _csv(["eps", "constant"], sorted(consts.items()))
    return passed, summary, csv


def _run_norm(s: Scenario):
    prof = s.params["_profile"]
    space: SpaceSpec = s.params["_space"]
    value = space_norm(prof, space)
    return True, {"norm": value, "space": space.label()}, \
        _csv(["profile", "norm"], [(prof.label, value)])


def _run_holmstedt(s: Scenario):
    case: HolmstedtCase = s.params["_case"]
    prof = s.params["_profile"]
    try:
        rep = equivalence_scan(case, prof, s.grid)
    except HypothesisError as exc:
        return False, {"error": str(exc), "condition": exc.condition}, None
    limit = s.params["_max_variation"]
    passed = rep.variation <= limit and rep.rows != []
    summary = {"case": rep.label, "rows": len(rep.rows), "skipped": rep.skipped,
               "ratio_min": rep.ratio_min, "ratio_max": rep.ratio_max,
               "variation": rep.variation, "notes": rep.notes}
    return passed, summary, _csv(["t", "lhs", "rhs", "ratio"], rep.rows)


def _run_negative_demo(s: Scenario):
    rep = negative_demo(s.params["_theta"], s.params["_q0"], s.params["_q1"],
                        s.params["_b0"], s.params["_b1"], s.grid)
    summary = {"verdict": rep.verdict, "r_exponent": rep.r_exponent,
               "swapped": rep.swapped, "growth_ratio": rep.growth_ratio,
               "monotone_decades": rep.monotone_decades, "note": rep.note}
    return rep.confirmed, summary, \
        _csv(["t", "head_bound", "upper_bound", "M"], rep.rows)


def _run_reiterate(s: Scenario):
    spec: ReiterationSpec = s.params["_spec"]
    profiles = s.params.get("_profiles")
    if profiles is not None:
        suite = [realize_rearrangement(p) for p in profiles]
    else:
        suite = profile_suite()
    try:
        rep = reiteration_check(spec, suite)
    except HypothesisError as exc:
        return False, {"error": str(exc), "condition": exc.condition}, None
    passed = rep.rows != [] and rep.variation <= s.params["_max_variation"]
    summary = {"spec": rep.label, "variation": rep.variation,
               "skipped": rep.skipped, "notes": rep.notes}
    return passed, summary, _csv(["profile", "lhs", "rhs", "ratio"], rep.rows)


def _run_lk_check(s: Scenario):
    q, b = s.params["_q"], s.params["_b"]
    suite = s.params.get("_suite")
    if suite is None:
        rng = np.random.default_rng(s.seed if s.seed is not None else 2718)
        suite = [random_rearrangement(rng) for _ in range(s.params["_count"])]
    rep = lk_identification_check(suite, q, b)
    passed = rep.rows != [] and rep.ratio_min >= 1.0 - 1e-9 \
        and rep.ratio_max <= 1e2
    summary = {"ratio_min": rep.ratio_min, "ratio_max": rep.ratio_max,
               "variation": rep.variation, "skipped": rep.skipped}
    return passed, summary, _csv(["rearrangement", "lk_norm", "interp_norm",
                                  "ratio"], rep.rows)


def _run_hardy_check(s: Scenario):
    rep = hardy_check(s.params["case"], s.params["_alpha"], s.params["_w"],
                      s.params["_phi"], samples=s.params["_samples"],
                      seed=s.seed if s.seed is not None else 13579)
    passed = rep.max_ratio <= s.params["_max_ratio"]
    summary = {"case": rep.case, "alpha": rep.alpha, "max_ratio": rep.max_ratio,
               "samples": rep.samples, "skipped": rep.skipped}
    return passed, summary, _csv(["case", "alpha", "max_ratio"],
                                 [(rep.case, rep.alpha, rep.max_ratio)])


def _run_constants(s: Scenario):
    spec: InequalitySpec = s.params["_spec"]
    which = s.params["which"]
    probe = None
    with term_memo():  # the probe's points share terms, none the constant's
        rep = compute_constant(spec, which)
        if which in ("A1", "A3"):
            probe = best_constant_probe(spec, which, PROBE_GRID.points())
    passed = math.isfinite(rep.value)
    expect = s.params["_expect"]
    if expect is not None:
        passed = abs(rep.value - expect) <= s.params["_tol"]
    if probe is not None:
        passed = passed and probe <= rep.value * (1.0 + 1e-6)
    summary = {"which": which, "value": rep.value, "argmax": rep.argmax,
               "probe": probe}
    return passed, summary, _csv(["which", "value", "argmax", "probe"],
                                 [(which, rep.value, rep.argmax, probe)])


_RUNNERS = {
    "sv-check": _run_sv_check,
    "norm": _run_norm,
    "holmstedt": _run_holmstedt,
    "negative-demo": _run_negative_demo,
    "reiterate": _run_reiterate,
    "lk-check": _run_lk_check,
    "hardy-check": _run_hardy_check,
    "constants": _run_constants,
}


def run(scenarios: list[Scenario], out_dir: str = ".",
        summary_path: Optional[str] = None, quiet: bool = False) -> int:
    """Execute scenarios in declaration order; returns the exit code."""
    results = []
    exit_code = 0
    for s in scenarios:
        try:
            passed, summary, csv_text = _RUNNERS[s.kind](s)
        except Exception as exc:  # scenario failure must not stop the batch
            passed, summary, csv_text = False, {"error": str(exc)}, None
        if csv_text is not None and s.out:
            _write_atomic(os.path.join(out_dir, s.out), csv_text)
        results.append({"name": s.name, "kind": s.kind,
                        "status": "pass" if passed else "fail",
                        "out": s.out, "summary": summary})
        if not passed:
            exit_code = 1
        if not quiet:
            print(f"[{ 'PASS' if passed else 'FAIL' }] {s.kind} {s.name}")
    payload = json.dumps({"results": results}, sort_keys=True, indent=2,
                         default=_fmt)
    if summary_path:
        _write_atomic(os.path.join(out_dir, summary_path), payload + "\n")
    return exit_code


# ---------------------------------------------------------------------------
# argparse front end
# ---------------------------------------------------------------------------

def _scenario_from_args(kind: str, args: argparse.Namespace) -> Scenario:
    keys = KINDS[kind].required + KINDS[kind].optional
    params = {key: getattr(args, key) for key in keys
              if getattr(args, key) is not None}
    try:
        grid = parse_grid(args.grid) if args.grid else SCAN_GRID
    except ValueError as exc:
        raise ConfigError(f"--grid: {exc}", 0) from None
    seed = None if args.seed is None else _parse_int(args.seed, 0, "seed", 0)
    s = Scenario(kind=kind, name=f"cli-{kind}", params=params, line=0,
                 out=args.out, grid=grid, seed=seed)
    _validate(s)
    return s


def main(argv: Optional[list[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="kinterp",
        description="numerical checks for limiting K-interpolation formulas")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run every scenario in a config file")
    p_run.add_argument("config")
    p_run.add_argument("--out-dir", default=".")
    p_run.add_argument("--summary", default="summary.json")
    p_run.add_argument("--quiet", action="store_true")

    # one subcommand per scenario kind, one flag per key of its config block
    for kind, spec in KINDS.items():
        sp = sub.add_parser(kind, help=spec.help)
        for key in spec.required + spec.optional:
            sp.add_argument("--" + key.replace("_", "-"),
                            required=key in spec.required)
        sp.add_argument("--grid", help="tmin,tmax,points_per_decade")
        sp.add_argument("--out", help="CSV output path")
        sp.add_argument("--out-dir", default=".", help="directory for outputs")
        sp.add_argument("--seed")
        sp.set_defaults(summary=None, quiet=False)

    args = parser.parse_args(argv)
    try:
        scenarios = (load_config(args.config) if args.command == "run"
                     else [_scenario_from_args(args.command, args)])
    except (ConfigError, OSError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        return 2
    return run(scenarios, out_dir=args.out_dir, summary_path=args.summary,
               quiet=args.quiet)


if __name__ == "__main__":
    sys.exit(main())
