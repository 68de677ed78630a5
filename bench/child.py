"""The workload process of the benchmark (started by ``bench/run.py``).

``setup`` mode times ``import kinterp`` plus ``load_config`` of the
workload's config, in this fresh interpreter.

``run`` mode executes the workload as a closed loop: one batch (every
scenario of the config through ``kinterp.cli.run``, writing CSV/JSON, then
the API calls of ``api.json``) after another until ``--seconds`` have passed.
It times each scenario and API call and leaves each batch's outputs in a
directory of their own; ``bench/run.py`` checks them against the reference
after this process has ended.  This process never loads the reference, so
its peak RSS is kinterp's plus the interpreter's and this small harness's.
With ``--trace 1`` it runs untraced batches for half the time, then one
traced batch, and derives the per-layer metrics from its spans.

The last line of stdout is one JSON object for the parent.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import resource
import statistics
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import outcomes  # noqa: E402

#: the self times of all spans must sum to the root durations to this share
SELF_SUM_RTOL = 1e-9

#: the traced batch's output directory; untraced batches use b0, b1, ...
TRACED_BATCH = "traced"

#: ROADMAP baseline rows: (label, span name, per, unit scale, unit, figure)
CROSSWALK = (
    ("L0 scalar eval b(t)", "weights.eval", "call", 1e6, "us", "7.3 us"),
    ("L1 tail_qnorm", "weights.qnorm", "call", 1e6, "us", "10 us"),
    ("L3 DecompositionTable build", "holmstedt.table_build", "call", 1e3, "ms",
     "15 ms"),
    ("L4 reiteration_check", "reiteration.check", "call", 1.0, "s",
     "0.56-0.68 s (6 profiles)"),
    ("L4 compute_constant A2", "weighted_ineq.compute_constant[A2]", "call",
     1.0, "s", "0.14-0.21 s"),
    ("L4 compute_constant A4", "weighted_ineq.compute_constant[A4]", "call",
     1e3, "ms", "47-67 ms"),
    ("L4 hardy_check opaque", "weighted_ineq.hardy_check[opaque]", "sample",
     1e3, "ms", "8.2 ms (0.41 s / 50 samples)"),
    ("L4 hardy_check grammar", "weighted_ineq.hardy_check[grammar]", "sample",
     1.0, "s", "0.79 s (39.7 s / 50 samples)"),
)


#: iterations of the host gauge's fixed loop
GAUGE_LOOPS = 100_000

#: the gauge's time on a fast core of the 2-core machine the benchmark was
#: written on; run_s is scaled to the host speed at which the gauge takes this
GAUGE_REF_S = 6.0e-3

#: a gauge runs before a scenario or API call when this long has passed
#: since the last one, so each item's gauge was taken at most this long
#: before it started
GAUGE_EVERY_S = 0.2


def host_gauge_s() -> float:
    """Time of a fixed pure-Python loop: how fast the host runs this process
    right now.  It uses nothing of kinterp, so no change to kinterp moves
    it."""
    t0 = time.perf_counter()
    acc = 0
    for i in range(GAUGE_LOOPS):
        acc += i * i
    return time.perf_counter() - t0


def run_seconds(batches: list[list[float]], gauges: list[list[float]]) -> float:
    """run_s of one run, from each item's time in each batch and the host
    gauge taken just before it.

    On a shared host the speed of a core changes, by up to about 2x, for
    seconds to minutes at a time, so a run can fall wholly in a slow spell.
    Each sample is scaled by ``GAUGE_REF_S / gauge``: its time at the
    reference host speed.  run_s is the sum, over the scenarios and API
    calls of a batch, of the median of each one's scaled samples (see
    "Noise on a shared host" in README.md)."""
    return sum(statistics.median(t * GAUGE_REF_S / g for t, g in zip(ts, gs))
               for ts, gs in zip(zip(*batches), zip(*gauges)))


def environment() -> dict:
    import importlib.metadata
    import numpy
    import scipy
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    pins = {k: v for k, v in sorted(os.environ.items())
            if k.endswith("_NUM_THREADS") or k == "VECLIB_MAXIMUM_THREADS"}
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__,
            "mpmath": importlib.metadata.version("mpmath"),
            "nproc": os.cpu_count(), "cpu": cpu, "thread_pins": pins}


def cmd_setup(args) -> dict:
    t0 = time.perf_counter()
    import kinterp  # noqa: F401
    from kinterp.config import load_config
    scenarios = load_config(args.config)
    return {"setup_s": time.perf_counter() - t0, "scenarios": len(scenarios)}


def api_calls(path):
    """The ``hmt_check`` calls of ``api.json`` as (name, thunk) pairs."""
    if path is None:
        return []
    from kinterp.weighted_ineq import hmt_check
    from kinterp.weights import parse_weight
    with open(path, encoding="utf-8") as fh:
        spec = json.load(fh)
    calls = []
    for c in spec["hmt_check"]:
        wt, wu = parse_weight(c["wt"]), parse_weight(c["wu"])

        def psi(t, u, a=c["a"], cc=c["c"], wt=wt, wu=wu):
            return math.exp(-a * t - cc * u) * wt(t) * wu(u)

        def thunk(alpha=c["alpha"], psi=psi, x=c["x"]):
            return hmt_check(alpha, psi, lambda t: 1.0, lambda t: math.exp(-t),
                             x_grid=[x], h_samples=[])
        calls.append((c["name"], thunk))
    return calls


class Workload:
    """One workload's scenarios and API calls, run batch by batch."""

    def __init__(self, config: str, api):
        from kinterp import cli
        from kinterp.config import load_config
        self.cli = cli
        self.scenarios = load_config(config)
        self.calls = api_calls(api)

    def batch(self, out_dir: str, tracer=None) -> tuple[list[float],
                                                          list[float]]:
        """Run one batch into the new directory ``out_dir``.  Returns the
        seconds of each scenario (with its CSV/JSON writes) and of each API
        call, in order, and the host gauge that applies to each.  Each
        scenario goes through ``cli.run`` on its own and writes
        ``summary-<i>.json``; the API outcomes go to ``api.json`` after the
        last call."""
        os.makedirs(out_dir)
        times, gauges, reports = [], [], {}
        last = [-math.inf, 0.0]  # end of the last gauge, its time

        def timed(fn) -> None:
            if time.perf_counter() - last[0] >= GAUGE_EVERY_S:
                last[1] = host_gauge_s()
                last[0] = time.perf_counter()
            t0 = time.perf_counter()
            fn()
            times.append(time.perf_counter() - t0)
            gauges.append(last[1])

        def call(name, thunk) -> None:
            try:
                if tracer is None:
                    reports[name] = thunk()
                else:
                    with tracer.request(f"api.{name}"):
                        reports[name] = thunk()
            except Exception:  # an API call that raises is a differing outcome
                reports[name] = None

        for i, scenario in enumerate(self.scenarios):
            timed(lambda: self.cli.run([scenario], out_dir=out_dir,
                                       summary_path=f"summary-{i}.json",
                                       quiet=True))
        for name, thunk in self.calls:
            timed(lambda: call(name, thunk))
        if self.calls:
            api = {name: outcomes.call_outcome(r, error=r is None)
                   for name, r in reports.items()}
            with open(os.path.join(out_dir, "api.json"), "w",
                      encoding="utf-8") as fh:
                json.dump(api, fh)
        return times, gauges


#: (span name, reported fields) of the per-layer metrics read off the spans
LAYER_SPANS = (
    ("weights.eval", ("calls", "self_s")),
    ("weights.qnorm", ("calls", "self_s")),
    ("weights.kernel_integral", ("calls",)),
    ("weights.parse", ("self_s",)),
    ("quadrature.integrate_terms", ("calls", "self_s")),
    ("quadrature.exp_pow_integral", ("calls",)),
    ("quadrature.golden", ("calls",)),
    ("scipy.quad", ("calls", "self_s")),
    ("scipy.gammaincc", ("calls",)),
    ("profiles.curve_eval", ("calls", "self_s")),
    ("profiles.truncation_split", ("calls",)),
    ("profiles.realize", ("self_s",)),
    ("norms.weighted_knorm", ("calls", "self_s")),
    ("norms.space_norm", ("calls",)),
    ("norms.index", ("calls", "self_s")),
    ("norms.condition_check", ("self_s",)),
    ("holmstedt.table_build", ("calls", "self_s")),
    ("holmstedt.piece_norms", ("calls",)),
    ("holmstedt.rhs_formula", ("calls", "self_s")),
    ("holmstedt.verify_hypotheses", ("self_s",)),
    ("weighted_ineq.hardy_check", ("self_s",)),
    ("weighted_ineq.step_integral", ("calls", "self_s")),
    ("weighted_ineq.compute_constant", ("self_s",)),
    ("weighted_ineq.hmt_check", ("self_s",)),
    ("reiteration.index_value", ("calls",)),
    ("reiteration.composite_eval", ("calls", "self_s")),
    ("reiteration.check", ("self_s",)),
    ("reiteration.lk_check", ("self_s",)),
    ("config.load_config", ("self_s",)),
    ("cli.write", ("self_s",)),
)

#: counters the wrappers add up, with their units
LAYER_COUNTERS = (("quadrature.golden.evals", "count"),
                  ("holmstedt.scan.rows", "count"),
                  ("holmstedt.scan.skipped", "count"),
                  ("cli.write.bytes", "bytes"))


def _match(names, base: str) -> list[str]:
    """Span names of ``base``, tagged variants (``base[tag]``) included."""
    return [n for n in names if n == base or n.startswith(base + "[")]


def layer_metrics(tracer, arrays, summary: dict) -> dict:
    """Per-layer metrics of one traced batch, by BENCHMARK.json name."""
    import numpy as np

    def total(base, field):
        return sum(summary[n][field] for n in _match(summary, base))

    m = {}
    for base, fields in LAYER_SPANS:
        for field in fields:
            m[f"{base}.{field}"] = (total(base, field),
                                    "count" if field == "calls" else "s")
    for kind in ("grammar", "opaque"):
        m[f"weighted_ineq.hardy_check.{kind}_self_s"] = (
            total(f"weighted_ineq.hardy_check[{kind}]", "self_s"), "s")
    for key, unit in LAYER_COUNTERS:
        m[key] = (tracer.counters[key], unit)
    # the memo's useful-work ratio: 1 - truncations done inside piece_norms
    # per piece_norms call (0 when the workload builds no table)
    calls = total("holmstedt.piece_norms", "calls")
    ids = {n: i for i, n in enumerate(tracer.names)}
    inside = 0
    if calls and "profiles.truncation_split" in ids:
        name, parent = arrays["name"], arrays["parent"]
        trunc = (name == ids["profiles.truncation_split"]) & (parent >= 0)
        inside = int(np.sum(name[parent[trunc]] == ids["holmstedt.piece_norms"]))
    m["holmstedt.piece_norms.hit_ratio"] = (
        1.0 - inside / calls if calls else 0.0, "ratio")
    for mod, n in tracer.errors.items():
        m[f"{mod}.errors"] = (n, "count")
    m["trace.spans"] = (len(arrays["name"]), "count")
    return m


def crosswalk(summary: dict, counters) -> list[str]:
    lines = []
    for label, span, per, scale, unit, figure in CROSSWALK:
        spans = _match(summary, span)
        if not spans:
            continue
        total = sum(summary[n]["total_s"] for n in spans)
        if per == "sample":
            n = sum(counters[f"weighted_ineq.hardy_check.samples[{s.split('[')[1]}"]
                    for s in spans)
        else:
            n = sum(summary[s]["calls"] for s in spans)
        if n:
            lines.append(f"crosswalk {label}: {total / n * scale:.4g} {unit} "
                         f"per {per} over {n} (traced; ROADMAP {figure})")
    return lines


def cmd_run(args) -> dict:
    # imported here, not at the top, so that setup mode times the first
    # import of numpy as part of ``import kinterp``
    import spans
    import kinterp.cli  # noqa: F401  (loads every layer before the snapshot)
    before = spans.snapshot()
    work = Workload(args.config, args.api)
    out = os.path.abspath(args.out)
    result = {"environment": environment(), "lines": [],
              "items": [s.name for s in work.scenarios]
              + [name for name, _ in work.calls]}

    budget = args.seconds / 2.0 if args.trace else args.seconds
    batches, gauges = [], []
    t_start = time.perf_counter()
    # start another batch only while it would end at most half a batch late
    while not batches or (time.perf_counter() - t_start + 0.5 * statistics.median(
            sum(b) for b in batches) < budget):
        times, gauge = work.batch(os.path.join(out, f"b{len(batches)}"))
        batches.append(times)
        gauges.append(gauge)
    untouched = all(spans.snapshot()[k] is v for k, v in before.items())
    result.update(item_s=batches, item_gauge_s=gauges,
                  peak_rss_mb=resource.getrusage(
                      resource.RUSAGE_SELF).ru_maxrss / 1024.0,
                  untouched=untouched)

    if args.trace:
        tracer = spans.Tracer()
        tracer.install()
        try:
            with tracer.root():
                traced_work = Workload(args.config, args.api)
                traced, traced_gauge = traced_work.batch(
                    os.path.join(out, TRACED_BATCH), tracer)
        finally:
            tracer.uninstall()
        restored = all(spans.snapshot()[k] is v for k, v in before.items())
        arrays = tracer.arrays()
        self_t = spans.self_times(arrays)
        roots = arrays["parent"] < 0
        root_s = float(sum(arrays["end"][roots] - arrays["start"][roots]))
        residual = abs(float(self_t.sum()) - root_s)
        nesting = spans.nesting_errors(arrays)
        summary = spans.summarize(tracer.names, arrays)
        if args.trace_out:
            tracer.save(args.trace_out)
        result.update(
            layers=layer_metrics(tracer, arrays, summary),
            traced_run_s=run_seconds([traced], [traced_gauge]),
            restored=restored,
            self_sum_ok=nesting == 0
            and residual <= SELF_SUM_RTOL * root_s + 1e-12,
            lines=[f"trace: {len(arrays['name'])} spans, {nesting} break "
                   f"strict nesting; root {root_s:.6f} s, sum of self times "
                   f"{float(self_t.sum()):.6f} s"]
            + crosswalk(summary, tracer.counters))
    return result


def cmd_dump(args) -> dict:
    """One untraced batch into ``--out`` (recording the reference)."""
    import kinterp.cli  # noqa: F401
    Workload(args.config, args.api).batch(os.path.abspath(args.out))
    return {"environment": environment()}


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("mode", choices=("setup", "run", "dump"))
    p.add_argument("--config", default="workload.cfg")
    p.add_argument("--api", default=None)
    p.add_argument("--out", default="out",
                   help="directory for the batches' outputs")
    p.add_argument("--seconds", type=float, default=10.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--trace-out", default=None)
    args = p.parse_args(argv)
    handler = {"setup": cmd_setup, "run": cmd_run, "dump": cmd_dump}[args.mode]
    print(json.dumps(handler(args), sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
