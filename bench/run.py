"""kinterp benchmark: one workload, one seed, end-to-end or traced.

Run from the repository root:

    python3 bench/run.py --workload closed-form --seed 1 --seconds 20 --trace 1

It generates the workload's inputs from the seed under ``.bench_work/``,
times set-up in fresh processes, runs the workload as a closed loop in one
child process with BLAS/OpenMP threads pinned to 1, checks every batch's
outputs against the recorded reference, and prints every metric by name with
its unit.  The last line of stdout is the JSON result: end-to-end metrics with
``--trace 0``, per-layer metrics from a traced batch with ``--trace 1``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)

import child  # noqa: E402
import outcomes  # noqa: E402
import workloads  # noqa: E402

#: fresh-process set-ups before and after the workload process; setup_s is
#: the median of all of them.  Splitting them puts them in two host periods
#: about --seconds apart, so one slow spell of the host rarely covers all.
SETUP_REPEATS = (3, 2)

#: set in the child processes only
THREAD_PINS = {"OMP_NUM_THREADS": "1", "OPENBLAS_NUM_THREADS": "1",
               "MKL_NUM_THREADS": "1", "NUMEXPR_NUM_THREADS": "1",
               "VECLIB_MAXIMUM_THREADS": "1"}

#: a run must end within this many seconds
DEADLINE_S = 170.0


def _child(args: list[str], cwd: str, env: dict, timeout: float) -> dict:
    proc = subprocess.run([sys.executable, os.path.join(BENCH, "child.py")]
                          + args, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=max(timeout, 1.0))
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr[-4000:])
        raise RuntimeError(f"workload process failed ({proc.returncode})")
    return json.loads(proc.stdout.strip().splitlines()[-1])


def _fmt(v) -> str:
    return f"{v:.6g}" if isinstance(v, float) else str(v)


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description="kinterp benchmark")
    p.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    t_begin = time.monotonic()

    root = os.getcwd()
    src = os.path.join(root, "src")
    if not os.path.isfile(os.path.join(src, "kinterp", "__init__.py")):
        print("error: src/kinterp not found; run from the repository root",
              file=sys.stderr)
        return 2
    draw = workloads.draw_index(args.seed)
    if not os.path.isfile(outcomes.reference_path(args.workload, draw)):
        print(f"error: no reference for {args.workload} draw {draw}",
              file=sys.stderr)
        return 2

    scratch = os.path.join(root, ".bench_work")
    work = os.path.join(scratch, f"{args.workload}-seed{args.seed}-{os.getpid()}")
    env = dict(os.environ, PYTHONPATH=src, **THREAD_PINS)
    try:
        inputs = workloads.generate(args.workload, args.seed, work)
        common = ["--config", inputs["config"]]
        if inputs["api"]:
            common += ["--api", inputs["api"]]

        def set_up(times: int) -> list[float]:
            return [_child(["setup"] + common, work, env,
                           DEADLINE_S - (time.monotonic() - t_begin))["setup_s"]
                    for _ in range(times)]

        setups = set_up(SETUP_REPEATS[0])
        trace_out = os.path.join(scratch, f"trace-{args.workload}.npz")
        res = _child(["run", *common, "--out", "out",
                      "--seconds", str(args.seconds),
                      "--trace", str(args.trace), "--trace-out", trace_out],
                     work, env, DEADLINE_S - (time.monotonic() - t_begin))
        setups += set_up(SETUP_REPEATS[1])
        # the gate runs here, after the workload process has ended
        gate = outcomes.Gate(outcomes.load_reference(args.workload, draw),
                             outcomes.DRIFT_BOUND[args.workload])
        out = os.path.join(work, "out")
        for batch in sorted(os.listdir(out)):
            gate.check(outcomes.read_batch(os.path.join(out, batch)))
    finally:
        shutil.rmtree(work, ignore_errors=True)

    batches, gauges = res["item_s"], res["item_gauge_s"]
    run_s = child.run_seconds(batches, gauges)
    end_to_end = {
        "setup_s": (statistics.median(setups), "s"),
        "run_s": (run_s, "s"),
        "peak_rss_mb": (res["peak_rss_mb"], "MB"),
    }
    fail_ratio = gate.failed / gate.attempted
    correct = gate.failed == 0 and res["untouched"]
    totals = [sum(b) for b in batches]
    print(f"environment: {json.dumps(res['environment'], sort_keys=True)}")
    print(f"workload {args.workload}, seed {args.seed} (draw {draw}), "
          f"closed loop, one client")
    print(f"setup_s samples: {len(setups)}  run_s samples: {len(batches)} "
          f"batches of {len(res['items'])} scenarios and API calls")
    print("batch totals: " + " ".join(f"{b:.3f}" for b in totals)
          + f" (median {statistics.median(totals):.4f} s, unscaled)")
    gauge = [g * 1e3 for g in sum(gauges, [])]
    print(f"host gauge before each item: median "
          f"{statistics.median(gauge):.2f} ms, min {min(gauge):.2f}, max "
          f"{max(gauge):.2f}; run_s is scaled to "
          f"{child.GAUGE_REF_S * 1e3:g} ms")
    for name, (value, unit) in end_to_end.items():
        print(f"metric {name} = {_fmt(value)} {unit}")
    print(f"metric fail_ratio = {_fmt(fail_ratio)} ratio "
          f"({gate.failed} of {gate.attempted} outcomes differ)")
    print(f"metric max_rel_drift = {_fmt(gate.max_drift)} ratio "
          f"(bound {outcomes.DRIFT_BOUND[args.workload]:g})")
    for line in gate.differences:
        print(f"differs: {line}")
    if not res["untouched"]:
        print("error: an untraced run changed a traced function object")

    metrics = end_to_end
    if args.trace:
        correct = correct and res["restored"] and res["self_sum_ok"]
        metrics = {k: (v, u) for k, (v, u) in res["layers"].items()}
        metrics["trace.overhead_s"] = (res["traced_run_s"] - run_s, "s")
        metrics["fail_ratio"] = (fail_ratio, "ratio")
        metrics["max_rel_drift"] = (gate.max_drift, "ratio")
        for line in res["lines"]:
            print(line)
        for name, (value, unit) in sorted(metrics.items()):
            print(f"metric {name} = {_fmt(value)} {unit}")
        print(f"spans written to {os.path.relpath(trace_out, root)}")
        if not (res["restored"] and res["self_sum_ok"]):
            print("error: tracer left a wrapper behind, or spans do not nest "
                  "strictly, or self times do not sum to the root span")

    print(json.dumps({"correct": correct, "attempted": gate.attempted,
                      "failed": gate.failed,
                      "metrics": {k: {"value": v, "unit": u}
                                  for k, (v, u) in metrics.items()}}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
