"""Record the reference outcomes of every draw of every workload.

    python3 bench/record_reference.py [workload ...]

Run from the repository root at the commit whose results are the reference.
Each draw runs one untraced batch in a fresh workload process; every outcome
it reports is stored in ``bench/reference/<workload>-<draw>.json.gz``.  Refuses to
record a draw in which a scenario fails or raises, since the benchmark's
workloads must pass.
"""

from __future__ import annotations

import os
import shutil
import sys
import time

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import outcomes  # noqa: E402
import workloads  # noqa: E402
from run import THREAD_PINS, _child  # noqa: E402


def record(workload: str) -> None:
    root = os.getcwd()
    env = dict(os.environ, PYTHONPATH=os.path.join(root, "src"), **THREAD_PINS)
    for draw in range(workloads.DRAWS):
        work = os.path.join(root, ".bench_work", f"record-{workload}-{draw}")
        try:
            inputs = workloads.generate(workload, draw, work)
            args = ["dump", "--config", inputs["config"], "--out", "out"]
            if inputs["api"]:
                args += ["--api", inputs["api"]]
            t0 = time.perf_counter()
            res = _child(args, work, env, timeout=900.0)
            elapsed = time.perf_counter() - t0
            got = outcomes.read_batch(os.path.join(work, "out"))
        finally:
            shutil.rmtree(work, ignore_errors=True)
        bad = [name for name, o in got.items()
               if o["status"] != "pass" or o["error"]]
        if bad:
            raise SystemExit(f"{workload} draw {draw}: failing {bad}")
        outcomes.save_reference(workload, draw, got, res["environment"])
        print(f"{workload} draw {draw}: {len(got)} outcomes, "
              f"{elapsed:.2f} s", flush=True)


def main(argv: list[str]) -> int:
    for workload in argv or workloads.WORKLOADS:
        record(workload)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
