"""Self-tests of the benchmark: ``python3 -m pytest bench/test_bench.py -q``
from the repository root."""

from __future__ import annotations

import os
import re
import sys

import numpy as np
import pytest

BENCH = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, BENCH)
sys.path.insert(0, os.path.join(os.path.dirname(BENCH), "src"))

import child  # noqa: E402
import outcomes  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: the seed used while tuning the benchmark, and a held-out one for checking
#: claims on a draw nobody looked at while writing them
TUNING_SEED, HELD_OUT_SEED = 1, 2


def _files(path) -> dict:
    return {name: (path / name).read_bytes() for name in sorted(os.listdir(path))}


def _mix(files: dict) -> list:
    cfg = files["workload.cfg"].decode()
    return re.findall(r"^\[(\S+) (\S+)\]$", cfg, flags=re.M)


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_same_seed_gives_identical_files(workload, tmp_path):
    workloads.generate(workload, TUNING_SEED, str(tmp_path / "a"))
    workloads.generate(workload, TUNING_SEED, str(tmp_path / "b"))
    assert _files(tmp_path / "a") == _files(tmp_path / "b")


@pytest.mark.parametrize("workload", workloads.WORKLOADS)
def test_held_out_seed_draws_differently_with_the_same_mix(workload, tmp_path):
    assert workloads.draw_index(TUNING_SEED) != workloads.draw_index(HELD_OUT_SEED)
    workloads.generate(workload, TUNING_SEED, str(tmp_path / "a"))
    workloads.generate(workload, HELD_OUT_SEED, str(tmp_path / "b"))
    a, b = _files(tmp_path / "a"), _files(tmp_path / "b")
    assert a["workload.cfg"] != b["workload.cfg"]
    assert _mix(a) == _mix(b)
    assert sorted(a) == sorted(b)


def _ticking_clock():
    t = [0.0]

    def clock():
        t[0] += 1.0
        return t[0]
    return clock


def test_self_times_sum_to_the_root():
    tr = spans.Tracer(clock=_ticking_clock())
    with tr.root():                      # start 1
        with tr.request("a"):            # start 2
            with tr.span("b"):           # start 3, end 4
                pass
            with tr.span("b"):           # start 5, end 6
                pass
        with tr.span("c"):               # end 7 for a; c: 8 .. 9
            pass
    arr = tr.arrays()                    # root ends at 10
    self_t = spans.self_times(arr)
    assert list(arr["end"] - arr["start"]) == [9.0, 5.0, 1.0, 1.0, 1.0]
    assert list(self_t) == [3.0, 3.0, 1.0, 1.0, 1.0]
    assert self_t.sum() == 9.0
    assert spans.nesting_errors(arr) == 0
    summary = spans.summarize(tr.names, arr)
    assert summary["b"] == {"calls": 2, "total_s": 2.0, "self_s": 2.0}
    assert list(arr["run"]) == [0, 1, 1, 1, 1]


def _spans(rows) -> dict:
    """Span arrays from (start, end, parent) rows."""
    start, end, parent = (np.array(c, dtype=float) for c in zip(*rows))
    return {"start": start, "end": end, "parent": parent.astype(np.int32),
            "name": np.zeros(len(rows), dtype=np.int32),
            "run": np.zeros(len(rows), dtype=np.int32)}


@pytest.mark.parametrize("rows", [
    [(0, 10, -1), (1, 5, 0), (4, 8, 0)],    # siblings overlap
    [(0, 10, -1), (1, 5, 0), (1, 5, 0)],    # the same time counted twice
    [(0, 10, -1), (8, 12, 0)],              # child ends after its parent
    [(0, 10, -1), (2, 4, 0), (1, 3, 1)],    # grandchild starts too early
    [(0, 10, -1), (5, 3, 0)],               # ends before it starts
])
def test_nesting_check_catches_overlapping_spans(rows):
    arr = _spans(rows)
    assert spans.nesting_errors(arr) >= 1
    # the identity sum(self) == root holds anyway, so it alone proves nothing
    assert spans.self_times(arr).sum() == pytest.approx(10.0)


def test_nesting_check_accepts_strict_nesting():
    arr = _spans([(0, 10, -1), (1, 4, 0), (4, 9, 0), (5, 6, 2), (6, 9, 2)])
    assert spans.nesting_errors(arr) == 0


def test_wrapper_counts_an_error_and_reraises():
    tr = spans.Tracer(clock=_ticking_clock())

    def boom(x):
        raise ValueError("bad input")

    wrapped = tr.wrap(spans.Target("weights.demo", "kinterp.weights", "demo"),
                      boom)
    with tr.root():
        with pytest.raises(ValueError, match="bad input"):
            wrapped(1.0)
    assert tr.errors["weights"] == 1
    arr = tr.arrays()
    assert (arr["end"] > arr["start"]).all()  # the failed span was closed
    assert spans.self_times(arr).sum() == arr["end"][0] - arr["start"][0]


def _tiny_config(tmp_path) -> str:
    path = tmp_path / "tiny.cfg"
    path.write_text("[sv-check s]\nweight = flip(log(0,-2))\nq = 1\nout = s.csv\n\n"
                    "[norm n]\nprofile = min1\ntheta = 0\nq = 1\n"
                    "b = log(0,-2)\nout = n.csv\n")
    return str(path)


def test_untraced_run_leaves_wrapped_objects_untouched(tmp_path):
    import kinterp.cli  # noqa: F401
    before = spans.snapshot()
    work = child.Workload(_tiny_config(tmp_path), None)
    times, gauges = work.batch(str(tmp_path / "out"))
    assert len(times) == len(gauges) == 2
    assert all(g > 0 for g in gauges)
    got = outcomes.read_batch(str(tmp_path / "out"))
    assert sorted(got) == ["n", "s"]
    assert all(o["status"] == "pass" for o in got.values())
    after = spans.snapshot()
    assert after.keys() == before.keys()
    assert all(after[k] is v for k, v in before.items())


def test_gate_reads_a_batch_after_the_run(tmp_path):
    work = child.Workload(_tiny_config(tmp_path), None)
    work.batch(str(tmp_path / "out"))
    got = outcomes.read_batch(str(tmp_path / "out"))
    gate = outcomes.Gate(got, 1e-12)
    gate.check(got)
    assert (gate.attempted, gate.failed) == (2, 0)
    got["n"]["csv"]["rows"][0][-1] *= 1.0 + 1e-9  # the reference moves
    gate.check(outcomes.read_batch(str(tmp_path / "out")))
    assert (gate.attempted, gate.failed) == (4, 1)
    assert gate.differences[0].startswith("n: csv row 0")


def test_run_s_scales_each_sample_by_its_host_gauge():
    ref = child.GAUGE_REF_S
    # the host ran at half speed (gauge 2 ref) for item 0 of the last batch
    # and item 1 of the first: scaled, every sample of an item agrees
    times = [[1.0, 4.0], [1.0, 2.0], [2.0, 2.0]]
    gauges = [[ref, 2 * ref], [ref, ref], [2 * ref, ref]]
    assert child.run_seconds(times, gauges) == pytest.approx(3.0)
    # unscaled, the median of item 1 would still read 2.0, of item 0 1.0;
    # a host twice as fast throughout halves the gauge and every time
    half = [[t / 2 for t in b] for b in times]
    half_g = [[g / 2 for g in b] for b in gauges]
    assert child.run_seconds(half, half_g) == pytest.approx(3.0)


def test_tracer_rebinds_every_import_site_and_restores_them(tmp_path):
    import kinterp.norms
    import kinterp.weights
    before = spans.snapshot()
    original = kinterp.weights.tail_qnorm
    assert ("kinterp.norms", "tail_qnorm") in before  # a from-import site
    tr = spans.Tracer()
    tr.install()
    try:
        assert kinterp.norms.tail_qnorm is not original
        assert kinterp.norms.tail_qnorm is kinterp.weights.tail_qnorm
        with tr.root():
            work = child.Workload(_tiny_config(tmp_path), None)
            work.batch(str(tmp_path / "out"), tr)
    finally:
        tr.uninstall()
    assert all(spans.snapshot()[k] is v for k, v in before.items())
    summary = spans.summarize(tr.names, tr.arrays())
    assert summary["weights.qnorm"]["calls"] > 0
    assert summary["config.load_config"]["calls"] == 1
    assert summary["cli.scenario[norm]"]["calls"] == 1
    arr = tr.arrays()
    assert spans.nesting_errors(arr) == 0
    self_t = spans.self_times(arr)
    assert self_t.sum() == pytest.approx(arr["end"][0] - arr["start"][0],
                                         rel=1e-12)


def test_drift_gate():
    ref = {"status": "pass", "error": False, "summary": {"v": 1.0, "ok": True},
           "csv": {"header": "t,x", "rows": [[1.0, 2.0]]}}
    same = {**ref, "summary": {"v": 1.0 + 1e-13, "ok": True}}
    assert outcomes.compare(ref, same, 1e-12)[0]
    drifted = {**ref, "csv": {"header": "t,x", "rows": [[1.0, 2.0 + 1e-9]]}}
    ok, drift, why = outcomes.compare(ref, drifted, 1e-12)
    assert not ok and drift == pytest.approx(5e-10, rel=1e-6)
    assert "csv row 0 col 1" in why
    assert not outcomes.compare(ref, {**ref, "status": "fail"}, 1e-12)[0]
    assert not outcomes.compare(ref, {**ref, "summary": {"v": 1.0}}, 1e-12)[0]
    assert outcomes.rel_drift(float("inf"), float("inf")) == 0.0
    assert outcomes.rel_drift(float("inf"), 1.0) == 1.0
