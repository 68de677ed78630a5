"""Outcomes of one batch, the recorded reference, and the drift gate.

An outcome is what one scenario or API call reported: its pass/fail status,
whether it raised, and every number it wrote (summary leaves and CSV cells).
An outcome differs from the reference when the status or the error flag
changed, when a recorded number is missing, or when a number drifted past the
workload's relative bound.
"""

from __future__ import annotations

import glob
import gzip
import json
import math
import os

#: relative drift bound per workload: closed forms are pinned at 1e-12, the
#: adaptive-quadrature workloads at the 1e-9 tier-1 pins them at
DRIFT_BOUND = {"closed-form": 1e-12, "reiteration": 1e-9, "hardy": 1e-9}

REFERENCE_DIR = os.path.join(os.path.dirname(os.path.abspath(__file__)),
                             "reference")


def _leaves(obj, path: str, out: dict) -> None:
    if isinstance(obj, dict):
        for k in sorted(obj):
            if k != "error":
                _leaves(obj[k], f"{path}.{k}" if path else str(k), out)
    elif isinstance(obj, (bool, int, float)) or obj is None:
        out[path] = obj


def _csv_numbers(text: str) -> dict:
    lines = text.splitlines()
    rows = []
    for line in lines[1:]:
        row = []
        for cell in line.split(","):
            try:
                row.append(float(cell))
            except ValueError:
                row.append(None)  # labels are not numbers
        rows.append(row)
    return {"header": lines[0] if lines else "", "rows": rows}


def scenario_outcome(entry: dict, csv_text) -> dict:
    """Outcome of one ``summary.json`` result entry and its CSV text."""
    summary = entry.get("summary", {})
    numbers: dict = {}
    _leaves(summary, "", numbers)
    return {"status": entry["status"], "error": "error" in summary,
            "summary": numbers,
            "csv": _csv_numbers(csv_text) if csv_text is not None else None}


def call_outcome(report=None, error: bool = False) -> dict:
    """Outcome of one public-API call returning a dataclass report."""
    numbers: dict = {}
    if report is not None:
        _leaves(dict(vars(report)), "", numbers)
    return {"status": "fail" if error else "pass", "error": error,
            "summary": numbers, "csv": None}


def rel_drift(a, b) -> float:
    """|a - b| / max(|a|, |b|); 0 for equal values (inf and nan included),
    1 when only one side is finite or the kinds differ."""
    if isinstance(a, bool) or isinstance(b, bool) or a is None or b is None:
        return 0.0 if a == b and type(a) is type(b) else 1.0
    a, b = float(a), float(b)
    if a == b or (math.isnan(a) and math.isnan(b)):
        return 0.0
    if not (math.isfinite(a) and math.isfinite(b)):
        return 1.0
    return abs(a - b) / max(abs(a), abs(b))


def compare(ref: dict, got: dict, bound: float) -> tuple[bool, float, str]:
    """(same, max relative drift, first difference) of two outcomes."""
    if got["status"] != ref["status"]:
        return False, 0.0, f"status {ref['status']} -> {got['status']}"
    if got["error"] != ref["error"]:
        return False, 0.0, "raised" if got["error"] else "no longer raises"
    worst, first = 0.0, ""
    pairs = []
    for path, want in ref["summary"].items():
        if path not in got["summary"]:
            return False, worst, f"summary {path} missing"
        pairs.append((f"summary {path}", want, got["summary"][path]))
    if ref["csv"] is not None:
        if got["csv"] is None:
            return False, worst, "csv missing"
        if got["csv"]["header"] != ref["csv"]["header"] \
                or len(got["csv"]["rows"]) != len(ref["csv"]["rows"]):
            return False, worst, "csv shape changed"
        for i, (rw, rg) in enumerate(zip(ref["csv"]["rows"], got["csv"]["rows"])):
            if len(rw) != len(rg):
                return False, worst, f"csv row {i} shape changed"
            pairs += [(f"csv row {i} col {j}", w, g)
                      for j, (w, g) in enumerate(zip(rw, rg))]
    for where, want, have in pairs:
        d = rel_drift(want, have)
        if d > worst:
            worst = d
        if d > bound and not first:
            first = f"{where}: {want!r} -> {have!r}"
    return not first, worst, first


def read_batch(out_dir: str) -> dict:
    """Outcomes of one batch, by name, from the files it left in
    ``out_dir``: one ``summary-<i>.json`` per scenario with the CSVs they
    name, and ``api.json`` with the outcomes of the API calls."""
    got = {}
    for path in sorted(glob.glob(os.path.join(out_dir, "summary-*.json"))):
        with open(path, encoding="utf-8") as fh:
            results = json.load(fh)["results"]
        for entry in results:
            csv_text = None
            if entry.get("out"):
                csv_path = os.path.join(out_dir, entry["out"])
                if os.path.exists(csv_path):
                    with open(csv_path, encoding="utf-8") as fh:
                        csv_text = fh.read()
            got[entry["name"]] = scenario_outcome(entry, csv_text)
    api_path = os.path.join(out_dir, "api.json")
    if os.path.exists(api_path):
        with open(api_path, encoding="utf-8") as fh:
            got.update(json.load(fh))
    return got


class Gate:
    """Counts outcomes attempted and differing from the reference."""

    def __init__(self, reference: dict, bound: float):
        self.reference = reference
        self.bound = bound
        self.attempted = 0
        self.failed = 0
        self.max_drift = 0.0
        self.differences: list[str] = []

    def check(self, got: dict) -> None:
        for name, ref in self.reference.items():
            self.attempted += 1
            if name not in got:
                same, drift, why = False, 0.0, "missing"
            else:
                same, drift, why = compare(ref, got[name], self.bound)
            self.max_drift = max(self.max_drift, drift)
            if not same:
                self.fail(f"{name}: {why}")
        for name in sorted(set(got) - set(self.reference)):
            self.attempted += 1
            self.fail(f"{name}: not in the reference")

    def fail(self, why: str) -> None:
        self.failed += 1
        if len(self.differences) < 10:
            self.differences.append(why)


def reference_path(workload: str, draw: int) -> str:
    return os.path.join(REFERENCE_DIR, f"{workload}-{draw}.json.gz")


def load_reference(workload: str, draw: int) -> dict:
    with gzip.open(reference_path(workload, draw), "rt", encoding="utf-8") as fh:
        return json.load(fh)["outcomes"]


def save_reference(workload: str, draw: int, got: dict,
                   environment: dict) -> None:
    os.makedirs(REFERENCE_DIR, exist_ok=True)
    text = json.dumps({"workload": workload, "draw": draw,
                       "environment": environment, "outcomes": got},
                      sort_keys=True, separators=(",", ":"))
    # mtime=0 keeps the file byte-identical when the outcomes are
    with open(reference_path(workload, draw), "wb") as raw, \
            gzip.GzipFile(fileobj=raw, mode="wb", mtime=0) as fh:
        fh.write(text.encode("utf-8"))
