"""Span tracing of kinterp's layers from outside the package.

:class:`Tracer` wraps the public functions of each layer and records one span
per wrapped call: name, start, end, parent span and run id (the index of the
scenario or API call that caused it).  Spans stay in memory, in flat arrays,
until :meth:`Tracer.save` writes them out.  Wrapping a name rebinds it in
every ``kinterp`` module that holds the original object (``from .x import y``
copies the binding), on the class for methods, and on ``scipy.integrate`` /
``scipy.special`` for the two scipy entry points, which every call site looks
up by attribute.  :meth:`Tracer.uninstall` puts every original object back.

A span's self time is its duration minus the durations of its direct
children.  :func:`nesting_errors` checks that spans nest strictly (each child
inside its parent, siblings one after another); when they do, no time is
counted twice and the self times of all spans sum to the root's duration.
"""

from __future__ import annotations

import array
import sys
import time
from collections import defaultdict
from contextlib import contextmanager
from dataclasses import dataclass
from typing import Callable, Optional

import numpy as np


@dataclass(frozen=True)
class Target:
    """One wrapped callable.

    ``owner`` is a module name or ``module:Class``; ``tag`` maps the call's
    arguments to a span-name suffix; ``on_result`` adds counters from the
    call's arguments and result; ``count_evals`` counts the calls the wrapped
    function makes to its first argument.
    """

    span: str
    owner: str
    attr: str
    tag: Optional[Callable] = None
    on_result: Optional[Callable] = None
    count_evals: bool = False


def _is_grammar(x) -> bool:
    from kinterp.weights import WeightExpr
    return isinstance(x, WeightExpr)


def _hardy_tag(args, kwargs) -> str:
    # hardy_check(case, alpha, w, phi, ...)
    w = args[2] if len(args) > 2 else kwargs.get("w")
    phi = args[3] if len(args) > 3 else kwargs.get("phi")
    return "grammar" if _is_grammar(phi) or _is_grammar(w) else "opaque"


def _which_tag(args, kwargs) -> str:
    return str(args[1] if len(args) > 1 else kwargs.get("which"))


def _scan_result(args, kwargs, result, counters) -> None:
    counters["holmstedt.scan.rows"] += len(result.rows)
    counters["holmstedt.scan.skipped"] += result.skipped


def _hardy_result(args, kwargs, result, counters) -> None:
    counters[f"weighted_ineq.hardy_check.samples[{_hardy_tag(args, kwargs)}]"] \
        += result.samples


def _write_result(args, kwargs, result, counters) -> None:
    text = args[1] if len(args) > 1 else kwargs["text"]
    counters["cli.write.bytes"] += len(text.encode("utf-8"))


TARGETS = (
    Target("weights.eval", "kinterp.weights:WeightExpr", "__call__"),
    Target("weights.qnorm", "kinterp.weights", "tail_qnorm"),
    Target("weights.qnorm", "kinterp.weights", "head_qnorm"),
    Target("weights.kernel_integral", "kinterp.weights", "weight_kernel_integral"),
    Target("weights.parse", "kinterp.weights", "parse_weight"),
    Target("quadrature.integrate_terms", "kinterp.quadrature", "integrate_terms"),
    Target("quadrature.exp_pow_integral", "kinterp.quadrature", "exp_pow_integral"),
    Target("quadrature.golden", "kinterp.quadrature", "golden_min",
           count_evals=True),
    Target("scipy.quad", "scipy.integrate", "quad"),
    Target("scipy.gammaincc", "scipy.special", "gammaincc"),
    Target("profiles.curve_eval", "kinterp.profiles:PiecewiseCurve", "__call__"),
    Target("profiles.truncation_split", "kinterp.profiles", "truncation_split"),
    Target("profiles.realize", "kinterp.profiles", "realize_rearrangement"),
    Target("norms.weighted_knorm", "kinterp.norms", "weighted_knorm"),
    Target("norms.space_norm", "kinterp.norms", "space_norm"),
    Target("norms.index", "kinterp.norms", "index"),
    Target("norms.condition_check", "kinterp.norms",
           "check_condition_monotone_index"),
    Target("holmstedt.table_build", "kinterp.holmstedt:DecompositionTable",
           "__init__"),
    Target("holmstedt.piece_norms", "kinterp.holmstedt:DecompositionTable",
           "piece_norms"),
    Target("holmstedt.rhs_formula", "kinterp.holmstedt", "rhs_formula"),
    Target("holmstedt.verify_hypotheses", "kinterp.holmstedt",
           "verify_hypotheses"),
    Target("holmstedt.scan", "kinterp.holmstedt", "equivalence_scan",
           on_result=_scan_result),
    Target("weighted_ineq.hardy_check", "kinterp.weighted_ineq", "hardy_check",
           tag=_hardy_tag, on_result=_hardy_result),
    Target("weighted_ineq.step_integral", "kinterp.weighted_ineq:StepFunction",
           "weighted_integral"),
    Target("weighted_ineq.compute_constant", "kinterp.weighted_ineq",
           "compute_constant", tag=_which_tag),
    Target("weighted_ineq.hmt_check", "kinterp.weighted_ineq", "hmt_check"),
    Target("reiteration.index_value", "kinterp.reiteration:ReiterationSpec",
           "index_value"),
    Target("reiteration.composite_eval", "kinterp.reiteration:CompositeWeight",
           "__call__"),
    Target("reiteration.check", "kinterp.reiteration", "reiteration_check"),
    Target("reiteration.lk_check", "kinterp.reiteration",
           "lk_identification_check"),
    Target("config.load_config", "kinterp.config", "load_config"),
    Target("cli.write", "kinterp.cli", "_write_atomic", on_result=_write_result),
)

#: modules whose wrapped calls count toward ``<module>.errors``
MODULES = ("weights", "quadrature", "scipy", "profiles", "norms", "holmstedt",
           "weighted_ineq", "reiteration", "config", "cli")


def _resolve(owner: str):
    mod_name, _, cls_name = owner.partition(":")
    mod = sys.modules[mod_name]
    return getattr(mod, cls_name) if cls_name else mod


def binding_sites(target: Target) -> list[tuple[object, str, object]]:
    """(namespace, attribute, original object) for every place the target is
    bound: the owner, plus every loaded kinterp module holding the same
    object under the same name."""
    owner = _resolve(target.owner)
    original = (owner.__dict__[target.attr] if isinstance(owner, type)
                else getattr(owner, target.attr))
    sites = [(owner, target.attr, original)]
    if not isinstance(owner, type):
        for name, mod in sorted(sys.modules.items()):
            if mod is owner or mod is None:
                continue
            if (name == "kinterp" or name.startswith("kinterp.")) \
                    and mod.__dict__.get(target.attr) is original:
                sites.append((mod, target.attr, original))
    return sites


def _runners() -> dict:
    return sys.modules["kinterp.cli"]._RUNNERS


def snapshot() -> dict:
    """Identity of every object a traced run would rebind, keyed by site."""
    out = {}
    for t in TARGETS:
        for ns, attr, obj in binding_sites(t):
            out[(ns.__name__, attr)] = obj
    for kind, fn in _runners().items():
        out[("kinterp.cli._RUNNERS", kind)] = fn
    return out


class Tracer:
    """Records spans of wrapped calls; install() and uninstall() bracket the
    traced region, root() opens the span every other span descends from and
    request() the span of one scenario or API call (a new run id)."""

    def __init__(self, clock: Callable[[], float] = time.perf_counter):
        self.clock = clock
        self.names: list[str] = []
        self._name_ids: dict[str, int] = {}
        self.name = array.array("i")
        self.start = array.array("d")
        self.end = array.array("d")
        self.parent = array.array("i")
        self.run = array.array("i")
        self._stack: list[int] = []
        self.run_id = 0
        self.counters: dict[str, int] = defaultdict(int)
        self.errors: dict[str, int] = {m: 0 for m in MODULES}
        self._restore: list[Callable[[], None]] = []

    # -- span recording ----------------------------------------------------

    def name_id(self, name: str) -> int:
        i = self._name_ids.get(name)
        if i is None:
            i = self._name_ids[name] = len(self.names)
            self.names.append(name)
        return i

    def open(self, name_id: int) -> int:
        idx = len(self.start)
        self.name.append(name_id)
        self.parent.append(self._stack[-1] if self._stack else -1)
        self.run.append(self.run_id)
        self.end.append(0.0)
        self._stack.append(idx)
        self.start.append(self.clock())
        return idx

    def close(self, idx: int) -> None:
        self.end[idx] = self.clock()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, new_run: bool = False):
        if new_run:
            self.run_id += 1
        idx = self.open(self.name_id(name))
        try:
            yield
        finally:
            self.close(idx)

    def root(self):
        return self.span("bench.root")

    def request(self, name: str):
        return self.span(name, new_run=True)

    # -- wrapping ----------------------------------------------------------

    def wrap(self, target: Target, fn: Callable) -> Callable:
        tracer = self
        module = target.span.split(".", 1)[0]
        fixed_id = None if target.tag else self.name_id(target.span)
        counters = self.counters
        evals_key = f"{target.span}.evals"

        def counting(f):
            def counted(x):
                counters[evals_key] += 1
                return f(x)
            return counted

        def wrapper(*args, **kwargs):
            if fixed_id is None:
                sid = tracer.name_id(f"{target.span}[{target.tag(args, kwargs)}]")
            else:
                sid = fixed_id
            if target.count_evals:
                args = (counting(args[0]),) + args[1:]
            idx = tracer.open(sid)
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                tracer.errors[module] += 1
                raise
            finally:
                tracer.close(idx)
            if target.on_result is not None:
                target.on_result(args, kwargs, result, counters)
            return result

        wrapper.__wrapped__ = fn
        return wrapper

    def _wrap_request(self, name: str, fn: Callable) -> Callable:
        def wrapper(*args, **kwargs):
            with self.request(name):
                return fn(*args, **kwargs)
        wrapper.__wrapped__ = fn
        return wrapper

    def install(self) -> None:
        if self._restore:
            raise RuntimeError("tracer already installed")
        for t in TARGETS:
            sites = binding_sites(t)
            wrapped = self.wrap(t, sites[0][2])
            for ns, attr, original in sites:
                setattr(ns, attr, wrapped)
                self._restore.append(
                    lambda ns=ns, attr=attr, o=original: setattr(ns, attr, o))
        runners = _runners()
        for kind, fn in list(runners.items()):
            runners[kind] = self._wrap_request(f"cli.scenario[{kind}]", fn)
            self._restore.append(
                lambda kind=kind, fn=fn: runners.__setitem__(kind, fn))

    def uninstall(self) -> None:
        while self._restore:
            self._restore.pop()()

    # -- results -----------------------------------------------------------

    def arrays(self) -> dict:
        return {"name": np.frombuffer(self.name, dtype=np.int32).copy(),
                "start": np.frombuffer(self.start, dtype=np.float64).copy(),
                "end": np.frombuffer(self.end, dtype=np.float64).copy(),
                "parent": np.frombuffer(self.parent, dtype=np.int32).copy(),
                "run": np.frombuffer(self.run, dtype=np.int32).copy()}

    def save(self, path: str) -> None:
        """Write the spans as an ``.npz``: ``names`` plus one array per
        column (``name`` indexes ``names``; ``parent`` is -1 for a root)."""
        np.savez(path, names=np.array(self.names), **self.arrays())


def nesting_errors(arr: dict) -> int:
    """Spans that break strict nesting: a span that ends before it starts,
    a child not inside its parent's [start, end], or a span starting before
    its previous sibling (same parent) ended.  With none, no instant is in
    two sibling spans, so the self times count no time twice."""
    start, end, parent = arr["start"], arr["end"], arr["parent"]
    bad = end < start
    child = parent >= 0
    p = parent[child]
    bad[child] |= (start[child] < start[p]) | (end[child] > end[p])
    order = np.lexsort((start, parent))
    same = parent[order[1:]] == parent[order[:-1]]
    overlap = same & (start[order[1:]] < end[order[:-1]])
    bad[order[1:][overlap]] = True
    return int(bad.sum())


def self_times(arr: dict) -> np.ndarray:
    """Span duration minus the durations of its direct children."""
    dur = arr["end"] - arr["start"]
    has_parent = arr["parent"] >= 0
    child = np.bincount(arr["parent"][has_parent], weights=dur[has_parent],
                        minlength=len(dur))
    return dur - child


def summarize(names: list[str], arr: dict) -> dict:
    """Per span name: calls, total duration and self time (seconds)."""
    dur = arr["end"] - arr["start"]
    self_t = self_times(arr)
    n = len(names)
    calls = np.bincount(arr["name"], minlength=n)
    total = np.bincount(arr["name"], weights=dur, minlength=n)
    selfs = np.bincount(arr["name"], weights=self_t, minlength=n)
    return {name: {"calls": int(calls[i]), "total_s": float(total[i]),
                   "self_s": float(selfs[i])} for i, name in enumerate(names)}
