"""Hygiene checks: of the source, with the standard library alone, and of
the state the weight nodes pickle."""

import ast
import pathlib

import pytest

SRC = pathlib.Path(__file__).resolve().parent.parent / "src" / "kinterp"


def _unused_imports(path: pathlib.Path) -> list[str]:
    """Names a module imports and never reads, apart from those it exports
    through ``__all__`` (or, in a package ``__init__``, re-exports)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported: dict[str, int] = {}
    for node in ast.walk(tree):
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            if isinstance(node, ast.ImportFrom) and node.module == "__future__":
                continue
            for alias in node.names:
                name = alias.asname or alias.name.split(".")[0]
                imported[name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported: set[str] = set()
    for node in tree.body:
        if isinstance(node, ast.Assign) and any(
                isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets):
            exported = set(ast.literal_eval(node.value))
    if path.name == "__init__.py":
        exported |= set(imported)
    return [f"{path.name}:{line} {name}" for name, line in sorted(imported.items())
            if name not in used and name not in exported]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert _unused_imports(path) == []


def _imported_modules(node: ast.AST) -> list[str]:
    """The module of each import statement inside ``node``; a relative
    import as ``kinterp.<module>``."""
    found = []
    for n in ast.walk(node):
        if isinstance(n, ast.Import):
            found += [alias.name for alias in n.names]
        elif isinstance(n, ast.ImportFrom):
            found.append("kinterp." + (n.module or "") if n.level
                         else n.module)
    return found


def test_no_function_imports_a_package_module():
    # a function-level import of a sibling module hides an import cycle
    found = [f"{path.name}:{node.name} {module}"
             for path in sorted(SRC.glob("*.py"))
             for node in ast.walk(ast.parse(path.read_text(encoding="utf-8")))
             if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
             for module in _imported_modules(node)
             if module.split(".")[0] == "kinterp"]
    assert found == []


def test_only_quadrature_imports_scipy():
    # every QUADPACK call and special function goes through one module
    found = sorted({path.name for path in SRC.glob("*.py")
                    for module in _imported_modules(
                        ast.parse(path.read_text(encoding="utf-8")))
                    if module.split(".")[0] == "scipy"})
    assert found == ["quadrature.py"]


def test_one_canonical_term_builder():
    # the LogTerm layout (x = +-ln u, the sign of a, the end label) lives in
    # quadrature and weights.side_terms; segment probes stay in profiles
    built, probed = set(), set()
    for path in sorted(SRC.glob("*.py")):
        for top in ast.parse(path.read_text(encoding="utf-8")).body:
            for n in ast.walk(top):
                if isinstance(n, ast.Call) and "LogTerm" in (
                        getattr(n.func, "id", None), getattr(n.func, "attr", None)):
                    built.add(f"{path.name}:{getattr(top, 'name', '<module>')}")
                if isinstance(n, ast.ImportFrom) and any(
                        alias.name == "_segment_probe" for alias in n.names):
                    probed.add(path.name)
    assert {b for b in built if not b.startswith("quadrature.py:")} \
        == {"weights.py:side_terms"}
    assert probed == set()


_MUTATORS = {"append", "add", "clear", "extend", "insert", "pop", "popitem",
             "remove", "discard", "setdefault", "update"}


def _module_state_writes(path: pathlib.Path) -> list[str]:
    """``file:function what`` for each function that caches with
    ``functools.cache``/``lru_cache``, declares a name ``global``, or writes
    into a module-level name: a subscript store or delete, or a call of a
    mutating method."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    module_names = {t.id for node in tree.body
                    if isinstance(node, (ast.Assign, ast.AnnAssign))
                    for t in (node.targets if isinstance(node, ast.Assign)
                              else [node.target])
                    if isinstance(t, ast.Name)}
    found = []
    for fn in ast.walk(tree):
        if not isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        where = f"{path.name}:{fn.name}"
        for dec in fn.decorator_list:
            dec = dec.func if isinstance(dec, ast.Call) else dec
            if getattr(dec, "id", getattr(dec, "attr", None)) in (
                    "cache", "lru_cache"):
                found.append(f"{where} @cache")
        for n in ast.walk(fn):
            if isinstance(n, ast.Global):
                found.append(f"{where} global")
                continue
            if isinstance(n, ast.Subscript) and isinstance(
                    n.ctx, (ast.Store, ast.Del)):
                target = n.value
            elif isinstance(n, ast.Call) and isinstance(
                    n.func, ast.Attribute) and n.func.attr in _MUTATORS:
                target = n.func.value
            else:
                continue
            if isinstance(target, ast.Name) and target.id in module_names:
                found.append(f"{where} writes {target.id}")
    return found


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_no_module_level_cache(path):
    # the one cache of integrals is the term_memo scope, which goes when the
    # computation that opened it ends; module state would outlive it
    assert _module_state_writes(path) == []


def _unread_parameters(path: pathlib.Path) -> list[str]:
    """Parameters of module-level functions that their body never reads.

    Methods are exempt: an override keeps the parameters of the interface
    it implements (``_side``, ``__call__``)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    unread = []
    for node in tree.body:
        if not isinstance(node, ast.FunctionDef):
            continue
        args = node.args
        params = [a.arg for a in args.posonlyargs + args.args + args.kwonlyargs]
        params += [a.arg for a in (args.vararg, args.kwarg) if a is not None]
        read = {n.id for stmt in node.body for n in ast.walk(stmt)
                if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Load)}
        unread += [f"{node.name}: {p}" for p in params if p not in read]
    return unread


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_every_parameter_is_read(path):
    assert _unread_parameters(path) == []


@pytest.mark.parametrize("text", ["one", "log(1,-2)", "explog(0.5)",
                                  "mul(log(0,-2),explog(0.3))",
                                  "pow(log(0,-2),2)", "flip(log(-2,0))"])
def test_weight_pickles_no_compiled_cache(text):
    # after the scalar evaluator and the q-norm integrals are compiled, the
    # pickled state is the dataclass fields and the side forms
    from dataclasses import fields

    from kinterp.weights import head_qnorm, parse_weight, tail_qnorm
    b = parse_weight(text)
    b(0.5)
    tail_qnorm(b, 2.0, 0.5)
    head_qnorm(b, 2.0, 0.5)
    assert len(vars(b)["_compiled"]) == 3
    assert set(b.__getstate__()) == {f.name for f in fields(b)} | {"_side_forms"}


def _broad_excepts(path: pathlib.Path) -> list[str]:
    """``file:function`` of each handler that catches Exception or
    BaseException (a bare ``except`` included)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for top in tree.body:
        for node in ast.walk(top):
            if not isinstance(node, ast.ExceptHandler):
                continue
            types = node.type.elts if isinstance(node.type, ast.Tuple) \
                else [node.type]
            if any(t is None or (isinstance(t, ast.Name) and t.id in
                                 ("Exception", "BaseException")) for t in types):
                found.append(f"{path.name}:{getattr(top, 'name', '<module>')}")
    return found


def test_broad_excepts_only_at_the_cli_boundaries():
    # the batch guard keeps one failing scenario from stopping the others;
    # the atomic write removes its temporary file however it is left
    found = sorted(h for path in SRC.glob("*.py") for h in _broad_excepts(path))
    assert found == ["cli.py:_write_atomic", "cli.py:run"]


_GRID_BUILDERS = {"logspace", "linspace", "geomspace", "GridSpec"}


def _is_number(node: ast.AST) -> bool:
    """A numeric literal, with or without a sign."""
    if isinstance(node, ast.UnaryOp) and isinstance(node.op, (ast.USub, ast.UAdd)):
        node = node.operand
    return isinstance(node, ast.Constant) and type(node.value) in (int, float)


def _hidden_grids(path: pathlib.Path) -> list[str]:
    """``file:line`` of each grid built from numeric literals alone anywhere
    but as the value of a module-level constant (an upper-case name)."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    found = []
    for top in tree.body:
        if isinstance(top, (ast.Assign, ast.AnnAssign)) and all(
                isinstance(t, ast.Name) and t.id.lstrip("_").isupper()
                for t in (top.targets if isinstance(top, ast.Assign)
                          else [top.target])):
            continue
        for n in ast.walk(top):
            if isinstance(n, ast.Call) and n.args and (
                    getattr(n.func, "id", None) or getattr(n.func, "attr", None)
            ) in _GRID_BUILDERS and all(
                    map(_is_number, n.args + [k.value for k in n.keywords])):
                found.append(f"{path.name}:{n.lineno}")
    return found


def test_no_hidden_sampling_grid():
    # a grid of literals inside a function is a fixed grid with no name, and
    # so missing from README's "Fixed grids and thresholds" table
    found = [g for path in sorted(SRC.glob("*.py")) for g in _hidden_grids(path)]
    assert found == []


def _bench_spans(monkeypatch):
    import importlib.util
    import sys

    import kinterp.cli  # noqa: F401  (loads every module the targets name)
    path = SRC.parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    return spans


def test_every_traced_name_resolves(monkeypatch):
    # the benchmark's tracer rebinds these names by attribute; a deleted or
    # renamed one would break its traced runs
    spans = _bench_spans(monkeypatch)
    for target in spans.TARGETS:
        (owner, attr, original), *_ = spans.binding_sites(target)
        assert callable(original), (target.owner, attr)
    assert spans.snapshot()


def test_tracer_reads_the_report_fields(monkeypatch):
    # the benchmark's tracer counts the rows, skipped rows and samples of
    # these reports
    from collections import defaultdict

    from kinterp.config import Const, ExpDecay
    from kinterp.holmstedt import HolmstedtCase, equivalence_scan
    from kinterp.profiles import KProfile
    from kinterp.quadrature import GridSpec
    from kinterp.weighted_ineq import hardy_check
    from kinterp.weights import parse_weight

    spans = _bench_spans(monkeypatch)
    counters = defaultdict(int)
    b = parse_weight("log(0,-2)")
    scan = equivalence_scan(HolmstedtCase("limiting00", 1.0, 2.0, b, b),
                            KProfile.min1(), GridSpec(1e-1, 1e1, 8))
    spans._scan_result((), {}, scan, counters)
    assert counters["holmstedt.scan.rows"] == len(scan.rows) == 17
    assert counters["holmstedt.scan.skipped"] == scan.skipped == 0
    args = ("HET1", 2.0, ExpDecay(1.0), Const(1.0))
    spans._hardy_result(args, {}, hardy_check(*args, samples=2, seed=11),
                        counters)
    assert counters["weighted_ineq.hardy_check.samples[opaque]"] == 2


def _defaulted_parameters(path: pathlib.Path):
    """(name, position, parameter) of each parameter with a default of each
    ``def`` in the module, nested ones included.  An ``__init__`` goes by its
    class name; ``position`` counts the positional arguments a call passes
    (a method's ``self`` or ``cls`` is not one), None for keyword-only."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    methods = {}
    for cls in ast.walk(tree):
        if isinstance(cls, ast.ClassDef):
            for node in cls.body:
                if isinstance(node, ast.FunctionDef) and not any(
                        isinstance(d, ast.Name) and d.id == "staticmethod"
                        for d in node.decorator_list):
                    methods[node] = cls.name
    found = []
    for node in ast.walk(tree):
        if not isinstance(node, ast.FunctionDef):
            continue
        name = node.name
        if node in methods and name == "__init__":
            name = methods[node]
        args = node.args
        positional = args.posonlyargs + args.args
        skip = 1 if node in methods else 0
        first = len(positional) - len(args.defaults)
        found += [(name, i - skip, a.arg)
                  for i, a in enumerate(positional) if i >= first]
        found += [(name, None, a.arg)
                  for a, d in zip(args.kwonlyargs, args.kw_defaults)
                  if d is not None]
    return found


def _calls():
    """name -> [(positional argument count, keyword names)] of every call in
    src/, bench/ and tests/, by the called name alone."""
    calls = {}
    root = SRC.parent.parent
    for folder in ("src", "bench", "tests"):
        for path in sorted((root / folder).rglob("*.py")):
            tree = ast.parse(path.read_text(encoding="utf-8"))
            for node in ast.walk(tree):
                if not isinstance(node, ast.Call):
                    continue
                f = node.func
                name = f.id if isinstance(f, ast.Name) else getattr(f, "attr", None)
                calls.setdefault(name, []).append(
                    (len(node.args), {k.arg for k in node.keywords}))
    return calls


def test_every_default_is_set_by_a_caller():
    # a default that no call overrides is a constant spelled as an option
    calls = _calls()
    never_set = [
        f"{path.name}:{name}: {param}"
        for path in sorted(SRC.glob("*.py"))
        for name, position, param in _defaulted_parameters(path)
        if not any(param in keywords
                   or (position is not None and n_args > position)
                   for n_args, keywords in calls.get(name, []))]
    assert never_set == []
