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


def test_every_traced_name_resolves(monkeypatch):
    # the benchmark's tracer rebinds these names by attribute; a deleted or
    # renamed one would break its traced runs
    import importlib.util
    import sys

    import kinterp.cli  # noqa: F401  (loads every module the targets name)
    path = SRC.parent.parent / "bench" / "spans.py"
    spec = importlib.util.spec_from_file_location("bench_spans", path)
    spans = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, spans)
    spec.loader.exec_module(spans)
    for target in spans.TARGETS:
        (owner, attr, original), *_ = spans.binding_sites(target)
        assert callable(original), (target.owner, attr)
    assert spans.snapshot()
