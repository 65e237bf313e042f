import ast
import importlib
import importlib.util
import inspect
import pkgutil
from pathlib import Path

import pytest

import srgeom

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"
BENCH = PYPROJECT.parent / "bench"


def test_declared_console_scripts_resolve():
    tomllib = pytest.importorskip("tomllib")  # standard library from Python 3.11
    with PYPROJECT.open("rb") as fh:
        scripts = tomllib.load(fh)["project"].get("scripts", {})
    for name, target in scripts.items():
        module, _, attr = target.partition(":")
        obj = importlib.import_module(module)
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), name


def test_every_exported_name_exists():
    modules = ["srgeom"] + [
        info.name for info in pkgutil.iter_modules(srgeom.__path__, "srgeom.")
    ]
    for mod in modules:
        module = importlib.import_module(mod)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{mod}.{name}"


def test_the_names_the_bench_tracer_wraps_resolve():
    # ``--trace 1`` wraps these by name; a name cut from srgeom breaks it
    spec = importlib.util.spec_from_file_location("bench_tracing", BENCH / "tracing.py")
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    names = [(mod, attr) for mod, attr, _ in tracing.TIMED]
    names += [("expr", attr) for attr in tracing.COUNTED]
    names.append(tuple(tracing.SIMPLIFY.split(".")))
    assert ("expr", "simplify") in names
    for mod, attr in names:
        obj = importlib.import_module(f"srgeom.{mod}")
        for part in attr.split("."):
            obj = getattr(obj, part)
        assert callable(obj), (mod, attr)


def test_the_srgeom_names_the_bench_worker_reads_resolve():
    # every ``module.name`` the worker reads of an srgeom module, and every
    # keyword it passes to an srgeom function
    tree = ast.parse((BENCH / "worker.py").read_text())
    modules = {"srgeom": srgeom}
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "srgeom":
            for alias in node.names:
                modules[alias.asname or alias.name] = importlib.import_module(f"srgeom.{alias.name}")
    def srgeom_name(node):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in modules:
            return node.value.id, node.attr
        return None

    read, keywords = set(), set()
    for node in ast.walk(tree):
        if srgeom_name(node):
            mod, attr = srgeom_name(node)
            getattr(modules[mod], attr)
            read.add(f"{mod}.{attr}")
        if isinstance(node, ast.Call) and srgeom_name(node.func):
            mod, attr = srgeom_name(node.func)
            params = inspect.signature(getattr(modules[mod], attr)).parameters
            for kw in node.keywords:
                assert kw.arg in params, (attr, kw.arg)
                keywords.add(kw.arg)
    assert {
        "expr._POOL",
        "expr._DIFF_CACHE",
        "contact.extract_contact_data",
        "contact.morimoto_grading_contact",
        "contact.connection_prime",
        "contact.connection_double_prime",
        "contact.morimoto_connection_contact",
        "g235.morimoto_grading_235",
        "g235.morimoto_connection_235",
    } <= read
    assert {"prime", "second"} <= keywords
