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


def test_every_top_level_import_is_read():
    # a name a module imports and never reads is left over from a cut;
    # names in ``__all__`` and ``from __future__ import annotations`` are exempt
    for path in sorted((PYPROJECT.parent / "src" / "srgeom").glob("*.py")):
        tree = ast.parse(path.read_text())
        bound = {
            (alias.asname or alias.name).split(".")[0]
            for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            for alias in node.names
        }
        exempt = {"annotations"}
        for node in tree.body:
            if isinstance(node, ast.Assign) and any(getattr(t, "id", None) == "__all__" for t in node.targets):
                exempt |= set(ast.literal_eval(node.value))
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
        assert bound - read - exempt == set(), path.name


def _is_dataclass(decorator) -> bool:
    node = decorator.func if isinstance(decorator, ast.Call) else decorator
    return isinstance(node, ast.Name) and node.id == "dataclass"


def test_every_dataclass_field_is_read():
    # a field of an srgeom dataclass that nothing reads is written for no
    # one; read means an attribute load of its name in src/, bench/ or tests/
    root = PYPROJECT.parent
    read = {
        node.attr
        for top in ("src", "bench", "tests")
        for path in sorted((root / top).rglob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Attribute) and isinstance(node.ctx, ast.Load)
    }
    fields = [
        (path.name, cls.name, stmt.target.id)
        for path in sorted((root / "src" / "srgeom").glob("*.py"))
        for cls in ast.walk(ast.parse(path.read_text()))
        if isinstance(cls, ast.ClassDef) and any(map(_is_dataclass, cls.decorator_list))
        for stmt in cls.body
        if isinstance(stmt, ast.AnnAssign)
    ]
    assert fields
    assert [f for f in fields if f[2] not in read] == []


def test_every_private_helper_serves_src():
    # a top-level function or method of srgeom named with one leading
    # underscore is a helper of the package: something in src/srgeom outside
    # its own body must read it, or it is kept only for tests
    trees = [ast.parse(path.read_text()) for path in sorted((PYPROJECT.parent / "src" / "srgeom").glob("*.py"))]

    def reads(node):
        for sub in ast.walk(node):
            if isinstance(sub, ast.Name) and isinstance(sub.ctx, ast.Load):
                yield sub.id
            elif isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                yield sub.attr

    everywhere = [name for tree in trees for name in reads(tree)]
    helpers = [
        node
        for tree in trees
        for top in tree.body
        for node in ([top] + (top.body if isinstance(top, ast.ClassDef) else []))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
        and node.name.startswith("_")
        and not node.name.startswith("__")
    ]
    assert helpers
    unread = [f.name for f in helpers if everywhere.count(f.name) == list(reads(f)).count(f.name)]
    assert unread == []


def _functions(tree):
    return {node.name: node for node in ast.walk(tree) if isinstance(node, (ast.FunctionDef, ast.ClassDef))}


def test_declared_and_derived_frames_offer_what_their_readers_read():
    # a derived frame (manifold._Frame) is not a FramedManifold: what the
    # gradings, the pointwise tables, the constructions and the frame calculus
    # read of a frame must exist on both
    from srgeom import expr, manifold, models

    src = PYPROJECT.parent / "src" / "srgeom"
    trees = {name: ast.parse((src / f"{name}.py").read_text()) for name in ("manifold", "connection", "contact", "g235")}
    conn, man = _functions(trees["connection"]), _functions(trees["manifold"])
    scopes = [(conn["Grading"], {"frame"}), (conn["_at"], {"frame"})]
    scopes += [(trees[name], {"aux"}) for name in ("contact", "g235")]
    scopes += [(man[f], {man[f].args.args[0].arg}) for f in ("frame_bracket", "_pair", "frame_inverse", "structure_functions")]
    read = set()
    for node, names in scopes:
        for sub in ast.walk(node):
            if isinstance(sub, ast.Attribute) and isinstance(sub.ctx, ast.Load):
                owner = sub.value
                if getattr(owner, "id", None) in names or getattr(owner, "attr", None) in names:
                    read.add(sub.attr)
    assert {"chart", "coords", "frames", "metric", "point", "frame_matrices_at", "_pairs", "_coframe"} <= read
    chart = models.heisenberg_manifold()
    derived = manifold._Frame(chart, [[expr.ONE if a == b else expr.ZERO for b in range(3)] for a in range(3)])
    for frame in (chart, derived):
        assert [a for a in sorted(read) if not hasattr(frame, a)] == [], type(frame).__name__


def test_only_declared_charts_are_built_as_framed_manifolds():
    # a derived frame is a manifold._Frame; a FramedManifold is declared by a
    # model, a description file, or as raux, the (2,3,5) bracket flag
    sites = set()
    for path in sorted((PYPROJECT.parent / "src" / "srgeom").glob("*.py")):
        for fn in _functions(ast.parse(path.read_text())).values():
            for node in ast.walk(fn):
                if isinstance(node, ast.Call) and getattr(node.func, "id", None) == "FramedManifold":
                    sites.add((path.name, fn.name))
    assert any(name == "models.py" for name, _ in sites)
    assert {s for s in sites if s[0] != "models.py"} == {("manifold.py", "_read_document"), ("g235.py", "_bracket_frame")}
