import importlib
import pkgutil
from pathlib import Path

import pytest

import srgeom

PYPROJECT = Path(__file__).resolve().parents[1] / "pyproject.toml"


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
