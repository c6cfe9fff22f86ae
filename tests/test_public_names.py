"""The names that bench/ and `boxattractor.__all__` promise must exist.

The benchmark under bench/ is frozen and its own tests run on one numpy
version only, so a removed or renamed name it imports would surface late;
this test reads its imports with `ast` instead of running it.
"""

from __future__ import annotations

import ast
import importlib
from pathlib import Path

import pytest

import boxattractor

BENCH = Path(__file__).resolve().parents[1] / "bench"


def _bench_uses(path: Path) -> list[tuple[str, str, str | None]]:
    """(module, name, None) for every `from boxattractor... import name` in
    the file, and (module, name, attr) for every `name.attr` it reads."""
    tree = ast.parse(path.read_text(encoding="utf-8"), filename=str(path))
    origin: dict[str, tuple[str, str]] = {}  # local alias -> (module, name)
    uses: list[tuple[str, str, str | None]] = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "boxattractor":
            for alias in node.names:
                origin[alias.asname or alias.name] = (node.module, alias.name)
                uses.append((node.module, alias.name, None))
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in origin:
            uses.append((*origin[node.value.id], node.attr))
    return uses


def _resolve(module: str, name: str, attr: str | None) -> object:
    """`module.name`, an attribute or a submodule, and its `attr` if given."""
    mod = importlib.import_module(module)
    obj = getattr(mod, name) if hasattr(mod, name) else importlib.import_module(f"{module}.{name}")
    return obj if attr is None else getattr(obj, attr)


@pytest.mark.parametrize("path", sorted(BENCH.glob("*.py")), ids=lambda p: p.name)
def test_bench_imports_resolve(path: Path) -> None:
    for module, name, attr in _bench_uses(path):
        try:
            _resolve(module, name, attr)
        except (ImportError, AttributeError) as exc:
            used = ".".join(p for p in (module, name, attr) if p)
            pytest.fail(f"{path.name} uses {used}, which does not resolve: {exc!r}")


def test_bench_imports_something() -> None:
    # guards the guard: the benchmark's workloads reach the package
    uses = _bench_uses(BENCH / "workloads.py")
    assert ("boxattractor.transition", "build_transition_discrete", None) in uses
    assert ("boxattractor", "cli", "main") in uses


def test_all_names_resolve() -> None:
    missing = [name for name in boxattractor.__all__ if not hasattr(boxattractor, name)]
    assert missing == []
    assert len(set(boxattractor.__all__)) == len(boxattractor.__all__)
