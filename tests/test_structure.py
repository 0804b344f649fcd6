"""The package holds the program and nothing else: no definition that only tests read."""

import ast
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _parse(pattern: str) -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in sorted(ROOT.glob(pattern))}


def _definitions(tree: ast.Module):
    """(qualified name, name) of each top-level def and class, and of each def in a top-level class."""
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            yield node.name, node.name
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    yield f"{node.name}.{item.name}", item.name


def test_every_definition_is_read_by_the_program():
    """Each top-level def and class of ``src/fieldscape``, private ones included, and each method
    and property of its classes other than dunders, is read in ``src/`` or ``fieldbench/``.

    A read is a name, an attribute or an imported alias in the code of those
    files; a docstring or comment that mentions the name is not one.  A
    helper that only tests read belongs under ``tests/``.
    """
    package = _parse("src/fieldscape/*.py")
    assert package, "no package modules found"
    read = set()
    for tree in [*package.values(), *_parse("fieldbench/*.py").values()]:
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif isinstance(node, ast.alias):
                read.add(node.name.rpartition(".")[2])
    unread = [
        f"{path.stem}.{qualified}"
        for path, tree in package.items()
        for qualified, name in _definitions(tree)
        if not (name.startswith("__") and name.endswith("__")) and name not in read
    ]
    assert not unread, f"definitions no program code reads: {unread}"


def test_harness_import_leaves_scipy_ndimage_unloaded():
    """``betti_oracle`` imports ``scipy.ndimage`` when called, so importing the harness does not pay for it."""
    code = "import sys, fieldscape.harness; print('scipy.ndimage' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"
