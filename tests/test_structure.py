"""The package holds the program and nothing else: no public name that only tests read."""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def _parse(pattern: str) -> dict[Path, ast.Module]:
    return {path: ast.parse(path.read_text(), filename=str(path)) for path in sorted(ROOT.glob(pattern))}


def test_every_public_definition_is_read_by_the_program():
    """Each public top-level def and class of ``src/fieldscape`` is read in ``src/`` or ``fieldbench/``.

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
        f"{path.stem}.{node.name}"
        for path, tree in package.items()
        for node in tree.body
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not node.name.startswith("_") and node.name not in read
    ]
    assert not unread, f"public names no program code reads: {unread}"
