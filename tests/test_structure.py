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


def test_oracles_take_only_record_types_from_cubical():
    """``tests/oracles.py`` and ``tests/reduction_reference.py`` take ``ScalarField`` and ``CubicalFiltration``
    from ``fieldscape.cubical`` and no other name of it, so no oracle runs the code it is meant to check."""
    taken = []
    for name in ("oracles.py", "reduction_reference.py"):
        for node in ast.walk(ast.parse((ROOT / "tests" / name).read_text())):
            if isinstance(node, ast.ImportFrom) and node.module == "fieldscape.cubical":
                taken += [f"{name}: {a.name}" for a in node.names if a.name not in ("ScalarField", "CubicalFiltration")]
            elif isinstance(node, (ast.Import, ast.ImportFrom)):
                taken += [f"{name}: {a.name}" for a in node.names if a.name.rpartition(".")[2] == "cubical"]
            elif isinstance(node, ast.Attribute) and node.attr == "cubical":
                taken.append(f"{name}: .cubical")
    assert not taken, f"oracles that read fieldscape.cubical beyond its record types: {taken}"


def test_only_write_outputs_makes_directories():
    """Every output directory is made by ``harness.write_outputs``, the one writer; no other code calls ``mkdir``."""
    calls = []
    for path, tree in _parse("src/fieldscape/*.py").items():
        for top in tree.body:
            for node in ast.walk(top):
                if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                        and node.func.attr in ("mkdir", "makedirs")):
                    calls.append(f"{path.stem}.{getattr(top, 'name', node.lineno)}")
    assert calls == ["harness.write_outputs"]


def _opens_for_writing(call: ast.Call) -> bool:
    """Whether the call is ``os.open``, or an ``open`` (built-in, ``io.open`` or a method) whose mode can write."""
    func = call.func
    name = func.id if isinstance(func, ast.Name) else getattr(func, "attr", None)
    owner = getattr(getattr(func, "value", None), "id", None)
    if name != "open":
        return False
    if owner == "os":
        return True
    index = 1 if isinstance(func, ast.Name) or owner == "io" else 0  # Path.open takes the mode first
    modes = [kw.value for kw in call.keywords if kw.arg == "mode"] + call.args[index:index + 1]
    return any(not (isinstance(m, ast.Constant) and isinstance(m.value, str)) or set(m.value) & set("wax+")
               for m in modes)


def test_only_the_one_writer_opens_files_for_writing():
    """Every file is written by ``cubical.write_file``: no other code names ``write_text`` or ``write_bytes``,
    calls ``os.open``, or calls an ``open`` in a mode that writes."""
    writers = set()
    for path, tree in _parse("src/fieldscape/*.py").items():
        for top in tree.body:
            for node in ast.walk(top):
                if (getattr(node, "attr", getattr(node, "id", None)) in ("write_text", "write_bytes")
                        or (isinstance(node, ast.Call) and _opens_for_writing(node))):
                    writers.add(f"{path.stem}.{getattr(top, 'name', node.lineno)}")
    assert writers == {"cubical.write_file"}


def test_per_sample_code_builds_paths_as_strings():
    """``harness._samples`` and ``harness._pipeline_row``, the code that runs once per sample, neither call
    ``Path`` nor use the ``/`` operator: each sample's paths are ``str``, with no pathlib object per file."""
    (tree,) = _parse("src/fieldscape/harness.py").values()
    seen, found = set(), []
    for top in tree.body:
        if getattr(top, "name", None) in ("_samples", "_pipeline_row"):
            seen.add(top.name)
            for node in ast.walk(top):
                if isinstance(node, ast.Call) and getattr(node.func, "id", getattr(node.func, "attr", None)) == "Path":
                    found.append(f"{top.name}: Path() at line {node.lineno}")
                elif isinstance(node, ast.BinOp) and isinstance(node.op, ast.Div):
                    found.append(f"{top.name}: / at line {node.lineno}")
    assert seen == {"_samples", "_pipeline_row"}
    assert found == []


def test_harness_import_leaves_scipy_ndimage_unloaded():
    """``betti_oracle`` imports ``scipy.ndimage`` when called, so importing the harness does not pay for it."""
    code = "import sys, fieldscape.harness; print('scipy.ndimage' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    out = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True, env=env, check=True)
    assert out.stdout.strip() == "False"
