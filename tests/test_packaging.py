import ast
import os
import pkgutil
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_the_package_has_no_runtime_dependencies():
    lines = (ROOT / "pyproject.toml").read_text().splitlines()
    assert [line for line in lines if line.startswith("dependencies")] == ["dependencies = []"]


def test_importing_the_package_and_the_cli_leaves_numpy_out():
    code = "import sys, ultrafree, ultrafree.cli; print('numpy' in sys.modules)"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, check=True
    )
    assert result.stdout.strip() == "False"


def _traced_layers() -> tuple[str, ...]:
    """The ``LAYERS`` tuple of bench/tracer.py, read from its source without running it."""
    tree = ast.parse((ROOT / "bench" / "tracer.py").read_text())
    for node in tree.body:
        if isinstance(node, ast.Assign) and [getattr(t, "id", None) for t in node.targets] == ["LAYERS"]:
            return ast.literal_eval(node.value)
    raise AssertionError("bench/tracer.py assigns no LAYERS")


def test_importing_the_package_and_the_cli_loads_every_traced_layer():
    # the bench tracer reads the module ultrafree.<layer> of each layer from sys.modules
    layers = _traced_layers()
    code = "import sys, ultrafree, ultrafree.cli; print(*sorted(sys.modules))"
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    result = subprocess.run(
        [sys.executable, "-c", code], cwd=ROOT, env=env, capture_output=True, text=True, check=True
    )
    assert layers and sorted({f"ultrafree.{layer}" for layer in layers} - set(result.stdout.split())) == []


_CROSS_REFERENCE = re.compile(r":(func|class|data|mod):`([\w.]+)`")


def _resolves(module: str, name: str) -> bool:
    """Whether ``name`` is an attribute path in ``module``, under ``ultrafree.`` or in the standard library."""
    for candidate in (f"{module}.{name}", f"ultrafree.{name}", name):
        if candidate.split(".")[0] in ("ultrafree", *sys.stdlib_module_names):
            try:
                pkgutil.resolve_name(candidate)
                return True
            except (ImportError, AttributeError, ValueError):
                pass
    return False


def _cross_references() -> list[tuple[str, str, str]]:
    """(file, role, name) of every Sphinx cross-reference in the package sources."""
    return [
        (path.name, role, name)
        for path in sorted((ROOT / "src" / "ultrafree").glob("*.py"))
        for role, name in _CROSS_REFERENCE.findall(path.read_text())
    ]


def test_every_docstring_cross_reference_resolves():
    references = _cross_references()
    unresolved = [
        (file, role, name) for file, role, name in references if not _resolves(f"ultrafree.{file[:-3]}", name)
    ]
    assert len(references) > 50 and unresolved == []
    # a deleted or misspelled name is caught, and a name of another module resolves only under its path
    assert not _resolves("ultrafree.chain", "_telescopes")
    assert not _resolves("ultrafree.chain", "_tree_transport")
    assert _resolves("ultrafree.chain", "freespace._tree_transport")
    assert _resolves("ultrafree.ell1", "fractions.Fraction") and not _resolves("ultrafree.ell1", "fractions.Fractions")


def _imported_modules(path: Path):
    """The top-level name of every absolute import in the file at ``path``."""
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.Import):
            yield from (alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module.split(".")[0]


def test_the_sources_import_only_what_ci_installs():
    # CI installs pytest and hypothesis alone, so an import of anything else passes here and fails there
    tests = {path.stem for path in (ROOT / "tests").glob("*.py")}
    allowed = {*sys.stdlib_module_names, "ultrafree", "pytest", "hypothesis", *tests}
    files = [*(ROOT / "src").rglob("*.py"), *(ROOT / "tests").glob("*.py"), *(ROOT / "demos").glob("*.py")]
    found = {(path.relative_to(ROOT).as_posix(), name) for path in files for name in _imported_modules(path)}
    assert {"numpy", "scipy", "networkx"}.isdisjoint(allowed) and ("tests/test_packaging.py", "ast") in found
    assert sorted((file, name) for file, name in found if name not in allowed) == []
