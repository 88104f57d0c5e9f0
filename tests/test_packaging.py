import ast
import os
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
