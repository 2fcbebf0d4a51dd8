"""The package's import layers: the derivative oracles ship with the package
but stay independent of it, and the channel and scenario modules sit below
the rest."""

import ast
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "thzloc"

# Per module, the imports that the scan checks and those it allows, a
# package module by its relative name: every import of the oracles, which
# take only math and NumPy (cmath: the scalar-loop pilot oracle takes its
# complex exponentials there), and the package imports of the others.
LAYERS = {
    "oracles": ("every", {"__future__", "cmath", "math", "numpy"}),
    "channel": ("package", set()),
    "scenario": ("package", {".errors", ".geometry"}),
}


def _imports(module: str) -> set[str]:
    imported = set()
    for node in ast.walk(ast.parse((PACKAGE / f"{module}.py").read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # A relative import keeps its leading dots.
            imported.add("." * node.level + (node.module or "").split(".")[0])
    return imported


@pytest.mark.parametrize("module", LAYERS)
def test_a_module_imports_only_what_its_layer_allows(module):
    imported = _imports(module)
    assert imported, "no imports found; is the path right?"
    checked, allowed = LAYERS[module]
    if checked == "package":
        imported = {name for name in imported if name.startswith(".") or name == "thzloc"}
    assert imported <= allowed, sorted(imported - allowed)
