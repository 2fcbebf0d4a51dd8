"""The derivative oracles ship with the package but stay independent of it."""

import ast
from pathlib import Path

ORACLES = Path(__file__).resolve().parents[1] / "src" / "thzloc" / "oracles.py"

# cmath: the scalar-loop pilot oracle takes its complex exponentials there.
ALLOWED_IMPORTS = {"__future__", "cmath", "math", "numpy"}


def test_oracles_import_nothing_but_math_and_numpy():
    imported = set()
    for node in ast.walk(ast.parse(ORACLES.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            imported.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom):
            # A relative import keeps its leading dots and never matches.
            imported.add("." * node.level + (node.module or "").split(".")[0])
    assert imported, "no imports found; is the path right?"
    assert imported <= ALLOWED_IMPORTS, sorted(imported - ALLOWED_IMPORTS)
