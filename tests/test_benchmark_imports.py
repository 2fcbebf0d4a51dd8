"""Every thzloc name the benchmark under perfbench/ uses still exists, and
every name it takes from tests/oracles.py; and the benchmark's traced
runs, whose per-path composition must give evaluate_pose's bits.

The benchmark runs unchanged on successive versions of the package and
of the test oracles, which its run puts on the import path, so a name it
imports cannot be removed without a change to the benchmark, and a traced
pose that differs from evaluate_pose in any bit makes its run incorrect.
"""

import ast
import importlib
import importlib.util
from pathlib import Path

import pytest

from thzloc import PoseDistribution, evaluate_pose, load_config, preset, sample_pose

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"
# The package, and tests/oracles.py imported as the top-level `oracles`.
ROOTS = ("thzloc", "oracles")


def _dotted(node) -> str | None:
    # "a.b.c" for an attribute chain on a plain name, else None.
    parts = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if not isinstance(node, ast.Name):
        return None
    return ".".join([node.id] + parts[::-1])


def _imported_names(source: str) -> set[str]:
    """Dotted names the source imports from one of ROOTS or reads off it:
    `from thzloc.crb import x` gives thzloc.crb.x, `import thzloc.cli`
    thzloc.cli, `thzloc.load_config(...)` after `import thzloc` gives
    thzloc.load_config, and `from oracles import C_LIGHT` oracles.C_LIGHT."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level == 0:
            module = node.module or ""
            if module.split(".")[0] in ROOTS:
                names.update(f"{module}.{alias.name}" for alias in node.names)
        elif isinstance(node, ast.Import):
            names.update(a.name for a in node.names if a.name.split(".")[0] in ROOTS)
        elif isinstance(node, ast.Attribute):
            dotted = _dotted(node)
            if dotted and dotted.split(".")[0] in ROOTS:
                names.add(dotted)
    return names


def _resolves(dotted: str) -> bool:
    # The longest importable module prefix, then attributes for the rest.
    parts = dotted.split(".")
    for cut in range(len(parts), 0, -1):
        try:
            target = importlib.import_module(".".join(parts[:cut]))
        except ModuleNotFoundError:
            continue
        for name in parts[cut:]:
            if not hasattr(target, name):
                return False
            target = getattr(target, name)
        return True
    return False


def test_benchmark_imports_resolve():
    used = {}
    for path in sorted(PERFBENCH.glob("*.py")):
        for name in _imported_names(path.read_text(encoding="utf-8")):
            used.setdefault(name, path.name)
    assert "thzloc.evaluate_pose" in used, "no thzloc names found; is the path right?"
    assert "oracles.state_jacobian_fd" in used, "no oracles names found"
    missing = sorted(f"{name} ({where})" for name, where in used.items() if not _resolves(name))
    assert not missing, missing


def _tracer():
    spec = importlib.util.spec_from_file_location("tracer", PERFBENCH / "tracer.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.Tracer()


@pytest.mark.parametrize("name", ["cuboidal-4bs", "planar-2bs", "planar-2bs-wide"])
def test_the_traced_composition_matches_evaluate_pose(name):
    config = load_config(PERFBENCH / f"{name}.yaml") if name.endswith("wide") else preset(name)
    scn, tracer, seed = config.realize(), _tracer(), 1
    for trial in range(1, 21):
        tracer.run(scn, lambda: sample_pose(PoseDistribution(), seed, trial), seed, trial,
                   lambda pose: evaluate_pose(config, pose, seed=seed, trial=trial))
    assert tracer.poses == 20 and tracer.finite > 0
    assert tracer.mismatches == []
