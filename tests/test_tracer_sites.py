"""perfbench's traced sites and imports still name what the package has.

`perfbench/tracer.py` wraps `module.attribute` for each entry of its `SITES`.
A site that no longer resolves makes every metric built on it read null, and
a traced run then shows only as a malformed result. A name that perfbench
imports from `cfalign` and the package lost crashes every benchmark run.
These tests read `perfbench/` (they change nothing there) and fail naming
each lost site or import.
"""

import ast
import importlib
import sys
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_every_traced_site_resolves(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        from tracer import SITES
    finally:
        # perfbench's top-level module names stay out of later tests' imports
        for name in ("tracer", "workloads"):
            sys.modules.pop(name, None)
    missing = [
        f"{span} ({module}.{attr})"
        for module, attr, span in SITES
        if not callable(getattr(importlib.import_module(module), attr, None))
    ]
    assert not missing, f"perfbench sites that no longer resolve: {missing}"


def cfalign_imports(path: Path) -> list:
    """(module, name) for each `from cfalign... import name` in a file, and
    (module, None) for each `import cfalign...`."""
    found = []
    for node in ast.walk(ast.parse(path.read_text())):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "cfalign":
            found += [(node.module, alias.name) for alias in node.names]
        elif isinstance(node, ast.Import):
            found += [(alias.name, None) for alias in node.names if alias.name.split(".")[0] == "cfalign"]
    return found


def test_every_perfbench_import_resolves():
    imports = {
        f"{path.name}: {module}{'.' + name if name else ''}": (module, name)
        for path in sorted(PERFBENCH.glob("*.py"))
        for module, name in cfalign_imports(path)
    }
    # run.py imports kernels.get_backend and measure.py model.predict_labels
    assert ("cfalign.kernels", "get_backend") in imports.values()
    assert ("cfalign.model", "predict_labels") in imports.values()
    missing = []
    for where, (module, name) in imports.items():
        try:
            found = importlib.import_module(module)
            if name is not None and not hasattr(found, name):
                importlib.import_module(f"{module}.{name}")
        except ImportError:
            missing.append(where)
    assert not missing, f"perfbench imports that no longer resolve: {missing}"
