"""perfbench's traced sites and imports still name what the package has.

`perfbench/tracer.py` wraps `module.attribute` for each entry of its `SITES`.
A site that no longer resolves makes every metric built on it read null, and
a traced run then shows only as a malformed result. A name that perfbench
imports from `cfalign` and the package lost crashes every benchmark run.
A site the training step stops calling reads as zero time, so a traced
run no longer splits the step where it used to. These tests read
`perfbench/` (they change nothing there) and fail naming each lost site,
import or call.
"""

import ast
import importlib
import sys
from collections import Counter
from pathlib import Path

from cfalign.config import RunConfig
from cfalign.data import SynthSpec, generate_dataset
from cfalign.train import train

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


# the sites a `full` training step calls every iteration, by the name the
# tracer replaces; the step calls `label_sums` through `cfalign.kernels`,
# never through the `cfalign.train` name the tracer also wraps
STEP_SITES = {
    ("cfalign.train", "model_features"),
    ("cfalign.train", "head_forward"),
    ("cfalign.train", "cross_entropy"),
    ("cfalign.train", "contrastive_combined"),
    ("cfalign.train", "class_centers"),
    ("cfalign.train", "update_bank"),
    ("cfalign.train", "assign_pseudo_labels"),
    ("cfalign.train", "adain_transfer"),
    ("cfalign.train", "backward"),
    ("cfalign.kernels", "nearest_two"),
    ("cfalign.kernels", "label_sums"),
}


def test_every_step_site_is_called_each_iteration(monkeypatch):
    monkeypatch.syspath_prepend(str(PERFBENCH))
    try:
        from tracer import SITES
    finally:
        for name in ("tracer", "workloads"):
            sys.modules.pop(name, None)
    sites = [(module, attr) for module, attr, _ in SITES if (module, attr) in STEP_SITES]
    assert set(sites) == STEP_SITES, f"sites perfbench no longer lists: {STEP_SITES - set(sites)}"
    calls = Counter()
    for module, attr in sites:
        owner = importlib.import_module(module)

        def counted(*args, _real=getattr(owner, attr), _site=f"{module}.{attr}", **kwargs):
            calls[_site] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(owner, attr, counted)
    iterations = 3
    data = generate_dataset(SynthSpec(seed=0, train_images=4, eval_images=2))
    train(RunConfig(seed=0, iterations=iterations, style_transfer=True, contrastive=True), data)
    uncalled = sorted(f"{m}.{a}" for m, a in sites if calls[f"{m}.{a}"] < iterations)
    assert not uncalled, f"sites a full step no longer calls every iteration: {uncalled}"
