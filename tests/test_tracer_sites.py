"""perfbench's traced sites still name functions the package has.

`perfbench/tracer.py` wraps `module.attribute` for each entry of its `SITES`.
A site that no longer resolves makes every metric built on it read null, and
a traced run then shows only as a malformed result. This test reads `SITES`
(it changes nothing under `perfbench/`) and fails naming each lost site.
"""

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
