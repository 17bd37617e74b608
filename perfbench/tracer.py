"""Spans around cfalign's public functions, recorded from outside the program.

Each wrapped function is replaced under the module attribute its callers
look it up by, because several modules import names directly
(``from .losses import contrastive_combined``), so wrapping the defining
module alone would miss those calls. Spans are kept in memory and written
out when the run ends. A site that no longer exists is reported by name and
every metric that depends on it reads as missing, never as zero.
"""

from __future__ import annotations

import csv
import importlib
from collections import Counter, defaultdict
from contextlib import contextmanager
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

from workloads import OP_TAGS, VARIANT_KEYS

# (module, attribute, span name)
SITES = (
    ("cfalign.train", "model_features", "model.features"),
    ("cfalign.train", "model_probs", "model.probs"),
    ("cfalign.train", "head_forward", "heads.forward"),
    ("cfalign.train", "cross_entropy", "losses.ce"),
    ("cfalign.train", "entropy_loss", "losses.entropy"),
    ("cfalign.train", "contrastive_combined", "losses.contrastive"),
    ("cfalign.losses", "info_nce", "losses.info_nce"),
    ("cfalign.train", "class_centers", "membank.class_centers"),
    ("cfalign.train", "update_bank", "membank.update_bank"),
    ("cfalign.train", "assign_pseudo_labels", "membank.pseudo"),
    ("cfalign.train", "adain_transfer", "adain.transfer"),
    ("cfalign.train", "channel_stats", "adain.stats"),
    ("cfalign.train", "backward", "tensor.backward"),
    ("cfalign.train", "label_sums", "kernels.label_sums"),  # bank warm start
    ("cfalign.kernels", "nearest_two", "kernels.nearest_two"),  # membank calls kernels.<name>
    ("cfalign.kernels", "label_sums", "kernels.label_sums"),
    ("cfalign.evaluate", "predict_labels", "evaluate.predict"),
    ("cfalign.evaluate", "model_features", "evaluate.features"),
    ("cfalign.evaluate", "assign_pseudo_labels", "evaluate.pseudo"),
    ("cfalign.evaluate", "confusion", "kernels.confusion"),
    ("cfalign.experiments", "train", "experiments.train"),
    ("cfalign.experiments", "evaluate", "experiments.evaluate"),
)

# root spans the benchmark opens around its own calls to `train`
SETUP_ROOT = "train.setup"  # train(config.replace(iterations=0), data)
LOOP_ROOTS = ("train.loop", "experiments.train")

# metric -> span names whose self time per training iteration it sums, in ms
PER_ITER_MS = {
    "tensor.backward_ms": ("tensor.backward",),
    "model.features_ms": ("model.features",),
    "model.probs_ms": ("model.probs",),
    "heads.forward_ms": ("heads.forward",),
    "losses.ce_ms": ("losses.ce",),
    "losses.entropy_ms": ("losses.entropy",),
    "losses.contrastive_ms": ("losses.contrastive", "losses.info_nce"),
    "membank.bank_ms": ("membank.class_centers", "membank.update_bank"),
    "membank.pseudo_ms": ("membank.pseudo",),
    "kernels.nearest_two_ms": ("kernels.nearest_two",),
    "kernels.label_sums_ms": ("kernels.label_sums",),
    "adain.transfer_ms": ("adain.transfer",),
}
# metric -> span names whose calls per training iteration it counts
PER_ITER_CALLS = {
    "losses.info_nce_calls_per_iter": ("losses.info_nce",),
    "membank.class_centers_calls_per_iter": ("membank.class_centers",),
    "kernels.calls_per_iter": ("kernels.nearest_two", "kernels.label_sums"),
}
# metric -> span names whose inclusive time per evaluate call it sums, in ms
PER_EVAL_MS = {
    "evaluate.predict_ms": ("evaluate.predict",),
    "evaluate.pseudo_ms": ("evaluate.features", "evaluate.pseudo"),
    "kernels.confusion_ms": ("kernels.confusion",),
}
EVAL_ROOTS = ("evaluate.call", "experiments.evaluate")

# metrics computed from a span's extras rather than its time
NODE_METRICS = ("tensor.nodes_per_iter", *(f"tensor.nodes.{tag}" for tag in OP_TAGS))
SPAN_DEPENDENCIES = {
    **PER_ITER_MS,
    **PER_ITER_CALLS,
    **PER_EVAL_MS,
    **{m: ("tensor.backward",) for m in NODE_METRICS},
    "kernels.bytes_per_iter": ("kernels.nearest_two", "kernels.label_sums"),
    "adain.stats_s": ("adain.stats",),
    **{f"experiments.run_s.{k}": ("experiments.train", "experiments.evaluate") for k in VARIANT_KEYS.values()},
}


@dataclass
class Span:
    name: str
    start: float
    end: float = 0.0
    parent: int = -1
    run_id: str = ""
    label: str = ""
    extra: dict = field(default_factory=dict)


def _variant(config) -> str:
    """Ablation variant key of a RunConfig, from its toggles."""
    from cfalign.experiments import ABLATION_VARIANTS

    for name, toggles in ABLATION_VARIANTS:
        if all(getattr(config, k) == v for k, v in toggles.items()):
            return VARIANT_KEYS[name]
    return ""


def _graph_extra(args, result) -> dict:
    return {"nodes": Counter(node.tag for node in args[1].nodes)}


def _kernel_extra(args, result) -> dict:
    # bytes computed from the sizes of the arrays the kernel reads and writes
    arrays = [a for a in args if isinstance(a, np.ndarray)] + list(result)
    return {"bytes": sum(int(a.nbytes) for a in arrays)}


EXTRAS = {
    "tensor.backward": _graph_extra,
    "kernels.nearest_two": _kernel_extra,
    "kernels.label_sums": _kernel_extra,
}
LABELS = {
    "experiments.train": lambda args: _variant(args[0]),
    "experiments.evaluate": lambda args: _variant(args[0].config),
}


class Tracer:
    """Records nested spans; `install` wraps every site, `uninstall` restores them."""

    def __init__(self) -> None:
        self.spans: list[Span] = []
        self.run_id = ""
        self.missing: dict[str, str] = {}  # span name -> site that was not found
        self._stack: list[int] = []
        self._saved: list[tuple[object, str, object]] = []

    def _open(self, name: str, label: str = "") -> int:
        parent = self._stack[-1] if self._stack else -1
        self.spans.append(Span(name, perf_counter(), parent=parent, run_id=self.run_id, label=label))
        self._stack.append(len(self.spans) - 1)
        return self._stack[-1]

    def _close(self, idx: int) -> None:
        self.spans[idx].end = perf_counter()
        self._stack.pop()

    @contextmanager
    def span(self, name: str, label: str = ""):
        """A span around a call the benchmark makes itself."""
        idx = self._open(name, label)
        try:
            yield
        finally:
            self._close(idx)

    def install(self) -> None:
        for module_name, attr, name in SITES:
            try:
                module = importlib.import_module(module_name)
            except ModuleNotFoundError:
                module = None
            original = getattr(module, attr, None)
            if original is None:
                self.missing[name] = f"{module_name}.{attr}"
                continue
            self._saved.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        for module, attr, original in reversed(self._saved):
            setattr(module, attr, original)
        self._saved.clear()

    def _wrap(self, fn, name: str):
        label_of = LABELS.get(name)
        extra_of = EXTRAS.get(name)
        tracer = self

        def traced(*args, **kwargs):
            idx = tracer._open(name, label_of(args) if label_of else "")
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(idx)
            if extra_of is not None:
                tracer.spans[idx].extra = extra_of(args, result)
            return result

        return traced

    def write_csv(self, path: Path) -> None:
        path.parent.mkdir(parents=True, exist_ok=True)
        with open(path, "w", newline="") as fh:
            out = csv.writer(fh)
            out.writerow(("index", "name", "label", "start", "end", "parent", "run_id"))
            for i, s in enumerate(self.spans):
                out.writerow((i, s.name, s.label, repr(s.start), repr(s.end), s.parent, s.run_id))


def self_times(spans: list[Span]) -> list[float]:
    """Each span's duration minus the part its child spans cover.

    Calls run on one thread, so the children of a span never overlap.
    """
    covered = [0.0] * len(spans)
    for s in spans:
        if s.parent >= 0:
            covered[s.parent] += s.end - s.start
    return [s.end - s.start - c for s, c in zip(spans, covered)]


def _scopes(spans: list[Span]) -> list[str]:
    """'setup' or 'loop' for spans inside a train call, '' elsewhere."""
    scopes: list[str] = []
    for s in spans:
        if s.name == SETUP_ROOT:
            scopes.append("setup")
        elif s.name in LOOP_ROOTS:
            scopes.append("loop")
        else:
            scopes.append(scopes[s.parent] if s.parent >= 0 else "")
    return scopes


def summarize(spans: list[Span], iterations: int) -> dict[str, float]:
    """Per-layer metrics of one traced round.

    A round holds set-up calls `train(config.replace(iterations=0))` matching
    its full `train` calls one to one; subtracting them leaves the cost of
    the `iterations` training iterations alone.
    """
    own = self_times(spans)
    scopes = _scopes(spans)
    time_of = {"loop": defaultdict(float), "setup": defaultdict(float)}
    calls_of = {"loop": Counter(), "setup": Counter()}
    inclusive = defaultdict(float)
    nodes: Counter = Counter()
    kernel_bytes = 0
    for s, t, scope in zip(spans, own, scopes):
        inclusive[s.name, s.label] += s.end - s.start
        if not scope:
            continue
        time_of[scope][s.name] += t
        calls_of[scope][s.name] += 1
        sign = 1 if scope == "loop" else -1
        nodes.update({tag: sign * n for tag, n in s.extra.get("nodes", {}).items()})
        kernel_bytes += sign * s.extra.get("bytes", 0)

    def per_iter(table, names):
        return sum(table["loop"][n] - table["setup"][n] for n in names) / iterations

    out = {m: 1e3 * per_iter(time_of, names) for m, names in PER_ITER_MS.items()}
    out.update({m: per_iter(calls_of, names) for m, names in PER_ITER_CALLS.items()})
    out["kernels.bytes_per_iter"] = kernel_bytes / iterations
    # the total counts every tag, so a tag missing from OP_TAGS shows as a gap
    out["tensor.nodes_per_iter"] = sum(nodes.values()) / iterations
    out.update({f"tensor.nodes.{tag}": nodes[tag] / iterations for tag in OP_TAGS})
    out["train.self_ms"] = 1e3 * per_iter(time_of, (SETUP_ROOT, *LOOP_ROOTS))
    loop_wall = sum(v for (name, _), v in inclusive.items() if name in LOOP_ROOTS)
    setup_wall = sum(v for (name, _), v in inclusive.items() if name == SETUP_ROOT)
    out["trace.iter_ms"] = 1e3 * (loop_wall - setup_wall) / iterations
    out["adain.stats_s"] = time_of["setup"]["adain.stats"]
    evals = sum(1 for s in spans if s.name in EVAL_ROOTS)
    for metric, names in PER_EVAL_MS.items():
        total = sum(v for (name, _), v in inclusive.items() if name in names)
        out[metric] = 1e3 * total / evals if evals else 0.0
    for key in VARIANT_KEYS.values():
        out[f"experiments.run_s.{key}"] = (
            inclusive["experiments.train", key] + inclusive["experiments.evaluate", key]
        )
    return out


def missing_metrics(tracer: Tracer) -> dict[str, str]:
    """metric -> site that was not found, for every metric a missing site breaks."""
    out = {}
    for metric, names in SPAN_DEPENDENCIES.items():
        for name in names:
            if name in tracer.missing:
                out[metric] = tracer.missing[name]
    if tracer.missing:
        # the remainder after child spans is wrong once any child is unwrapped
        out["train.self_ms"] = ", ".join(sorted(set(tracer.missing.values())))
    return out
