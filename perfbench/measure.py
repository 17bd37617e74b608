"""One workload run: set-up, timed jobs, output checks and the traced rounds.

Everything goes through cfalign's public calls. The only substitution in an
untraced run is a pass-through on ``cfalign.experiments.train`` for the
grid, which hands the benchmark each variant's state, records and wall time
(one clock read per variant) so the grid's outputs can be checked and its
per-iteration time derived.
"""

from __future__ import annotations

import gc
import hashlib
import math
import statistics
from contextlib import contextmanager, nullcontext
from dataclasses import dataclass, field
from pathlib import Path
from time import perf_counter

import numpy as np

import cfalign.experiments as experiments
from cfalign.checkpoint import load_checkpoint, save_checkpoint
from cfalign.config import RunConfig
from cfalign.data import SynthSpec, generate_dataset, load_dataset, save_dataset
from cfalign.evaluate import evaluate
from cfalign.experiments import ABLATION_VARIANTS, results_to_json, run_ablation, save_results
from cfalign.model import predict_labels
from cfalign.train import metrics_to_csv, train

from reference import REFERENCE_S, burst
from tracer import Tracer, missing_metrics, summarize
from workloads import EVALS_PER_JOB, SETUP_REPEATS, Workload

TRACED_EVALS = 5  # evaluate calls per traced round, for the evaluate.* split
MIN_JOBS = 3
MIN_ROUNDS = 2
# per-layer metrics that are exact counts; two traced rounds must agree on them
COUNTERS_PREFIXES = ("tensor.nodes", "losses.info_nce_calls", "membank.class_centers_calls", "kernels.calls", "kernels.bytes")


class Ledger:
    """Operations attempted and failed; a failed output check counts as a failed operation."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def done(self) -> None:
        self.attempted += 1

    def check(self, ok: bool, what: str) -> bool:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.problems.append(what)
        return ok


@dataclass
class Setup:
    generate_s: float
    save_s: float
    load_s: float
    train0_s: float  # train(config.replace(iterations=0)) summed over the workload's configs
    data_bytes: int

    @property
    def total_s(self) -> float:
        return self.generate_s + self.save_s + self.load_s + self.train0_s


@dataclass
class Job:
    train_s: float  # wall time of the full-length train calls
    run_s: float
    runs: list  # (config, state, records) per train call
    evals: list  # EvalRecord per train call
    results: list | None = None  # RunResult list of the grid

    def digest(self) -> str:
        """sha256 of every metrics.csv the job produced (and the grid's results.json)."""
        h = hashlib.sha256()
        for _, _, records in self.runs:
            h.update(metrics_to_csv(records).encode())
        if self.results is not None:
            h.update(results_to_json(self.results).encode())
        return h.hexdigest()

    @property
    def final(self):
        """State and evaluation of the last (for the grid: the full) variant."""
        return self.runs[-1][1], self.evals[-1]


def configs(wl: Workload, seed: int) -> tuple[RunConfig, list[RunConfig]]:
    """The base config and the configs `train` is called with."""
    base = RunConfig(seed=seed, iterations=wl.iterations, **wl.config).validate()
    if wl.grid:
        return base, [base.replace(**toggles) for _, toggles in ABLATION_VARIANTS]
    return base, [base]


def _span(tracer: Tracer | None, name: str, label: str = ""):
    return tracer.span(name, label) if tracer is not None else nullcontext()


def set_up(wl: Workload, seed: int, workdir: Path) -> tuple[Setup, object]:
    """What a user pays before the first iteration: data, then train's own set-up."""
    t0 = perf_counter()
    data = generate_dataset(SynthSpec(seed=seed))
    t1 = perf_counter()
    save_dataset(workdir / "data", data)
    t2 = perf_counter()
    data = load_dataset(workdir / "data")
    t3 = perf_counter()
    train0_s = train_setups(wl, seed, data)
    data_bytes = sum(p.stat().st_size for p in (workdir / "data").iterdir())
    return Setup(t1 - t0, t2 - t1, t3 - t2, train0_s, data_bytes), data


def train_setups(wl: Workload, seed: int, data, tracer: Tracer | None = None) -> float:
    """`train(config.replace(iterations=0))` for each config of the workload; returns seconds."""
    t0 = perf_counter()
    for cfg in configs(wl, seed)[1]:
        with _span(tracer, "train.setup"):
            train(cfg.replace(iterations=0), data)
    return perf_counter() - t0


@contextmanager
def capture_grid_runs(runs: list):
    """Pass-through on experiments.train that keeps each variant's outputs."""
    original = experiments.train

    def passthrough(config, data):
        t0 = perf_counter()
        state, records = original(config, data)
        runs.append((config, state, records, perf_counter() - t0))
        return state, records

    experiments.train = passthrough
    try:
        yield
    finally:
        experiments.train = original


def run_job(wl: Workload, seed: int, data, workdir: Path, tracer: Tracer | None = None) -> Job:
    """One user job after set-up: what `cfalign train` or `cfalign ablate` costs."""
    base, _ = configs(wl, seed)
    if wl.grid:
        runs: list = []
        t0 = perf_counter()
        with capture_grid_runs(runs), _span(tracer, "ablation"):
            results = run_ablation(base, data)
        with _span(tracer, "results.save"):
            save_results(results, workdir / "ablation")
        run_s = perf_counter() - t0
        return Job(
            train_s=sum(r[3] for r in runs),
            run_s=run_s,
            runs=[r[:3] for r in runs],
            evals=[r.record for r in results],
            results=results,
        )
    t0 = perf_counter()
    with _span(tracer, "train.loop"):
        state, records = train(base, data)
    t1 = perf_counter()
    with _span(tracer, "checkpoint.save"):
        save_checkpoint(state, workdir / "checkpoint.bin")
    with _span(tracer, "evaluate.call"):
        record = evaluate(state, data.target_eval)
    t2 = perf_counter()
    return Job(train_s=t1 - t0, run_s=t2 - t0, runs=[(base, state, records)], evals=[record])


def independent_miou(state, split) -> float:
    """mIoU from a numpy confusion matrix indexed [truth, pred], built here."""
    truth = split.labels.reshape(-1)
    pred = predict_labels(state.model, split.images).reshape(-1)
    c = state.classes
    matrix = np.bincount(truth * c + pred, minlength=c * c).reshape(c, c)
    tp = np.diag(matrix).astype(np.float64)
    union = tp + (matrix.sum(axis=0) - tp) + (matrix.sum(axis=1) - tp)
    present = [float(tp[k] / union[k]) for k in range(c) if union[k] > 0]
    return float(np.mean(present))


def check_job(job: Job, data, workdir: Path, ledger: Ledger, tracer: Tracer | None = None) -> None:
    """Finite losses, an independent mIoU, and evaluation of a reloaded checkpoint."""
    for config, state, records in job.runs:
        finite = all(
            np.isfinite([r.ce, r.entropy, r.contra, r.total, r.pseudo_acc, r.labeled_frac]).all()
            for r in records
        )
        ledger.check(finite and len(records) == config.iterations, "a training record is missing or not finite")
    for (_, state, _), record in zip(job.runs, job.evals):
        ledger.check(
            independent_miou(state, data.target_eval) == record.miou,
            f"evaluate reports miou {record.miou!r}, the [truth, pred] confusion gives another",
        )
    state, record = job.final
    path = workdir / "checkpoint.bin"
    if job.results is not None:
        with _span(tracer, "checkpoint.save"):
            save_checkpoint(state, path)
    with _span(tracer, "checkpoint.load"):
        loaded = load_checkpoint(path)
    with _span(tracer, "evaluate.call"):
        again = evaluate(loaded, data.target_eval)
    ledger.check(again == record, "evaluate differs on the reloaded checkpoint")


def _contrastive_means(job: Job) -> tuple[float, float]:
    """Mean labeled_frac and pseudo_acc over the iterations of contrastive runs."""
    rows = [r for config, _, records in job.runs if config.contrastive for r in records]
    if not rows:
        return 0.0, 0.0
    return (
        float(np.mean([r.labeled_frac for r in rows])),
        float(np.mean([r.pseudo_acc for r in rows])),
    )


def _iter_ms(wl: Workload, job: Job, train0_s: float) -> float:
    iterations = wl.iterations * len(job.runs)
    return 1e3 * (job.train_s - train0_s) / iterations


@dataclass
class Outcome:
    metrics: dict
    miou: float
    digest: str
    notes: dict = field(default_factory=dict)


class HostSpeed:
    """Reads the host's speed with reference bursts right around timed work.

    ``mark`` runs a burst just before the work; ``factor`` runs one just
    after it and returns the work's normalising factor, ``REFERENCE_S``
    over the mean of the two bursts (see reference.py). Consecutive timed
    pieces share the burst between them.
    """

    def __init__(self) -> None:
        self.last = burst()

    def mark(self) -> None:
        self.last = burst()

    def factor(self) -> float:
        before, self.last = self.last, burst()
        return REFERENCE_S / (0.5 * (before + self.last))


def measure(wl: Workload, seed: int, seconds: float, workdir: Path, ledger: Ledger, import_s: float) -> Outcome:
    """End-to-end metrics with tracing off.

    The host's speed changes by up to 1.8x in spells as long as a run, so
    every timed piece of work (a set-up, a job, an evaluate call) is
    bracketed by reference bursts and normalised by them; the metrics are
    medians of the normalised timings. Jobs are short (a few tenths of a
    second) so a run holds dozens, and set-ups are spread over the run.
    """
    deadline = perf_counter() + seconds
    speed = HostSpeed()
    import_norm_s = import_s * REFERENCE_S / speed.last
    setups: list[tuple[Setup, float]] = []  # (set-up, its factor)

    def timed_set_up(keep: bool):
        gc.collect()
        speed.mark()
        setup, data = set_up(wl, seed, workdir)
        if not keep:
            # only the first copy is used; free the others before the next burst
            data = None
        setups.append((setup, speed.factor()))
        ledger.done()
        return data

    data = timed_set_up(keep=True)
    evaluate_warm = False
    jobs: list[tuple[Job, float]] = []  # (job, its factor)
    eval_s: list[tuple[float, float]] = []  # (seconds, factor)
    cycle_s: list[float] = []
    while (
        len(jobs) < MIN_JOBS
        or len(setups) < SETUP_REPEATS
        or perf_counter() + statistics.median(cycle_s) < deadline
    ):
        t_cycle = perf_counter()
        # collect the last job's garbage here, not at some point inside the next timed job
        gc.collect()
        speed.mark()
        job = run_job(wl, seed, data, workdir)
        jobs.append((job, speed.factor()))
        ledger.done()
        check_job(job, data, workdir, ledger)
        state, record = job.final
        if not evaluate_warm:
            evaluate(state, data.target_eval)
            evaluate_warm = True
        speed.mark()
        for _ in range(EVALS_PER_JOB):
            t0 = perf_counter()
            again = evaluate(state, data.target_eval)
            elapsed = perf_counter() - t0
            eval_s.append((elapsed, speed.factor()))
            ledger.check(again == record, "repeated evaluate calls disagree")
        cycle_s.append(perf_counter() - t_cycle)
        # spread the remaining set-ups over the time left
        left = max(deadline - perf_counter(), 0.0)
        if len(setups) < SETUP_REPEATS and left <= (SETUP_REPEATS - len(setups)) * seconds / SETUP_REPEATS:
            timed_set_up(keep=False)
    digests = {j.digest() for j, _ in jobs}
    ledger.check(len(digests) == 1, f"{len(jobs)} identical jobs gave {len(digests)} metrics.csv digests")

    iterations = wl.iterations * len(configs(wl, seed)[1])

    def samples(normalised: bool) -> dict[str, list[float]]:
        k = (lambda f: f) if normalised else (lambda f: 1.0)
        train0_s = statistics.median(s.train0_s * k(f) for s, f in setups)
        return {
            "setup_s": [(import_norm_s if normalised else import_s) + s.total_s * k(f) for s, f in setups],
            "iter_ms": [1e3 * (j.train_s * k(f) - train0_s) / iterations for j, f in jobs],
            "run_s": [j.run_s * k(f) for j, f in jobs],
            "eval_ms": [1e3 * t * k(f) for t, f in eval_s],
        }

    normalised = samples(True)
    metrics = {name: statistics.median(values) for name, values in normalised.items()}
    metrics["peak_rss_mb"] = peak_rss_mb()
    wall = {name: statistics.median(values) for name, values in samples(False).items()}
    wall["host_factor"] = statistics.median(f for _, f in jobs)
    notes = {"jobs": len(jobs), "setups": len(setups), "tails": tails(normalised), "wall": wall}
    return Outcome(metrics, record.miou, digests.pop(), notes)


def tails(samples: dict[str, list[float]]) -> dict[str, str]:
    """The highest percentile with at least ten samples beyond it, and the count."""
    out = {}
    for name, values in samples.items():
        n = len(values)
        if n >= 20:
            pct = math.floor(100 * (1 - 10 / n))
            out[name] = f"p{pct} {np.percentile(values, pct):.6g} of {n}"
        else:
            out[name] = f"{n} samples, too few for a tail"
    return out


def measure_traced(wl: Workload, seed: int, seconds: float, workdir: Path, ledger: Ledger, trace_csv: Path) -> Outcome:
    """Per-layer metrics: rounds of one untraced job and one traced job, alternating."""
    deadline = perf_counter() + seconds
    setups = []
    for _ in range(SETUP_REPEATS):
        setup, data = set_up(wl, seed, workdir)
        setups.append(setup)
        ledger.done()
    train0_s = statistics.median(s.train0_s for s in setups)
    iterations = wl.iterations * len(configs(wl, seed)[1])

    rounds: list[dict] = []
    plain_iter_ms: list[float] = []
    round_s: list[float] = []
    tracer = None
    while len(rounds) < MIN_ROUNDS or perf_counter() + statistics.median(round_s) < deadline:
        t_round = perf_counter()
        plain = run_job(wl, seed, data, workdir)
        ledger.done()
        plain_iter_ms.append(_iter_ms(wl, plain, train0_s))

        tracer = Tracer()
        tracer.run_id = f"{wl.name}-seed{seed}-round{len(rounds)}"
        tracer.install()
        try:
            train_setups(wl, seed, data, tracer)
            job = run_job(wl, seed, data, workdir, tracer)
            ledger.done()
            check_job(job, data, workdir, ledger, tracer)
            for _ in range(TRACED_EVALS):
                with tracer.span("evaluate.call"):
                    evaluate(job.final[0], data.target_eval)
        finally:
            tracer.uninstall()
        ledger.check(job.digest() == plain.digest(), "the traced run's metrics.csv digest differs from the untraced run's")
        summary = summarize(tracer.spans, iterations)
        ledger.check(summary["train.self_ms"] >= 0, f"train.self_ms is negative ({summary['train.self_ms']:.4f})")
        summary["checkpoint.save_ms"] = _mean_span_ms(tracer, "checkpoint.save")
        summary["checkpoint.load_ms"] = _mean_span_ms(tracer, "checkpoint.load")
        rounds.append(summary)
        round_s.append(perf_counter() - t_round)

    counters = [{k: v for k, v in r.items() if k.startswith(COUNTERS_PREFIXES)} for r in rounds]
    ledger.check(all(c == counters[0] for c in counters), "exact counters differ between traced rounds")
    tracer.write_csv(trace_csv)

    metrics = {k: statistics.median(r[k] for r in rounds) for k in rounds[0]}
    metrics.update(counters[0])
    metrics["trace.overhead_ms"] = metrics.pop("trace.iter_ms") - statistics.median(plain_iter_ms)
    labeled_frac, pseudo_acc = _contrastive_means(job)
    state, record = job.final
    metrics.update(
        {
            "membank.labeled_frac": labeled_frac,
            "membank.pseudo_acc": pseudo_acc,
            "evaluate.miou": record.miou,
            "data.generate_s": statistics.median(s.generate_s for s in setups),
            "data.save_s": statistics.median(s.save_s for s in setups),
            "data.load_s": statistics.median(s.load_s for s in setups),
            "data.bytes": setups[-1].data_bytes,
            "checkpoint.bytes": (workdir / "checkpoint.bin").stat().st_size,
        }
    )
    missing = missing_metrics(tracer)
    return Outcome(metrics, record.miou, job.digest(), {"rounds": len(rounds), "missing": missing})


def _mean_span_ms(tracer: Tracer, name: str) -> float:
    times = [s.end - s.start for s in tracer.spans if s.name == name]
    return 1e3 * statistics.mean(times)


def peak_rss_mb() -> float:
    import resource

    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
