"""cfalign benchmark.

Run from the repository root:

    python3 perfbench/run.py --workload full_b1 --seed 0 --seconds 20 --trace 0
    python3 perfbench/run.py --all [--seed N] [--seconds S] [--trace 0|1]
    python3 perfbench/run.py --write-spec

A workload run builds its inputs from --seed, measures for about --seconds,
checks the program's outputs, prints a table of metrics with units and ends
with one JSON line: {"correct", "attempted", "failed", "metrics"}. With
--trace 0 the metrics are the end-to-end ones; with --trace 1 they are the
per-layer split from spans around cfalign's public functions. --all runs
every workload, each in its own process, one after another. --write-spec
rewrites BENCHMARK.json from workloads.py. See perfbench/README.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import subprocess
import sys
import traceback
from pathlib import Path
from time import perf_counter

from workloads import BY_NAME, END_TO_END, PER_LAYER, RUN_SECONDS, UNITS, WORKLOADS, spec

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORK = ROOT / ".bench_run"  # scratch files of one run, removed when it ends
TRACES = ROOT / ".bench_out"  # span files of traced runs


def _nonnegative(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"must be nonnegative, got {value}")
    return value


def _positive(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"must be at least 1, got {value}")
    return value


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    mode = parser.add_mutually_exclusive_group(required=True)
    mode.add_argument("--workload", choices=sorted(BY_NAME))
    mode.add_argument("--all", action="store_true", help="run every workload, each in its own process")
    mode.add_argument("--write-spec", action="store_true", help="rewrite BENCHMARK.json")
    parser.add_argument("--seed", type=_nonnegative, default=0)
    parser.add_argument("--seconds", type=_positive, default=RUN_SECONDS)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def import_program() -> float:
    """Import numpy and cfalign from this checkout's src/; returns the seconds it took."""
    if not (SRC / "cfalign" / "__init__.py").is_file():
        raise FileNotFoundError(f"no cfalign sources under {SRC}")
    sys.path.insert(0, str(SRC))
    t0 = perf_counter()
    import numpy  # noqa: F401
    import cfalign.checkpoint  # noqa: F401
    import cfalign.evaluate  # noqa: F401
    import cfalign.experiments  # noqa: F401

    elapsed = perf_counter() - t0
    loaded_from = Path(sys.modules["cfalign"].__file__).resolve()
    if SRC.resolve() not in loaded_from.parents:
        raise ImportError(f"cfalign was imported from {loaded_from}, not from {SRC}")
    return elapsed


def openblas_threads() -> int | None:
    """Thread count of numpy's bundled OpenBLAS, or None when it cannot be read."""
    import ctypes
    import glob

    import numpy

    libs = glob.glob(os.path.join(os.path.dirname(numpy.__file__), os.pardir, "numpy.libs", "*openblas*"))
    for path in libs:
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.argtypes = []
                fn.restype = ctypes.c_int
                return int(fn())
    return None


def environment() -> dict:
    import numpy

    from cfalign.kernels import get_backend

    return {
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "openblas_threads": openblas_threads(),
        "kernel_backend": get_backend(),
    }


def run_workload(args) -> int:
    error_trace = None
    try:
        import_s = import_program()
    except (FileNotFoundError, ImportError) as exc:
        print(f"perfbench: cannot import the program: {exc}", file=sys.stderr)
        return 2

    from measure import Ledger, measure, measure_traced

    wl = BY_NAME[args.workload]
    ledger = Ledger()
    workdir = WORK / f"{wl.name}-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    outcome = None
    try:
        if args.trace:
            outcome = measure_traced(wl, args.seed, args.seconds, workdir, ledger, TRACES / f"trace-{wl.name}.csv")
        else:
            outcome = measure(wl, args.seed, args.seconds, workdir, ledger, import_s)
    except Exception:  # a raised error is a failed operation; report it and still print the result
        error_trace = traceback.format_exc()
        ledger.check(False, error_trace.strip().splitlines()[-1])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        if WORK.exists() and not any(WORK.iterdir()):
            WORK.rmdir()

    wanted = [m[0] for m in (PER_LAYER if args.trace else END_TO_END)]
    measured = outcome.metrics if outcome else {}
    missing = outcome.notes.get("missing", {}) if outcome else {}
    metrics = {}
    for name in wanted:
        if name in missing:
            metrics[name] = {"value": None, "unit": UNITS[name], "missing": missing[name]}
        elif name in measured:
            metrics[name] = {"value": float(measured[name]), "unit": UNITS[name]}

    print(f"workload {wl.name}  seed {args.seed}  trace {args.trace}  seconds {args.seconds}")
    print("env " + json.dumps(environment(), sort_keys=True))
    for name in wanted:
        entry = metrics.get(name)
        if entry is None:
            print(f"  {name:<40} (not measured)")
        elif entry["value"] is None:
            print(f"  {name:<40} MISSING: site {entry['missing']} not found")
        else:
            print(f"  {name:<40} {entry['value']:.6g} {entry['unit']}")
    error_rate = ledger.failed / max(ledger.attempted, 1)
    if outcome is not None:
        print(f"  {'miou':<40} {outcome.miou:.6g} 1")
        print(f"  {'metrics_csv_sha256':<40} {outcome.digest}")
        print("  " + "  ".join(f"{k}={v}" for k, v in outcome.notes.items() if k not in ("missing", "tails", "wall")))
        for name, tail in outcome.notes.get("tails", {}).items():
            print(f"  {name + ' tail':<40} {tail}")
        if "wall" in outcome.notes:
            print("  wall-clock medians before normalising: " + "  ".join(f"{k}={v:.6g}" for k, v in outcome.notes["wall"].items()))
    print(f"  {'error_rate':<40} {error_rate:.6g} 1  ({ledger.failed} of {ledger.attempted} operations)")
    for problem in ledger.problems:
        print(f"  FAILED: {problem}")
    if error_trace:
        print(error_trace, file=sys.stderr)
    correct = ledger.failed == 0 and len(metrics) == len(wanted)
    print(json.dumps({"correct": correct, "attempted": ledger.attempted, "failed": ledger.failed, "metrics": metrics}))
    return 0 if correct else 1


def run_all(args) -> int:
    status = 0
    for wl in WORKLOADS:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", wl.name, "--seed", str(args.seed),
               "--seconds", str(args.seconds), "--trace", str(args.trace)]
        status = max(status, subprocess.run(cmd, cwd=ROOT, check=False).returncode)
    return status


def main(argv=None) -> int:
    args = parse_args(argv)
    if args.write_spec:
        (ROOT / "BENCHMARK.json").write_text(json.dumps(spec(), indent=2) + "\n")
        return 0
    if args.all:
        return run_all(args)
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
