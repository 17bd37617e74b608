"""Run perfbench on a parent tree and a change tree, and append the result to
the benchmark trajectory ``BENCH_<workload>.json`` at the repository root.

Each pair runs

    python3 <tree>/perfbench/run.py --workload W --seed s --seconds S --trace 0

once in each tree, from that tree's root, at one seed. The side that runs
first alternates from pair to pair, so a slow spell of the shared host
lands on both sides alike. The tool then appends two rows, the parent's
and the change's, to the file's ``rows``. A row holds:

- ``parent_commit`` and ``side`` ("parent" or "change");
- ``command`` (without the seed), ``seeds`` in run order, ``seconds``;
- ``runs``, the number of runs on that side;
- ``metrics``: per end-to-end metric of ``BENCHMARK.json``, its ``unit``
  and the ``median``, ``q1`` and ``q3`` over the runs (quartiles by
  ``statistics.quantiles`` with the inclusive method);
- ``host_factor_median``, the median of the runs' ``host_factor``;
- ``correct`` (every run correct) and ``failed`` (failed operations,
  summed);
- ``metrics_csv_sha256``, one digest per run, in seed order.

The change row also holds ``pair_wins``: per metric, the pairs in which the
change did better than the parent by the metric's ``better`` direction.

Each pair prints its ``iter_ms`` on both sides and whether the two runs'
``metrics_csv_sha256`` are equal, and the closing line says in how many
pairs they were. A run that reports ``correct: false`` or
a failed operation ends the tool with exit 1 and one line naming its side
and seed, and nothing is written: a row is only a measurement of code that
gave the right answers.

    python3 tests/bench_rows.py --parent PARENT_TREE --change . \\
        --workload full_b1 --seeds 301-310 --seconds 20

The two tree roots must resolve to paths of equal length; otherwise the
tool exits 2 before any run, naming both.

pytest does not collect this file; ``tests/test_bench_files.py`` checks the
committed files' schema.
"""

from __future__ import annotations

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
ROW_KEYS = (
    "parent_commit", "side", "command", "seeds", "seconds", "runs", "metrics",
    "host_factor_median", "correct", "failed", "metrics_csv_sha256",
)
CHANGE_KEYS = ROW_KEYS + ("pair_wins",)
STAT_KEYS = ("unit", "median", "q1", "q3")


def end_to_end() -> list[dict]:
    """`BENCHMARK.json`'s end-to-end metrics: name, unit, better, bound."""
    return json.loads((ROOT / "BENCHMARK.json").read_text())["end_to_end"]


def run_once(tree: Path, workload: str, seed: int, seconds: int) -> dict:
    """One untraced perfbench run in `tree`: its result line, digest and host factor."""
    cmd = [sys.executable, str(tree / "perfbench" / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"]
    done = subprocess.run(cmd, cwd=tree, capture_output=True, text=True, check=False)
    lines = done.stdout.strip().splitlines()
    if not lines or not lines[-1].startswith("{"):
        raise SystemExit(f"perfbench gave no result in {tree} (exit {done.returncode}):\n{done.stderr[-2000:]}")
    result = json.loads(lines[-1])
    digest = re.search(r"metrics_csv_sha256\s+([0-9a-f]{64})", done.stdout)
    factor = re.search(r"host_factor=([0-9.eE+-]+)", done.stdout)
    return {
        "correct": bool(result["correct"]),
        "failed": int(result["failed"]),
        "values": {name: entry["value"] for name, entry in result["metrics"].items()},
        "digest": digest.group(1) if digest else None,
        "host_factor": float(factor.group(1)) if factor else None,
    }


def summarise(runs: list[dict], seeds: list[int], seconds: int, workload: str, side: str, parent_commit: str) -> dict:
    metrics = {}
    for spec in end_to_end():
        values = [r["values"][spec["name"]] for r in runs]
        q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
        metrics[spec["name"]] = {"unit": spec["unit"], "median": median, "q1": q1, "q3": q3}
    factors = [r["host_factor"] for r in runs if r["host_factor"] is not None]
    return {
        "parent_commit": parent_commit,
        "side": side,
        "command": f"python3 perfbench/run.py --workload {workload} --seconds {seconds} --trace 0",
        "seeds": seeds,
        "seconds": seconds,
        "runs": len(runs),
        "metrics": metrics,
        "host_factor_median": statistics.median(factors) if factors else None,
        "correct": all(r["correct"] for r in runs),
        "failed": sum(r["failed"] for r in runs),
        "metrics_csv_sha256": [r["digest"] for r in runs],
    }


def pair_wins(parent: list[dict], change: list[dict]) -> dict:
    wins = {}
    for spec in end_to_end():
        name, lower = spec["name"], spec["better"] == "lower"
        wins[name] = sum(
            (c["values"][name] < p["values"][name]) if lower else (c["values"][name] > p["values"][name])
            for p, c in zip(parent, change)
        )
    return wins


def seed_list(text: str) -> list[int]:
    """'301-305' or '1,4,9' as a list of seeds."""
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--parent", type=Path, required=True, help="root of the parent commit's tree")
    ap.add_argument("--change", type=Path, default=ROOT, help="root of the change's tree")
    ap.add_argument("--parent-commit", help="the parent's commit id (default: this repository's HEAD)")
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", type=seed_list, required=True, help="e.g. 301-310 or 1,4,9; one pair per seed")
    ap.add_argument("--seconds", type=int, default=20)
    args = ap.parse_args(argv)
    if len(args.seeds) < 2:
        ap.error("quartiles need at least two seeds")
    trees = {"parent": args.parent.resolve(), "change": args.change.resolve()}
    # a longer root makes every import and file path longer, which alone
    # moved ent_b1 iter_ms by 7% between two identical trees
    lengths = {side: len(str(tree)) for side, tree in trees.items()}
    if lengths["parent"] != lengths["change"]:
        print(f"tree roots differ in path length: parent {trees['parent']} ({lengths['parent']}), "
              f"change {trees['change']} ({lengths['change']})", file=sys.stderr)
        return 2
    commit = args.parent_commit or subprocess.run(
        ["git", "-C", str(ROOT), "rev-parse", "HEAD"], capture_output=True, text=True, check=True
    ).stdout.strip()
    runs: dict[str, list[dict]] = {"parent": [], "change": []}
    equal = 0  # pairs whose two metrics_csv_sha256 are equal
    for i, seed in enumerate(args.seeds):
        for side in ("parent", "change") if i % 2 == 0 else ("change", "parent"):
            run = run_once(trees[side], args.workload, seed, args.seconds)
            if not run["correct"] or run["failed"]:
                raise SystemExit(
                    f"{side} run at seed {seed} reported correct: {str(run['correct']).lower()}, "
                    f"failed: {run['failed']}; no rows written"
                )
            runs[side].append(run)
        parent, change = runs["parent"][-1], runs["change"][-1]
        p, c = parent["values"]["iter_ms"], change["values"]["iter_ms"]
        same = "equal" if parent["digest"] is not None and parent["digest"] == change["digest"] else "DIFFERENT"
        equal += same == "equal"
        print(f"seed {seed}: iter_ms parent {p:.4g} change {c:.4g} ({c / p - 1:+.1%}); "
              f"metrics_csv_sha256 {same}", flush=True)
    rows = [summarise(runs[side], args.seeds, args.seconds, args.workload, side, commit) for side in ("parent", "change")]
    rows[1]["pair_wins"] = pair_wins(runs["parent"], runs["change"])
    path = ROOT / f"BENCH_{args.workload}.json"
    doc = json.loads(path.read_text()) if path.exists() else {"workload": args.workload, "rows": []}
    doc["rows"] += rows
    path.write_text(json.dumps(doc, indent=2) + "\n")
    print(f"appended 2 rows to {path.name}; change pair wins: {rows[1]['pair_wins']}; "
          f"metrics_csv_sha256 equal in {equal} of {len(args.seeds)} pairs")
    return 0


if __name__ == "__main__":
    sys.exit(main())
