"""The committed benchmark trajectory: every ``BENCH_<workload>.json`` at the
repository root is a file `tests/bench_rows.py` could have written.

A performance claim cites these rows, so a row that lost a key, names a
workload the benchmark does not run, or states a metric in another unit
than ``BENCHMARK.json`` would make the claim unreadable, and a row whose
runs were not all correct, or failed an operation, measures code that gave
wrong answers.
"""

import json
from numbers import Real
from pathlib import Path

from bench_rows import CHANGE_KEYS, ROW_KEYS, STAT_KEYS

ROOT = Path(__file__).resolve().parents[1]
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = {w["name"] for w in SPEC["workloads"]}
UNITS = {m["name"]: m["unit"] for m in SPEC["end_to_end"]}


def row_problems(row: dict) -> list[str]:
    keys = CHANGE_KEYS if row.get("side") == "change" else ROW_KEYS
    problems = [f"missing {key}" for key in keys if key not in row]
    if problems:
        return problems
    if row["side"] not in ("parent", "change"):
        problems.append(f"side {row['side']!r}")
    runs = row["runs"]
    if not (isinstance(runs, int) and runs >= 2 and len(row["seeds"]) == runs == len(row["metrics_csv_sha256"])):
        problems.append("runs, seeds and digests disagree")
    if set(row["metrics"]) != set(UNITS):
        problems.append(f"metrics {sorted(row['metrics'])}, expected {sorted(UNITS)}")
    for name, stats in row["metrics"].items():
        if set(stats) != set(STAT_KEYS):
            problems.append(f"{name} keys {sorted(stats)}")
        elif stats["unit"] != UNITS.get(name):
            problems.append(f"{name} unit {stats['unit']!r}, expected {UNITS.get(name)!r}")
        elif not all(isinstance(stats[k], Real) for k in ("q1", "median", "q3")) or not (
            stats["q1"] <= stats["median"] <= stats["q3"]
        ):
            problems.append(f"{name} quartiles {stats['q1']}, {stats['median']}, {stats['q3']}")
    if row["correct"] is not True or type(row["failed"]) is not int or row["failed"] != 0:
        problems.append(f"correct {row['correct']!r} and failed {row['failed']!r}, expected true and 0")
    if row["side"] == "change":
        wins = row["pair_wins"]
        if set(wins) != set(UNITS) or not all(isinstance(w, int) and 0 <= w <= runs for w in wins.values()):
            problems.append(f"pair_wins {wins}")
    return problems


def test_every_bench_file_follows_the_schema():
    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert paths, "no BENCH_*.json at the repository root"
    problems = []
    for path in paths:
        doc = json.loads(path.read_text())
        workload = doc.get("workload")
        if workload not in WORKLOADS or path.name != f"BENCH_{workload}.json":
            problems.append(f"{path.name}: workload {workload!r}")
        rows = doc.get("rows")
        if not rows or len(rows) % 2:
            problems.append(f"{path.name}: rows must come as parent and change pairs")
            continue
        for i, row in enumerate(rows):
            problems += [f"{path.name} row {i}: {p}" for p in row_problems(row)]
        for parent, change in zip(rows[::2], rows[1::2]):
            if (parent.get("side"), change.get("side")) != ("parent", "change"):
                problems.append(f"{path.name}: a pair is not parent then change")
    assert not problems, problems
