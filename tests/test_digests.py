"""`tests/digests.py`, the byte-identity tool, run end to end on a tiny
dataset so that it cannot rot unnoticed."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import cfalign
from cfalign.cli import main
from cfalign.data import DATASET_FILE
from digests import CONFIGS

SCRIPT = Path(__file__).parent / "digests.py"


def run_digests(data: Path, out: Path) -> subprocess.CompletedProcess:
    env = {**os.environ}
    env["PYTHONPATH"] = os.pathsep.join([str(Path(cfalign.__file__).parents[1]), env.get("PYTHONPATH", "")])
    argv = [sys.executable, str(SCRIPT), "--data", str(data), "--out", str(out), "--iterations", "2"]
    return subprocess.run(argv, env=env, capture_output=True, text=True, timeout=300)


def test_digests_smoke(tmp_path):
    data = tmp_path / "data"
    flags = ["--height", "8", "--width", "8", "--train-images", "6", "--eval-images", "3", "--seed", "0"]
    assert main(["gen-data", "--out", str(data)] + flags) == 0
    first, second = (run_digests(data, tmp_path / f"runs{i}") for i in (1, 2))
    for run in (first, second):
        assert run.returncode == 0, run.stderr[-2000:]
    lines = first.stdout.splitlines()
    # regenerating the header's spec gives the file gen-data wrote above
    assert lines[0] == f"gen-data {DATASET_FILE} {hashlib.sha256((data / DATASET_FILE).read_bytes()).hexdigest()}"
    for name in CONFIGS:
        heads = [line for line in lines if line.startswith(f"{name}  metrics.csv ")]
        assert len(heads) == 1, name
        assert f"  {name} model.enc1.weight " in first.stdout, name
    assert any(line.startswith("grad-check ") for line in lines)
    # the determinism contract: the same config gives the same bytes
    assert first.stdout == second.stdout
