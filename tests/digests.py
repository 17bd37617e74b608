"""Byte-identity digests for a change that must leave every output as it was.

First regenerates the dataset spec found in the header of ``--data``'s
``dataset.bin`` with ``gen-data`` into a temporary directory and prints
the sha256 of the file it writes, so the generator's bytes are compared too.
Only the header keys that name a `SynthSpec` field are passed on, so a
dataset whose header echoes a field since removed digests as well.
Then trains each configuration in `CONFIGS` through the CLI on one dataset and
prints sha256 values of what each run wrote. The first four are the
ablation's four variants, ``ent`` (the default), ``ent+st``, ``ent+contra``
and ``full``, which the acceptance gate trains; the rest vary ``full``'s
head and batch size. For each run the script prints:

- ``metrics.csv`` as written;
- ``result.json`` without its ``config`` echo;
- ``checkpoint.bin`` after its header line;
- each checkpoint tensor by name, read with ``tensor.read_container``, on
  one indented line per tensor.

It then prints the worst relative error of each `grad-check` case,
``loss_battery(instances=20, seed=0)``, one line per case, in full
precision, so one ``diff`` of two outputs also compares the gradients.

The per-tensor lines show which tensors kept their bytes when a format
change adds or drops some. The config echo lists every config field, in
``result.json`` and in the checkpoint header, so adding or removing a field
changes those bytes and nothing else; the digests leave it out. To compare
a change with its parent, run the change's script twice on one dataset,
with ``PYTHONPATH`` at each tree's ``src``, so both trees train the same
configurations, and compare the two outputs line by line:

    PYTHONPATH=src python -m cfalign gen-data --seed 0 --out DATA
    PYTHONPATH=PARENT/src python tests/digests.py --data DATA --out RUNS-PARENT --iterations 2000 > parent.txt
    PYTHONPATH=src python tests/digests.py --data DATA --out RUNS --iterations 2000 > change.txt

pytest does not collect this file; `tests/test_digests.py` runs it twice on
a tiny dataset and checks that both runs print the same lines.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import sys
import tempfile
from pathlib import Path

from cfalign.checkpoint import CHECKPOINT_FORMAT
from cfalign.cli import main as cfalign_main
from cfalign.data import DATASET_FILE, SynthSpec
from cfalign.gradcheck import loss_battery
from cfalign.tensor import read_container

_FULL = ["--style-transfer", "--contrastive"]
CONFIGS = {
    "default": [],  # the ablation's `ent`
    "ent+st": ["--style-transfer"],
    "ent+contra": ["--contrastive"],
    "full": _FULL,
    "full-byol": _FULL + ["--head", "byol"],
    "full-byol-b8": _FULL + ["--head", "byol", "--batch-source", "8", "--batch-target", "8"],
}


def sha256(data: bytes) -> str:
    return hashlib.sha256(data).hexdigest()


def digests(run: Path) -> dict[str, str]:
    result = json.loads((run / "result.json").read_text())
    del result["config"]
    checkpoint = (run / "checkpoint.bin").read_bytes()
    return {
        "metrics.csv": sha256((run / "metrics.csv").read_bytes()),
        "result.json": sha256(json.dumps(result, sort_keys=True, indent=2).encode()),
        "checkpoint.bin": sha256(checkpoint[checkpoint.index(b"\n") + 1 :]),
    }


def tensor_digests(run: Path) -> dict[str, str]:
    """sha256 of each checkpoint tensor's float64 bytes, by name."""
    _, arrays = read_container(run / "checkpoint.bin", CHECKPOINT_FORMAT)
    return {name: sha256(array.tobytes()) for name, array in arrays.items()}


def dataset_digest(data: Path) -> str:
    """sha256 of the dataset file `gen-data` writes for the spec in `data`'s header."""
    with open(data / DATASET_FILE, "rb") as fh:
        spec = json.loads(fh.readline())["spec"]
    with tempfile.TemporaryDirectory() as tmp:
        config, out = Path(tmp) / "spec.json", Path(tmp) / "data"
        config.write_text(json.dumps({k: v for k, v in spec.items() if k in SynthSpec.field_names()}))
        with contextlib.redirect_stdout(io.StringIO()):
            code = cfalign_main(["gen-data", "--config", str(config), "--out", str(out)])
        if code != 0:
            raise SystemExit(f"gen-data exited {code}")
        return sha256((out / DATASET_FILE).read_bytes())


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--data", type=Path, required=True, help="dataset directory from gen-data")
    parser.add_argument("--out", type=Path, required=True, help="directory for one run per config")
    parser.add_argument("--iterations", type=int, default=2000)
    args = parser.parse_args(argv)
    print(f"gen-data {DATASET_FILE} {dataset_digest(args.data)}")
    for name, flags in CONFIGS.items():
        run = args.out / name
        argv = ["train", "--data", str(args.data), "--out", str(run), "--iterations", str(args.iterations)]
        with contextlib.redirect_stdout(io.StringIO()):
            code = cfalign_main(argv + flags)
        if code != 0:
            print(f"{name}: train exited {code}", file=sys.stderr)
            return code
        print(name, *(f"{file} {digest}" for file, digest in digests(run).items()), sep="  ")
        for tensor, digest in tensor_digests(run).items():
            print(f"  {name} {tensor} {digest}")
    for case, err in loss_battery(instances=20, seed=0).items():
        print(f"grad-check {case} {float(err)!r}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
