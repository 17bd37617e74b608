"""Command-line interface.

Subcommands: gen-data, train, eval, ablate, sweep, grad-check. Every knob
can come from a flat JSON file (--config) holding run and dataset fields by
name; explicit flags override file values. Exit codes: 0 success, 1 failed
grad-check, 2 config error (a size too large to allocate included), a
malformed or unreadable data/checkpoint file or an --out that cannot be
written, 3 numerical divergence.
"""

from __future__ import annotations

import argparse
import contextlib
import dataclasses
import functools
import math
import sys
from pathlib import Path

from .checkpoint import load_checkpoint, save_checkpoint
from .config import RunConfig, kind_of, load_flat_config, require
from .data import SPLITS, SynthSpec, generate_dataset, load_dataset, save_dataset
from .errors import ConfigError, ContractError, DimensionError, DivergenceError, GenerationError
from .evaluate import eval_to_json, evaluate, save_eval_json
from .experiments import results_table, run_ablation, run_sweep, save_results
from .gradcheck import loss_battery
from .train import save_metrics_csv, train

__all__ = ["main", "build_parser"]

_ALL_FIELDS = RunConfig.field_names() | SynthSpec.field_names()


def _add_config_flags(parser: argparse.ArgumentParser, cls) -> None:
    for f in dataclasses.fields(cls):
        parse = kind_of(f).parse
        flag = "--" + f.name.replace("_", "-")
        if parse is bool:
            parser.add_argument(flag, action=argparse.BooleanOptionalAction, default=argparse.SUPPRESS)
        else:
            parser.add_argument(flag, type=parse, default=argparse.SUPPRESS, metavar=parse.__name__.upper())


def _load_doc(path) -> dict:
    if path is None:
        return {}
    doc = load_flat_config(path)
    unknown = set(doc) - _ALL_FIELDS
    if unknown:
        raise ConfigError(f"unknown config keys: {sorted(unknown)}")
    return doc


def _merged(args, cls) -> dict:
    doc = _load_doc(getattr(args, "config", None))
    present = vars(args)
    doc.update({name: present[name] for name in cls.field_names() if name in present})
    return doc


def _parse_value(parse: type, text: str):
    if parse is bool:
        lowered = text.strip().lower()
        if lowered in ("1", "true", "yes", "on"):
            return True
        if lowered in ("0", "false", "no", "off"):
            return False
        raise ConfigError(f"cannot read {text!r} as a boolean")
    try:
        return parse(text.strip())
    except ValueError as exc:
        raise ConfigError(f"cannot read {text!r} as {parse.__name__}") from exc


def _out_dir(path: Path | None) -> Path | None:
    """Create an output directory before any work, so a bad --out fails first."""
    if path is not None:
        path.mkdir(parents=True, exist_ok=True)
    return path


def _cmd_gen_data(args) -> int:
    spec = SynthSpec.from_mapping(_merged(args, SynthSpec))
    _out_dir(args.out)
    data = generate_dataset(spec)
    save_dataset(args.out, data)
    print(
        f"wrote {args.out}: {spec.train_images} train images per domain, "
        f"{spec.eval_images} eval, {spec.classes} classes, seed {spec.seed}"
    )
    return 0


def _cmd_train(args) -> int:
    config = RunConfig.from_mapping(_merged(args, RunConfig))
    out = _out_dir(args.out)
    data = load_dataset(args.data)
    state, records = train(config, data)
    # evaluate first: a state that diverges there leaves no output files behind
    record = evaluate(state, data.target_eval)
    save_metrics_csv(records, out / "metrics.csv")
    save_checkpoint(state, out / "checkpoint.bin")
    save_eval_json(record, config, out / "result.json")
    print(f"mIOU {record.miou:.4f}  pseudo_acc {record.pseudo_acc:.4f}  -> {out}")
    return 0


def _cmd_eval(args) -> int:
    state = load_checkpoint(args.checkpoint)
    data = load_dataset(args.data)
    split = getattr(data, args.split)
    record = evaluate(state, split)
    text = eval_to_json(record, state.config)
    if args.out:
        Path(args.out).write_text(text)
    sys.stdout.write(text)
    return 0


def _report(results, out: Path | None) -> int:
    sys.stdout.write(results_table(results))
    if out:
        save_results(results, out)
    return 0


def _cmd_ablate(args) -> int:
    config = RunConfig.from_mapping(_merged(args, RunConfig))
    _out_dir(args.out)
    return _report(run_ablation(config, load_dataset(args.data)), args.out)


def _cmd_sweep(args) -> int:
    config = RunConfig.from_mapping(_merged(args, RunConfig))
    known = {f.name: f for f in dataclasses.fields(RunConfig)}
    if args.param not in known:
        raise ConfigError(f"unknown sweep parameter {args.param!r}")
    parse = kind_of(known[args.param]).parse
    values = [_parse_value(parse, piece) for piece in args.values.split(",") if piece.strip()]
    if not values:
        raise ConfigError("sweep needs at least one value")
    _out_dir(args.out)
    return _report(run_sweep(config, load_dataset(args.data), args.param, values), args.out)


def _cmd_grad_check(args) -> int:
    require([
        (args.instances >= 1, "--instances must be at least 1"),
        (args.seed >= 0, "--seed must be nonnegative"),
        (math.isfinite(args.tolerance) and args.tolerance > 0, "--tolerance must be a finite number above 0"),
    ])
    worst = loss_battery(instances=args.instances, seed=args.seed)
    failed = False
    for name, err in worst.items():
        ok = err < args.tolerance
        failed |= not ok
        print(f"{'PASS' if ok else 'FAIL'}  {name:<32s} max rel err {err:.3e}")
    if failed:
        print(f"gradient check failed at tolerance {args.tolerance}", file=sys.stderr)
        return 1
    print(f"all gradient checks passed at tolerance {args.tolerance}")
    return 0


class _Parser(argparse.ArgumentParser):
    """Reports a bad or missing flag in one stderr line, exit 2, without the usage block.

    Subcommand parsers are built from the same class, so they report alike.
    """

    def error(self, message):
        self.exit(2, f"{self.prog}: error: {message}\n")


@functools.cache  # parse_args leaves the parser as it was, so one serves every call
def build_parser() -> argparse.ArgumentParser:
    parser = _Parser(
        prog="cfalign",
        description="Coarse-to-fine feature alignment for pixel-wise domain adaptation.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("gen-data", help="generate a synthetic two-domain dataset")
    p.add_argument("--config", type=Path, help="flat JSON with dataset fields")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    _add_config_flags(p, SynthSpec)
    p.set_defaults(func=_cmd_gen_data)

    p = sub.add_parser("train", help="train one configuration")
    p.add_argument("--config", type=Path, help="flat JSON with run fields")
    p.add_argument("--data", type=Path, required=True, help="dataset directory")
    p.add_argument("--out", type=Path, required=True, help="output directory")
    _add_config_flags(p, RunConfig)
    p.set_defaults(func=_cmd_train)

    p = sub.add_parser("eval", help="evaluate a checkpoint")
    p.add_argument("--checkpoint", type=Path, required=True)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--split", choices=SPLITS, default="target_eval")
    p.add_argument("--out", type=Path, help="also write the JSON here")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("ablate", help="run the four toggle configurations")
    p.add_argument("--config", type=Path)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--out", type=Path, help="directory for results.json and table.txt")
    _add_config_flags(p, RunConfig)
    p.set_defaults(func=_cmd_ablate)

    p = sub.add_parser("sweep", help="sweep one config field over a value list")
    p.add_argument("--config", type=Path)
    p.add_argument("--data", type=Path, required=True)
    p.add_argument("--param", required=True, help="RunConfig field to vary")
    p.add_argument("--values", required=True, help="comma-separated values")
    p.add_argument("--out", type=Path)
    _add_config_flags(p, RunConfig)
    p.set_defaults(func=_cmd_sweep)

    p = sub.add_parser("grad-check", help="finite-difference self-test over all losses")
    p.add_argument("--instances", type=int, default=20)
    p.add_argument("--seed", type=int, default=0)
    p.add_argument("--tolerance", type=float, default=1e-4)
    p.set_defaults(func=_cmd_grad_check)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    out = getattr(args, "out", None)
    # --out and its parents that do not exist yet, deepest first: a command
    # that fails removes those it created while they are still empty
    created = [p for p in (out, *out.parents) if not p.exists()] if out else []
    code = None
    try:
        code = args.func(args)
    except (ConfigError, GenerationError) as exc:
        print(f"config error: {exc}", file=sys.stderr)
        code = 2
    except (ContractError, DimensionError) as exc:
        print(f"bad input: {exc}", file=sys.stderr)
        code = 2
    except MemoryError as exc:
        # a size flag too large for this machine, e.g. --hidden-dim 10**13
        print(f"config error: out of memory: {str(exc) or 'allocation failed'}", file=sys.stderr)
        code = 2
    except DivergenceError as exc:
        print(f"divergence: {exc}", file=sys.stderr)
        code = 3
    except OSError as exc:  # reads raise their own errors: an output cannot be written
        where = "" if exc.filename is None else f" {exc.filename}"
        print(f"cannot write{where}: {exc.strerror or exc}", file=sys.stderr)
        code = 2
    finally:
        if code != 0:
            with contextlib.suppress(OSError):  # stop at one not empty, or not made
                for d in created:
                    d.rmdir()
    return code


if __name__ == "__main__":
    sys.exit(main())
