"""Command-line interface: subcommands, config precedence, exit codes."""

import collections
import json
import math
import re
import shutil
import tracemalloc
import warnings

import numpy as np
import pytest

from cfalign import cli
from cfalign.config import BLOCK, RunConfig
from cfalign.checkpoint import load_checkpoint
from cfalign.cli import main
from cfalign.data import SPLITS, SynthSpec
from cfalign.tensor import read_container, write_container

TINY_DATA_FLAGS = [
    "--height", "12", "--width", "12", "--train-images", "20",
    "--eval-images", "6", "--regions", "4", "--seed", "3",
]
TINY_RUN_FLAGS = ["--iterations", "10", "--hidden-dim", "12", "--feature-dim", "8", "--seed", "3"]


@pytest.fixture(scope="module")
def dataset_dir(tmp_path_factory):
    out = tmp_path_factory.mktemp("data") / "set"
    code = main(["gen-data", "--out", str(out)] + TINY_DATA_FLAGS)
    assert code == 0
    return out


@pytest.fixture(scope="module")
def blocked_run(tmp_path_factory):
    """A 16x16 dataset whose eval images make two evaluation blocks of
    whole images, the second of one image, and a checkpoint whose
    class-center bank is filled, so `eval` runs the pseudo-label pass too."""
    root = tmp_path_factory.mktemp("blocked")
    data, run = root / "data", root / "run"
    eval_images = BLOCK // (16 * 16) + 1
    flags = ["--height", "16", "--width", "16", "--train-images", "8",
             "--eval-images", str(eval_images), "--regions", "4", "--seed", "5"]
    assert main(["gen-data", "--out", str(data)] + flags) == 0
    assert main(["train", "--data", str(data), "--out", str(run), "--contrastive"] + TINY_RUN_FLAGS) == 0
    assert int(load_checkpoint(run / "checkpoint.bin").bank.init_source.sum()) >= 2
    return data, run / "checkpoint.bin"


def quiet_main(argv):
    """`main` with every warning turned into an error."""
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        return main(argv)


class TestGenData:
    def test_writes_three_splits(self, dataset_dir):
        # one container holds all three splits
        assert [p.name for p in dataset_dir.iterdir()] == ["dataset.bin"]

    def test_same_seed_byte_identical(self, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        assert main(["gen-data", "--out", str(a)] + TINY_DATA_FLAGS) == 0
        assert main(["gen-data", "--out", str(b)] + TINY_DATA_FLAGS) == 0
        for pa in sorted(a.iterdir()):
            assert pa.read_bytes() == (b / pa.name).read_bytes()

    def test_invalid_spec_exits_2(self, tmp_path, capsys):
        code = main(["gen-data", "--out", str(tmp_path / "x"), "--classes", "1"])
        assert code == 2
        assert "config error" in capsys.readouterr().err

    def test_config_file_with_flag_override(self, tmp_path):
        cfg = tmp_path / "spec.json"
        cfg.write_text(json.dumps({"height": 12, "width": 12, "train_images": 20,
                                   "eval_images": 6, "regions": 4, "seed": 1}))
        out = tmp_path / "d"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out), "--seed", "3"]) == 0
        from cfalign.data import load_dataset
        assert load_dataset(out).spec.seed == 3

    def test_negative_seed_exits_2(self, tmp_path, capsys):
        out = tmp_path / "x"
        assert main(["gen-data", "--out", str(out), "--seed", "-1"]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "seed must be nonnegative" in err
        assert not out.exists()

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"heigth": 12}))
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "unknown config keys" in capsys.readouterr().err

    def test_removed_class_means_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"class_means": None}))
        out = tmp_path / "x"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "unknown config keys: ['class_means']" in err
        assert not out.exists()


    @pytest.mark.parametrize(
        "doc", [{"height": "x"}, {"shift_scale": "x"}, {"shift_offset": [0.7]}, {"regions": 1.5}]
    )
    def test_wrong_typed_config_file_exits_2(self, tmp_path, capsys, doc):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and next(iter(doc)) in err


    @pytest.mark.parametrize(
        "doc",
        [{"color_std": float("inf")}, {"shift_offset": float("nan")}, {"shift_scale": float("-inf")},
         {"target_noise": 10**400}],
    )
    def test_non_finite_config_file_exits_2(self, tmp_path, capsys, doc):
        cfg = tmp_path / "c.json"
        # json writes Infinity / NaN, and reads them back; an integer too
        # large for a float is read as an int
        cfg.write_text(json.dumps(doc))
        out = tmp_path / "x"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and f"{next(iter(doc))} must be finite" in err
        assert not out.exists()


    @pytest.mark.parametrize(
        "flags,split",
        [(["--color-std", "1e308"], "source_train"),
         (["--shift-scale", "1e308", "--shift-offset", "1e308"], "target_train")],
        ids=["color-std", "shift"],
    )
    def test_overflowing_images_exit_2(self, tmp_path, capsys, flags, split):
        # finite flags whose images are not: train would reject the files
        out = tmp_path / "d"
        argv = ["gen-data", "--out", str(out), "--train-images", "4", "--eval-images", "2"]
        assert quiet_main(argv + flags) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and f"{split} images leave the finite float range" in err
        assert not out.exists()


def copy_dataset(dataset_dir, to, edit):
    """Copy the dataset file, passing its (header, arrays by `<split>.<part>`
    name) through `edit` on the way."""
    to.mkdir()
    header, arrays = read_container(dataset_dir / "dataset.bin", "cfalign-dataset")
    edit(header, arrays)
    write_container(to / "dataset.bin", header, arrays)
    return to


class TestTrain:
    def test_writes_outputs(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "run"
        code = main(["train", "--data", str(dataset_dir), "--out", str(out)] + TINY_RUN_FLAGS)
        assert code == 0
        assert "mIOU" in capsys.readouterr().out
        metrics = (out / "metrics.csv").read_text().strip().split("\n")
        assert metrics[0] == "iteration,ce,entropy,contra,total,pseudo_acc,labeled_frac"
        assert len(metrics) == 11
        doc = json.loads((out / "result.json").read_text())
        assert 0.0 <= doc["miou"] <= 1.0
        assert (out / "checkpoint.bin").exists()

    def test_deterministic_metrics_bytes(self, dataset_dir, tmp_path):
        a, b = tmp_path / "a", tmp_path / "b"
        for out in (a, b):
            assert main(["train", "--data", str(dataset_dir), "--out", str(out)] + TINY_RUN_FLAGS) == 0
        assert (a / "metrics.csv").read_bytes() == (b / "metrics.csv").read_bytes()

    def test_flag_overrides_config_file(self, dataset_dir, tmp_path):
        cfg = tmp_path / "run.json"
        cfg.write_text(json.dumps({"iterations": 3, "seed": 1, "hidden_dim": 12, "feature_dim": 8}))
        out = tmp_path / "run"
        assert main(["train", "--config", str(cfg), "--data", str(dataset_dir),
                     "--out", str(out), "--seed", "2"]) == 0
        doc = json.loads((out / "result.json").read_text())
        assert doc["config"]["seed"] == 2
        assert doc["config"]["iterations"] == 3

    def test_bool_toggle_flags(self, dataset_dir, tmp_path):
        out = tmp_path / "run"
        code = main(["train", "--data", str(dataset_dir), "--out", str(out),
                     "--contrastive", "--no-entropy"] + TINY_RUN_FLAGS)
        assert code == 0
        doc = json.loads((out / "result.json").read_text())
        assert doc["config"]["contrastive"] is True
        assert doc["config"]["entropy"] is False

    def test_bad_value_exits_2(self, dataset_dir, tmp_path, capsys):
        # "moco" was a head kind once; it now reads as any other bad value
        for flags, needle in ((["--tau", "-1"], "tau"), (["--head", "moco"], "head must be one of"),
                              (["--seed", "-1"], "seed must be nonnegative")):
            # the flags come last, so they win over TINY_RUN_FLAGS' --seed
            code = main(["train", "--data", str(dataset_dir), "--out", str(tmp_path / "x")]
                        + TINY_RUN_FLAGS + flags)
            assert code == 2
            err = capsys.readouterr().err
            assert len(err.splitlines()) == 1 and needle in err

    def test_negative_seed_in_config_exits_2(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"seed": -1}))
        out = tmp_path / "x"
        assert main(["train", "--config", str(cfg), "--data", str(dataset_dir), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "seed must be nonnegative" in err
        assert not out.exists()

    @pytest.mark.parametrize("doc", [{"iterations": "x"}, {"tau": True}, {"entropy": 1}])
    def test_wrong_typed_config_file_exits_2(self, dataset_dir, tmp_path, capsys, doc):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        code = main(["train", "--config", str(cfg), "--data", str(dataset_dir), "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and next(iter(doc)) in err

    @pytest.mark.parametrize(
        "flags",
        [["--tau", "inf", "--contrastive"], ["--alpha", "inf", "--contrastive"],
         ["--learning-rate", "inf"], ["--lambda-ent", "inf"], ["--threshold", "inf"],
         ["--lambda-contra", "nan"]],
    )
    def test_non_finite_flag_exits_2(self, dataset_dir, tmp_path, capsys, flags):
        out = tmp_path / "x"
        assert main(["train", "--data", str(dataset_dir), "--out", str(out)] + TINY_RUN_FLAGS + flags) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert f"{flags[0][2:].replace('-', '_')} must be finite" in err
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize(
        "doc", [{"tau": float("inf")}, {"alpha": float("inf")}, {"learning_rate": float("nan")}]
    )
    def test_non_finite_config_file_exits_2(self, dataset_dir, tmp_path, capsys, doc):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        assert "Infinity" in cfg.read_text() or "NaN" in cfg.read_text()
        code = main(["train", "--config", str(cfg), "--data", str(dataset_dir), "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and f"{next(iter(doc))} must be finite" in err

    @pytest.mark.parametrize(
        "blob", [b'\xff\xfe{"seed": 1}', b"[" * 100_000 + b"]" * 100_000, b'{"seed": ' + b"1" * 5000 + b"}"],
        ids=["not-utf-8", "over-nested", "long-integer"],
    )
    def test_unparsable_config_file_exits_2(self, dataset_dir, tmp_path, capsys, blob):
        cfg = tmp_path / "c.json"
        cfg.write_bytes(blob)
        out = tmp_path / "x"
        assert main(["train", "--config", str(cfg), "--data", str(dataset_dir), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and f"cannot read config {cfg}" in err
        assert not out.exists()

    @pytest.mark.parametrize(
        "key", ["head_hidden_dim", "head_out_dim", "adain_eps", "include_positive", "normalize_features"]
    )
    def test_removed_knob_exits_2(self, dataset_dir, tmp_path, capsys, key):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({key: 1}))
        argv = ["train", "--data", str(dataset_dir), "--out", str(tmp_path / "x")]
        assert main(argv + ["--config", str(cfg)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and f"unknown config keys: [{key!r}]" in err
        flag = "--" + key.replace("_", "-")
        with pytest.raises(SystemExit) as exc:
            main(argv + [flag, "1"])
        assert exc.value.code == 2 and flag in capsys.readouterr().err

    @pytest.mark.parametrize("command", ["train", "ablate", "sweep", "gen-data"])
    def test_every_run_config_field_has_a_flag(self, capsys, command):
        cls = SynthSpec if command == "gen-data" else RunConfig
        with pytest.raises(SystemExit):
            main([command, "--help"])
        flags = set(re.findall(r"--[a-z-]+", capsys.readouterr().out))
        missing = [name for name in cls.field_names() if "--" + name.replace("_", "-") not in flags]
        assert not missing, f"{cls.__name__} fields without a {command} flag: {missing}"

    def test_style_net_flag_is_gone(self, dataset_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", str(dataset_dir), "--out", str(tmp_path / "x"), "--style-net"])
        assert exc.value.code == 2
        assert "--style-net" in capsys.readouterr().err

    @pytest.mark.parametrize(
        "argv, needle",
        [
            (["train", "--data", "d", "--out", "o", "--no-such-flag"], "--no-such-flag"),
            (["train", "--out", "o"], "--data"),
            (["eval", "--checkpoint", "c", "--data", "d", "--split", "nope"], "--split"),
            (["train", "--data", "d", "--out", "o", "--transfer-direction", "target_to_source"],
             "--transfer-direction"),
        ],
        ids=["unknown", "missing", "bad_choice", "removed_direction"],
    )
    def test_usage_error_is_one_line(self, capsys, argv, needle):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and needle in err

    # each size needs more than the 128 PiB a 57-bit address space can map,
    # so the first allocation fails on any machine without touching memory
    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--hidden-dim", str(10**16)],
            ["train", "--batch-source", str(10**17)],
            ["gen-data", "--height", str(10**7), "--width", str(10**7)],
        ],
        ids=["hidden_dim", "batch_source", "image_size"],
    )
    def test_unallocatable_size_is_one_line(self, dataset_dir, tmp_path, capsys, argv):
        out = tmp_path / "x"
        data = ["--data", str(dataset_dir)] if argv[0] == "train" else []
        assert main(argv[:1] + data + ["--out", str(out)] + argv[1:]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and err.startswith("config error: out of memory: ")
        assert not out.exists()

    # each needs an array whose byte count leaves numpy's index range, which
    # numpy refuses with a ValueError, not a MemoryError
    @pytest.mark.parametrize(
        "argv",
        [
            ["train", "--hidden-dim", str(10**19)],
            ["train", "--hidden-dim", str(2 * 10**18)],
            ["train", "--hidden-dim", str(10**18), "--feature-dim", "1"],
            ["train", "--batch-source", str(10**20)],
            ["gen-data", "--height", str(10**11), "--width", str(10**11)],
            ["gen-data", "--classes", str(10**19)],
            ["gen-data", "--regions", str(10**19), "--height", "2", "--width", "2",
             "--train-images", "1", "--eval-images", "1"],
        ],
        ids=["hidden_dim", "hidden_dim_bytes", "input_weight", "batch_source", "image_size",
             "classes", "regions"],
    )
    def test_size_beyond_index_range_is_one_line(self, dataset_dir, tmp_path, capsys, argv):
        out = tmp_path / "x"
        data = ["--data", str(dataset_dir)] if argv[0] == "train" else []
        assert main(argv[:1] + data + ["--out", str(out)] + argv[1:]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "exceeds numpy's index range" in err
        assert not out.exists()

    def test_help_still_prints_usage(self, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["eval", "--help"])
        assert exc.value.code == 0
        assert capsys.readouterr().out.startswith("usage: cfalign eval")

    def test_style_net_config_key_exits_2(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"style_transfer": True, "style_net": True}))
        out = tmp_path / "x"
        assert main(["train", "--config", str(cfg), "--data", str(dataset_dir), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "unknown config keys: ['style_net']" in err

    def test_nan_source_pixel_exits_2(self, dataset_dir, tmp_path, capsys):
        def poison(header, arrays):
            arrays["source_train.images"][1, 0, 2, 3] = np.nan

        data = copy_dataset(dataset_dir, tmp_path / "data", poison)
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(out)] + TINY_RUN_FLAGS) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "dataset.bin tensor 'source_train.images' holds a NaN or infinite value" in err
        assert not (out / "metrics.csv").exists()

    def test_missing_dataset_exits_2(self, tmp_path):
        code = main(["train", "--data", str(tmp_path / "nowhere"), "--out", str(tmp_path / "x")]
                    + TINY_RUN_FLAGS)
        assert code == 2

    def test_truncated_dataset_file_exits_2(self, dataset_dir, tmp_path, capsys):
        cut = tmp_path / "cut"
        cut.mkdir()
        blob = (dataset_dir / "dataset.bin").read_bytes()
        (cut / "dataset.bin").write_bytes(blob[: len(blob) - 40])
        code = main(["train", "--data", str(cut), "--out", str(tmp_path / "x")] + TINY_RUN_FLAGS)
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "dataset.bin tensor 'target_eval.labels' declares" in err

    def test_version_one_directory_exits_2(self, dataset_dir, tmp_path, capsys):
        # the per-split files of dataset version 1, as gen-data wrote them
        old = tmp_path / "old"
        old.mkdir()
        header, arrays = read_container(dataset_dir / "dataset.bin", "cfalign-dataset")
        for split in SPLITS:
            split_header = {"format": "cfalign-dataset", "version": 1, "split": split, "spec": header["spec"]}
            parts = {part: arrays[f"{split}.{part}"] for part in ("images", "labels")}
            write_container(old / f"{split}.bin", split_header, parts)
        out = tmp_path / "run"
        assert main(["train", "--data", str(old), "--out", str(out)] + TINY_RUN_FLAGS) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and f"missing dataset file {old / 'dataset.bin'}; run gen-data again" in err
        assert not out.exists()

    def test_other_dataset_version_exits_2(self, dataset_dir, tmp_path, capsys):
        data = copy_dataset(dataset_dir, tmp_path / "data", lambda header, arrays: header.update(version=3))
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(out)] + TINY_RUN_FLAGS) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "dataset version 3, expected 2; run gen-data again" in err
        assert not out.exists()


    def test_split_without_labels_exits_2(self, dataset_dir, tmp_path, capsys):
        data = copy_dataset(dataset_dir, tmp_path / "data", lambda header, arrays: arrays.pop("source_train.labels"))
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(out)] + TINY_RUN_FLAGS) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "dataset.bin source_train holds no labels tensor" in err
        assert not (out / "metrics.csv").exists()

    def test_wrong_typed_spec_in_split_headers_exits_2(self, dataset_dir, tmp_path, capsys):
        def stringify_height(header, arrays):
            header["spec"]["height"] = str(header["spec"]["height"])

        data = copy_dataset(dataset_dir, tmp_path / "data", stringify_height)
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "run")] + TINY_RUN_FLAGS) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "height must be an integer" in err

    def test_spec_with_removed_class_means_trains(self, dataset_dir, tmp_path):
        # every dataset header written before class_means was removed held it
        def add_class_means(header, arrays):
            header["spec"]["class_means"] = None

        data = copy_dataset(dataset_dir, tmp_path / "data", add_class_means)
        for source, out in ((dataset_dir, tmp_path / "a"), (data, tmp_path / "b")):
            assert main(["train", "--data", str(source), "--out", str(out)] + TINY_RUN_FLAGS) == 0
        assert (tmp_path / "a" / "metrics.csv").read_bytes() == (tmp_path / "b" / "metrics.csv").read_bytes()

    def test_spec_with_list_shift_exits_2(self, dataset_dir, tmp_path, capsys):
        def listify_shift(header, arrays):
            header["spec"]["shift_scale"] = [2.2, 2.2, 2.2]

        data = copy_dataset(dataset_dir, tmp_path / "data", listify_shift)
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(out)] + TINY_RUN_FLAGS) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "shift_scale must be a number, got list" in err
        assert not out.exists()


class TestSplitContents:
    """A split with no images, or a spec class count that is not an
    integer, ends in one ConfigError line and exit 2 before training
    starts."""

    @pytest.mark.parametrize("style", [[], ["--style-transfer"]], ids=["plain", "style-transfer"])
    @pytest.mark.parametrize("split", ["source_train", "target_train"])
    def test_empty_split_exits_2(self, dataset_dir, tmp_path, capsys, split, style):
        def empty(header, arrays):
            for part in ("images", "labels"):
                arrays[f"{split}.{part}"] = arrays[f"{split}.{part}"][:0]

        data = copy_dataset(dataset_dir, tmp_path / "data", empty)
        out = tmp_path / "run"
        assert quiet_main(["train", "--data", str(data), "--out", str(out)] + style + TINY_RUN_FLAGS) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and f"dataset.bin {split} holds no images" in err
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("classes", [True, 5.0, "5"])
    def test_header_classes_must_be_the_specs(self, dataset_dir, tmp_path, capsys, classes):
        def relabel(header, arrays):
            header["spec"]["classes"] = classes

        data = copy_dataset(dataset_dir, tmp_path / "data", relabel)
        out = tmp_path / "run"
        argv = ["train", "--data", str(data), "--out", str(out), "--contrastive", "--style-transfer"]
        assert main(argv + TINY_RUN_FLAGS) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "dataset.bin spec: classes must be an integer" in err
        assert not (out / "metrics.csv").exists()


class TestOutPath:
    """A --out that cannot become a directory fails before any data is read
    or generated, and a command that fails removes the --out it created."""

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen-data"] + TINY_DATA_FLAGS,
            ["train"] + TINY_RUN_FLAGS,
            ["ablate"] + TINY_RUN_FLAGS,
            ["sweep", "--param", "tau", "--values", "0.1"] + TINY_RUN_FLAGS,
        ],
        ids=["gen-data", "train", "ablate", "sweep"],
    )
    def test_out_is_a_file_exits_2(self, dataset_dir, tmp_path, capsys, monkeypatch, argv):
        def no_data(*args):
            raise AssertionError("data read or generated before --out was checked")

        monkeypatch.setattr("cfalign.cli.load_dataset", no_data)
        monkeypatch.setattr("cfalign.cli.generate_dataset", no_data)
        taken = tmp_path / "taken"
        taken.write_text("a file, not a directory")
        data = [] if argv[0] == "gen-data" else ["--data", str(dataset_dir)]
        code = main(argv[:1] + data + ["--out", str(taken)] + argv[1:])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "taken" in err
        assert taken.read_text() == "a file, not a directory"

    @pytest.mark.parametrize(
        "argv",
        [
            ["gen-data", "--train-images", "1", "--regions", "1"],
            ["train"] + TINY_RUN_FLAGS,
        ],
        ids=["gen-data", "train"],
    )
    def test_failed_command_removes_the_out_it_created(self, tmp_path, capsys, argv):
        # an uncoverable spec, and a data directory that does not exist
        if argv[0] == "train":
            argv = argv + ["--data", str(tmp_path / "absent")]
        assert main(argv + ["--out", str(tmp_path / "new" / "run")]) == 2
        assert len(capsys.readouterr().err.splitlines()) == 1
        assert list(tmp_path.iterdir()) == []
        kept = tmp_path / "kept"
        kept.mkdir()
        assert main(argv + ["--out", str(kept)]) == 2
        assert kept.is_dir() and list(kept.iterdir()) == []

    @pytest.mark.parametrize(
        "argv, blocked",
        [
            (["gen-data"] + TINY_DATA_FLAGS, "dataset.bin"),
            (["train"] + TINY_RUN_FLAGS, "metrics.csv"),
            (["ablate"] + TINY_RUN_FLAGS, "results.json"),
            (["sweep", "--param", "tau", "--values", "0.1"] + TINY_RUN_FLAGS, "results.json"),
            (["eval"], "result.json"),
        ],
        ids=["gen-data", "train", "ablate", "sweep", "eval"],
    )
    def test_unwritable_output_file_exits_2(self, dataset_dir, tmp_path, capsys, request, argv, blocked):
        # a directory stands where the command writes a file
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        if argv[0] == "gen-data":
            argv = argv + ["--out", str(out)]
        elif argv[0] == "eval":
            data, checkpoint = request.getfixturevalue("blocked_run")
            argv = argv + ["--checkpoint", str(checkpoint), "--data", str(data), "--out", str(out / blocked)]
        else:
            argv = argv + ["--data", str(dataset_dir), "--out", str(out)]
        assert main(argv) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and f"cannot write {out / blocked}: " in err
        assert "Traceback" not in err


class TestEval:
    def test_eval_matches_train_result(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--data", str(dataset_dir), "--out", str(out)] + TINY_RUN_FLAGS) == 0
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(out / "checkpoint.bin"), "--data", str(dataset_dir)])
        assert code == 0
        doc = json.loads(capsys.readouterr().out)
        trained = json.loads((out / "result.json").read_text())
        assert doc["miou"] == trained["miou"]
        assert doc["per_class_iou"] == trained["per_class_iou"]

    def test_garbage_checkpoint_exits_2(self, dataset_dir, tmp_path, capsys):
        garbage = tmp_path / "garbage.bin"
        garbage.write_bytes(b"\x89PNG\r\n\x1a\n" + bytes(range(256)))
        code = main(["eval", "--checkpoint", str(garbage), "--data", str(dataset_dir)])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "garbage.bin" in err

    @pytest.mark.parametrize("make", [lambda p: None, lambda p: p.mkdir()], ids=["missing", "directory"])
    def test_unreadable_checkpoint_path_exits_2(self, dataset_dir, tmp_path, capsys, make):
        path = tmp_path / "ckpt.bin"
        make(path)
        code = main(["eval", "--checkpoint", str(path), "--data", str(dataset_dir)])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "ckpt.bin" in err

    def test_out_is_a_directory_exits_2(self, dataset_dir, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["train", "--data", str(dataset_dir), "--out", str(run)] + TINY_RUN_FLAGS) == 0
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(run / "checkpoint.bin"), "--data", str(dataset_dir),
                     "--out", str(run)])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and str(run) in err

    def test_infinite_eval_split_exits_2(self, dataset_dir, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["train", "--data", str(dataset_dir), "--out", str(run)] + TINY_RUN_FLAGS) == 0
        capsys.readouterr()

        def blow_up(header, arrays):
            arrays["target_eval.images"][:] = np.inf

        data = copy_dataset(dataset_dir, tmp_path / "data", blow_up)
        code = main(["eval", "--checkpoint", str(run / "checkpoint.bin"), "--data", str(data)])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "dataset.bin tensor 'target_eval.images' holds a NaN" in err

    def test_other_split(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "run"
        assert main(["train", "--data", str(dataset_dir), "--out", str(out)] + TINY_RUN_FLAGS) == 0
        capsys.readouterr()
        code = main(["eval", "--checkpoint", str(out / "checkpoint.bin"),
                     "--data", str(dataset_dir), "--split", "source_train"])
        assert code == 0
        assert 0.0 <= json.loads(capsys.readouterr().out)["miou"] <= 1.0


class TestAblateAndSweep:
    def test_ablate_table(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "ab"
        code = main(["ablate", "--data", str(dataset_dir), "--out", str(out),
                     "--iterations", "5", "--hidden-dim", "12", "--feature-dim", "8"])
        assert code == 0
        table = capsys.readouterr().out
        for name in ("ent", "ent+st", "ent+contra", "full"):
            assert name in table
        assert (out / "results.json").exists()

    def test_sweep(self, dataset_dir, tmp_path, capsys):
        code = main(["sweep", "--data", str(dataset_dir), "--param", "lambda_contra",
                     "--values", "0.1,0.001", "--iterations", "5",
                     "--hidden-dim", "12", "--feature-dim", "8", "--contrastive"])
        assert code == 0
        table = capsys.readouterr().out
        assert "lambda_contra=0.1" in table
        assert "lambda_contra=0.001" in table

    def test_sweep_boolean_values(self, dataset_dir, tmp_path, capsys):
        out = tmp_path / "sw"
        code = main(["sweep", "--data", str(dataset_dir), "--param", "style_transfer", "--values", "off,on",
                     "--out", str(out), "--iterations", "5", "--hidden-dim", "12", "--feature-dim", "8"])
        assert code == 0
        runs = json.loads((out / "results.json").read_text())
        assert [run["name"] for run in runs] == ["style_transfer=False", "style_transfer=True"]
        assert [run["config"]["style_transfer"] for run in runs] == [False, True]

    def test_sweep_unreadable_boolean_exits_2_before_training(self, dataset_dir, tmp_path, capsys, monkeypatch):
        def no_run(*args):
            raise AssertionError("a run trained before every value was read")

        monkeypatch.setattr("cfalign.cli.run_sweep", no_run)
        code = main(["sweep", "--data", str(dataset_dir), "--param", "style_transfer", "--values", "on,maybe",
                     "--out", str(tmp_path / "sw")])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "config error: cannot read 'maybe' as a boolean\n"
        assert not (tmp_path / "sw").exists()

    def test_sweep_bad_param_exits_2(self, dataset_dir):
        assert main(["sweep", "--data", str(dataset_dir), "--param", "nope", "--values", "1"]) == 2

    def test_sweep_bad_value_exits_2(self, dataset_dir):
        assert main(["sweep", "--data", str(dataset_dir), "--param", "tau", "--values", "abc"]) == 2

    def test_sweep_negative_seed_exits_2_before_training(self, dataset_dir, capsys):
        # the good first value must not train before the bad second one is read
        code = main(["sweep", "--data", str(dataset_dir), "--param", "seed", "--values", "0,-1"]
                    + ["--iterations", "1000000"])
        assert code == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and "seed must be nonnegative" in captured.err


class TestGradCheck:
    def test_passes_quickly(self, capsys):
        code = main(["grad-check", "--instances", "2", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_loose_tolerance_cannot_fail(self, capsys):
        assert main(["grad-check", "--instances", "1", "--tolerance", "1e6"]) == 0
        capsys.readouterr()

    @pytest.mark.parametrize(
        "flags, needle",
        [(["--instances", "0"], "--instances"), (["--instances", "-3"], "--instances"),
         (["--seed", "-1"], "--seed"), (["--tolerance", "nan"], "--tolerance"),
         (["--tolerance", "inf"], "--tolerance"), (["--tolerance", "0"], "--tolerance"),
         (["--tolerance=-1e-4"], "--tolerance")],
    )
    def test_bad_flag_exits_2(self, capsys, flags, needle):
        assert main(["grad-check"] + flags) == 2
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1 and needle in captured.err


class TestDivergenceExit:
    def test_exit_3(self, dataset_dir, tmp_path, capsys):
        # a finite but enormous step overflows the weights after one update;
        # the run must abort with the divergence code and one line naming
        # the iteration, before numpy prints a warning, and write no results
        out = tmp_path / "x"
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            code = main(["train", "--data", str(dataset_dir), "--out", str(out)]
                        + TINY_RUN_FLAGS + ["--learning-rate", "1e200"])
        assert code == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert err.startswith("divergence: iteration 1 ") and "Warning" not in err
        assert not (out / "metrics.csv").exists()

    @pytest.mark.parametrize("extra", [[], ["--contrastive"]], ids=["plain", "contrastive"])
    def test_last_step_overflow_exits_3(self, dataset_dir, tmp_path, capsys, extra):
        # one enormous step leaves the weights finite, so training ends cleanly
        # and the evaluation forward pass is the first to overflow
        out = tmp_path / "x"
        code = main(["train", "--data", str(dataset_dir), "--out", str(out)] + TINY_RUN_FLAGS
                    + ["--iterations", "1", "--learning-rate", "1e308"] + extra)
        assert code == 3
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "divergence" in err
        assert not any((out / name).exists() for name in ("metrics.csv", "checkpoint.bin", "result.json"))

    def test_eval_of_huge_weights_exits_3(self, dataset_dir, tmp_path, capsys):
        run = tmp_path / "run"
        assert main(["train", "--data", str(dataset_dir), "--out", str(run)] + TINY_RUN_FLAGS) == 0
        capsys.readouterr()
        header, arrays = read_container(run / "checkpoint.bin", "cfalign-checkpoint")
        for name in arrays:
            if name.startswith("model.") and name.endswith(".weight"):
                arrays[name] = arrays[name] * 1e300
        write_container(run / "checkpoint.bin", header, arrays)
        code = main(["eval", "--checkpoint", str(run / "checkpoint.bin"), "--data", str(dataset_dir)])
        assert code == 3
        captured = capsys.readouterr()
        assert len(captured.err.splitlines()) == 1 and "divergence" in captured.err
        assert captured.out == ""

    def test_eval_divergence_in_last_block_exits_3(self, blocked_run, tmp_path, capsys):
        # a finite but huge pixel in the last eval image only: the first
        # block is clean and the second overflows
        data, checkpoint = blocked_run
        bad = tmp_path / "data"
        shutil.copytree(data, bad)
        header, arrays = read_container(bad / "dataset.bin", "cfalign-dataset")
        arrays["target_eval.images"][-1, :, -1, -1] = 1e200
        write_container(bad / "dataset.bin", header, arrays)
        capsys.readouterr()
        assert quiet_main(["eval", "--checkpoint", str(checkpoint), "--data", str(bad)]) == 3
        captured = capsys.readouterr()
        assert captured.out == ""
        assert len(captured.err.splitlines()) == 1
        assert captured.err.startswith("divergence: evaluation forward pass left the finite range")


class TestLoaderFuzz:
    """Seeded byte mutations of a checkpoint and of a dataset file, each run
    through `eval`: at most one stderr line, a documented exit code, no
    exception or warning, and a tracemalloc peak of at most `PEAK_FACTOR`
    times the unmutated run's, so no loader allocates what a file declares
    before checking it."""

    MUTANTS = 300
    KINDS = ("truncate", "header", "payload")
    PEAK_FACTOR = 2.0

    @staticmethod
    def mutate(blob: bytes, kind: str, rng) -> bytes:
        """Cut the file short, or replace one byte of its JSON header line
        (a digit by another digit) or of the tensors after it."""
        blob = bytearray(blob)
        if kind == "truncate":
            return bytes(blob[: int(rng.integers(0, len(blob)))])
        body = blob.index(b"\n") + 1
        pos = int(rng.integers(0, body) if kind == "header" else rng.integers(body, len(blob)))
        if chr(blob[pos]).isdigit():
            blob[pos] = ord("0") + int(rng.integers(0, 10))
        else:
            blob[pos] = int(rng.integers(0, 256))
        return bytes(blob)

    @staticmethod
    def traced_main(argv) -> tuple[int, int]:
        """(exit code, tracemalloc peak above the memory traced before the
        call) of `quiet_main(argv)`."""
        tracemalloc.reset_peak()
        before = tracemalloc.get_traced_memory()[0]
        code = quiet_main(argv)
        return code, tracemalloc.get_traced_memory()[1] - before

    def test_mutants(self, blocked_run, tmp_path, capsys, request):
        cli.build_parser()  # cached per process: built here, outside the traced calls
        data, checkpoint = blocked_run
        shutil.copytree(data, tmp_path / "data")
        shutil.copy(checkpoint, tmp_path / "checkpoint.bin")
        targets = [tmp_path / "checkpoint.bin", tmp_path / "data" / "dataset.bin"]
        originals = {path: path.read_bytes() for path in targets}
        out = tmp_path / "result.json"
        argv = ["eval", "--checkpoint", str(targets[0]), "--data", str(tmp_path / "data"), "--out", str(out)]
        rng = np.random.default_rng(11)
        outcomes = collections.Counter()
        tracemalloc.start()
        request.addfinalizer(tracemalloc.stop)
        code, peak = self.traced_main(argv)
        assert code == 0
        ceiling = self.PEAK_FACTOR * peak
        capsys.readouterr()
        for i in range(self.MUTANTS):
            path, kind = targets[i % 2], self.KINDS[i // 2 % 3]
            path.write_bytes(self.mutate(originals[path], kind, rng))
            out.unlink(missing_ok=True)
            code, peak = self.traced_main(argv)
            path.write_bytes(originals[path])
            err = capsys.readouterr().err.splitlines()
            what = f"mutant {i}: {kind} of {path.name} exits {code} with {err}"
            assert peak <= ceiling, f"{what}, tracemalloc peak {peak} bytes"
            if code == 0:
                assert not err, what
                doc = json.loads(out.read_text())
                numbers = [doc["miou"], doc["pseudo_acc"]] + [v for v in doc["per_class_iou"] if v is not None]
                assert all(math.isfinite(v) for v in numbers), what
            elif code == 3:
                assert kind == "payload" and len(err) == 1 and err[0].startswith("divergence: "), what
            else:
                assert code == 2 and len(err) == 1, what
            outcomes[kind, code] += 1
        # every kind was rejected somewhere, and some mutants still loaded
        assert all(outcomes[kind, 2] for kind in self.KINDS), outcomes
        assert outcomes["header", 0] + outcomes["payload", 0] > 0, outcomes
