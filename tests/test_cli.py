"""Command-line interface: subcommands, config precedence, exit codes."""

import json

import numpy as np
import pytest

from cfalign.cli import main
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


class TestGenData:
    def test_writes_three_splits(self, dataset_dir):
        names = sorted(p.name for p in dataset_dir.iterdir())
        assert len(names) == 3

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

    def test_unknown_config_key_exits_2(self, tmp_path, capsys):
        cfg = tmp_path / "bad.json"
        cfg.write_text(json.dumps({"heigth": 12}))
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        assert "unknown config keys" in capsys.readouterr().err


    @pytest.mark.parametrize(
        "doc", [{"height": "x"}, {"shift_scale": "x"}, {"class_means": [["x"]]}, {"regions": 1.5}]
    )
    def test_wrong_typed_config_file_exits_2(self, tmp_path, capsys, doc):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        assert main(["gen-data", "--config", str(cfg), "--out", str(tmp_path / "x")]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and next(iter(doc)) in err


    @pytest.mark.parametrize(
        "doc",
        [{"color_std": float("inf")}, {"shift_offset": [0.0, float("nan"), 0.0]},
         {"class_means": [[0.5, 0.5, float("nan")]] * 5}],
    )
    def test_non_finite_config_file_exits_2(self, tmp_path, capsys, doc):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))  # json writes Infinity / NaN, and reads them back
        out = tmp_path / "x"
        assert main(["gen-data", "--config", str(cfg), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and f"{next(iter(doc))} must be finite" in err
        assert not out.exists()


def copy_dataset(dataset_dir, to, edit):
    """Copy every split, passing each (header, arrays) through `edit` on the way."""
    to.mkdir()
    for src in dataset_dir.iterdir():
        header, arrays = read_container(src, "cfalign-dataset")
        edit(header, arrays)
        write_container(to / src.name, header, arrays)
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
        code = main(["train", "--data", str(dataset_dir), "--out", str(tmp_path / "x"),
                     "--tau", "-1"] + TINY_RUN_FLAGS)
        assert code == 2
        assert "tau" in capsys.readouterr().err

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
        [["--tau", "inf", "--contrastive"], ["--adain-eps", "inf", "--style-transfer"],
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
        "doc", [{"tau": float("inf")}, {"adain_eps": float("inf")}, {"learning_rate": float("nan")}]
    )
    def test_non_finite_config_file_exits_2(self, dataset_dir, tmp_path, capsys, doc):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps(doc))
        assert "Infinity" in cfg.read_text() or "NaN" in cfg.read_text()
        code = main(["train", "--config", str(cfg), "--data", str(dataset_dir), "--out", str(tmp_path / "x")])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and f"{next(iter(doc))} must be finite" in err

    def test_style_net_flag_is_gone(self, dataset_dir, tmp_path, capsys):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--data", str(dataset_dir), "--out", str(tmp_path / "x"), "--style-net"])
        assert exc.value.code == 2
        assert "--style-net" in capsys.readouterr().err

    def test_style_net_config_key_exits_2(self, dataset_dir, tmp_path, capsys):
        cfg = tmp_path / "c.json"
        cfg.write_text(json.dumps({"style_transfer": True, "style_net": True}))
        out = tmp_path / "x"
        assert main(["train", "--config", str(cfg), "--data", str(dataset_dir), "--out", str(out)]) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "unknown config keys: ['style_net']" in err

    def test_nan_source_pixel_exits_2(self, dataset_dir, tmp_path, capsys):
        def poison(header, arrays):
            if header["split"] == "source_train":
                arrays["images"][1, 0, 2, 3] = np.nan

        data = copy_dataset(dataset_dir, tmp_path / "data", poison)
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(out)] + TINY_RUN_FLAGS) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1
        assert "source_train.bin tensor 'images' holds a NaN or infinite value" in err
        assert not (out / "metrics.csv").exists()

    def test_missing_dataset_exits_2(self, tmp_path):
        code = main(["train", "--data", str(tmp_path / "nowhere"), "--out", str(tmp_path / "x")]
                    + TINY_RUN_FLAGS)
        assert code == 2

    def test_truncated_dataset_file_exits_2(self, dataset_dir, tmp_path, capsys):
        cut = tmp_path / "cut"
        cut.mkdir()
        for src in dataset_dir.iterdir():
            (cut / src.name).write_bytes(src.read_bytes())
        blob = (cut / "target_eval.bin").read_bytes()
        (cut / "target_eval.bin").write_bytes(blob[: len(blob) - 40])
        code = main(["train", "--data", str(cut), "--out", str(tmp_path / "x")] + TINY_RUN_FLAGS)
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "target_eval.bin" in err


    def test_split_without_labels_exits_2(self, dataset_dir, tmp_path, capsys):
        data = copy_dataset(dataset_dir, tmp_path / "data", lambda header, arrays: arrays.pop("labels"))
        out = tmp_path / "run"
        assert main(["train", "--data", str(data), "--out", str(out)] + TINY_RUN_FLAGS) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "no labels tensor" in err
        assert not (out / "metrics.csv").exists()

    def test_wrong_typed_spec_in_split_headers_exits_2(self, dataset_dir, tmp_path, capsys):
        def stringify_height(header, arrays):
            header["spec"]["height"] = str(header["spec"]["height"])

        data = copy_dataset(dataset_dir, tmp_path / "data", stringify_height)
        assert main(["train", "--data", str(data), "--out", str(tmp_path / "run")] + TINY_RUN_FLAGS) == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "height must be an integer" in err


class TestOutPath:
    """A --out that cannot become a directory fails before any data is read
    or generated."""

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
            if header["split"] == "target_eval":
                arrays["images"][:] = np.inf

        data = copy_dataset(dataset_dir, tmp_path / "data", blow_up)
        code = main(["eval", "--checkpoint", str(run / "checkpoint.bin"), "--data", str(data)])
        assert code == 2
        err = capsys.readouterr().err
        assert len(err.splitlines()) == 1 and "target_eval.bin tensor 'images' holds a NaN" in err

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

    def test_sweep_bad_param_exits_2(self, dataset_dir):
        assert main(["sweep", "--data", str(dataset_dir), "--param", "nope", "--values", "1"]) == 2

    def test_sweep_bad_value_exits_2(self, dataset_dir):
        assert main(["sweep", "--data", str(dataset_dir), "--param", "tau", "--values", "abc"]) == 2


class TestGradCheck:
    def test_passes_quickly(self, capsys):
        code = main(["grad-check", "--instances", "2", "--seed", "1"])
        assert code == 0
        out = capsys.readouterr().out
        assert "PASS" in out and "FAIL" not in out

    def test_loose_tolerance_cannot_fail(self, capsys):
        assert main(["grad-check", "--instances", "1", "--tolerance", "1e6"]) == 0
        capsys.readouterr()


class TestDivergenceExit:
    def test_exit_3(self, dataset_dir, tmp_path, capsys):
        # a finite but enormous step overflows the weights after one update;
        # the run must abort with the divergence code, not write results
        out = tmp_path / "x"
        with pytest.warns(RuntimeWarning, match="matmul"):
            code = main(["train", "--data", str(dataset_dir), "--out", str(out)]
                        + TINY_RUN_FLAGS + ["--learning-rate", "1e200"])
        assert code == 3
        assert "divergence" in capsys.readouterr().err
        assert not (out / "metrics.csv").exists()
