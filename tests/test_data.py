"""Synthetic dataset generator: determinism, shift statistics, coverage, file format."""

import struct

import numpy as np
import pytest

from cfalign.config import RunConfig
from cfalign.data import (
    Dataset,
    Split,
    SynthSpec,
    generate_dataset,
    load_dataset,
    load_split,
    save_dataset,
    save_split,
)
from cfalign.errors import ConfigError, GenerationError
from cfalign.tensor import read_container, write_container


def tiny_spec(**overrides):
    base = dict(height=8, width=8, train_images=12, eval_images=4, regions=4, seed=1)
    base.update(overrides)
    return SynthSpec(**base)


class TestGeneration:
    def test_shapes_and_dtypes(self):
        data = generate_dataset(tiny_spec())
        assert data.source_train.images.shape == (12, 3, 8, 8)
        assert data.source_train.labels.shape == (12, 8, 8)
        assert data.target_eval.images.shape == (4, 3, 8, 8)
        assert data.source_train.images.dtype == np.float64
        assert data.source_train.labels.dtype == np.int64

    def test_deterministic_by_seed(self):
        a = generate_dataset(tiny_spec(seed=7))
        b = generate_dataset(tiny_spec(seed=7))
        np.testing.assert_array_equal(a.source_train.images, b.source_train.images)
        np.testing.assert_array_equal(a.target_train.images, b.target_train.images)
        np.testing.assert_array_equal(a.target_eval.labels, b.target_eval.labels)

    def test_different_seeds_differ(self):
        a = generate_dataset(tiny_spec(seed=1))
        b = generate_dataset(tiny_spec(seed=2))
        assert not np.array_equal(a.source_train.images, b.source_train.images)

    def test_labels_in_range_and_covering(self):
        data = generate_dataset(tiny_spec())
        for split in (data.source_train, data.target_train):
            assert split.labels.min() >= 0
            assert split.labels.max() < 5
            assert len(np.unique(split.labels)) == 5

    def test_identity_shift_matches_source_statistics(self):
        # splits are drawn independently; pixels share per-image layouts, so
        # the effective sample is small and tolerances must stay loose
        spec = tiny_spec(
            height=16, width=16, train_images=150, shift_scale=1.0, shift_offset=0.0, target_noise=0.0
        )
        data = generate_dataset(spec)
        s_mean = data.source_train.images.mean(axis=(0, 2, 3))
        t_mean = data.target_train.images.mean(axis=(0, 2, 3))
        np.testing.assert_allclose(s_mean, t_mean, atol=0.06)
        s_var = data.source_train.images.var(axis=(0, 2, 3))
        t_var = data.target_train.images.var(axis=(0, 2, 3))
        np.testing.assert_allclose(s_var, t_var, rtol=0.25)

    def test_scale_two_quadruples_variance(self):
        spec = tiny_spec(
            height=16, width=16, train_images=60, shift_scale=2.0, shift_offset=0.0, target_noise=0.0
        )
        data = generate_dataset(spec)
        s_var = data.source_train.images.var(axis=(0, 2, 3))
        t_var = data.target_train.images.var(axis=(0, 2, 3))
        np.testing.assert_allclose(t_var / s_var, 4.0, rtol=0.2)

    def test_per_channel_shift_vectors(self):
        spec = tiny_spec(shift_scale=[1.0, 2.0, 0.5], shift_offset=[0.0, 1.0, -1.0])
        assert spec.scale_vector().tolist() == [1.0, 2.0, 0.5]
        assert spec.offset_vector().tolist() == [0.0, 1.0, -1.0]

    def test_impossible_coverage_raises(self):
        # one region per image and one image: 5 classes cannot all appear
        with pytest.raises(GenerationError):
            generate_dataset(tiny_spec(train_images=1, regions=1))

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            SynthSpec(classes=1).validate()
        with pytest.raises(ConfigError):
            SynthSpec(class_means=[[0.1, 0.2]]).validate()


class TestFiles:
    def test_roundtrip(self, tmp_path):
        data = generate_dataset(tiny_spec())
        save_dataset(tmp_path, data)
        loaded = load_dataset(tmp_path)
        np.testing.assert_array_equal(loaded.source_train.images, data.source_train.images)
        np.testing.assert_array_equal(loaded.source_train.labels, data.source_train.labels)
        np.testing.assert_array_equal(loaded.target_eval.images, data.target_eval.images)
        assert loaded.spec == data.spec

    def test_byte_identical_files_for_same_spec(self, tmp_path):
        a_dir, b_dir = tmp_path / "a", tmp_path / "b"
        save_dataset(a_dir, generate_dataset(tiny_spec(seed=3)))
        save_dataset(b_dir, generate_dataset(tiny_spec(seed=3)))
        for name in ("source_train.bin", "target_train.bin", "target_eval.bin"):
            assert (a_dir / name).read_bytes() == (b_dir / name).read_bytes()

    def test_header_is_json_line(self, tmp_path):
        import json

        data = generate_dataset(tiny_spec())
        path = tmp_path / "split.bin"
        save_split(path, data.source_train, data.spec, "source_train")
        with open(path, "rb") as fh:
            header = json.loads(fh.readline())
        assert header["format"] == "cfalign-dataset"
        assert header["tensors"] == ["images", "labels"]
        assert header["count"] == 12

    def test_non_dataset_file_rejected(self, tmp_path):
        path = tmp_path / "bad.bin"
        path.write_bytes(b"\x00\x01\x02")
        with pytest.raises(ConfigError):
            load_split(path)

    def test_missing_split_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_dataset(tmp_path)


class TestLoaderRejects:
    """Malformed split files end in ConfigError, never a silent load."""

    @pytest.fixture
    def split_file(self, tmp_path):
        data = generate_dataset(tiny_spec())
        path = tmp_path / "split.bin"
        save_split(path, data.source_train, data.spec, "source_train")
        return path, data

    def rewrite_labels(self, split_file, labels):
        path, data = split_file
        save_split(path, Split(data.source_train.images, labels), data.spec, "source_train")
        with pytest.raises(ConfigError, match="labels"):
            load_split(path)

    def test_fractional_label(self, split_file):
        labels = split_file[1].source_train.labels.astype(float)
        labels[0, 0, 0] = 2.7
        self.rewrite_labels(split_file, labels)

    @pytest.mark.parametrize("value", [-1, 5])
    def test_label_out_of_range(self, split_file, value):
        labels = split_file[1].source_train.labels.copy()
        labels[0, 0, 0] = value
        self.rewrite_labels(split_file, labels)

    def test_label_shape_mismatch(self, split_file):
        self.rewrite_labels(split_file, split_file[1].source_train.labels[:, :, :-1])

    def test_truncated(self, split_file):
        path, _ = split_file
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(ConfigError, match="declares"):
            load_split(path)

    def test_trailing_bytes(self, split_file):
        path, _ = split_file
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(ConfigError, match="after its last tensor"):
            load_split(path)

    def test_garbled_header(self, split_file):
        path, _ = split_file
        path.write_bytes(b"\xff\xfe\x00garbage\n" + path.read_bytes())
        with pytest.raises(ConfigError):
            load_split(path)

    def test_huge_extent(self, tmp_path):
        path = tmp_path / "huge.bin"
        header = b'{"format": "cfalign-dataset", "tensors": ["images"]}\n'
        path.write_bytes(header + struct.pack("<II", 1, 0xFFFFFFFF))
        with pytest.raises(ConfigError, match="declares 34359738360 more bytes"):
            load_split(path)

    def test_labels_missing(self, split_file):
        path, _ = split_file
        header, arrays = read_container(path, "cfalign-dataset")
        del arrays["labels"]
        write_container(path, header, arrays)
        with pytest.raises(ConfigError, match="no labels tensor"):
            load_split(path)

    @pytest.mark.parametrize("version", [0, 2, None, "1"])
    def test_other_version(self, split_file, version):
        path, _ = split_file
        header, arrays = read_container(path, "cfalign-dataset")
        header["version"] = version
        write_container(path, header, arrays)
        with pytest.raises(ConfigError, match=f"dataset version {version!r}, expected 1"):
            load_split(path)

    def test_splits_disagree_on_spec(self, tmp_path):
        save_dataset(tmp_path, generate_dataset(tiny_spec()))
        other = generate_dataset(tiny_spec(channels=2))
        save_split(tmp_path / "target_eval.bin", other.target_eval, other.spec, "target_eval")
        with pytest.raises(ConfigError, match="spec"):
            load_dataset(tmp_path)


class TestSynthSpecTypes:
    @pytest.mark.parametrize(
        "overrides",
        [
            dict(height="x"),
            dict(width=2.5),
            dict(channels=True),
            dict(seed=None),
            dict(color_std="0.1"),
            dict(shift_scale="x"),
            dict(shift_scale=[1.0, "x", 2.0]),
            dict(shift_offset=None),
            dict(shift_offset=[[0.1, 0.2, 0.3]]),
            dict(class_means=3),
        ],
    )
    def test_wrong_types_rejected(self, overrides):
        with pytest.raises(ConfigError, match=next(iter(overrides))):
            tiny_spec(**overrides).validate()

    @pytest.mark.parametrize(
        "overrides",
        [dict(shift_scale=[1.0, 2.0]), dict(shift_offset=[]), dict(class_means=[["x"] * 3] * 5),
         dict(class_means=[[0.1, 0.2, 0.3], [0.4]])],
    )
    def test_malformed_lists_rejected(self, overrides):
        with pytest.raises(ConfigError, match=next(iter(overrides))):
            tiny_spec(**overrides).validate()

    @pytest.mark.parametrize(
        "overrides",
        [dict(color_std=float("inf")), dict(target_noise=float("nan")),
         dict(shift_scale=float("inf")), dict(shift_offset=[0.0, float("-inf"), 0.0]),
         dict(class_means=[[0.1, 0.2, 0.3]] * 4 + [[0.1, float("nan"), 0.3]])],
    )
    def test_non_finite_rejected(self, overrides):
        with pytest.raises(ConfigError, match=f"{next(iter(overrides))} must be finite"):
            tiny_spec(**overrides).validate()

    def test_numbers_or_lists_fill_shift_fields(self):
        spec = tiny_spec(shift_scale=[1, 2.0, 3], shift_offset=0, color_std=1).validate()
        np.testing.assert_array_equal(spec.scale_vector(), [1.0, 2.0, 3.0])
        assert tiny_spec(shift_scale=[2]).validate().scale_vector().tolist() == [2.0] * 3


class TestRunConfig:
    def test_defaults_validate(self):
        RunConfig().validate()

    def test_bad_values_rejected(self):
        for overrides in (
            dict(tau=0.0),
            dict(alpha=1.5),
            dict(threshold=-1.0),
            dict(learning_rate=0.0),
            dict(head="mlp"),
            dict(transfer_direction="sideways"),
            dict(lambda_contra=-0.1),
        ):
            with pytest.raises(ConfigError):
                RunConfig(**overrides).validate()

    @pytest.mark.parametrize(
        "overrides",
        [
            dict(iterations="x"),
            dict(iterations=2.0),
            dict(seed=True),
            dict(tau=True),
            dict(learning_rate="0.1"),
            dict(contrastive=1),
            dict(entropy="yes"),
            dict(head_hidden_dim=4.0),
            dict(head_out_dim="8"),
            dict(head=3),
        ],
    )
    def test_wrong_types_rejected(self, overrides):
        with pytest.raises(ConfigError, match=next(iter(overrides))):
            RunConfig(**overrides).validate()

    @pytest.mark.parametrize("name", ["learning_rate", "lambda_ent", "tau", "threshold", "adain_eps"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            RunConfig(**{name: value}).validate()

    def test_huge_int_passes_the_finite_check(self):
        # too large for a float, so a finiteness test must not convert it
        assert RunConfig(iterations=10**400).validate().iterations == 10**400

    def test_numbers_of_either_kind_fill_float_fields(self):
        assert RunConfig(tau=1, head_out_dim=None, seed=np.int64(3)).validate().tau == 1

    def test_from_mapping_picks_known_fields(self):
        cfg = RunConfig.from_mapping({"tau": 0.5, "height": 8, "classes": 3})
        assert cfg.tau == 0.5  # SynthSpec keys pass through untouched

    def test_replace_validates(self):
        cfg = RunConfig()
        with pytest.raises(ConfigError):
            cfg.replace(tau=-1.0)
        assert cfg.replace(tau=0.5).tau == 0.5
