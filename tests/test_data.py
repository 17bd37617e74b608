"""Synthetic dataset generator: determinism, shift statistics, coverage, file format."""

import struct
import sys
import tracemalloc
from dataclasses import fields
from pathlib import Path

import numpy as np
import pytest

import data_reference
from cfalign.config import BLOCK, KINDS, RunConfig
from cfalign.data import (
    _chunk_images,
    _voronoi_labels,
    DATASET_FILE,
    SPLITS,
    SynthSpec,
    generate_dataset,
    load_dataset,
    save_dataset,
)
from cfalign.errors import ConfigError, GenerationError
from cfalign.tensor import read_container, write_container


# JSON header lines that json.loads refuses with a RecursionError and a
# ValueError other than a decode error
UNPARSABLE_HEADERS = [b"[" * 100_000 + b"]" * 100_000, b'{"format": ' + b"1" * 5000 + b"}"]


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

    def test_impossible_coverage_raises(self):
        # one region per image and one image: 5 classes cannot all appear;
        # the message is the per-image loop's, word for word
        spec = tiny_spec(train_images=1, regions=1)
        with pytest.raises(GenerationError) as want:
            data_reference.generate_dataset(spec)
        with pytest.raises(GenerationError) as got:
            generate_dataset(spec)
        assert str(got.value) == str(want.value) == (
            "could not cover all 5 classes in 1 source images after 20 attempts; "
            "raise train_images or regions"
        )

    def test_invalid_spec_rejected(self):
        with pytest.raises(ConfigError):
            SynthSpec(classes=1).validate()
        with pytest.raises(ConfigError, match="shift_scale must be positive"):
            SynthSpec(shift_scale=0.0).validate()


class TestMatchesReference:
    """The chunked generator against the image-by-image loop of
    `tests/data_reference.py`: the same bytes and dtypes, the same dataset
    file, or the same GenerationError."""

    # spec fields beyond the geometry, one set per split-size case
    VARIANTS = [
        {},
        dict(target_noise=0.0),
        dict(color_std=0.0),
        dict(shift_scale=0.5, shift_offset=-1.5),
        dict(shift_scale=3, shift_offset=-0.0, color_std=0.0, target_noise=0.0),
    ]

    @staticmethod
    def assert_same(spec, tmp_path):
        try:
            want, _ = data_reference.generate_dataset(spec)
        except GenerationError as exc:
            with pytest.raises(GenerationError) as got:
                generate_dataset(spec)
            assert str(got.value) == str(exc)
            return
        got = generate_dataset(spec)
        for name in SPLITS:
            a, b = getattr(got, name), getattr(want, name)
            assert a.images.dtype == b.images.dtype and a.labels.dtype == b.labels.dtype
            assert a.images.tobytes() == b.images.tobytes(), (spec, name)
            assert a.labels.tobytes() == b.labels.tobytes(), (spec, name)
        save_dataset(tmp_path / "got", got)
        save_dataset(tmp_path / "want", want)
        assert (tmp_path / "got" / DATASET_FILE).read_bytes() == (tmp_path / "want" / DATASET_FILE).read_bytes()

    @pytest.mark.parametrize("channels", [1, 4])
    @pytest.mark.parametrize("regions", [1, 12])
    @pytest.mark.parametrize("height,width", [(7, 9), (5, 40), (2, 2)])
    def test_bytes_equal_per_image_loop(self, height, width, channels, regions, tmp_path):
        chunk = _chunk_images(SynthSpec(height=height, width=width, regions=regions))
        assert chunk > 1
        # split sizes around the chunk edges; one image a split only in the
        # first case, where one region cannot cover two classes
        sizes = [(1, 1), (chunk - 1, 2 * chunk + 3), (chunk, chunk + 1), (chunk + 1, chunk),
                 (2 * chunk + 3, chunk - 1)]
        for case, ((train, evals), extra) in enumerate(zip(sizes, self.VARIANTS)):
            spec = SynthSpec(height=height, width=width, channels=channels, classes=2,
                             regions=regions, train_images=train, eval_images=evals,
                             seed=case % 3, **extra)
            self.assert_same(spec, tmp_path / str(case))

    def test_retry_path(self, tmp_path):
        # seed 12's first source-train attempt misses a class
        spec = SynthSpec(height=4, width=4, channels=1, classes=3, regions=2,
                         train_images=2, eval_images=2, seed=12)
        assert data_reference.generate_dataset(spec)[1] == [2, 1, 1]
        self.assert_same(spec, tmp_path)

    def test_memory_peak(self):
        # the chunk tables stay within a fixed budget. tracemalloc peaks,
        # per-image loop at the parent -> chunks: the default spec 14.88 ->
        # 15.57 MB (its split arrays alone are 14.4 MB); 2x2 images with
        # 5,000 regions 0.37 -> 0.42 MB, where chunks bounded by pixels
        # alone reach 2.38 MB
        generate_dataset(tiny_spec())
        many_regions = SynthSpec(height=2, width=2, regions=5_000, classes=2,
                                 train_images=8, eval_images=8, seed=0)
        for spec, bound in ((SynthSpec(seed=0), 15_900_000), (many_regions, 750_000)):
            tracemalloc.start()
            try:
                generate_dataset(spec)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            assert peak < bound, (spec, peak)


def voronoi_broadcast(points, classes, height, width):
    """The (pixels, regions, 2) broadcast form for one image: argmin of the
    summed squared (row, column) offsets."""
    rows, cols = np.meshgrid(np.arange(height), np.arange(width), indexing="ij")
    grid = np.stack([rows.ravel(), cols.ravel()], axis=1).astype(float)
    d2 = ((grid[:, None, :] - points[None, :, :]) ** 2).sum(-1)
    return classes[d2.argmin(axis=1)].reshape(height, width)


class TestVoronoiLabels:
    def test_equals_broadcast_form(self):
        for seed in range(120):
            # 1..4 images of 1..8 regions, square and non-square down to 2 pixels a side
            k, regions = 1 + seed % 4, 1 + seed % 8
            height, width = 2 + seed % 23, 2 + (seed * 7) % 19
            rng = np.random.default_rng(seed)
            points = rng.uniform(0, [height, width], size=(k, regions, 2))
            classes = rng.integers(0, 5, size=(k, regions))
            got = _voronoi_labels(points, classes, height, width)
            assert got.shape == (k, height, width) and got.dtype == classes.dtype, seed
            for i in range(k):
                assert np.array_equal(got[i], voronoi_broadcast(points[i], classes[i], height, width)), seed

    @pytest.mark.parametrize(
        "points",
        [[[1.0, 1.0], [1.0, 1.0], [4.0, 0.0]], [[0.0, 0.0], [0.0, 2.0], [2.0, 1.0]]],
        ids=["duplicate-point", "equidistant-pixels"],
    )
    def test_ties_take_lowest_point(self, points):
        # a repeated point ties on every pixel; integer points put pixels at
        # exactly equal distances; the broadcast form's argmin takes the
        # first. The second image, the points reversed, shares the chunk.
        points = np.array([points, points[::-1]])
        classes = np.array([[0, 1, 2], [0, 1, 2]])
        got = _voronoi_labels(points, classes, 5, 4)
        for i in range(2):
            assert np.array_equal(got[i], voronoi_broadcast(points[i], classes[i], 5, 4))


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
        assert [p.name for p in a_dir.iterdir()] == [DATASET_FILE]
        assert (a_dir / DATASET_FILE).read_bytes() == (b_dir / DATASET_FILE).read_bytes()

    def test_header_is_json_line(self, tmp_path):
        import json

        data = generate_dataset(tiny_spec())
        save_dataset(tmp_path, data)
        with open(tmp_path / DATASET_FILE, "rb") as fh:
            header = json.loads(fh.readline())
        # the tensors and the spec state the counts; no split name or class count
        assert sorted(header) == ["format", "spec", "tensors", "version"]
        assert header["format"] == "cfalign-dataset" and header["version"] == 2
        assert header["spec"] == data.spec.to_dict()
        assert header["tensors"] == [
            "source_train.images", "source_train.labels",
            "target_train.images", "target_train.labels",
            "target_eval.images", "target_eval.labels",
        ]

    def test_load_holds_no_second_label_copy(self, tmp_path):
        # labels are checked and cast in their own buffer, a block at a time:
        # 0.08 MB above the loaded dataset, where a cast of a whole split
        # (1.6 MB of train labels) read 0.47 MB one split file at a time
        save_dataset(tmp_path, generate_dataset(SynthSpec(seed=0)))
        tracemalloc.start()
        try:
            data = load_dataset(tmp_path)
            current, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert peak - current < 250_000, peak - current
        assert data.target_train.labels.dtype == np.int64

    def test_non_dataset_file_rejected(self, tmp_path):
        (tmp_path / DATASET_FILE).write_bytes(b"\x00\x01\x02")
        with pytest.raises(ConfigError):
            load_dataset(tmp_path)

    def test_missing_split_rejected(self, tmp_path):
        with pytest.raises(ConfigError):
            load_dataset(tmp_path)


class TestLoaderRejects:
    """Malformed dataset files end in ConfigError, never a silent load."""

    @pytest.fixture
    def dataset_file(self, tmp_path):
        data = generate_dataset(tiny_spec())
        save_dataset(tmp_path, data)
        return tmp_path / DATASET_FILE, data

    @staticmethod
    def edit(path, edit):
        header, arrays = read_container(path, "cfalign-dataset")
        edit(header, arrays)
        write_container(path, header, arrays)

    def rewrite_labels(self, dataset_file, labels):
        path, _ = dataset_file
        self.edit(path, lambda header, arrays: arrays.update({"target_train.labels": labels}))
        with pytest.raises(ConfigError, match=f"{path} target_train labels"):
            load_dataset(path.parent)

    def test_fractional_label(self, dataset_file):
        labels = dataset_file[1].target_train.labels.astype(float)
        labels[0, 0, 0] = 2.7
        self.rewrite_labels(dataset_file, labels)

    @pytest.mark.parametrize("value", [-1, 5])
    def test_label_out_of_range(self, dataset_file, value):
        labels = dataset_file[1].target_train.labels.copy()
        labels[0, 0, 0] = value
        self.rewrite_labels(dataset_file, labels)

    def test_label_out_of_range_in_last_block(self, tmp_path):
        # more labels than one cast block: the last one is checked too
        data = generate_dataset(tiny_spec(height=32, width=32))
        assert data.target_train.labels.size > BLOCK
        save_dataset(tmp_path, data)
        labels = data.target_train.labels.copy()
        labels[-1, -1, -1] = 5
        self.rewrite_labels((tmp_path / DATASET_FILE, data), labels)

    def test_label_shape_mismatch(self, dataset_file):
        self.rewrite_labels(dataset_file, dataset_file[1].target_train.labels[:, :, :-1])

    def test_truncated(self, dataset_file):
        path, _ = dataset_file
        path.write_bytes(path.read_bytes()[:-100])
        with pytest.raises(ConfigError, match="declares"):
            load_dataset(path.parent)

    def test_trailing_bytes(self, dataset_file):
        path, _ = dataset_file
        path.write_bytes(path.read_bytes() + b"\0" * 8)
        with pytest.raises(ConfigError, match="after its last tensor"):
            load_dataset(path.parent)

    def test_garbled_header(self, dataset_file):
        path, _ = dataset_file
        path.write_bytes(b"\xff\xfe\x00garbage\n" + path.read_bytes())
        with pytest.raises(ConfigError):
            load_dataset(path.parent)

    @pytest.mark.parametrize("line", UNPARSABLE_HEADERS, ids=["over-nested", "long-integer"])
    def test_unparsable_header(self, dataset_file, line):
        path, _ = dataset_file
        path.write_bytes(line + b"\n")
        with pytest.raises(ConfigError, match=f"{path} does not start with a JSON header line"):
            load_dataset(path.parent)

    def test_huge_extent(self, tmp_path):
        header = b'{"format": "cfalign-dataset", "tensors": ["source_train.images"]}\n'
        (tmp_path / DATASET_FILE).write_bytes(header + struct.pack("<II", 1, 0xFFFFFFFF))
        with pytest.raises(ConfigError, match="declares 34359738360 more bytes"):
            load_dataset(tmp_path)

    def test_labels_missing(self, dataset_file):
        path, _ = dataset_file
        self.edit(path, lambda header, arrays: arrays.pop("target_eval.labels"))
        with pytest.raises(ConfigError, match=f"{path} target_eval holds no labels tensor"):
            load_dataset(path.parent)

    @pytest.mark.parametrize("spec", [None, [5]])
    def test_spec_not_an_object(self, dataset_file, spec):
        path, _ = dataset_file
        self.edit(path, lambda header, arrays: header.update(spec=spec))
        with pytest.raises(ConfigError, match="header holds no spec object"):
            load_dataset(path.parent)

    @pytest.mark.parametrize("version", [0, 1, None, "2"])
    def test_other_version(self, dataset_file, version):
        path, _ = dataset_file
        self.edit(path, lambda header, arrays: header.update(version=version))
        with pytest.raises(ConfigError, match=f"dataset version {version!r}, expected 2; run gen-data again"):
            load_dataset(path.parent)


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
            dict(shift_scale=[2.0]),
            dict(shift_offset=None),
            dict(shift_offset=[0.7]),
            dict(target_noise=[0.1]),
        ],
    )
    def test_wrong_types_rejected(self, overrides):
        with pytest.raises(ConfigError, match=next(iter(overrides))):
            tiny_spec(**overrides).validate()

    @pytest.mark.parametrize(
        "overrides",
        [dict(shift_scale=[1.0, 2.0, 0.5]), dict(shift_offset=[0.0, 1.0, -1.0]), dict(shift_scale=[2]),
         dict(shift_offset=[])],
    )
    def test_malformed_lists_rejected(self, overrides):
        # the per-channel and one-entry lists the shift fields once took
        with pytest.raises(ConfigError, match=f"{next(iter(overrides))} must be a number, got list"):
            tiny_spec(**overrides).validate()

    @pytest.mark.parametrize(
        "overrides",
        [dict(color_std=float("inf")), dict(target_noise=float("nan")),
         dict(shift_scale=float("inf")), dict(shift_offset=float("-inf")),
         dict(shift_offset=10**400)],
    )
    def test_non_finite_rejected(self, overrides):
        with pytest.raises(ConfigError, match=f"{next(iter(overrides))} must be finite"):
            tiny_spec(**overrides).validate()


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
            dict(hidden_dim=4.0),
            dict(feature_dim="8"),
            dict(head=3),
        ],
    )
    def test_wrong_types_rejected(self, overrides):
        with pytest.raises(ConfigError, match=next(iter(overrides))):
            RunConfig(**overrides).validate()

    @pytest.mark.parametrize("name", ["learning_rate", "lambda_ent", "tau", "threshold", "alpha"])
    @pytest.mark.parametrize("value", [float("inf"), float("nan")])
    def test_non_finite_rejected(self, name, value):
        with pytest.raises(ConfigError, match=f"{name} must be finite"):
            RunConfig(**{name: value}).validate()

    def test_huge_int_passes_the_finite_check(self):
        # too large for a float, so a finiteness test must not convert it
        assert RunConfig(iterations=10**400).validate().iterations == 10**400

    def test_numbers_of_either_kind_fill_float_fields(self):
        assert RunConfig(tau=1, seed=np.int64(3)).validate().tau == 1

    def test_from_mapping_picks_known_fields(self):
        cfg = RunConfig.from_mapping({"tau": 0.5, "height": 8, "classes": 3})
        assert cfg.tau == 0.5  # SynthSpec keys pass through untouched

    @pytest.mark.parametrize("cls", [RunConfig, SynthSpec])
    def test_every_annotation_has_a_kind(self, cls):
        unlisted = [f"{f.name}: {f.type}" for f in fields(cls) if str(f.type).replace(" ", "") not in KINDS]
        assert not unlisted, f"annotations missing from config.KINDS: {unlisted}"

    def test_every_benchmark_workload_key_is_a_field(self, monkeypatch):
        # perfbench builds RunConfig(**workload.config); an unknown key crashes every run
        monkeypatch.syspath_prepend(str(Path(__file__).resolve().parents[1] / "perfbench"))
        try:
            from workloads import WORKLOADS
        finally:
            sys.modules.pop("workloads", None)
        unknown = {w.name: sorted(set(w.config) - RunConfig.field_names()) for w in WORKLOADS}
        assert not any(unknown.values()), f"workload config keys that are not RunConfig fields: {unknown}"

    def test_replace_validates(self):
        cfg = RunConfig()
        with pytest.raises(ConfigError):
            cfg.replace(tau=-1.0)
        assert cfg.replace(tau=0.5).tau == 0.5
