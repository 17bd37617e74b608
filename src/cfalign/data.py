"""Synthetic two-domain data for pixel-wise classification.

Each image is a Voronoi partition of the plane: a few seed points get class
labels and every pixel takes the class of its nearest point, which yields
contiguous regions of varying shape. Pixel colors are the class's
`default_palette` color plus Gaussian noise. Target-domain images run through
an extra affine shift, the same scale and offset on every channel, plus
noise, so source-trained classifiers degrade there.

Draw order. One generator, seeded by `spec.seed`, makes every draw: the
source-train split, then target-train, then target-eval. Within a split,
each image makes these calls before the next image makes any:
`uniform(0, [height, width], (regions, 2))` for its points,
`integers(0, classes, regions)` for their classes,
`normal(0, color_std, (height, width, channels))` for its color noise, and
for target splits with `target_noise > 0` a
`normal(0, target_noise, (channels, height, width))`. A split that misses a
class is drawn again from the start, with the generator where the last
attempt left it. Draws of the same bits may replace these calls (`random`
times the range, `standard_normal` times the deviation), but none may
move; `tests/data_reference.py` is the image-by-image loop the bytes must
equal. The images, not the buffers, hold the draws' bits: a buffer may
lack the zero sign of `0.0 + std * z`, which its next addition erases.

Chunks. The draws go into buffers for a chunk of whole images, and the
arithmetic runs on the chunk at once: about `config.BLOCK` pixels, and
fewer images when the chunk's per-point distance tables, `regions * (height
+ width)` entries an image, would hold more than `BLOCK` entries. Every
step is per pixel or per (image, point), so the chunk size moves no byte.

Target-train labels are still written to disk: the trainer may read them to
score pseudo-label accuracy for the metrics log, never to compute a loss.
A dataset is one container file, `dataset.bin`: one JSON header line
holding the spec, then each split's images and labels in the shared binary
layout, so identical specs produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .config import BLOCK, MAX_ELEMENTS, Record, check_field_types, fits, require
from .errors import ConfigError, ContractError, GenerationError
from .tensor import read_container, write_container

__all__ = [
    "SynthSpec",
    "Split",
    "Dataset",
    "default_palette",
    "generate_dataset",
    "save_dataset",
    "load_dataset",
    "SPLITS",
    "DATASET_FILE",
]

SPLITS = ("source_train", "target_train", "target_eval")  # in generation order

DATASET_FILE = "dataset.bin"
DATASET_FORMAT = "cfalign-dataset"
DATASET_VERSION = 2
_RETRIES = 20


@dataclass
class SynthSpec(Record):
    height: int = 32
    width: int = 32
    channels: int = 3
    classes: int = 5
    train_images: int = 200  # per domain
    eval_images: int = 50
    regions: int = 6  # Voronoi seed points per image
    color_std: float = 0.14
    shift_scale: float = 2.2
    shift_offset: float = 0.7
    target_noise: float = 0.12
    seed: int = 0

    def validate(self) -> "SynthSpec":
        check_field_types(self)
        require([
            (self.height >= 2 and self.width >= 2, "image sides must be at least 2"),
            (self.channels >= 1, "channels must be at least 1"),
            (self.classes >= 2, "classes must be at least 2"),
            (self.train_images >= 1, "train_images must be at least 1"),
            (self.eval_images >= 1, "eval_images must be at least 1"),
            (self.regions >= 1, "regions must be at least 1"),
            (self.color_std >= 0, "color_std must be nonnegative"),
            (self.shift_scale > 0, "shift_scale must be positive"),
            (self.target_noise >= 0, "target_noise must be nonnegative"),
            (self.seed >= 0, "seed must be nonnegative"),
        ] + [
            (fits(*extents), f"{what} exceeds numpy's index range ({MAX_ELEMENTS} elements)")
            for what, extents in (
                ("an image split", (max(self.train_images, self.eval_images),
                                    self.channels, self.height, self.width)),
                ("classes * channels", (self.classes, self.channels)),  # the palette
                # a chunk's per-point distance tables, which outgrow its (regions, 2) points
                ("regions * (height + width)", (self.regions, self.height + self.width)),
            )
        ])
        return self


def default_palette(classes: int, channels: int) -> np.ndarray:
    """Well-separated class colors, independent of the dataset seed."""
    if classes == 5 and channels == 3:
        return np.array(
            [
                [0.85, 0.15, 0.15],
                [0.15, 0.80, 0.20],
                [0.15, 0.20, 0.85],
                [0.80, 0.75, 0.10],
                [0.60, 0.15, 0.80],
            ]
        )
    rng = np.random.default_rng(classes * 1000 + channels)
    return rng.uniform(0.05, 0.95, size=(classes, channels))


@dataclass
class Split:
    images: np.ndarray  # (n, channels, height, width) float64
    labels: np.ndarray  # (n, height, width) int64


@dataclass
class Dataset:
    spec: SynthSpec
    source_train: Split
    target_train: Split
    target_eval: Split


def _chunk_images(spec: SynthSpec) -> int:
    """Images per generation chunk: about `BLOCK` pixels, and fewer when the
    chunk's (row, column) distance tables would hold more than `BLOCK` entries."""
    h, w = spec.height, spec.width
    return max(1, min(BLOCK // (h * w), BLOCK // (spec.regions * (h + w))))


def _voronoi_labels(points: np.ndarray, classes: np.ndarray, height: int, width: int) -> np.ndarray:
    """Class of each pixel's nearest seed point, the lowest point index on ties.

    `points` is (k, regions, 2) as (row, column) and `classes` (k, regions),
    one row per image; the labels are (k, height, width). One (k, height,
    width) pass per point. A squared distance is its row term plus its
    column term, the one addition a length-2 sum over the (row, column)
    offsets makes, so distances and labels equal that form's.
    """
    # region-major tables, one (k, h, 1) row and (k, 1, w) column term per point
    rows = (np.arange(height, dtype=float) - points[:, :, 0].T[:, :, None]) ** 2
    cols = (np.arange(width, dtype=float) - points[:, :, 1].T[:, :, None]) ** 2
    rows, cols, point_classes = rows[..., None], cols[:, :, None, :], classes.T[:, :, None, None]
    best = rows[0] + cols[0]
    labels = np.empty(best.shape, dtype=classes.dtype)
    labels[...] = point_classes[0]
    d2 = np.empty_like(best)
    closer = np.empty(best.shape, dtype=bool)
    for row, col, cls in zip(rows[1:], cols[1:], point_classes[1:]):
        np.add(row, col, out=d2)
        # strict < keeps the lowest point index on ties, as argmin does
        np.less(d2, best, out=closer)
        np.copyto(labels, cls, where=closer)
        np.minimum(best, d2, out=best)
    return labels


def _generate_split(spec: SynthSpec, rng: np.random.Generator, count: int, name: str) -> Split:
    """One split; regenerated wholesale until every class occurs somewhere.

    Draws image by image, in the order of the module docstring, into
    per-chunk buffers, then labels, paints and shifts the chunk at once.
    Raises GenerationError when an image leaves the finite float range.
    """
    domain = name.split("_")[0]
    h, w, c, regions = spec.height, spec.width, spec.channels, spec.regions
    palette = default_palette(spec.classes, c)
    size = min(count, _chunk_images(spec))
    points = np.empty((size, regions, 2))
    classes = np.empty((size, regions), dtype=np.int64)
    noise = np.empty((size, h, w, c))
    shift_noise = None
    if domain == "target" and spec.target_noise > 0:
        shift_noise = np.empty((size, c, h, w))
    for _ in range(_RETRIES):
        images = np.empty((count, c, h, w))
        labels = np.empty((count, h, w), dtype=np.int64)
        for start in range(0, count, size):
            k = min(size, count - start)
            for j in range(k):
                rng.random(out=points[j])
                classes[j] = rng.integers(0, spec.classes, size=regions)
                rng.standard_normal(out=noise[j])
                if shift_noise is not None:
                    rng.standard_normal(out=shift_noise[j])
            # uniform(0, high) is 0 + high * u and normal(0, std) is 0 + std * z:
            # the same products, zero signs aside (module docstring)
            pts, noisy = points[:k], noise[:k]
            pts *= (float(h), float(w))
            lab = labels[start : start + k] = _voronoi_labels(pts, classes[:k], h, w)
            img = images[start : start + k]
            # flags are silenced and the images checked instead: normal(0, 1e308)
            # overflows inside numpy's sampler, where it sets no flag
            with np.errstate(over="ignore", invalid="ignore"):
                noisy *= spec.color_std
                noisy += palette.take(lab, axis=0)
                if domain == "target":
                    np.multiply(spec.shift_scale, noisy.transpose(0, 3, 1, 2), out=img)
                    img += spec.shift_offset
                    if shift_noise is not None:
                        more = shift_noise[:k]
                        more *= spec.target_noise
                        img += more
                else:
                    img[...] = noisy.transpose(0, 3, 1, 2)
            if not np.isfinite(img).all():
                raise GenerationError(
                    f"{name} images leave the finite float range; lower color_std, "
                    "target_noise, shift_scale or shift_offset"
                )
        # labels lie in [0, classes): every bin filled means every class occurs
        if np.bincount(labels.ravel(), minlength=spec.classes).all():
            return Split(images=images, labels=labels)
    raise GenerationError(
        f"could not cover all {spec.classes} classes in {count} {domain} images "
        f"after {_RETRIES} attempts; raise train_images or regions"
    )


def generate_dataset(spec: SynthSpec) -> Dataset:
    """Deterministic by spec.seed: same spec, same arrays, byte for byte."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    counts = (spec.train_images, spec.train_images, spec.eval_images)
    splits = {name: _generate_split(spec, rng, count, name) for name, count in zip(SPLITS, counts)}
    return Dataset(spec, **splits)


def save_dataset(directory: str | Path, data: Dataset) -> None:
    """Write `directory/dataset.bin`: the spec in its header, then the
    tensors `<split>.images` and `<split>.labels` for each of `SPLITS`."""
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    header = {"format": DATASET_FORMAT, "version": DATASET_VERSION, "spec": data.spec.to_dict()}
    arrays = {}
    for name in SPLITS:
        split = getattr(data, name)
        arrays[f"{name}.images"], arrays[f"{name}.labels"] = split.images, split.labels
    write_container(directory / DATASET_FILE, header, arrays)


def load_dataset(directory: str | Path) -> Dataset:
    """Read `directory/dataset.bin`; any malformed content raises ConfigError.

    The header's spec passes `SynthSpec` validation, and each split holds
    at least one image, with labels that are integers in [0, spec classes)
    shaped (n, height, width) to match its (n, channels, height, width)
    images. Header keys and tensors other than those `save_dataset` writes
    are ignored.
    """
    path = Path(directory) / DATASET_FILE
    if not path.exists():
        raise ConfigError(f"missing dataset file {path}; run gen-data again (version 1 wrote one file per split)")
    try:
        header, arrays = read_container(path, DATASET_FORMAT)
    except ContractError as exc:
        raise ConfigError(f"bad dataset file: {exc}") from exc
    version, spec = header.get("version"), header.get("spec")
    if version != DATASET_VERSION:
        raise ConfigError(f"{path} is dataset version {version!r}, expected {DATASET_VERSION}; run gen-data again")
    if not isinstance(spec, dict):
        raise ConfigError(f"{path} header holds no spec object")
    try:
        spec = SynthSpec.from_mapping(spec)
    except ConfigError as exc:
        raise ConfigError(f"{path} spec: {exc}") from exc
    splits = {}
    for name in SPLITS:
        where, images, labels = f"{path} {name}", arrays.get(f"{name}.images"), arrays.get(f"{name}.labels")
        if images is None or images.ndim != 4:
            raise ConfigError(f"{where} holds no (n, channels, height, width) images tensor")
        if labels is None:
            raise ConfigError(f"{where} holds no labels tensor")
        n, _, h, w = images.shape
        if n == 0:
            raise ConfigError(f"{where} holds no images")
        if labels.shape != (n, h, w):
            raise ConfigError(f"{where} labels have shape {labels.shape}, images need {(n, h, w)}")
        # checked and cast to int64 in their own buffer a block at a time, so
        # loading holds no second copy of the labels beside every split's arrays
        flat, ints = labels.reshape(-1), labels.view(np.int64).reshape(-1)
        for i in range(0, flat.size, BLOCK):
            block = flat[i : i + BLOCK]
            if not np.all((block == np.round(block)) & (block >= 0) & (block < spec.classes)):
                raise ConfigError(f"{where} labels are not integers in [0, {spec.classes})")
            ints[i : i + BLOCK] = block
        splits[name] = Split(images=images, labels=labels.view(np.int64))
    return Dataset(spec, **splits)
