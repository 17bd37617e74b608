"""Synthetic two-domain data for pixel-wise classification.

Each image is a Voronoi partition of the plane: a few seed points get class
labels and every pixel takes the class of its nearest point, which yields
contiguous regions of varying shape. Pixel colors are the class palette color
plus Gaussian noise. Target-domain images run through an extra per-channel
affine shift plus noise, so source-trained classifiers degrade there.

Target-train labels are still written to disk: the trainer may read them to
score pseudo-label accuracy for the metrics log, never to compute a loss.
Files are one JSON header line followed by tensors in the shared binary
layout, so identical specs produce byte-identical files.
"""

from __future__ import annotations

from dataclasses import asdict, dataclass, fields
from pathlib import Path

import numpy as np

from .config import MAX_ELEMENTS, check_field_types, fits
from .errors import ConfigError, ContractError, GenerationError
from .tensor import read_container, write_container

__all__ = [
    "SynthSpec",
    "Split",
    "Dataset",
    "default_palette",
    "generate_dataset",
    "save_split",
    "load_split",
    "save_dataset",
    "load_dataset",
    "SPLIT_FILES",
]

SPLIT_FILES = {
    "source_train": "source_train.bin",
    "target_train": "target_train.bin",
    "target_eval": "target_eval.bin",
}

DATASET_FORMAT = "cfalign-dataset"
DATASET_VERSION = 1
_RETRIES = 20


@dataclass
class SynthSpec:
    height: int = 32
    width: int = 32
    channels: int = 3
    classes: int = 5
    train_images: int = 200  # per domain
    eval_images: int = 50
    regions: int = 6  # Voronoi seed points per image
    color_std: float = 0.14
    class_means: list | None = None  # (classes, channels); None: default palette
    shift_scale: list | float = 2.2
    shift_offset: list | float = 0.7
    target_noise: float = 0.12
    seed: int = 0

    def validate(self) -> "SynthSpec":
        check_field_types(self)
        checks = [
            (self.height >= 2 and self.width >= 2, "image sides must be at least 2"),
            (self.channels >= 1, "channels must be at least 1"),
            (self.classes >= 2, "classes must be at least 2"),
            (self.train_images >= 1, "train_images must be at least 1"),
            (self.eval_images >= 1, "eval_images must be at least 1"),
            (self.regions >= 1, "regions must be at least 1"),
            (self.color_std >= 0, "color_std must be nonnegative"),
            (self.target_noise >= 0, "target_noise must be nonnegative"),
            (self.seed >= 0, "seed must be nonnegative"),
            (
                fits(self.train_images, self.channels, self.height, self.width)
                and fits(self.eval_images, self.channels, self.height, self.width),
                f"an image split exceeds numpy's index range ({MAX_ELEMENTS} elements)",
            ),
        ] + [
            (not isinstance(v, list) or len(v) in (1, self.channels),
             f"{name} must hold 1 or {self.channels} entries")
            for name, v in (("shift_scale", self.shift_scale), ("shift_offset", self.shift_offset))
        ]
        problems = [msg for ok, msg in checks if not ok]
        if problems:
            raise ConfigError("; ".join(problems))
        if not np.all(self.scale_vector() > 0):
            raise ConfigError("shift_scale entries must be positive")
        if self.class_means is not None:
            try:
                m = np.asarray(self.class_means, dtype=float)
            except (TypeError, ValueError) as exc:
                raise ConfigError(f"class_means must be a table of numbers: {exc}") from exc
            if m.shape != (self.classes, self.channels):
                raise ConfigError(
                    f"class_means must be {self.classes}x{self.channels}, got {m.shape}"
                )
        return self

    def palette(self) -> np.ndarray:
        if self.class_means is not None:
            return np.asarray(self.class_means, dtype=float)
        return default_palette(self.classes, self.channels)

    def scale_vector(self) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.shift_scale, float), (self.channels,)).copy()

    def offset_vector(self) -> np.ndarray:
        return np.broadcast_to(np.asarray(self.shift_offset, float), (self.channels,)).copy()

    def to_dict(self) -> dict:
        return asdict(self)

    @classmethod
    def field_names(cls) -> set[str]:
        return {f.name for f in fields(cls)}

    @classmethod
    def from_mapping(cls, mapping: dict) -> "SynthSpec":
        known = cls.field_names()
        kwargs = {k: v for k, v in mapping.items() if k in known}
        return cls(**kwargs).validate()


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

    def __len__(self) -> int:
        return len(self.images)


@dataclass
class Dataset:
    spec: SynthSpec
    source_train: Split
    target_train: Split
    target_eval: Split


def _voronoi_labels(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    """Class of each pixel's nearest seed point, the lowest point index on ties.

    One (height, width) pass per point. A squared distance is its row term
    plus its column term, the one addition a length-2 sum over the (row,
    column) offsets makes, so distances and labels equal that form's.
    """
    points = rng.uniform(0, [spec.height, spec.width], size=(spec.regions, 2))
    classes = rng.integers(0, spec.classes, size=spec.regions)
    dr = (np.arange(spec.height, dtype=float)[:, None] - points[:, 0]) ** 2  # (h, regions)
    dc = (np.arange(spec.width, dtype=float)[:, None] - points[:, 1]) ** 2  # (w, regions)
    nearest = np.zeros((spec.height, spec.width), dtype=np.intp)
    best = dr[:, :1] + dc[:, 0]
    d2 = np.empty_like(best)
    for r in range(1, spec.regions):
        np.add(dr[:, r, None], dc[:, r], out=d2)
        # strict < keeps the lowest point index on ties, as argmin does
        np.putmask(nearest, d2 < best, r)
        np.minimum(best, d2, out=best)
    return classes[nearest]


def _paint(labels: np.ndarray, spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    palette = spec.palette()
    base = palette[labels]  # (h, w, channels)
    noisy = base + rng.normal(0.0, spec.color_std, size=base.shape)
    return noisy.transpose(2, 0, 1)


def _generate_split(
    spec: SynthSpec, rng: np.random.Generator, count: int, domain: str
) -> Split:
    """One split; regenerated wholesale until every class occurs somewhere."""
    scale = spec.scale_vector().reshape(-1, 1, 1)
    offset = spec.offset_vector().reshape(-1, 1, 1)
    for _ in range(_RETRIES):
        images = np.empty((count, spec.channels, spec.height, spec.width))
        labels = np.empty((count, spec.height, spec.width), dtype=np.int64)
        for i in range(count):
            lab = _voronoi_labels(spec, rng)
            img = _paint(lab, spec, rng)
            if domain == "target":
                img = scale * img + offset
                if spec.target_noise > 0:
                    img = img + rng.normal(0.0, spec.target_noise, size=img.shape)
            images[i] = img
            labels[i] = lab
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
    source_train = _generate_split(spec, rng, spec.train_images, "source")
    target_train = _generate_split(spec, rng, spec.train_images, "target")
    target_eval = _generate_split(spec, rng, spec.eval_images, "target")
    return Dataset(spec, source_train, target_train, target_eval)


# ---------------------------------------------------------------------------
# split files: a container holding an images tensor and a labels tensor


def save_split(path: str | Path, split: Split, spec: SynthSpec, name: str) -> None:
    header = {
        "format": DATASET_FORMAT,
        "version": DATASET_VERSION,
        "split": name,
        "count": len(split),
        "classes": spec.classes,
        "spec": spec.to_dict(),
    }
    write_container(path, header, {"images": split.images, "labels": split.labels})


def load_split(path: str | Path) -> tuple[Split, dict]:
    """Read one split file; any malformed content raises ConfigError.

    The split holds at least one image. The header's class count is an int
    equal to its spec's, and labels are integers in [0, classes) shaped
    (n, height, width) to match the (n, channels, height, width) images.
    """
    try:
        header, arrays = read_container(path, DATASET_FORMAT)
    except ContractError as exc:
        raise ConfigError(f"bad dataset file: {exc}") from exc
    if header.get("version") != DATASET_VERSION:
        raise ConfigError(
            f"{path} is dataset version {header.get('version')!r}, expected {DATASET_VERSION}"
        )
    images, labels = arrays.get("images"), arrays.get("labels")
    if images is None or images.ndim != 4:
        raise ConfigError(f"{path} holds no (n, channels, height, width) images tensor")
    if labels is None:
        raise ConfigError(f"{path} holds no labels tensor")
    n, _, h, w = images.shape
    if n == 0:
        raise ConfigError(f"{path} holds no images")
    classes, spec = header.get("classes"), header.get("spec")
    spec_classes = spec.get("classes") if isinstance(spec, dict) else None
    # `type(...) is int`: a JSON true is a bool, which isinstance(_, int) lets through
    if type(classes) is not int or classes != spec_classes:
        raise ConfigError(f"{path} header has {classes!r} classes, its spec {spec_classes!r}")
    if labels.shape != (n, h, w):
        raise ConfigError(f"{path} labels have shape {labels.shape}, images need {(n, h, w)}")
    integral = labels == np.round(labels)
    if not np.all(integral & (labels >= 0) & (labels < classes)):
        raise ConfigError(f"{path} labels are not integers in [0, {classes})")
    return Split(images=images, labels=labels.astype(np.int64)), header


def save_dataset(directory: str | Path, data: Dataset) -> None:
    directory = Path(directory)
    directory.mkdir(parents=True, exist_ok=True)
    for name, fname in SPLIT_FILES.items():
        save_split(directory / fname, getattr(data, name), data.spec, name)


def load_dataset(directory: str | Path) -> Dataset:
    directory = Path(directory)
    splits, specs = {}, []
    for name, fname in SPLIT_FILES.items():
        path = directory / fname
        if not path.exists():
            raise ConfigError(f"missing dataset file {path}")
        splits[name], header = load_split(path)
        specs.append(header.get("spec"))
    if not isinstance(specs[0], dict) or any(s != specs[0] for s in specs):
        raise ConfigError(f"the splits in {directory} do not share one dataset spec")
    spec = SynthSpec.from_mapping(specs[0])
    return Dataset(spec, splits["source_train"], splits["target_train"], splits["target_eval"])
