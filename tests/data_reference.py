"""The per-image generator loop, kept as the byte reference for `cfalign.data`.

`data._generate_split` draws image by image and computes on chunks of whole
images. This module is the one-image-at-a-time loop it must equal byte for
byte: each image labels its pixels with one (height, width) Voronoi scan,
paints them, and for the target domain shifts them, before the next image
draws anything. `generate_split` also counts the attempts it made, so a test
can see the retry path run.

pytest does not collect this file; `tests/test_data.py` imports it.
"""

from __future__ import annotations

import numpy as np

from cfalign.data import _RETRIES, Dataset, Split, SynthSpec, default_palette
from cfalign.errors import GenerationError


def voronoi_labels(spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    """Class of each pixel's nearest seed point, the lowest point index on ties."""
    points = rng.uniform(0, [spec.height, spec.width], size=(spec.regions, 2))
    classes = rng.integers(0, spec.classes, size=spec.regions)
    dr = (np.arange(spec.height, dtype=float)[:, None] - points[:, 0]) ** 2  # (h, regions)
    dc = (np.arange(spec.width, dtype=float)[:, None] - points[:, 1]) ** 2  # (w, regions)
    nearest = np.zeros((spec.height, spec.width), dtype=np.intp)
    best = dr[:, :1] + dc[:, 0]
    d2 = np.empty_like(best)
    for r in range(1, spec.regions):
        np.add(dr[:, r, None], dc[:, r], out=d2)
        np.putmask(nearest, d2 < best, r)
        np.minimum(best, d2, out=best)
    return classes[nearest]


def paint(labels: np.ndarray, spec: SynthSpec, rng: np.random.Generator) -> np.ndarray:
    base = default_palette(spec.classes, spec.channels)[labels]  # (h, w, channels)
    noisy = base + rng.normal(0.0, spec.color_std, size=base.shape)
    return noisy.transpose(2, 0, 1)


def generate_split(
    spec: SynthSpec, rng: np.random.Generator, count: int, domain: str
) -> tuple[Split, int]:
    """One split and the number of attempts it took."""
    for attempt in range(1, _RETRIES + 1):
        images = np.empty((count, spec.channels, spec.height, spec.width))
        labels = np.empty((count, spec.height, spec.width), dtype=np.int64)
        for i in range(count):
            lab = voronoi_labels(spec, rng)
            img = paint(lab, spec, rng)
            if domain == "target":
                img = spec.shift_scale * img + spec.shift_offset
                if spec.target_noise > 0:
                    img = img + rng.normal(0.0, spec.target_noise, size=img.shape)
            images[i] = img
            labels[i] = lab
        if np.bincount(labels.ravel(), minlength=spec.classes).all():
            return Split(images=images, labels=labels), attempt
    raise GenerationError(
        f"could not cover all {spec.classes} classes in {count} {domain} images "
        f"after {_RETRIES} attempts; raise train_images or regions"
    )


def generate_dataset(spec: SynthSpec) -> tuple[Dataset, list[int]]:
    """The dataset and the attempts each split took, in file order."""
    spec.validate()
    rng = np.random.default_rng(spec.seed)
    made = [
        generate_split(spec, rng, count, domain)
        for count, domain in (
            (spec.train_images, "source"),
            (spec.train_images, "target"),
            (spec.eval_images, "target"),
        )
    ]
    return Dataset(spec, *(split for split, _ in made)), [attempts for _, attempts in made]
