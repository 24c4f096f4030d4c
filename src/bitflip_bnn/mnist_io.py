"""IDX-format MNIST ingestion and input binarization.

The loaders are strict: magics, declared dimensions and payload lengths must
match the file exactly (no trailing bytes), and failures report the byte
offset. Files are never fetched from the network; the caller supplies the
canonical MNIST files:

    train-images-idx3-ubyte   train-labels-idx1-ubyte
    t10k-images-idx3-ubyte    t10k-labels-idx1-ubyte
"""

from __future__ import annotations

import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bitcore import BitTensor
from .errors import FormatError

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801

TRAIN_IMAGES = "train-images-idx3-ubyte"
TRAIN_LABELS = "train-labels-idx1-ubyte"
TEST_IMAGES = "t10k-images-idx3-ubyte"
TEST_LABELS = "t10k-labels-idx1-ubyte"

BINARIZE_THRESHOLD = 0.5  # on [0,1] intensities; >= threshold -> +1 bit


@dataclass
class Dataset:
    """Images as [N, rows, cols] float32 intensities in [0,1], labels 0..9.

    Images may also be bool, as binarized() returns them: True is a pixel at or
    above BINARIZE_THRESHOLD, which binarize_input maps to the same +1 bit.
    """

    images: np.ndarray
    labels: np.ndarray
    split: str = ""

    def __post_init__(self):
        if self.images.ndim != 3:
            raise ValueError("images must be [N, rows, cols]")
        if self.labels.ndim != 1 or len(self.labels) != len(self.images):
            raise ValueError("labels must be one per image")
        if self.images.size and (self.images.min() < 0.0 or self.images.max() > 1.0):
            raise ValueError("intensities must lie in [0,1]")

    def __len__(self) -> int:
        return len(self.images)

    def take(self, n: int) -> "Dataset":
        """First n samples, in file order (deterministic subsetting)."""
        return Dataset(self.images[:n], self.labels[:n], self.split)

    def binarized(self) -> "Dataset":
        """The same samples with bool images (1 byte per pixel) thresholded as binarize_input."""
        return Dataset(self.images >= BINARIZE_THRESHOLD, self.labels, self.split)


def load_idx_images(path) -> np.ndarray:
    """Parse an IDX image file into a [N, rows, cols] uint8 tensor."""
    data = Path(path).read_bytes()
    if len(data) < 16:
        raise FormatError("file too short for an IDX image header", len(data))
    magic, n, rows, cols = struct.unpack(">IIII", data[:16])
    if magic != IMAGE_MAGIC:
        raise FormatError(f"bad image magic 0x{magic:08x}, expected 0x{IMAGE_MAGIC:08x}", 0)
    expected = 16 + n * rows * cols
    if len(data) < expected:
        raise FormatError(
            f"truncated image payload: need {expected} bytes, have {len(data)}", len(data)
        )
    if len(data) > expected:
        raise FormatError(f"{len(data) - expected} trailing bytes after image payload", expected)
    pixels = np.frombuffer(data, dtype=np.uint8, offset=16)
    return pixels.reshape(n, rows, cols).copy()


def load_idx_labels(path) -> np.ndarray:
    """Parse an IDX label file into a [N] uint8 vector with labels 0..9."""
    data = Path(path).read_bytes()
    if len(data) < 8:
        raise FormatError("file too short for an IDX label header", len(data))
    magic, n = struct.unpack(">II", data[:8])
    if magic != LABEL_MAGIC:
        raise FormatError(f"bad label magic 0x{magic:08x}, expected 0x{LABEL_MAGIC:08x}", 0)
    expected = 8 + n
    if len(data) < expected:
        raise FormatError(
            f"truncated label payload: need {expected} bytes, have {len(data)}", len(data)
        )
    if len(data) > expected:
        raise FormatError(f"{len(data) - expected} trailing bytes after label payload", expected)
    labels = np.frombuffer(data, dtype=np.uint8, offset=8).copy()
    bad = np.nonzero(labels > 9)[0]
    if bad.size:
        raise FormatError(f"label {labels[bad[0]]} out of range 0..9", 8 + int(bad[0]))
    return labels


def write_idx_images(path, images: np.ndarray) -> None:
    """Write a [N, rows, cols] uint8 tensor as an IDX image file."""
    arr = np.asarray(images, dtype=np.uint8)
    if arr.ndim != 3:
        raise ValueError("images must be [N, rows, cols]")
    with open(path, "wb") as f:
        f.write(struct.pack(">IIII", IMAGE_MAGIC, *arr.shape))
        f.write(arr.tobytes())


def write_idx_labels(path, labels: np.ndarray) -> None:
    arr = np.asarray(labels, dtype=np.uint8)
    if arr.ndim != 1:
        raise ValueError("labels must be a vector")
    if arr.size and arr.max() > 9:
        raise ValueError("labels must lie in 0..9")
    with open(path, "wb") as f:
        f.write(struct.pack(">II", LABEL_MAGIC, arr.shape[0]))
        f.write(arr.tobytes())


def load_dataset(data_dir, split: str) -> Dataset:
    """Load the train or test split from a directory of canonical IDX files."""
    names = {
        "train": (TRAIN_IMAGES, TRAIN_LABELS),
        "test": (TEST_IMAGES, TEST_LABELS),
    }
    if split not in names:
        raise ValueError(f"split must be 'train' or 'test', got {split!r}")
    img_name, lbl_name = names[split]
    data_dir = Path(data_dir)
    raw = load_idx_images(data_dir / img_name)
    labels = load_idx_labels(data_dir / lbl_name)
    if len(raw) != len(labels):
        raise FormatError(f"{len(raw)} images but {len(labels)} labels in {split} split")
    images = raw.astype(np.float32)
    images /= 255.0  # in place: one float32 copy of the split, same bits
    return Dataset(images, labels.astype(np.int64), split)


def binarize_input(images: np.ndarray) -> BitTensor:
    """Threshold [0,1] intensities into packed sign bits, one row per image.

    A pixel maps to +1 (bit 1) iff its intensity is >= 0.5. Spatial
    dimensions are flattened, giving [N, rows*cols] (or a single flat row
    for one unbatched image).
    """
    arr = np.asarray(images)
    if arr.ndim == 2:
        bits = (arr >= BINARIZE_THRESHOLD).reshape(-1)
    elif arr.ndim == 3:
        bits = (arr >= BINARIZE_THRESHOLD).reshape(arr.shape[0], -1)
    else:
        raise ValueError("expected [rows, cols] or [N, rows, cols] intensities")
    return BitTensor.from_bool(bits)
