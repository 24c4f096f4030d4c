"""IDX-format MNIST ingestion and input binarization.

The loaders are strict: magics, declared dimensions and payload lengths must
match the file exactly (no trailing bytes), and failures report the byte
offset. Files are never fetched from the network; the caller supplies the
canonical MNIST files:

    train-images-idx3-ubyte   train-labels-idx1-ubyte
    t10k-images-idx3-ubyte    t10k-labels-idx1-ubyte
"""

from __future__ import annotations

import os
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
    """Images as [N, rows, cols] bool pixel bits, labels 0..9.

    load_dataset gives bool images: True is a pixel byte >= 128, the +1 bit of
    binarize_input. Direct callers may also pass float32 intensities in [0,1],
    which binarize_input thresholds at BINARIZE_THRESHOLD into the same bits.
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


def load_idx_images(path) -> np.ndarray:
    """Parse an IDX image file into a [N, rows, cols] uint8 tensor.

    The payload is read straight into the returned array, with no bytes copy.
    """
    with open(path, "rb") as f:
        size = os.fstat(f.fileno()).st_size
        header = f.read(16)
        if len(header) < 16:
            raise FormatError("file too short for an IDX image header", size)
        magic, n, rows, cols = struct.unpack(">IIII", header)
        if magic != IMAGE_MAGIC:
            raise FormatError(f"bad image magic 0x{magic:08x}, expected 0x{IMAGE_MAGIC:08x}", 0)
        for offset, dim, what in ((4, n, "images"), (8, rows, "rows"), (12, cols, "columns")):
            if dim == 0:
                raise FormatError(f"image header declares 0 {what}", offset)
        expected = 16 + n * rows * cols
        if size < expected:
            raise FormatError(
                f"truncated image payload: need {expected} bytes, have {size}", size
            )
        if size > expected:
            raise FormatError(f"{size - expected} trailing bytes after image payload", expected)
        pixels = np.empty((n, rows, cols), dtype=np.uint8)
        got = f.readinto(pixels)
        if got != pixels.nbytes:
            raise FormatError(
                f"short read of image payload: need {pixels.nbytes} bytes, got {got}", 16 + got
            )
    return pixels


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


def load_dataset(data_dir, split: str) -> Dataset:
    """Load the train or test split from a directory of canonical IDX files.

    Images come back as bool pixel bits (byte >= 128), thresholded in place in
    the loaded uint8 array: the split costs 1 byte per pixel and no float copy.
    """
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
    # v >= 128 iff float32(v)/255 >= BINARIZE_THRESHOLD, for every byte value v
    images = np.greater_equal(raw, 128, out=raw.view(bool))
    return Dataset(images, labels.astype(np.int64), split)


def binarize_input(images: np.ndarray) -> BitTensor:
    """Threshold [0,1] intensities into packed sign bits, one row per image.

    A pixel maps to +1 (bit 1) iff its intensity is >= 0.5; bool images are
    already those bits and are packed as they are. Spatial dimensions are
    flattened, giving [N, rows*cols] (or a single flat row for one unbatched
    image).
    """
    arr = np.asarray(images)
    if arr.ndim not in (2, 3):
        raise ValueError("expected [rows, cols] or [N, rows, cols] intensities")
    bits = arr if arr.dtype == bool else arr >= BINARIZE_THRESHOLD
    rows = bits.reshape(-1) if arr.ndim == 2 else bits.reshape(len(arr), -1)
    return BitTensor.from_bool(rows)
