"""IDX-format MNIST ingestion and input binarization.

load_dataset reads a split's pixels a block of images at a time and keeps
them packed, 1 bit per pixel (byte >= 128), from the file on; its reference,
load_idx_images, returns the raw uint8 pixels. Both share one statement of
the checks: magics, declared dimensions and payload lengths must match the
file exactly (no trailing bytes), and failures report the byte offset.
binarize_input packs a batch of images, [N, rows, cols], into the same bits.
Files are never fetched from the network; the caller supplies the canonical
MNIST files:

    train-images-idx3-ubyte   train-labels-idx1-ubyte
    t10k-images-idx3-ubyte    t10k-labels-idx1-ubyte
"""

from __future__ import annotations

import os
import struct
from dataclasses import dataclass
from pathlib import Path

import numpy as np

from .bitcore import BitTensor, words_per_row
from .errors import FormatError

IMAGE_MAGIC = 0x00000803
LABEL_MAGIC = 0x00000801

TRAIN_IMAGES = "train-images-idx3-ubyte"
TRAIN_LABELS = "train-labels-idx1-ubyte"
TEST_IMAGES = "t10k-images-idx3-ubyte"
TEST_LABELS = "t10k-labels-idx1-ubyte"

BINARIZE_THRESHOLD = 0.5  # on [0,1] intensities; >= threshold -> +1 bit

# Images per block of a packed load: a 392 KiB buffer for 28x28 images.
_LOAD_BLOCK_ROWS = 512


@dataclass
class Dataset:
    """A batch of images and one label 0..9 per image; the images come in one of three forms.

    load_dataset gives a BitTensor of shape [N, rows*cols]: bit 1 is a pixel
    byte >= 128, the +1 bit of binarize_input, and no byte per pixel is ever
    held. Direct callers may instead pass [N, rows, cols] bool pixel bits or
    float32 intensities in [0,1], which binarize_input thresholds at
    BINARIZE_THRESHOLD into the same bits; NaN intensities are refused.
    """

    images: np.ndarray | BitTensor
    labels: np.ndarray

    def __post_init__(self):
        if isinstance(self.images, BitTensor):
            if len(self.images.shape) != 2:
                raise ValueError("packed images must be [N, rows*cols]")
        else:
            if self.images.ndim != 3:
                raise ValueError("images must be [N, rows, cols]")
            # stated so that NaN, which compares false, fails it too
            if self.images.size and not (self.images.min() >= 0.0 and self.images.max() <= 1.0):
                raise ValueError("intensities must lie in [0,1]")
        if self.labels.ndim != 1 or len(self.labels) != len(self):
            raise ValueError("labels must be one per image")

    def __len__(self) -> int:
        return self.images.shape[0]

    def take(self, n: int) -> "Dataset":
        """First n samples, in file order (deterministic subsetting).

        Packed images are copied, so the subset keeps no reference to the
        words of the whole split.
        """
        if isinstance(self.images, BitTensor):
            words = self.images.words[:n].copy()
            images = BitTensor((len(words), self.images.n_bits), words, validate=False)
        else:
            images = self.images[:n]
        return Dataset(images, self.labels[:n])


def _image_header(f) -> tuple[int, int, int]:
    """(n, rows, cols) of an open IDX image file, after checking its header and length.

    Leaves the file at the first payload byte.
    """
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
        raise FormatError(f"truncated image payload: need {expected} bytes, have {size}", size)
    if size > expected:
        raise FormatError(f"{size - expected} trailing bytes after image payload", expected)
    return n, rows, cols


def _read_pixels(f, out: np.ndarray, done: int, total: int) -> None:
    """Read the next out.nbytes payload bytes into out; `done` of `total` are read already."""
    got = f.readinto(out)
    if got != out.nbytes:
        raise FormatError(
            f"short read of image payload: need {total} bytes, got {done + got}", 16 + done + got
        )


def load_idx_images(path) -> np.ndarray:
    """Parse an IDX image file into a [N, rows, cols] uint8 tensor.

    The payload is read straight into the returned array, with no bytes copy.
    """
    with open(path, "rb") as f:
        n, rows, cols = _image_header(f)
        pixels = np.empty((n, rows, cols), dtype=np.uint8)
        _read_pixels(f, pixels, 0, pixels.nbytes)
    return pixels


def _load_packed_images(path) -> BitTensor:
    """Parse an IDX image file into packed pixel bits, [N, rows*cols], bit 1 iff byte >= 128.

    The payload is read _LOAD_BLOCK_ROWS images at a time into one reused
    buffer, thresholded in place and packed into the preallocated words, so
    no byte-per-pixel array of the file exists.
    """
    with open(path, "rb") as f:
        n, rows, cols = _image_header(f)
        width = rows * cols
        words = np.zeros((n, words_per_row(width)), dtype="<u8")
        as_bytes = words.view(np.uint8)[:, : (width + 7) // 8]
        buf = np.empty((min(n, _LOAD_BLOCK_ROWS), width), dtype=np.uint8)
        for lo in range(0, n, _LOAD_BLOCK_ROWS):
            block = buf[: min(n - lo, _LOAD_BLOCK_ROWS)]
            _read_pixels(f, block, lo * width, n * width)
            # v >= 128 iff float32(v)/255 >= BINARIZE_THRESHOLD, for every byte value v
            bits = np.greater_equal(block, 128, out=block.view(bool))
            as_bytes[lo : lo + len(block)] = np.packbits(bits, axis=-1, bitorder="little")
    return BitTensor((n, width), words, validate=False)


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


def split_files(data_dir, split: str) -> tuple[Path, Path]:
    """The (images, labels) IDX files of the train or test split under data_dir."""
    names = {
        "train": (TRAIN_IMAGES, TRAIN_LABELS),
        "test": (TEST_IMAGES, TEST_LABELS),
    }
    if split not in names:
        raise ValueError(f"split must be 'train' or 'test', got {split!r}")
    img_name, lbl_name = names[split]
    return Path(data_dir) / img_name, Path(data_dir) / lbl_name


def load_dataset(data_dir, split: str) -> Dataset:
    """Load the train or test split from a directory of canonical IDX files.

    Images come back packed, a BitTensor of shape [N, rows*cols] whose bit 1
    is a pixel byte >= 128: the split costs 1 bit per pixel from the file on.
    """
    img_path, lbl_path = split_files(data_dir, split)
    images = _load_packed_images(img_path)
    labels = load_idx_labels(lbl_path)
    if images.n_rows != len(labels):
        raise FormatError(f"{images.n_rows} images but {len(labels)} labels in {split} split")
    return Dataset(images, labels.astype(np.int64))


def binarize_input(images) -> BitTensor:
    """Threshold a batch of [0,1] intensities, [N, rows, cols], into packed sign bits.

    A pixel maps to +1 (bit 1) iff its intensity is >= 0.5; bool images are
    already those bits and are packed as they are, and a BitTensor, the form
    load_dataset gives, is returned unchanged. Spatial dimensions are
    flattened, giving [N, rows*cols]. Any other shape, a single unbatched
    [rows, cols] image among them, raises ValueError.
    """
    if isinstance(images, BitTensor):
        return images
    arr = np.asarray(images)
    if arr.ndim != 3:
        raise ValueError("expected [N, rows, cols] intensities")
    bits = arr if arr.dtype == bool else arr >= BINARIZE_THRESHOLD
    return BitTensor.from_bool(bits.reshape(len(arr), -1))
