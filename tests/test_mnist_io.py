import struct
import tracemalloc
from types import SimpleNamespace

import numpy as np
import pytest

from bitflip_bnn import mnist_io as mio
from bitflip_bnn.bitcore import BitTensor
from bitflip_bnn.errors import FormatError
from tests.conftest import write_idx_images, write_idx_labels


def _image_file(tmp_path, payload: bytes, n=1, rows=2, cols=2, magic=mio.IMAGE_MAGIC):
    path = tmp_path / "images"
    path.write_bytes(struct.pack(">IIII", magic, n, rows, cols) + payload)
    return path


def _label_file(tmp_path, labels: bytes, n=None, magic=mio.LABEL_MAGIC):
    path = tmp_path / "labels"
    path.write_bytes(struct.pack(">II", magic, len(labels) if n is None else n) + labels)
    return path


def test_load_minimal_image_file(tmp_path):
    path = _image_file(tmp_path, bytes([0, 255, 128, 0]))
    got = mio.load_idx_images(path)
    assert got.shape == (1, 2, 2)
    assert got.tolist() == [[[0, 255], [128, 0]]]


def test_image_loader_rejects_label_magic(tmp_path):
    path = _image_file(tmp_path, bytes([0, 0, 0, 0]), magic=mio.LABEL_MAGIC)
    with pytest.raises(FormatError, match="magic"):
        mio.load_idx_images(path)


def test_image_loader_rejects_truncation(tmp_path):
    path = _image_file(tmp_path, bytes([0, 255]))
    with pytest.raises(FormatError, match="truncated"):
        mio.load_idx_images(path)


def test_image_loader_rejects_trailing_garbage(tmp_path):
    path = _image_file(tmp_path, bytes([0, 255, 128, 0, 7]))
    with pytest.raises(FormatError, match="trailing"):
        mio.load_idx_images(path)


def test_load_labels(tmp_path):
    path = _label_file(tmp_path, bytes([3, 7]))
    assert mio.load_idx_labels(path).tolist() == [3, 7]


def test_label_out_of_range(tmp_path):
    path = _label_file(tmp_path, bytes([3, 10]))
    with pytest.raises(FormatError, match="label 10"):
        mio.load_idx_labels(path)


def test_label_loader_rejects_image_magic(tmp_path):
    path = _label_file(tmp_path, bytes([1]), magic=mio.IMAGE_MAGIC)
    with pytest.raises(FormatError, match="magic"):
        mio.load_idx_labels(path)


def test_label_truncation_and_trailing(tmp_path):
    with pytest.raises(FormatError, match="truncated"):
        mio.load_idx_labels(_label_file(tmp_path, bytes([3]), n=2))
    with pytest.raises(FormatError, match="trailing"):
        mio.load_idx_labels(_label_file(tmp_path, bytes([3, 4]), n=1))


def test_write_read_round_trip_bytes(tmp_path):
    rng = np.random.default_rng(5)
    images = rng.integers(0, 256, size=(7, 5, 4), dtype=np.uint8)
    labels = rng.integers(0, 10, size=7, dtype=np.uint8)
    ipath, lpath = tmp_path / "imgs", tmp_path / "lbls"
    write_idx_images(ipath, images)
    write_idx_labels(lpath, labels)
    assert np.array_equal(mio.load_idx_images(ipath), images)
    assert np.array_equal(mio.load_idx_labels(lpath), labels)
    # writing the reloaded data reproduces the files byte for byte
    ipath2, lpath2 = tmp_path / "imgs2", tmp_path / "lbls2"
    write_idx_images(ipath2, mio.load_idx_images(ipath))
    write_idx_labels(lpath2, mio.load_idx_labels(lpath))
    assert ipath.read_bytes() == ipath2.read_bytes()
    assert lpath.read_bytes() == lpath2.read_bytes()


def test_load_dataset_counts_must_match(tmp_path):
    images = np.zeros((3, 2, 2), dtype=np.uint8)
    labels = np.zeros(2, dtype=np.uint8)
    write_idx_images(tmp_path / mio.TRAIN_IMAGES, images)
    write_idx_labels(tmp_path / mio.TRAIN_LABELS, labels)
    with pytest.raises(FormatError, match="images but"):
        mio.load_dataset(tmp_path, "train")


def test_load_dataset_normalizes(tmp_path):
    # every byte value loads as the bit its float32 intensity v/255 thresholds to
    images = np.arange(256, dtype=np.uint8).reshape(1, 16, 16)
    write_idx_images(tmp_path / mio.TEST_IMAGES, images)
    write_idx_labels(tmp_path / mio.TEST_LABELS, np.array([9], dtype=np.uint8))
    ds = mio.load_dataset(tmp_path, "test")
    assert ds.split == "test"
    assert isinstance(ds.images, BitTensor) and ds.images.shape == (1, 256)
    assert ds.images.unpack_bool().reshape(-1).tolist() == [v >= 128 for v in range(256)]
    intensities = images.astype(np.float32) / 255.0
    assert np.array_equal(
        ds.images.unpack_bool(), (intensities >= mio.BINARIZE_THRESHOLD).reshape(1, 256)
    )
    assert ds.labels.tolist() == [9]


def test_binarize_all_zero():
    bits = mio.binarize_input(np.zeros((2, 3, 3), dtype=np.float32))
    assert bits.shape == (2, 9)
    assert np.all(bits.unpack() == -1)


def test_binarize_all_one():
    bits = mio.binarize_input(np.ones((2, 3, 3), dtype=np.float32))
    assert np.all(bits.unpack() == 1)


def test_binarize_checkerboard():
    img = np.indices((4, 4)).sum(axis=0) % 2  # 0/1 checkerboard
    bits = mio.binarize_input(img.astype(np.float32))
    expected = np.where(img.reshape(-1) == 1, 1, -1)
    assert np.array_equal(bits.unpack(), expected)


def test_binarize_threshold_is_half():
    # 127/255 < 0.5 <= 128/255
    img = np.array([[127 / 255.0, 128 / 255.0, 0.5]])
    assert mio.binarize_input(img[None, :, :]).unpack().tolist() == [[-1, 1, 1]]


@pytest.mark.parametrize("shape", [(7, 9), (5, 7, 9)])
def test_binarize_bool_images_match_float_intensities(shape):
    pixels = np.random.default_rng(8).integers(0, 256, shape, dtype=np.uint8)
    intensities = pixels.astype(np.float32) / 255.0
    # BitTensor equality compares shape and packed words: bit for bit
    assert mio.binarize_input(pixels >= 128) == mio.binarize_input(intensities)


def test_dataset_take_is_prefix():
    ds = mio.Dataset(np.zeros((5, 2, 2), dtype=np.float32), np.arange(5) % 10, "x")
    sub = ds.take(3)
    assert len(sub) == 3 and sub.labels.tolist() == [0, 1, 2]


def test_binarized_agrees_with_binarize_input_on_every_pixel_value(tmp_path):
    # load_dataset's bits pack as the float32 intensities v/255 of all 256 byte values do
    pixels = np.arange(256, dtype=np.uint8).reshape(1, 16, 16)
    write_idx_images(tmp_path / mio.TEST_IMAGES, pixels)
    write_idx_labels(tmp_path / mio.TEST_LABELS, np.zeros(1, dtype=np.uint8))
    ds = mio.load_dataset(tmp_path, "test")
    assert mio.binarize_input(ds.images) is ds.images  # already packed: 1 bit per pixel
    assert ds.images == mio.binarize_input(pixels.astype(np.float32) / 255.0)


def test_binarized_dataset_loads_from_idx(tmp_path):
    pixels = np.arange(2 * 4 * 4, dtype=np.uint8).reshape(2, 4, 4) * 8
    write_idx_images(tmp_path / mio.TEST_IMAGES, pixels)
    write_idx_labels(tmp_path / mio.TEST_LABELS, np.array([3, 7]))
    ds = mio.load_dataset(tmp_path, "test")
    assert ds.images == mio.binarize_input(pixels >= 128)
    first = ds.take(1).images
    assert first == mio.binarize_input(pixels[:1] >= 128)
    assert not np.shares_memory(first.words, ds.images.words)  # a copy, not a view


def _split_files(root, pixels: np.ndarray) -> None:
    write_idx_images(root / mio.TEST_IMAGES, pixels)
    write_idx_labels(root / mio.TEST_LABELS, np.arange(len(pixels)) % 10)


@pytest.mark.parametrize("rows,cols", [(14, 14), (28, 28), (8, 16)], ids=["196", "784", "128"])
@pytest.mark.parametrize("delta", [-1, 0, 1], ids=["block-1", "block", "block+1"])
def test_packed_load_equals_binarize_input_around_the_block(tmp_path, rows, cols, delta):
    n = mio._LOAD_BLOCK_ROWS + delta
    pixels = np.random.default_rng(n * cols).integers(0, 256, (n, rows, cols), dtype=np.uint8)
    pixels.reshape(-1)[:256] = np.arange(256)  # every byte value
    pixels[-1] = np.arange(rows * cols).reshape(rows, cols) % 256  # and in the last row
    _split_files(tmp_path, pixels)
    ds = mio.load_dataset(tmp_path, "test")
    assert ds.images.shape == (n, rows * cols)
    assert ds.images == mio.binarize_input(pixels >= 128)
    assert ds.images == mio.binarize_input(mio.load_idx_images(tmp_path / mio.TEST_IMAGES) >= 128)


def test_packed_load_builds_no_byte_per_pixel_array(tmp_path):
    n, side = 10_000, 28
    rng = np.random.default_rng(44)
    _split_files(tmp_path, rng.integers(0, 256, (n, side, side), dtype=np.uint8))
    tracemalloc.start()
    try:
        ds = mio.load_dataset(tmp_path, "test")
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    held = ds.images.words.nbytes + ds.labels.nbytes
    block = mio._LOAD_BLOCK_ROWS * side * side
    # what the dataset holds, plus one block's pixel bytes and their packed
    # copy; a uint8 or bool copy of the split would add n * 784 bytes, 7.8 MB
    assert peak < held + block + block // 8
    assert block < n * side * side / 10


@pytest.mark.parametrize("have", [5, 10], ids=["first-block", "second-block"])
def test_short_read_reports_the_same_offset_in_both_loaders(tmp_path, monkeypatch, have):
    # a file that holds fewer bytes at the read than its size said at the
    # check; load_dataset reads it in blocks of two 4-byte images
    write_idx_images(tmp_path / mio.TEST_IMAGES, np.zeros((3, 2, 2), dtype=np.uint8))
    write_idx_labels(tmp_path / mio.TEST_LABELS, np.zeros(3, dtype=np.uint8))
    path = tmp_path / mio.TEST_IMAGES
    path.write_bytes(path.read_bytes()[: 16 + have])
    monkeypatch.setattr(mio.os, "fstat", lambda fd: SimpleNamespace(st_size=16 + 12))
    monkeypatch.setattr(mio, "_LOAD_BLOCK_ROWS", 2)
    with pytest.raises(FormatError) as raw:
        mio.load_idx_images(path)
    with pytest.raises(FormatError) as packed:
        mio.load_dataset(tmp_path, "test")
    message = f"short read of image payload: need 12 bytes, got {have}"
    assert str(raw.value) == str(packed.value) == f"{message} (at byte offset {16 + have})"


@pytest.mark.parametrize("bad", [np.nan, -0.5, 1.5])
def test_dataset_refuses_intensities_outside_the_unit_interval(bad):
    images = np.full((2, 3, 3), 0.5, dtype=np.float32)
    images[1, 2, 0] = bad
    with pytest.raises(ValueError, match=r"intensities must lie in \[0,1\]"):
        mio.Dataset(images, np.zeros(2, dtype=np.int64))


def test_packed_dataset_take_and_checks():
    images = mio.binarize_input(np.random.default_rng(45).random((6, 4, 4)) < 0.5)
    ds = mio.Dataset(images, np.arange(6), "x")
    assert len(ds) == 6 and len(ds.take(4)) == 4 and len(ds.take(10)) == 6
    with pytest.raises(ValueError, match="one per image"):
        mio.Dataset(images, np.arange(5))
    with pytest.raises(ValueError, match="packed images"):
        mio.Dataset(BitTensor.from_bool(np.zeros((2, 4, 4), dtype=bool)), np.arange(2))
