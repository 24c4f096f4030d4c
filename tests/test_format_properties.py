"""Property tests of the file parsers: any input either parses or raises FormatError.

Valid model and IDX inputs are mutated at random (bytes overwritten, the
file cut short, bytes appended), device configs are built from random
lines, and random bytes and text are fed in whole, device config bytes
through a file; random image bytes also go through load_dataset, which must
agree with load_idx_images. No other exception type may escape: the CLI
maps FormatError to exit code 3 (bad data), while any other ValueError would
leave as exit code 2 (usage error).
"""

import contextlib
import struct
import warnings

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from bitflip_bnn.bitcore import (
    BinarizedConvLayer,
    BinarizedLinearLayer,
    BitTensor,
    BnnModel,
    dump_model,
    load_model_bytes,
)
from bitflip_bnn.errors import FormatError
from bitflip_bnn.mnist_io import (
    IMAGE_MAGIC,
    LABEL_MAGIC,
    TEST_IMAGES,
    TEST_LABELS,
    binarize_input,
    load_dataset,
    load_idx_images,
    load_idx_labels,
)
from bitflip_bnn.mtj import _CONFIG_DEFAULTS, load_device_config, parse_device_config


def _model_bytes() -> tuple[bytes, list[int]]:
    """A conv, hidden and output layer model, and the offsets of its header bytes."""
    rng = np.random.default_rng(0)
    conv = BinarizedConvLayer(BitTensor.from_bool(rng.random((2, 1, 3, 3)) < 0.5), [4, 5])
    hidden = BinarizedLinearLayer(BitTensor.from_bool(rng.random((5, 70)) < 0.5), [30] * 5)
    out = BinarizedLinearLayer(BitTensor.from_bool(rng.random((3, 5)) < 0.5), [0] * 3, True)
    headers, offset = list(range(8)), 8  # magic, layer count
    for layer in (conv, hidden, out):
        size = 1 + (24 if layer is conv else 8) + 1  # kind, dims, is_output
        headers += range(offset, offset + size)
        offset += size + layer.thresholds.nbytes + layer.weights.words.nbytes
    return dump_model(BnnModel([conv, hidden, out])), headers


def _mutations(base: bytes, headers=()):
    """base with up to 8 bytes overwritten, or cut short, or with bytes appended.

    Half the overwrites land on `headers`, the offsets of counts, dims and flags.
    """
    position = st.integers(0, len(base) - 1)
    if headers:
        position = st.one_of(st.sampled_from(headers), position)
    # small values and 0xff turn counts, flags and kinds into their edge cases
    value = st.one_of(st.sampled_from([0, 1, 2, 255]), st.integers(0, 255))
    edits = st.lists(st.tuples(position, value), min_size=1, max_size=8)

    def overwrite(edits):
        data = bytearray(base)
        for pos, value in edits:
            data[pos] = value
        return bytes(data)

    return st.one_of(
        edits.map(overwrite),
        st.integers(0, len(base) - 1).map(lambda cut: base[:cut]),
        st.binary(min_size=1, max_size=8).map(lambda tail: base + tail),
    )


def _parses_or_format_error(parse, data) -> None:
    with contextlib.suppress(FormatError):
        parse(data)


MODEL, MODEL_HEADERS = _model_bytes()


@settings(max_examples=500, deadline=None)
@given(
    st.one_of(
        _mutations(MODEL, MODEL_HEADERS),
        st.binary(max_size=64),
        st.binary(max_size=64).map(lambda b: MODEL[:4] + b),  # past the magic
    )
)
def test_load_model_bytes_parses_or_raises_format_error(data):
    _parses_or_format_error(load_model_bytes, data)


# two 3x4 images and four labels, in the IDX layout the loaders expect
IMAGES = struct.pack(">IIII", IMAGE_MAGIC, 2, 3, 4) + bytes(range(0, 240, 10))
LABELS = struct.pack(">II", LABEL_MAGIC, 4) + bytes([0, 9, 3, 7])


def _load_file(tmp_path_factory, loader, data) -> None:
    path = tmp_path_factory.getbasetemp() / "fuzz.idx"
    path.write_bytes(data)
    _parses_or_format_error(loader, path)


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(_mutations(IMAGES, range(16)), st.binary(max_size=40)))
def test_load_idx_images_parses_or_raises_format_error(tmp_path_factory, data):
    _load_file(tmp_path_factory, load_idx_images, data)


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(_mutations(IMAGES, range(16)), st.binary(max_size=40)))
def test_load_dataset_parses_images_as_load_idx_images_does(tmp_path_factory, data):
    # the packed block reader and load_idx_images state the checks once: the
    # same bytes parse to the same bits, or raise the same FormatError
    root = tmp_path_factory.getbasetemp() / "fuzz-split"
    root.mkdir(exist_ok=True)
    (root / TEST_IMAGES).write_bytes(data)
    (root / TEST_LABELS).write_bytes(struct.pack(">II", LABEL_MAGIC, 2) + bytes([4, 1]))
    try:
        pixels = load_idx_images(root / TEST_IMAGES)
    except FormatError as exc:
        with pytest.raises(FormatError) as packed:
            load_dataset(root, "test")
        assert str(packed.value) == str(exc)
        return
    try:
        dataset = load_dataset(root, "test")
    except FormatError as exc:
        assert len(pixels) != 2 and "images but 2 labels" in str(exc)
        return
    assert dataset.images == binarize_input(pixels >= 128)


@settings(max_examples=300, deadline=None)
@given(data=st.one_of(_mutations(LABELS, range(8)), st.binary(max_size=20)))
def test_load_idx_labels_parses_or_raises_format_error(tmp_path_factory, data):
    _load_file(tmp_path_factory, load_idx_labels, data)


_CONFIG_LINE = st.one_of(
    st.tuples(
        st.sampled_from(sorted(_CONFIG_DEFAULTS) + ["unknown_key", ""]),
        st.sampled_from(["=", " = ", "==", ""]),
        st.one_of(
            st.floats(allow_nan=True, allow_infinity=True).map(repr),
            st.integers(-(10**6), 10**6).map(str),
            st.text(max_size=8),
        ),
    ).map("".join),
    st.text(max_size=30),
)


@settings(max_examples=300, deadline=None)
@given(st.one_of(st.lists(_CONFIG_LINE, max_size=12).map("\n".join), st.text(max_size=200)))
def test_parse_device_config_parses_or_raises_format_error(text):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a v_write close to v_c only warns
        _parses_or_format_error(parse_device_config, text)


_CONFIG_FILE = st.one_of(
    st.lists(_CONFIG_LINE, max_size=12).map(lambda lines: "\n".join(lines).encode()),
    st.binary(max_size=64),
    # a valid line with a byte that is not UTF-8 on either side
    st.tuples(st.binary(max_size=8), st.sampled_from([b"\xff", b"\xc3", b"\x80", b"\xed\xa0\x80"]))
    .map(lambda parts: b"tmr=1.5\n" + parts[0] + parts[1]),
)


@settings(max_examples=300, deadline=None)
@given(data=_CONFIG_FILE)
def test_load_device_config_parses_or_raises_format_error_naming_the_file(tmp_path_factory, data):
    path = tmp_path_factory.getbasetemp() / "fuzz.cfg"
    path.write_bytes(data)
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")  # a v_write close to v_c only warns
        try:
            load_device_config(path)
        except FormatError as exc:
            assert str(exc).startswith(f"{path}: ")
