"""SegmentationMask's label check against the seed's np.unique scan."""
import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echoagent.errors import ContractError
from echoagent.tools.masks import LABEL_BLOCK, SegmentationMask
from echoagent.tools.pgm import read_pgm, write_pgm

from oracles import seed_unmapped_labels

# Map keys: labels that appear on the canvas, 0, labels outside 0-255 and
# negative ones, plus non-integer keys that never name a pixel (JSON-style
# strings, floats, and 1-tuples, which numpy would broadcast against pixels).
_KEYS = st.one_of(
    st.integers(0, 255),
    st.just(0),
    st.integers(-1000, -1),
    st.integers(256, 2**40),
    st.integers(0, 255).map(str),
    st.floats(-1.0, 300.0, allow_nan=False),
    st.tuples(st.integers(0, 255)),
)


@st.composite
def canvases_and_maps(draw):
    palette = draw(st.lists(st.integers(0, 255), min_size=1, max_size=4, unique=True))
    height = draw(st.integers(1, 12))
    width = draw(st.integers(1, 12))
    pixels = draw(st.lists(st.sampled_from(palette), min_size=height * width,
                           max_size=height * width))
    labels = np.array(pixels, dtype=np.uint8).reshape(height, width)
    on_canvas = st.sampled_from(palette)
    keys = draw(st.lists(
        st.one_of(on_canvas, on_canvas.map(str), on_canvas.map(lambda v: (v,)), _KEYS),
        max_size=6,
    ))
    return labels, {key: f"structure {i}" for i, key in enumerate(keys)}


def assert_matches_seed(labels, structure_map):
    unmapped = seed_unmapped_labels(labels, structure_map)
    if not unmapped:
        mask = SegmentationMask(labels, (1.0, 1.0), structure_map)
        assert np.array_equal(mask.labels, labels)
        for v in {0, 1, 255} | set(np.unique(labels).tolist()):
            assert mask.pixel_count(v) == np.count_nonzero(labels == v), v
        return
    with pytest.raises(ContractError) as info:
        SegmentationMask(labels, (1.0, 1.0), structure_map)
    assert str(info.value) == f"mask labels {unmapped} missing from structure_map"


@settings(max_examples=300, deadline=None)
@given(canvases_and_maps())
def test_label_check_accepts_and_rejects_exactly_as_the_seed(case):
    assert_matches_seed(*case)


@pytest.mark.parametrize("structure_map", [
    {},                                   # background only needs no map
    {0: "background"},
    {1: "left ventricle"},                # a mapped label with no pixels
    {-1: "negative", 256: "too large"},
])
def test_all_background_mask_is_valid(structure_map):
    labels = np.zeros((6, 5), dtype=np.uint8)
    assert seed_unmapped_labels(labels, structure_map) == []
    SegmentationMask(labels, (0.5, 0.5), structure_map)


@pytest.mark.parametrize("structure_map, unmapped", [
    ({}, [1, 7]),
    ({1: "left ventricle"}, [7]),
    ({7 + 256: "wraps to 7", 1 - 256: "wraps to 1"}, [1, 7]),
    ({"1": "json key", (7,): "tuple key", 1.5: "float key"}, [1, 7]),
    ({1: "left ventricle", (7,): "tuple key"}, [7]),
])
def test_stray_labels_are_named_in_the_error(structure_map, unmapped):
    labels = np.zeros((8, 8), dtype=np.uint8)
    labels[2:4, 2:4] = 1
    labels[6, 6] = 7
    assert seed_unmapped_labels(labels, structure_map) == unmapped
    assert_matches_seed(labels, structure_map)


def test_every_structure_mapped_including_background_key():
    labels = np.arange(256, dtype=np.uint8).reshape(16, 16)
    structure_map = {v: f"s{v}" for v in range(256)}
    mask = SegmentationMask(labels, (1.0, 1.0), structure_map)
    assert mask.pixel_count(255) == 1


_BAD_SPACINGS = [
    (float("nan"), 0.5),
    (0.5, float("nan")),
    (float("inf"), 0.5),
    (0.5, float("-inf")),
    (1e-200, 1e-200),  # each positive, but the pixel footprint underflows to 0
]


@pytest.mark.parametrize("spacing", _BAD_SPACINGS)
def test_non_finite_or_underflowing_spacing_is_a_contract_error(spacing):
    with pytest.raises(ContractError, match="pixel spacing"):
        SegmentationMask(np.ones((4, 4), dtype=np.uint8), spacing, {1: "left ventricle"})


def _two_label_mask():
    labels = np.zeros((16, 16), dtype=np.uint8)
    labels[2:9, 3:7] = 1
    labels[10:14, 8:15] = 7
    return labels, SegmentationMask(labels, (0.5, 0.5), {1: "left ventricle", 7: "left atrium"})


def test_pixel_count_equals_the_compare_for_every_label_and_odd_probes():
    labels, mask = _two_label_mask()
    for v in range(256):
        assert mask.pixel_count(v) == np.count_nonzero(labels == v)
    assert mask.pixel_count(1) == 28 and mask.pixel_count(7) == 28
    for probe in (256, -1, 1.0, True, np.uint8(1), np.int64(1), 7.0, np.uint8(7)):
        assert mask.pixel_count(probe) == np.count_nonzero(labels == probe), probe
    assert mask.pixel_count(True) == 28


def test_pixel_count_from_validation_counts_with_odd_map_keys():
    labels = np.zeros((6, 6), dtype=np.uint8)
    labels[1:3, 1:4] = 1
    labels[4, 4] = 5
    mask = SegmentationMask(labels, (1.0, 1.0), {1.0: "float key", np.uint8(5): "numpy key"})
    for v in range(256):
        assert mask.pixel_count(v) == np.count_nonzero(labels == v)


def test_label_box_bounds_the_label_and_is_found_once():
    labels, mask = _two_label_mask()
    assert mask.label_box(1) == (slice(2, 9), slice(3, 7))
    assert mask.label_box(7) == (slice(10, 14), slice(8, 15))
    assert mask.label_box(0) == (slice(0, 16), slice(0, 16))
    for absent in (2, 255, 256, -1):
        assert mask.label_box(absent) is None
    # a second call returns the kept box
    assert mask.label_box(1) is mask.label_box(1)


def test_label_crop_is_the_box_inside_a_false_border_and_is_found_once():
    labels, mask = _two_label_mask()
    for label in (1, 7, 0):
        crop, box = mask.label_crop(label), mask.label_box(label)
        assert crop.dtype == bool and not crop.flags.writeable
        assert crop.shape == (box[0].stop - box[0].start + 2, box[1].stop - box[1].start + 2)
        assert np.array_equal(crop[1:-1, 1:-1], labels[box] == label)
        assert not crop[[0, -1]].any() and not crop[:, [0, -1]].any()
        assert crop.sum() == mask.pixel_count(label)
    for absent in (2, 255, 256, -1):
        assert mask.label_crop(absent) is None
    # a second call returns the kept crop
    assert mask.label_crop(1) is mask.label_crop(1)


def test_mask_labels_are_read_only():
    labels, mask = _two_label_mask()
    with pytest.raises(ValueError):
        mask.labels[0, 0] = 1
    with pytest.raises(ValueError):
        mask.labels.fill(0)
    # the caller's array stays writable; writing to it is the caller's to avoid
    assert labels.flags.writeable


def _block_edge_canvas(shape):
    """Label 1 in a band, label 7 on both sides of every block edge and
    label 9 on the last pixel alone."""
    labels = np.zeros(shape, dtype=np.uint8)
    flat = labels.reshape(-1)
    flat[flat.size // 3:flat.size // 2] = 1
    edges = np.arange(LABEL_BLOCK, flat.size, LABEL_BLOCK)
    flat[edges - 1] = 7
    flat[edges] = 7
    flat[-1] = 9
    return labels


# several blocks tall, with edges mid-row (251 is prime) and at row ends
# (512 x 512), and one row wider than a block
_BLOCK_SHAPES = [(3 * LABEL_BLOCK // 251 + 1, 251), (512, 512), (1, LABEL_BLOCK + 7)]


@pytest.mark.parametrize("shape", _BLOCK_SHAPES, ids=str)
@pytest.mark.parametrize("structure_map", [
    {1: "a", 7: "b", 9: "c"},
    {0: "background", 1: "a", 7: "b", 9: "c", 3: "absent"},
    {1: "a", 7: "b"},
    {1: "a", 9: "c"},
    {},
], ids=["all", "all_and_extra", "no_last_pixel", "no_edges", "none"])
def test_label_check_across_block_edges_matches_the_seed(shape, structure_map):
    labels = _block_edge_canvas(shape)
    assert labels.size > LABEL_BLOCK
    assert_matches_seed(labels, structure_map)


def test_label_check_of_a_strided_canvas_matches_the_seed():
    labels = _block_edge_canvas((5, 3 * LABEL_BLOCK // 5 + 1)).T
    assert not labels.flags.c_contiguous
    assert_matches_seed(labels, {1: "a", 7: "b", 9: "c"})
    assert_matches_seed(labels, {1: "a", 7: "b"})


def test_reading_and_checking_a_mask_adds_less_than_one_canvas(tmp_path):
    """A 512 x 512 mask costs its own array and at most 128 KiB more."""
    labels = np.zeros((512, 512), dtype=np.uint8)
    labels[100:300, 150:350] = 1
    labels[320:400, 200:300] = 2
    path = tmp_path / "mask.pgm"
    write_pgm(path, labels)
    tracemalloc.start()
    try:
        mask = SegmentationMask(read_pgm(path), (0.5, 0.5), {1: "lv", 2: "la"})
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert mask.pixel_count(1) == 200 * 200
    canvas = labels.nbytes
    assert peak <= canvas + 128 * 1024, f"peak {peak / canvas:.2f} x the canvas"
