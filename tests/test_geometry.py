import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from echoagent.errors import GeometryError
from echoagent.quant.geometry import (
    _principal_direction,
    disk_diameters,
    largest_component,
    long_axis,
    mask_area,
)
from echoagent.quant.synth import ellipse_mask, rect_mask, rotate90
from echoagent.quant.types import EMPTY_STRUCTURE, LongAxis
from echoagent.tools.masks import SegmentationMask
from oracles import (
    scalar_disk_diameters,
    scalar_long_axis,
    sum_labels_largest_component,
)


def full_mask(n=10, spacing=(1.0, 1.0)):
    return SegmentationMask(
        labels=np.ones((n, n), dtype=np.uint8),
        pixel_spacing_mm=spacing,
        structure_map={1: "left ventricle"},
    )


def test_area_counts_pixels_times_footprint():
    assert mask_area(full_mask(10, (1.0, 1.0)), 1).value == pytest.approx(100.0)


def test_area_scales_with_spacing():
    assert mask_area(full_mask(10, (0.5, 0.5)), 1).value == pytest.approx(25.0)


def test_missing_label_gives_zero_area_with_flag():
    result = mask_area(full_mask(), 7)
    assert result.value == 0.0
    assert EMPTY_STRUCTURE in result.flags


def test_rectangle_long_axis_is_vertical_and_sixty_mm():
    mask = rect_mask(128, width_px=20, height_px=60)
    axis = long_axis(mask, 1)
    assert axis.length_mm == pytest.approx(60.0, abs=1.0)
    dx, dy = axis.direction()
    assert abs(dx) < 1e-9 and abs(abs(dy) - 1.0) < 1e-9
    # symmetric widths tie; apex falls back to the smaller-y endpoint
    assert axis.apex[1] < axis.base_mid[1]


def test_rotated_rectangle_axis_is_horizontal_same_length():
    mask = rotate90(rect_mask(128, width_px=20, height_px=60))
    axis = long_axis(mask, 1)
    assert axis.length_mm == pytest.approx(60.0, abs=1.0)
    dx, dy = axis.direction()
    assert abs(dy) < 1e-9 and abs(abs(dx) - 1.0) < 1e-9


def test_disk_axis_length_equals_diameter():
    mask = ellipse_mask(128, semi_long_mm=30, semi_short_mm=30, spacing_mm=1.0)
    axis = long_axis(mask, 1)
    assert axis.length_mm == pytest.approx(60.0, abs=1.0)


def test_region_below_twenty_pixels_is_too_small():
    labels = np.zeros((32, 32), dtype=np.uint8)
    labels[4:8, 4:8] = 1  # 16 px
    mask = SegmentationMask(labels, (1.0, 1.0), {1: "left ventricle"})
    with pytest.raises(GeometryError, match="20"):
        long_axis(mask, 1)


def test_largest_component_wins():
    labels = np.zeros((64, 64), dtype=np.uint8)
    labels[2:6, 2:6] = 1             # 16-px distractor
    labels[20:60, 30:40] = 1         # 400-px main region
    mask = SegmentationMask(labels, (1.0, 1.0), {1: "left ventricle"})
    axis = long_axis(mask, 1)
    assert axis.length_mm == pytest.approx(39.0, abs=1.5)


def test_rectangle_disks_are_all_twenty_mm():
    mask = rect_mask(128, width_px=20, height_px=60)
    axis = long_axis(mask, 1)
    diameters = disk_diameters(mask, 1, axis, 20)
    assert len(diameters) == 20
    for d in diameters:
        assert d == pytest.approx(20.0, abs=1.0)


def test_region_on_one_half_of_axis_gives_trailing_zero_chords():
    mask = rect_mask(128, width_px=20, height_px=60)
    axis = long_axis(mask, 1)
    apex = np.array(axis.apex)
    base = np.array(axis.base_mid)
    # extend the axis past the base into empty canvas: far disks miss the region
    stretched = type(axis)(
        apex=tuple(apex), base_mid=tuple(apex + (base - apex) * 2.0),
        length_mm=axis.length_mm * 2.0,
    )
    diameters = disk_diameters(mask, 1, stretched, 20)
    assert diameters[-1] == 0.0
    assert diameters[0] > 0.0


def test_single_disk_measures_the_midline_chord():
    mask = rect_mask(128, width_px=20, height_px=60)
    axis = long_axis(mask, 1)
    [d] = disk_diameters(mask, 1, axis, 1)
    assert d == pytest.approx(20.0, abs=1.0)


def test_n_disks_must_be_positive():
    mask = rect_mask(64, width_px=20, height_px=30)
    axis = long_axis(mask, 1)
    with pytest.raises(GeometryError):
        disk_diameters(mask, 1, axis, 0)


def test_anisotropic_spacing_projects_onto_the_chord():
    mask = rect_mask(128, width_px=20, height_px=60, spacing_mm=(0.5, 2.0))
    axis = long_axis(mask, 1)  # vertical axis, chords run along x
    assert axis.length_mm == pytest.approx(59 * 2.0, abs=2.0)
    diameters = disk_diameters(mask, 1, axis, 10)
    for d in diameters:
        assert d == pytest.approx(20 * 0.5, abs=0.5)


def test_apex_is_on_the_narrow_side():
    # triangle-ish wedge: wide at the bottom, narrow at the top
    labels = np.zeros((80, 80), dtype=np.uint8)
    for row in range(10, 70):
        half = 2 + (row - 10) // 4
        labels[row, 40 - half : 40 + half] = 1
    mask = SegmentationMask(labels, (1.0, 1.0), {1: "left ventricle"})
    axis = long_axis(mask, 1)
    assert axis.apex[1] < axis.base_mid[1]


def test_largest_component_tie_goes_to_first_in_raster_order():
    binary = np.zeros((20, 20), dtype=bool)
    binary[2:5, 12:15] = True   # 9 px, reached first in raster order
    binary[10:13, 1:4] = True   # 9 px, later
    component = largest_component(binary)
    assert component.sum() == 9
    assert component[2:5, 12:15].all()
    assert not component[10:13, 1:4].any()


def test_largest_component_of_empty_mask_is_all_false():
    component = largest_component(np.zeros((7, 5), dtype=bool))
    assert component.shape == (7, 5) and component.dtype == bool
    assert not component.any()


@st.composite
def labelled_masks(draw):
    """Random multi-label canvases: blobs clipped by the border, stray pixels
    of the target label off the main region, anisotropic spacing."""
    height = draw(st.integers(16, 72))
    width = draw(st.integers(16, 72))
    spacing = (draw(st.floats(0.2, 3.0)), draw(st.floats(0.2, 3.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    ys, xs = np.mgrid[0:height, 0:width]
    labels = np.zeros((height, width), dtype=np.uint8)
    for _ in range(draw(st.integers(1, 4))):
        cx, cy = rng.uniform(-0.2, 1.2) * width, rng.uniform(-0.2, 1.2) * height
        a, b = rng.uniform(2, 0.6 * width), rng.uniform(2, 0.6 * height)
        theta = rng.uniform(0, np.pi)
        u = (xs - cx) * np.cos(theta) + (ys - cy) * np.sin(theta)
        v = -(xs - cx) * np.sin(theta) + (ys - cy) * np.cos(theta)
        labels[(u / a) ** 2 + (v / b) ** 2 <= 1.0] = rng.integers(1, 4)
    stray = rng.random((height, width)) < draw(st.sampled_from([0.0, 0.01, 0.05]))
    labels[stray] = 1
    names = {1: "left ventricle", 2: "left atrium", 3: "myocardium"}
    return SegmentationMask(labels, spacing, names)


def _hex(values):
    return [float.hex(v) for v in values]


@settings(max_examples=150, deadline=None)
@given(mask=labelled_masks(), n_disks=st.integers(1, 40))
def test_long_axis_and_disks_match_scalar_chords_bit_for_bit(mask, n_disks):
    assume(int((mask.labels == 1).sum()) >= 20)
    try:
        axis = long_axis(mask, 1)
    except GeometryError:
        assume(False)
    apex, base_mid, length_mm = scalar_long_axis(mask, 1, _principal_direction)
    assert _hex(axis.apex + axis.base_mid + (axis.length_mm,)) == _hex(
        apex + base_mid + (length_mm,)
    )
    diameters = disk_diameters(mask, 1, axis, n_disks)
    assert all(type(d) is float for d in diameters)
    assert _hex(diameters) == _hex(scalar_disk_diameters(mask, 1, apex, base_mid, n_disks))


@settings(max_examples=150, deadline=None)
@given(
    mask=labelled_masks(),
    ends=st.lists(st.floats(-40.0, 110.0), min_size=4, max_size=4),
    n_disks=st.integers(1, 40),
    label=st.integers(1, 3),
)
def test_disks_on_arbitrary_axes_match_scalar_chords(mask, ends, n_disks, label):
    # endpoints may lie off the canvas, so rays enter and leave it anywhere
    apex, base_mid = (ends[0], ends[1]), (ends[2], ends[3])
    assume(apex != base_mid)
    axis = LongAxis(apex=apex, base_mid=base_mid, length_mm=1.0)
    diameters = disk_diameters(mask, label, axis, n_disks)
    assert all(type(d) is float for d in diameters)
    assert _hex(diameters) == _hex(scalar_disk_diameters(mask, label, apex, base_mid, n_disks))


@settings(max_examples=100, deadline=None)
@given(mask=labelled_masks(), label=st.integers(1, 3))
def test_largest_component_matches_sum_labels(mask, label):
    binary = mask.labels == label
    assert np.array_equal(largest_component(binary), sum_labels_largest_component(binary))
