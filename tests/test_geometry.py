import math

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from conftest import rotate90

from echoagent.errors import GeometryError
from echoagent.fixtures.shapes import ellipse_mask, rect_mask
from echoagent.hub.toolkit import AREA_TOOL, build_default_registry
from echoagent.quant.geometry import (
    LongAxis,
    _largest_component,
    _principal_direction,
    _row_runs,
    _run_moments,
    disk_diameters,
    long_axis,
    mask_area,
)
from echoagent.tools.masks import SegmentationMask
from oracles import (
    pixel_moments,
    scalar_disk_diameters,
    scalar_long_axis,
    sum_labels_largest_component,
)


def largest_component(binary):
    """The run labeller's largest component, drawn back as a boolean image."""
    component = np.zeros_like(binary, dtype=bool)
    if binary.any():
        rows, starts, stops = _row_runs(binary)
        keep = _largest_component(rows, starts, stops)
        for row, start, stop in zip(rows[keep], starts[keep], stops[keep]):
            component[row, start:stop] = True
    return component


def full_mask(n=10, spacing=(1.0, 1.0)):
    return SegmentationMask(
        labels=np.ones((n, n), dtype=np.uint8),
        pixel_spacing_mm=spacing,
        structure_map={1: "left ventricle"},
    )


def test_area_counts_pixels_times_footprint():
    assert mask_area(full_mask(10, (1.0, 1.0)), 1) == pytest.approx(100.0)


def test_area_scales_with_spacing():
    assert mask_area(full_mask(10, (0.5, 0.5)), 1) == pytest.approx(25.0)


def test_area_of_extreme_spacing_with_a_finite_footprint_is_finite():
    # the footprint 1e308 * 1e-300 = 1e8 passes valid_spacing; taking it
    # before the count keeps 800 px from overflowing through 800 * 1e308
    labels = np.zeros((40, 40), dtype=np.uint8)
    labels[:20, :40] = 1
    mask = SegmentationMask(labels, (1e308, 1e-300), {1: "left ventricle"})
    assert mask_area(mask, 1) == pytest.approx(8e10)


def _area_tool(mask, target_label):
    return build_default_registry().invoke(
        AREA_TOOL, {"mask": mask, "target_label": target_label}
    )


def test_missing_label_gives_zero_area_with_flag():
    result = _area_tool(full_mask(), 7)
    assert result.outputs == {"area_mm2": 0.0, "empty_structure": True}
    assert result.confidence == 0.0


@settings(max_examples=200, deadline=None)
@given(
    data=st.data(),
    height=st.integers(1, 16),
    width=st.integers(1, 16),
    target=st.integers(0, 3),
    spacing=st.tuples(
        st.floats(1e-150, 1e150, allow_subnormal=False),
        st.floats(1e-150, 1e150, allow_subnormal=False),
    ),
)
def test_area_tool_empty_flag_is_a_zero_pixel_count(data, height, width, target, spacing):
    labels = np.array(
        data.draw(st.lists(st.integers(0, 3), min_size=height * width, max_size=height * width)),
        dtype=np.uint8,
    ).reshape(height, width)
    mask = SegmentationMask(labels, spacing, {1: "a", 2: "b", 3: "c"})
    count = int(np.count_nonzero(labels == target))
    outputs = _area_tool(mask, target).outputs
    assert outputs["empty_structure"] is (count == 0)
    assert outputs["area_mm2"] == count * (spacing[0] * spacing[1])


def _direction(axis) -> tuple[float, float]:
    """Unit vector (pixel space) pointing from apex toward the base."""
    dx = axis.base_mid[0] - axis.apex[0]
    dy = axis.base_mid[1] - axis.apex[1]
    norm = math.hypot(dx, dy)
    return dx / norm, dy / norm


def test_rectangle_long_axis_is_vertical_and_sixty_mm():
    mask = rect_mask(128, width_px=20, height_px=60)
    axis = long_axis(mask, 1)
    assert axis.length_mm == pytest.approx(60.0, abs=1.0)
    dx, dy = _direction(axis)
    assert abs(dx) < 1e-9 and abs(abs(dy) - 1.0) < 1e-9
    # symmetric widths tie; apex falls back to the smaller-y endpoint
    assert axis.apex[1] < axis.base_mid[1]


def test_rotated_rectangle_axis_is_horizontal_same_length():
    mask = rotate90(rect_mask(128, width_px=20, height_px=60))
    axis = long_axis(mask, 1)
    assert axis.length_mm == pytest.approx(60.0, abs=1.0)
    dx, dy = _direction(axis)
    assert abs(dy) < 1e-9 and abs(abs(dx) - 1.0) < 1e-9


def test_disk_axis_length_equals_diameter():
    mask = ellipse_mask(128, semi_long_mm=30, semi_short_mm=30, spacing_mm=1.0)
    axis = long_axis(mask, 1)
    assert axis.length_mm == pytest.approx(60.0, abs=1.0)


def test_isotropic_square_takes_the_x_axis():
    # a == b and c == 0: every direction is principal; the rule picks (1, 0)
    labels = np.zeros((40, 40), dtype=np.uint8)
    labels[10:30, 10:30] = 1
    ys, xs = np.nonzero(labels)
    assert _principal_direction(pixel_moments(xs, ys)).tolist() == [1.0, 0.0]
    axis = long_axis(SegmentationMask(labels, (1.0, 1.0), {1: "left ventricle"}), 1)
    # equal end widths tie; the smaller-y rule keeps the first endpoint
    assert axis.apex == (10.0, 19.5) and axis.base_mid == (29.0, 19.5)
    assert axis.length_mm == 19.0


@settings(max_examples=100, deadline=None)
@given(
    points=st.lists(st.tuples(st.integers(0, 2000), st.integers(0, 2000)),
                    min_size=2, max_size=60),
)
def test_principal_direction_is_the_covariance_eigenvector(points):
    xs, ys = (np.array(v, dtype=np.intp) for v in zip(*points))
    direction = _principal_direction(pixel_moments(xs, ys))
    assert math.hypot(*direction) == pytest.approx(1.0, abs=1e-15)
    assert direction[1] > 0 or (direction[1] == 0 and direction[0] > 0)
    coords = np.stack([xs, ys], axis=1).astype(np.float64)
    eigvals, eigvecs = np.linalg.eigh(np.cov(coords.T, bias=True))
    assume(eigvals[1] - eigvals[0] > 1e-6 * max(eigvals[1], 1.0))
    # parallel to the eigenvector of the larger eigenvalue, up to sign
    assert abs(direction[0] * eigvecs[1, 1] - direction[1] * eigvecs[0, 1]) < 1e-9


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


def _tilted_blob(labels, cx, cy, a, b, theta, label=1):
    ys, xs = np.mgrid[0 : labels.shape[0], 0 : labels.shape[1]]
    u = (xs - cx) * np.cos(theta) + (ys - cy) * np.sin(theta)
    v = -(xs - cx) * np.sin(theta) + (ys - cy) * np.cos(theta)
    labels[(u / a) ** 2 + (v / b) ** 2 <= 1.0] = label


@st.composite
def labelled_masks(draw):
    """Random multi-label canvases: blobs clipped by the border, stray pixels
    of the target label off the main region, anisotropic spacing."""
    height = draw(st.integers(16, 72))
    width = draw(st.integers(16, 72))
    spacing = (draw(st.floats(0.2, 3.0)), draw(st.floats(0.2, 3.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = np.zeros((height, width), dtype=np.uint8)
    for _ in range(draw(st.integers(1, 4))):
        cx, cy = rng.uniform(-0.2, 1.2) * width, rng.uniform(-0.2, 1.2) * height
        a, b = rng.uniform(2, 0.6 * width), rng.uniform(2, 0.6 * height)
        _tilted_blob(labels, cx, cy, a, b, rng.uniform(0, np.pi), rng.integers(1, 4))
    stray = rng.random((height, width)) < draw(st.sampled_from([0.0, 0.01, 0.05]))
    labels[stray] = 1
    names = {1: "left ventricle", 2: "left atrium", 3: "myocardium"}
    return SegmentationMask(labels, spacing, names)


def _hex(values):
    return [float.hex(v) for v in values]


def _assert_matches_scalar(mask, n_disks=20):
    axis = long_axis(mask, 1)
    apex, base_mid, length_mm = scalar_long_axis(mask, 1, _principal_direction)
    assert _hex(axis.apex + axis.base_mid + (axis.length_mm,)) == _hex(
        apex + base_mid + (length_mm,)
    )
    diameters = disk_diameters(mask, 1, axis, n_disks)
    assert all(type(d) is float for d in diameters)
    assert _hex(diameters) == _hex(scalar_disk_diameters(mask, 1, apex, base_mid, n_disks))


@settings(max_examples=150, deadline=None)
@given(mask=labelled_masks(), n_disks=st.integers(1, 40))
def test_long_axis_and_disks_match_scalar_chords_bit_for_bit(mask, n_disks):
    assume(int((mask.labels == 1).sum()) >= 20)
    try:
        long_axis(mask, 1)
    except GeometryError:
        assume(False)
    _assert_matches_scalar(mask, n_disks)


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


@settings(max_examples=100, deadline=None)
@given(
    binary=st.integers(1, 24).flatmap(lambda width: st.lists(
        st.lists(st.booleans(), min_size=width, max_size=width), min_size=1, max_size=24,
    )).map(lambda rows: np.array(rows, dtype=bool)),
)
def test_row_runs_are_the_maximal_runs_in_raster_order(binary):
    rows, starts, stops = _row_runs(binary)
    drawn = np.zeros_like(binary)
    for row, start, stop in zip(rows, starts, stops):
        assert 0 <= start < stop <= binary.shape[1]
        drawn[row, start:stop] = True
        # maximal: the pixels either side are off the mask
        assert start == 0 or not binary[row, start - 1]
        assert stop == binary.shape[1] or not binary[row, stop]
    assert np.array_equal(drawn, binary)
    keys = rows * (binary.shape[1] + 1) + starts
    assert np.all(np.diff(keys) > 0)


def _draw(labels, ys, xs):
    ys, xs = np.asarray(ys), np.asarray(xs)
    inside = (ys >= 0) & (ys < labels.shape[0]) & (xs >= 0) & (xs < labels.shape[1])
    labels[ys[inside], xs[inside]] = 1


@st.composite
def merging_masks(draw):
    """Canvases whose components have several first runs that join lower
    down: combs with teeth above their bar, U-shapes (two-tooth combs),
    and diagonal chains whose pixels meet only at corners; each shape may be
    turned, and stray pixels lie around them."""
    height, width = draw(st.integers(8, 48)), draw(st.integers(8, 48))
    spacing = (draw(st.floats(0.2, 3.0)), draw(st.floats(0.2, 3.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = np.zeros((height, width), dtype=np.uint8)
    for _ in range(draw(st.integers(1, 4))):
        top, left = int(rng.integers(-4, height)), int(rng.integers(-4, width))
        depth = int(rng.integers(1, 20))
        if draw(st.booleans()):
            teeth, pitch = int(rng.integers(2, 7)), int(rng.integers(2, 6))
            for tooth in range(teeth):
                _draw(labels, np.arange(top, top + depth), np.full(depth, left + tooth * pitch))
            bar = np.arange(left, left + (teeth - 1) * pitch + 1)
            _draw(labels, np.full(len(bar), top + depth), bar)
        else:
            step = 1 if draw(st.booleans()) else -1
            _draw(labels, np.arange(top, top + depth), left + step * np.arange(depth))
        labels = np.rot90(labels, draw(st.integers(0, 3)))
        if labels.shape != (height, width):
            labels = np.ascontiguousarray(labels.T)
    stray = rng.random((height, width)) < draw(st.sampled_from([0.0, 0.02, 0.1]))
    labels[stray] = 1
    return SegmentationMask(np.ascontiguousarray(labels), spacing, {1: "left ventricle"})


@settings(max_examples=150, deadline=None)
@given(mask=merging_masks())
def test_trees_that_merge_lower_down_match_sum_labels_and_the_oracle_axis(mask):
    binary = mask.labels == 1
    assert np.array_equal(largest_component(binary), sum_labels_largest_component(binary))
    assume(int(binary.sum()) >= 20)
    try:
        long_axis(mask, 1)
    except GeometryError:
        assume(False)
    _assert_matches_scalar(mask)


def test_largest_component_tie_with_a_merged_u_goes_to_first_in_raster_order():
    # the U's two arms are separate trees until its bar joins them; its
    # first run, in row 0, comes before the block's, which comes before the
    # right arm's, and both components have 33 px
    binary = np.zeros((16, 12), dtype=bool)
    binary[0:12, 0] = binary[0:12, 8] = True
    binary[12, 0:9] = True
    binary[0:11, 3:6] = True
    u_shape = np.zeros_like(binary)
    u_shape[0:12, 0] = u_shape[0:12, 8] = True
    u_shape[12, 0:9] = True
    assert u_shape.sum() == (binary & ~u_shape).sum() == 33
    assert np.array_equal(largest_component(binary), u_shape)
    assert np.array_equal(sum_labels_largest_component(binary), u_shape)


@pytest.mark.parametrize("step", [1, -1])
def test_pixels_meeting_at_corners_are_one_component(step):
    # a 30 px diagonal chain outweighs a 25 px block only as one component
    binary = np.zeros((40, 40), dtype=bool)
    for i in range(30):
        binary[i, 5 + i if step == 1 else 34 - i] = True
    binary[34:39, 0:5] = True
    component = largest_component(binary)
    assert component.sum() == 30 and not component[34:39, 0:5].any()
    assert np.array_equal(component, sum_labels_largest_component(binary))


def test_half_noise_canvas_matches_the_oracle_bit_for_bit():
    # the labeller's worst case: every other pixel on, thousands of merges
    rng = np.random.default_rng(18)
    labels = (rng.random((512, 512)) < 0.5).astype(np.uint8)
    mask = SegmentationMask(labels, (0.4, 0.7), {1: "left ventricle"})
    binary = labels == 1
    assert np.array_equal(largest_component(binary), sum_labels_largest_component(binary))
    _assert_matches_scalar(mask)


def test_run_moments_are_exact_at_the_canvas_bound():
    # 2**15 px a side: one run ends at x = 32,767 and one row is y = 32,767
    side = 2**15
    rows, starts, stops = _row_runs(np.ones((1, side), dtype=bool))
    assert (rows.tolist(), starts.tolist(), stops.tolist()) == ([0], [0], [side])
    xs = range(side)
    sum_x, sum_xx = sum(xs), sum(x * x for x in xs)
    for y in (0, side - 1):
        assert _run_moments(rows + y, starts, stops) == (
            side, sum_x, y * side, sum_xx, y * y * side, y * sum_x,
        )
    # the whole canvas: every row one full run
    rows = np.arange(side)
    starts, stops = np.zeros(side, dtype=np.intp), np.full(side, side, dtype=np.intp)
    assert _run_moments(rows, starts, stops) == (
        side * side, side * sum_x, side * sum_x, side * sum_xx, side * sum_xx, sum_x * sum_x,
    )


@st.composite
def bench_scale_masks(draw):
    """Canvases of the benchmark's sizes where the target's box is a small
    part of the canvas: one small tilted blob, a blob of another label, and
    stray target pixels that widen the box beyond the largest component."""
    height = draw(st.integers(200, 520))
    width = draw(st.integers(200, 520))
    spacing = (draw(st.floats(0.2, 1.0)), draw(st.floats(0.2, 1.0)))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    labels = np.zeros((height, width), dtype=np.uint8)
    _tilted_blob(
        labels, rng.uniform(0.2, 0.8) * width, rng.uniform(0.2, 0.8) * height,
        rng.uniform(8, 40), rng.uniform(4, 20), rng.uniform(0, np.pi), label=2,
    )
    _tilted_blob(
        labels, rng.uniform(0, 1) * width, rng.uniform(0, 1) * height,
        rng.uniform(8, 60), rng.uniform(4, 30), rng.uniform(0, np.pi),
    )
    n_strays = draw(st.integers(0, 6))
    labels[rng.integers(0, height, n_strays), rng.integers(0, width, n_strays)] = 1
    return SegmentationMask(labels, spacing, {1: "left ventricle", 2: "left atrium"})


@settings(max_examples=25, deadline=None)
@given(mask=bench_scale_masks(), n_disks=st.integers(1, 40))
def test_bench_scale_axes_and_disks_match_scalar_chords(mask, n_disks):
    assume(int((mask.labels == 1).sum()) >= 20)
    try:
        long_axis(mask, 1)
    except GeometryError:
        assume(False)
    _assert_matches_scalar(mask, n_disks)


@pytest.mark.parametrize("edge", ["top", "bottom", "left", "right"])
def test_target_touching_a_canvas_edge_matches_scalar_chords(edge):
    labels = np.zeros((96, 128), dtype=np.uint8)
    centre = {"top": (50, 5), "bottom": (70, 90), "left": (4, 40), "right": (124, 60)}[edge]
    _tilted_blob(labels, *centre, a=30, b=12, theta=0.6)
    labels[20, 64] = 1  # a stray off the main region
    column, row = {"top": (50, 0), "bottom": (70, 95), "left": (0, 40), "right": (127, 60)}[edge]
    assert labels[row, column] == 1
    mask = SegmentationMask(labels, (0.7, 1.3), {1: "left ventricle"})
    _assert_matches_scalar(mask)
    # an axis across the whole canvas: rays leave the box through every side
    axis = LongAxis(apex=(-10.0, 100.0), base_mid=(140.0, -5.0), length_mm=1.0)
    assert _hex(disk_diameters(mask, 1, axis, 33)) == _hex(
        scalar_disk_diameters(mask, 1, axis.apex, axis.base_mid, 33)
    )


@pytest.mark.parametrize("transpose", [False, True])
def test_box_one_pixel_wide_matches_scalar_chords(transpose):
    labels = np.zeros((64, 80), dtype=np.uint8)
    labels[10:50, 33] = 1
    if transpose:
        labels = np.ascontiguousarray(labels.T)
    mask = SegmentationMask(labels, (0.5, 2.0), {1: "left ventricle"})
    _assert_matches_scalar(mask, 7)
    axis = LongAxis(apex=(3.0, 1.0), base_mid=(70.0, 60.0), length_mm=1.0)
    assert _hex(disk_diameters(mask, 1, axis, 40)) == _hex(
        scalar_disk_diameters(mask, 1, axis.apex, axis.base_mid, 40)
    )


def test_disks_of_an_absent_label_are_zero_floats():
    mask = rect_mask(64, width_px=20, height_px=30)
    axis = long_axis(mask, 1)
    diameters = disk_diameters(mask, 2, axis, 9)
    assert diameters == [0.0] * 9
    assert all(type(d) is float for d in diameters)


def test_rays_reach_only_max_steps_from_their_centre():
    # the disks sit 100 px left of the target on a 32 px canvas, whose rays
    # stop 47 steps from their centres, short of the target
    labels = np.zeros((32, 32), dtype=np.uint8)
    labels[4:28, 8:24] = 1
    mask = SegmentationMask(labels, (1.0, 1.0), {1: "left ventricle"})
    axis = LongAxis(apex=(-100.0, 0.0), base_mid=(-100.0, 32.0), length_mm=1.0)
    assert disk_diameters(mask, 1, axis, 8) == [0.0] * 8
    near = LongAxis(apex=(-20.0, 0.0), base_mid=(-20.0, 32.0), length_mm=1.0)
    diameters = disk_diameters(mask, 1, near, 8)
    assert max(diameters) == 16.0
    assert diameters == scalar_disk_diameters(mask, 1, near.apex, near.base_mid, 8)
