import math
import warnings

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from echoagent.errors import ContractError, DomainError, VolumeError
from conftest import rescale_spacing, rotate90, translate

from echoagent.fixtures.shapes import (
    cylinder_volume_ml,
    ellipse_mask,
    rect_mask,
    spheroid_volume_ml,
)
from echoagent.hub.toolkit import EF_TOOL, VOLUME_TOOL, build_default_registry
from echoagent.quant.volume import biplane_volume, ejection_fraction


def test_cylinder_volume_within_two_percent():
    mask = rect_mask(128, width_px=20, height_px=60, spacing_mm=(1.0, 1.0))
    expected = cylinder_volume_ml(20.0, 60.0)  # 18.85 mL
    value = biplane_volume(mask, mask, 1, 20)
    assert value == pytest.approx(expected, rel=0.02)


def test_spheroid_volume_within_two_percent():
    mask = ellipse_mask(256, 40.0, 25.0, spacing_mm=0.5)
    expected = spheroid_volume_ml(80, 25)  # 104.72 mL
    value = biplane_volume(mask, mask, 1, 20)
    assert value == pytest.approx(expected, rel=0.02)


def test_convergence_error_non_increasing_in_disk_count():
    mask = ellipse_mask(256, 40.0, 25.0, spacing_mm=0.5)
    expected = spheroid_volume_ml(80, 25)
    errors = []
    for n in (5, 10, 20, 40):
        value = biplane_volume(mask, mask, 1, n)
        errors.append(abs(value - expected) / expected)
    for previous, current in zip(errors, errors[1:]):
        assert current <= previous + 0.002  # pixelization slack per step
    assert errors[-1] < 0.02


def test_halving_one_view_halves_the_volume():
    full_a2c = rect_mask(128, width_px=20, height_px=60)
    full_a4c = rect_mask(128, width_px=20, height_px=60)
    half_a4c = rect_mask(128, width_px=10, height_px=60)
    symmetric = biplane_volume(full_a2c, full_a4c, 1, 20)
    halved = biplane_volume(full_a2c, half_a4c, 1, 20)
    assert halved == pytest.approx(symmetric / 2.0, rel=1e-12)


def test_empty_view_names_the_view():
    mask = rect_mask(128, width_px=20, height_px=60)
    empty = rect_mask(128, width_px=0, height_px=0)
    with pytest.raises(VolumeError, match="a4c"):
        biplane_volume(mask, empty, 1, 20)
    with pytest.raises(VolumeError, match="a2c"):
        biplane_volume(empty, mask, 1, 20)


def test_translation_changes_volume_by_under_two_percent():
    mask = ellipse_mask(256, 40.0, 25.0, spacing_mm=0.5)
    moved = translate(mask, 7, -5)
    baseline = biplane_volume(mask, mask, 1, 20)
    shifted = biplane_volume(moved, mask, 1, 20)
    assert abs(shifted - baseline) / baseline < 0.02


def test_rotation_by_ninety_degrees_changes_volume_by_under_two_percent():
    mask = ellipse_mask(256, 40.0, 25.0, spacing_mm=0.5)
    baseline = biplane_volume(mask, mask, 1, 20)
    rotated = biplane_volume(rotate90(mask), mask, 1, 20)
    assert abs(rotated - baseline) / baseline < 0.02


def test_doubling_spacing_scales_volume_by_exactly_eight():
    mask = ellipse_mask(256, 40.0, 25.0, spacing_mm=0.5)
    baseline = biplane_volume(mask, mask, 1, 20)
    doubled = biplane_volume(
        rescale_spacing(mask, 2.0), rescale_spacing(mask, 2.0), 1, 20
    )
    assert doubled == pytest.approx(8.0 * baseline, rel=1e-9)


def test_ef_definitional_values():
    assert ejection_fraction(100.0, 50.0) == pytest.approx(50.0)
    assert ejection_fraction(120.0, 120.0) == pytest.approx(0.0)
    assert ejection_fraction(120.0, 79.8) == pytest.approx(33.5)


def test_ef_domain_errors():
    with pytest.raises(DomainError):
        ejection_fraction(0.0, 10.0)
    with pytest.raises(DomainError):
        ejection_fraction(-5.0, 1.0)
    with pytest.raises(DomainError):
        ejection_fraction(float("nan"), 1.0)


def test_negative_esv_is_a_domain_error():
    # the only way to an EF above 100
    with pytest.raises(DomainError, match="end-systolic"):
        ejection_fraction(100.0, -1.0)
    assert ejection_fraction(100.0, 0.0) == 100.0


def _ef_tool(edv_ml, esv_ml) -> dict:
    return build_default_registry().invoke(EF_TOOL, {"edv_ml": edv_ml, "esv_ml": esv_ml}).outputs


def test_esv_above_edv_is_flagged_anomalous_not_an_error():
    outputs = _ef_tool(80.0, 100.0)
    assert outputs["ef_percent"] < 0
    assert outputs["anomalous"] is True


def test_extreme_anomaly_clamps_at_minus_hundred():
    outputs = _ef_tool(10.0, 1000.0)
    assert outputs["ef_percent"] == -100.0
    assert outputs["anomalous"] is True


@pytest.mark.parametrize("esv", [0.0, 50.0, 80.0])
def test_esv_at_or_below_edv_is_not_anomalous(esv):
    outputs = _ef_tool(80.0, esv)
    assert outputs["ef_percent"] >= 0
    assert outputs["anomalous"] is False


@settings(max_examples=300, deadline=None)
@given(
    edv=st.floats(min_value=1e-3, max_value=1e6),
    esv_fraction=st.floats(min_value=0.0, max_value=1.0),
    scale=st.floats(min_value=1e-6, max_value=1e6),
)
def test_ef_is_scale_invariant(edv, esv_fraction, scale):
    esv = edv * esv_fraction
    base = ejection_fraction(edv, esv)
    scaled = ejection_fraction(edv * scale, esv * scale)
    assert math.isclose(base, scaled, rel_tol=1e-12, abs_tol=1e-12)


@pytest.mark.parametrize("spacing, error, message", [
    # chords of about 20 * 1e308 mm overflow, and with them the volume
    ((1e308, 1e-300), ContractError, "'volume_ml' is not of type number"),
    # the axis, about 59 * 1e308 mm long, overflows
    ((1e-300, 1e308), DomainError, "axis length must be positive and finite, got inf"),
])
def test_a_volume_at_an_extreme_spacing_fails_its_step_without_a_warning(spacing, error, message):
    mask = rect_mask(128, width_px=20, height_px=60, spacing_mm=spacing)
    registry = build_default_registry()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        with pytest.raises(error, match=message):
            registry.invoke(VOLUME_TOOL, {
                "mask_a2c": mask, "mask_a4c": mask, "target_label": 1, "n_disks": 20,
            })
    assert registry.invocation_log[-1].status == error.status
