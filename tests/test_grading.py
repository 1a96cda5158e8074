import numpy as np
import pytest

from echoagent.errors import DomainError
from echoagent.quant.grading import (
    CONSIDERABLY_REDUCED,
    GRADES,
    MILDLY_REDUCED,
    NORMAL,
    grade_ef,
    normalize_grade_label,
)


def test_boundaries_exact_at_the_cutoffs():
    assert grade_ef(50.0) == NORMAL
    assert grade_ef(40.0) == MILDLY_REDUCED
    assert grade_ef(39.999) == CONSIDERABLY_REDUCED
    assert grade_ef(49.999) == MILDLY_REDUCED


def test_worked_value_is_considerably_reduced():
    assert grade_ef(33.5) == CONSIDERABLY_REDUCED


def test_nan_and_infinity_rejected():
    with pytest.raises(DomainError):
        grade_ef(float("nan"))
    with pytest.raises(DomainError):
        grade_ef(float("inf"))


def test_million_random_efs_partition_into_exactly_one_grade_each():
    rng = np.random.default_rng(42)
    efs = rng.uniform(-100.0, 100.0, size=1_000_000)
    severity = {NORMAL: 0, MILDLY_REDUCED: 1, CONSIDERABLY_REDUCED: 2}
    graded = np.empty(efs.shape, dtype=np.int8)
    for i, ef in enumerate(efs):
        grade = grade_ef(float(ef))
        assert grade in GRADES
        graded[i] = severity[grade]
    # monotone: lower EF never earns a less severe grade
    order = np.argsort(efs)
    assert np.all(np.diff(graded[order]) <= 0)
    # boundary bins agree with direct evaluation
    assert np.all(graded[efs >= 50.0] == 0)
    assert np.all(graded[(efs >= 40.0) & (efs < 50.0)] == 1)
    assert np.all(graded[efs < 40.0] == 2)


def test_grade_label_normalization():
    assert normalize_grade_label("normal left ventricular function") == NORMAL
    assert normalize_grade_label("Mildly reduced systolic function") == MILDLY_REDUCED
    assert normalize_grade_label("considerably reduced function") == CONSIDERABLY_REDUCED
    assert normalize_grade_label("severely reduced") == CONSIDERABLY_REDUCED
    assert normalize_grade_label("pericardial thickening") is None
