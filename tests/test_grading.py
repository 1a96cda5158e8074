import numpy as np
import pytest

from echoagent.errors import DomainError
from echoagent.kb.criteria import (
    CONSIDERABLY_REDUCED,
    GRADES,
    MILDLY_REDUCED,
    NORMAL,
    normalize_grade_label,
    parse_criteria,
)
from echoagent.kb.criteria import grade_ef as grade_by_rules
from echoagent.quant.grading import grade_ef


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


def test_the_fixture_rules_grade_as_the_fixed_cut_offs(kb):
    # the fixture guideline's cut-offs are the dataset's truth: this is why a
    # run that grades against the guideline keeps the fixture outputs' bytes
    rules = kb.entries["left ventricle"].rules
    assert [r.describe() for r in rules if r.metric == "ef_percent"] == [
        "ef_percent >= 50 -> Normal",
        "ef_percent >= 40 and < 50 -> MildlyReduced",
        "ef_percent < 40 -> ConsiderablyReduced",
    ]
    edges = [x for c in (40.0, 50.0)
             for x in (np.nextafter(c, -np.inf), c, np.nextafter(c, np.inf))]
    for ef in [*np.linspace(-100.0, 100.0, 40_001), *edges, 39.999, 49.999]:
        assert grade_by_rules(float(ef), rules) == grade_ef(float(ef)), ef


_EF_SENTENCES = (
    "Ejection fraction of 50% or higher indicates normal function.",
    "Ejection fraction above 45% indicates mildly reduced function.",
    "EF below 40% indicates considerably reduced function.",
    "Left ventricular area above 10 mm2 indicates dilation.",
)


@pytest.mark.parametrize("sentences, ef, satisfied", [
    (_EF_SENTENCES, 55.0, 2),
    (_EF_SENTENCES, 47.0, 1),
    (_EF_SENTENCES, 42.0, 0),
    (_EF_SENTENCES[3:], 55.0, 0),
    ((), 55.0, 0),
], ids=["overlap", "one", "gap", "no_ef_rule", "no_rule"])
def test_a_grade_needs_exactly_one_satisfied_ef_rule(sentences, ef, satisfied):
    rules = parse_criteria(list(sentences))
    if satisfied == 1:
        assert grade_by_rules(ef, rules) == MILDLY_REDUCED
        return
    with pytest.raises(DomainError, match=f"satisfies {satisfied} of the entry's ef_percent rules"):
        grade_by_rules(ef, rules)
