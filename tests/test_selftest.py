"""The selftest registry's reduction and entry point: a NaN value fails every
check that reads it, and a name that is no check is refused."""

import math

import pytest

from dixonian import run_selftest, selftest
from dixonian.selftest import _worst

NAN = complex(math.nan, math.nan)

#: The checks that read only sm, or only cm, of the values they evaluate;
#: every other check that evaluates sm and cm reads both.
READS_SM_ONLY = {
    "pole_probe", "zeros", "residues_sm", "triangle_boundary", "reality_rays", "quartic_root", "inverse_roundtrip",
}
READS_CM_ONLY = {"residue_cm", "imaginary_axis"}


def test_worst_is_nan_at_any_nan_term():
    assert _worst([1.0, (2.0, [0.5]), 3.0]) == 3.0
    assert _worst([]) == 0.0
    assert _worst([0.0, math.inf]) == math.inf
    for terms in ([math.nan, 1.0], [1.0, math.nan], [1.0, (2.0, math.nan)], [(0.5, [math.nan]), 4.0]):
        assert math.isnan(_worst(terms)), terms


@pytest.mark.parametrize(
    "nan_sm, nan_cm, unread",
    [(True, True, set()), (True, False, READS_CM_ONLY), (False, True, READS_SM_ONLY)],
    ids=["sm_and_cm", "sm_only", "cm_only"],
)
def test_nan_value_fails_every_check_that_reads_it(monkeypatch, nan_sm, nan_cm, unread):
    # the kernel the checks call returns NaN on its first call in each
    # check; later calls, and every other path to a value, are untouched
    values = selftest.sm_cm_values
    calls = []

    def first_call_nan(z):
        s, c = values(z)
        if not calls:
            s, c = (NAN if nan_sm else s), (NAN if nan_cm else c)
        calls.append(z)
        return s, c

    monkeypatch.setattr(selftest, "sm_cm_values", first_call_nan)
    evaluating, failed = set(), set()
    for name in selftest.list_checks():
        calls.clear()
        (result,) = run_selftest(names=[name])
        if calls:
            evaluating.add(name)
        if not result.passed:
            failed.add(name)
    assert len(evaluating) == 23
    assert unread <= evaluating
    assert failed == evaluating - unread


def test_run_selftest_refuses_what_it_cannot_run():
    with pytest.raises(ValueError, match="cube_identity"):
        run_selftest(names=["cube_identity"])
    with pytest.raises(ValueError, match="no_such_check"):
        run_selftest(names=["zeros", "no_such_check"])
    # a string would otherwise be searched by substring
    with pytest.raises(TypeError):
        run_selftest(names="cube_identity_cell")
    assert [r.name for r in run_selftest(names=["zeros", "k_value_root"])] == ["k_value_root", "zeros"]
    assert run_selftest(names=[]) == []
    # an iterator is read once, not used up by the check for unknown names
    assert [r.name for r in run_selftest(names=iter(["zeros"]))] == ["zeros"]
    assert [r.name for r in run_selftest(names=(n for n in ["zeros", "k_value_root"]))] == ["k_value_root", "zeros"]
