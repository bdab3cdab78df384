"""Constants layer: K both ways, gamma, lattice data, pole probes."""

import math

import pytest

from dixonian import compute_K_root, dixon_constants
from dixonian.constants import _k_integrand
from dixonian.quadrature import tanh_sinh
from dixonian.selftest import _pole_probes
from conftest import CONSTS, assert_checks, values

K_REFERENCE = 1.76663875


def test_k_root_reference():
    k = compute_K_root()
    assert abs(k - K_REFERENCE) <= 1e-8
    assert 1.7666387 < k < 1.7666388


def test_k_quadrature_reference():
    assert_checks("k_value_quadrature")


def test_k_agreement():
    assert_checks("k_cross_agreement")


def test_k_integrand_at_zero():
    assert _k_integrand(0.0, 1.0) == 1.0


def test_half_range_integral():
    # integral from 0 to 2**(-1/3) equals K/2 (sm of K/2 is 2**(-1/3))
    b = 2.0 ** (-1.0 / 3.0)
    half = tanh_sinh(lambda x, _: b * (1.0 - (b * x) ** 3) ** (-2.0 / 3.0), tol=1e-12)
    assert abs(half - CONSTS.K / 2.0) <= 1e-9


def test_quadrature_nonconvergence_reports_estimate():
    from dixonian import ConvergenceError

    # sm_inverse's integrand for a target 1e-13 from the branch point 1
    w = 1.0 - 1e-13
    with pytest.raises(ConvergenceError) as exc:
        tanh_sinh(lambda x, _: (1.0 - (w * x) ** 3) ** (-2.0 / 3.0), tol=1e-11)
    assert exc.value.residual is not None
    assert exc.value.residual > 1e-11


def test_gamma():
    g = CONSTS.gamma
    assert g == complex(-0.5, math.sqrt(3.0) / 2.0)
    assert abs(g ** 3 - 1.0) < 1e-15
    assert g != 1.0
    assert abs(CONSTS.periods[1] / CONSTS.periods[0] - g) < 1e-15


def test_record_fields():
    assert CONSTS.g2 == 0.0
    assert CONSTS.g3 == 1.0 / 27.0
    assert CONSTS.periods[0] == complex(3.0 * CONSTS.K)


def test_frozen_and_cached():
    with pytest.raises(AttributeError):
        CONSTS.K = 2.0
    assert dixon_constants() is CONSTS


def _lattice_coords(z):
    w1, w2 = CONSTS.periods
    b = z.imag / w2.imag
    a = (z.real - b * w2.real) / w1.real
    return a, b


def test_reps_inside_cell():
    for rep in CONSTS.pole_reps + CONSTS.zero_reps:
        a, b = _lattice_coords(rep)
        assert abs(a) <= 0.5 + 1e-12
        assert abs(b) <= 0.5 + 1e-12


def test_cardinal_sanity():
    assert_checks("cardinal_values")


def test_pole_probe_blowup():
    assert_checks("pole_probe")  # |sm| >= 1e8 at each probe
    for z in _pole_probes():
        assert abs(values(z)[1]) >= 1e8
