"""Global evaluator: reduction, pipeline values, symmetries, boundary loci."""

import cmath
import math
import random

import pytest

from dixonian import (
    EllipticValue,
    PoleError,
    cm,
    fundamental_cell,
    reduce_to_fundamental,
    sm,
    sm_cm,
    sm_cm_values,
    wp,
)
from conftest import C_ZERO_REPS, CONSTS, GAMMA, K, W1, W2, cell_points, values


# --- lattice reduction -----------------------------------------------------

def test_reduce_trivial():
    red = reduce_to_fundamental(0.1)
    assert (red.m, red.n) == (0, 0)
    assert red.z_reduced == 0.1


def test_reduce_one_period():
    red = reduce_to_fundamental(3.0 * K)
    assert (red.m, red.n) == (1, 0)
    assert abs(red.z_reduced) <= 1e-12


def test_reduce_shifted():
    red = reduce_to_fundamental(W2 + 0.2)
    assert (red.m, red.n) == (0, 1)
    assert abs(red.z_reduced - 0.2) <= 1e-12


def test_reduce_roundtrip_random():
    rng = random.Random(11)
    for _ in range(200):
        z = complex(rng.uniform(-40, 40), rng.uniform(-40, 40))
        red = reduce_to_fundamental(z)
        assert abs(red.z_reduced + red.m * W1 + red.n * W2 - z) <= 1e-9
        b = red.z_reduced.imag / W2.imag
        a = (red.z_reduced.real - b * W2.real) / W1.real
        assert abs(a) <= 0.5 + 1e-9
        assert abs(b) <= 0.5 + 1e-9


def test_reduce_nonfinite():
    for bad in (complex(math.inf, 0), complex(0, math.nan)):
        with pytest.raises(ValueError):
            reduce_to_fundamental(bad)
        with pytest.raises(ValueError):
            sm_cm(bad)


def test_fundamental_cell():
    cell = fundamental_cell()
    assert cell.edge1 == W1
    assert cell.edge2 == W2
    assert cell.origin == -(W1 + W2) / 2.0


# --- cardinal values and poles ----------------------------------------------

def test_origin():
    s, c = values(0.0)
    assert s == 0
    assert c == 1


def test_cardinal_table():
    third = 2.0 ** (-1.0 / 3.0)
    s, c = values(K / 2.0)
    assert abs(s - third) <= 1e-10 and abs(c - third) <= 1e-10
    s, c = values(K)
    assert abs(s - 1.0) <= 1e-10 and abs(c) <= 1e-10
    s, c = values(-K / 2.0)
    assert abs(s + 1.0) <= 1e-10 and abs(c - 2.0 ** (1.0 / 3.0)) <= 1e-10


def test_quartic_point():
    # sm(-K/4)**3 is the unit-disc root of 1 + 10x - 12x^2 + 4x^3 - 2x^4
    s, _ = values(-K / 4.0)
    sigma = s ** 3
    assert abs(sigma - (1.0 - math.sqrt(3.0 * (2.0 * math.sqrt(3.0) - 3.0))) / 2.0) <= 1e-12
    assert abs(1 + 10 * sigma - 12 * sigma ** 2 + 4 * sigma ** 3 - 2 * sigma ** 4) <= 1e-12


def test_pole_markers():
    for rep in CONSTS.pole_reps:
        sv, cv = sm_cm(rep)
        assert sv.is_pole and cv.is_pole
        assert sv.pole_rep == rep
    sv, cv = sm_cm(-K + 5e-13)
    assert sv.is_pole


def test_pole_error():
    with pytest.raises(PoleError):
        sm_cm_values(-K)


def test_near_pole_blowup():
    s, c = values(-K + 1e-9)
    assert abs(s) >= 1e8 and abs(c) >= 1e8


def test_near_path_matches_translation():
    # both sides of NEAR_TOL must agree with cm(-K + w) = 1/sm(w)
    for radius in (0.04, 0.06):
        for i in range(8):
            w = cmath.rect(radius, i * math.pi / 4.0 + 0.3)
            lhs = values(-K + w)[1]
            rhs = 1.0 / values(w)[0]
            assert abs(lhs - rhs) <= 1e-9


def test_duplication_fallback_swaps_through_mirror():
    # -2K halves through -K/2, whose duplication denominator vanishes, so
    # this forces the retry at K - z with swapped outputs
    from dixonian.evaluator import _context, _duplication_values

    s, c = _duplication_values(_context(48), complex(-2.0 * K, 0.0))
    assert abs(s - 1.0) <= 1e-10
    assert abs(c) <= 1e-10


def test_elliptic_value_api():
    v = EllipticValue.finite(2.0 + 1.0j)
    assert not v.is_pole and v.value == 2.0 + 1.0j and v.pole_rep is None
    p = EllipticValue.pole(-K)
    assert p.is_pole and p.value is None and p.pole_rep == -K


def test_projections():
    assert sm(0.4).value == sm_cm(0.4)[0].value
    assert cm(0.4).value == sm_cm(0.4)[1].value


def test_order_kwarg():
    a = sm(0.3, order=32).value
    b = sm(0.3).value
    assert abs(a - b) <= 1e-13


# --- symmetries and identities ----------------------------------------------

def test_periodicity_examples():
    assert abs(values(3.0 * K + 0.7)[0] - values(0.7)[0]) <= 1e-10
    assert abs(values(GAMMA * 0.4)[0] - GAMMA * values(0.4)[0]) <= 1e-10


def test_periodicity_random():
    rng = random.Random(21)
    for z in cell_points(rng, 50):
        s, c = values(z)
        for m in range(-2, 3):
            for n in range(-2, 3):
                s2, c2 = values(z + m * W1 + n * W2)
                assert abs(s2 - s) <= 1e-9
                assert abs(c2 - c) <= 1e-9


def test_conjugation():
    rng = random.Random(22)
    for z in cell_points(rng, 200):
        s, c = values(z)
        sb, cb = values(z.conjugate())
        assert abs(sb - s.conjugate()) <= 1e-10
        assert abs(cb - c.conjugate()) <= 1e-10


def test_negation():
    rng = random.Random(23)
    for z in cell_points(rng, 200, avoid=C_ZERO_REPS):
        s, c = values(z)
        sn, cn = values(-z)
        assert abs(cn - 1.0 / c) <= 1e-10
        assert abs(sn + s / c) <= 1e-10


def test_rotation():
    rng = random.Random(24)
    for z in cell_points(rng, 200):
        s, c = values(z)
        sg, cg = values(GAMMA * z)
        assert abs(sg - GAMMA * s) <= 1e-10
        assert abs(cg - c) <= 1e-10


def test_reflection():
    rng = random.Random(25)
    for z in cell_points(rng, 200):
        s, c = values(z)
        sr, cr = values(K - z)
        assert abs(sr - c) <= 1e-10
        assert abs(cr - s) <= 1e-10


def test_translation_2k():
    rng = random.Random(26)
    for z in cell_points(rng, 200, avoid=CONSTS.zero_reps):
        s, c = values(z)
        st, ct = values(2.0 * K + z)
        assert abs(ct - 1.0 / s) <= 1e-10
        assert abs(st + c / s) <= 1e-10


def test_derivatives_finite_difference():
    rng = random.Random(27)
    h = 1e-5
    for z in cell_points(rng, 200, pole_margin=0.15):
        s0, c0 = values(z)
        sp, cp = values(z + h)
        sn, cn = values(z - h)
        assert abs((sp - sn) / (2 * h) - c0 * c0) <= 1e-6
        assert abs((cp - cn) / (2 * h) + s0 * s0) <= 1e-6


# --- zeros, residues, boundary geometry -------------------------------------

def test_zeros():
    for rep in CONSTS.zero_reps:
        for m, n in ((0, 0), (1, 0), (0, 1)):
            s, _ = values(rep + m * W1 + n * W2)
            assert abs(s) <= 1e-9


def _ring_average(p, component):
    total = 0.0j
    for i in range(8):
        z = p + cmath.rect(1e-4, i * math.pi / 4.0)
        total += (z - p) * values(z)[component]
    return total / 8.0


def test_residues_sm():
    expected = {
        complex(-K): complex(-1.0),
        2.0 * K * GAMMA: -GAMMA.conjugate(),
        2.0 * K * GAMMA.conjugate(): -GAMMA,
    }
    total = 0.0j
    for p, want in expected.items():
        got = _ring_average(p, 0)
        assert abs(got - want) <= 1e-5
        total += got
    assert abs(total) <= 1e-5


def test_residue_cm():
    assert abs(_ring_average(complex(-K), 1) - 1.0) <= 1e-5


def test_triangle_edges_unit_modulus():
    verts = [complex(K), K * GAMMA, K * GAMMA.conjugate()]
    for a, b in zip(verts, verts[1:] + verts[:1]):
        for i in range(100):
            t = i / 99.0
            s, _ = values((1 - t) * a + t * b)
            assert abs(abs(s) - 1.0) <= 1e-9


def test_imaginary_axis_unit_modulus():
    for i in range(100):
        t = -4.5 + 9.0 * i / 99.0
        _, c = values(complex(0.0, t))
        assert abs(abs(c) - 1.0) <= 1e-9


def test_hexagon_edge():
    # edge from K to -K*conj(gamma) = K + K*gamma, stopping short of the pole
    gbar = GAMMA.conjugate()
    for i in range(100):
        z = K + (i / 100.0) * K * GAMMA
        s, c = values(z)
        assert abs(s.imag) <= 1e-9
        assert abs((c * gbar).imag) <= 1e-9


def test_reality_rays():
    for sextant in range(6):
        direction = cmath.rect(1.0, sextant * math.pi / 3.0)
        for i in range(12):
            z = (0.05 + 0.54 * i / 11.0) * direction
            ratio = values(z)[0] / z
            assert abs(ratio.imag) <= 1e-9
            assert ratio.real > 0.0


# --- cube identity over the cell ---------------------------------------------

def test_cube_identity_cell():
    rng = random.Random(28)
    for z in cell_points(rng, 500):
        s, c = values(z)
        assert abs(s ** 3 + c ** 3 - 1.0) <= 1e-10


# --- Weierstrass evaluation ---------------------------------------------------

def test_wp_pole_at_lattice():
    assert wp(0.0).is_pole
    assert wp(0.0).pole_rep == 0
    assert wp(3.0 * K).is_pole


def test_wp_values():
    assert abs(wp(K).value - 1.0 / 3.0) <= 1e-12
    # finite at the sm poles: the limit of s/(3(1 - c)) is gamma**j / 3
    assert abs(wp(-K).value - 1.0 / 3.0) <= 1e-12
    assert abs(wp(-K * GAMMA).value - GAMMA / 3.0) <= 1e-12


def test_wp_rotation():
    z = 0.7 + 0.2j
    assert abs(wp(GAMMA * z).value - GAMMA * wp(z).value) <= 1e-11
