"""The README's numerical contract against the decimal oracle
(``oracles.py``): absolute error on the cell away from the poles, relative
error next to the poles, wp next to the origin, and the inverse next to the
branch points. No gate reaches past |z| = 10: there K's rounding (FOUND F1
in CHANGES.md) moves the reduced argument by more than these bounds.
"""

import cmath
import math
import random
from decimal import Decimal

from dixonian import sm_cm, sm_inverse, wp
from dixonian.constants import GAMMA_POWERS
from dixonian.selftest import _cell_points
from conftest import CONSTS
from oracles import error, magnitude, oracle_constants, oracle_inverse, oracle_sm_cm, oracle_wp


def _log_uniform(rng, lo, hi):
    return math.exp(rng.uniform(math.log(lo), math.log(hi)))


def test_oracle_k_and_landmarks():
    # the AGM's K rounds to the double above the library's (F1), and the
    # oracle meets cm(K) = 0 and sm(K/2)^3 = 1/2 to its digits
    K = oracle_constants()[0]
    assert float(K).hex() == "0x1.c4426fe852837p+0"
    assert 2.5e-16 < K - Decimal(CONSTS.K) < 2.6e-16
    assert magnitude(oracle_sm_cm((K, Decimal(0)))[1]) < 1e-45
    s = oracle_sm_cm((K / 2, Decimal(0)))[0]
    assert abs(s[0] ** 3 - Decimal(0.5)) < 1e-45 and s[1] == 0


def test_cell_absolute_error():
    # 300 seeded points of the cell at least 0.3 from a pole
    worst = 0.0
    for z in _cell_points(random.Random(2024), 300, pole_margin=0.3):
        s, c = sm_cm(z)
        ref_s, ref_c = oracle_sm_cm(z)
        worst = max(worst, error(s.value, ref_s), error(c.value, ref_c))
    assert worst <= 1e-14, worst


def test_near_pole_relative_error():
    # 1e-2 to 0.05 from each pole: the near-pole rescue and the duplications
    # next to it keep full relative accuracy
    rng = random.Random(2025)
    worst = 0.0
    for rep in CONSTS.pole_reps:
        for _ in range(40):
            z = rep + cmath.rect(_log_uniform(rng, 1e-2, 0.05), rng.uniform(0.0, 2.0 * math.pi))
            s, c = sm_cm(z)
            ref_s, ref_c = oracle_sm_cm(z)
            worst = max(worst, error(s.value, ref_s) / magnitude(ref_s), error(c.value, ref_c) / magnitude(ref_c))
    assert worst <= 1e-13, worst


def test_wp_relative_error_next_to_origin():
    # 1e-8 <= |z| <= 0.3, where wp = sm/(3(1 - cm)) would cancel (FOUND F2)
    rng = random.Random(2026)
    zs = [cmath.rect(_log_uniform(rng, 1e-8, 0.3), rng.uniform(0.0, 2.0 * math.pi)) for _ in range(200)]
    zs += [1e-8, 0.003, 1e-4, complex(1e-6, 1e-6), 0.01j, 0.3, -0.3j]
    worst = 0.0
    for z in zs:
        v = wp(z)
        assert not v.is_pole, z
        ref = oracle_wp(z)
        worst = max(worst, error(v.value, ref) / magnitude(ref))
    assert worst <= 1e-13, worst


def test_inverse_next_to_branch_points():
    # 1e-15 to 9e-10 inside each branch point gamma**j, in three directions:
    # the cube-root seed forms 1 - w^3 exactly, so the preimage does not carry
    # gamma's rounding. Newton in decimal from the library's z finds the
    # preimage beside it, and that preimage is the principal one: gamma**j
    # (K - y) with y in the sector of the principal cube root
    K = oracle_constants()[0]
    worst = 0.0
    for b in GAMMA_POWERS:
        for d in (1e-15, 1e-14, 1e-13, 1e-12, 1e-11, 1e-10, 3e-10, 6e-10, 9e-10):
            for angle in (0.0, 0.7, -1.2):
                w = b * (1.0 - d * cmath.exp(1j * angle))
                z = sm_inverse(w).z
                ref = oracle_inverse(w, z)
                worst = max(worst, error(z, ref))
                # y = K - ref * conj(b) lies within pi/5 of the positive axis
                y_re = K - (ref[0] * Decimal(b.real) + ref[1] * Decimal(b.imag))
                y_im = ref[0] * Decimal(b.imag) - ref[1] * Decimal(b.real)
                assert abs(math.atan2(y_im, y_re)) < math.pi / 5, (w, z)
    assert worst <= 1e-15, worst
