"""Coefficient layer: exact recurrence, sparsity, landmarks, the binary64
table, evaluation.

``python tests/test_series.py`` (with ``src`` on the path) prints the
binary64 table from the exact recurrence, as ``src/dixonian/_tables.py``
holds it.
"""

import cmath
import math
import pathlib
import random
from fractions import Fraction

import pytest

from dixonian import ConvergenceError, _tables, eval_series, generate_series, series
from dixonian.series import DEFAULT_ORDER, MAX_ORDER, SERIES_EVAL_RADIUS, SERIES_TOL
from conftest import assert_checks, assert_fact


def test_initial_conditions():
    pair = generate_series(1)
    assert pair.s_coeffs == (Fraction(0), Fraction(1))
    assert pair.c_coeffs == (Fraction(1), Fraction(0))


def test_hand_derived_landmarks():
    pair = generate_series(7)
    assert pair.s_coeffs[4] == Fraction(-1, 6)
    assert pair.c_coeffs[3] == Fraction(-1, 3)
    assert pair.s_coeffs[7] == Fraction(2, 63)
    assert pair.c_coeffs[6] == Fraction(1, 18)


def test_factorial_form_landmarks():
    # sm(z) = z - 4 z^4/4! + 160 z^7/7! - ...
    pair = generate_series(7)
    assert pair.s_coeffs[4] == Fraction(-4, math.factorial(4))
    assert pair.s_coeffs[7] == Fraction(160, math.factorial(7))


def test_recurrence_exact():
    assert_checks("series_recurrence")


def test_mod3_sparsity():
    assert_checks("series_mod3_sparsity")


def test_all_rational():
    pair = generate_series(20)
    assert all(isinstance(a, Fraction) for a in pair.s_coeffs + pair.c_coeffs)


def test_deterministic():
    assert generate_series(16) == generate_series(16)


def test_pair_compared_by_value_and_unhashable():
    fresh = series._generate.__wrapped__(16)
    assert fresh is not generate_series(16) and fresh == generate_series(16)
    assert fresh != generate_series(17) and fresh != (fresh.s_coeffs, fresh.c_coeffs, 16)
    with pytest.raises(TypeError):
        hash(fresh)
    assert repr(generate_series(1)) == (
        "SeriesPair(s_coeffs=(Fraction(0, 1), Fraction(1, 1)), "
        "c_coeffs=(Fraction(1, 1), Fraction(0, 1)), order=1)"
    )


def test_exact_coefficients_built_on_first_read():
    # evaluation reads only the binary64 table; the Fractions are built once
    fresh = series._generate.__wrapped__(12)
    eval_series(fresh, 0.05 + 0.01j)
    assert fresh.eval_radius > 0.0 and "_exact" not in vars(fresh)
    assert fresh.s_coeffs == generate_series(12).s_coeffs and "_exact" in vars(fresh)
    assert fresh.c_coeffs is fresh.c_coeffs


# --- the binary64 table -------------------------------------------------------

def _rounded_recurrence():
    """P's and Q's coefficients through MAX_ORDER, each exact coefficient
    rounded to the nearest double."""
    pair = generate_series(MAX_ORDER)
    return tuple(float(a) for a in pair.s_coeffs[1::3]), tuple(float(a) for a in pair.c_coeffs[0::3])


def table_text():
    """The table's two tuples, as ``_tables.py`` writes them."""
    blocks = (
        "\n".join((f"{name} = (", *(f"    {v!r}," for v in values), ")"))
        for name, values in zip(("P_COEFFS", "Q_COEFFS"), _rounded_recurrence())
    )
    return "\n\n".join(blocks) + "\n"


def test_table_is_the_rounded_recurrence():
    p, q = _rounded_recurrence()
    assert len(p) == len(q) == 22
    for table, want in ((_tables.P_COEFFS, p), (_tables.Q_COEFFS, q)):
        assert all(type(a) is float for a in table)
        assert [a.hex() for a in table] == [a.hex() for a in want]
    text = pathlib.Path(_tables.__file__).read_text()
    assert text.endswith("\n\n" + table_text())


@pytest.mark.parametrize("order", range(1, MAX_ORDER + 1))
def test_packed_prefix_is_the_orders_rounded_coefficients(order):
    pair = generate_series(order)
    assert [a.hex() for a in pair._s_packed] == [float(a).hex() for a in pair.s_coeffs[1::3]]
    assert [a.hex() for a in pair._c_packed] == [float(a).hex() for a in pair.c_coeffs[0::3]]


def test_order_bounds():
    with pytest.raises(ValueError):
        generate_series(0)
    with pytest.raises(ValueError):
        generate_series(65)


def test_eval_at_zero():
    s, c = eval_series(generate_series(), 0.0)
    assert s == 0
    assert c == 1


def test_eval_real_point():
    s, c = eval_series(generate_series(), 0.3)
    assert s.imag == 0
    assert 0 < s.real < 0.3
    assert abs(s ** 3 + c ** 3 - 1) <= 1e-12


def test_cube_identity_random():
    assert_fact("series_cube_identity", 7, 1000)


def test_finite_difference_matches_ode():
    pair = generate_series()
    rng = random.Random(8)
    h = 1e-5
    for _ in range(100):
        z = cmath.rect(rng.uniform(0, 0.4), rng.uniform(0, 2 * math.pi))
        sp, cp = eval_series(pair, z + h)
        sn, cn = eval_series(pair, z - h)
        s0, c0 = eval_series(pair, z)
        assert abs((sp - sn) / (2 * h) - c0 * c0) <= 1e-6
        assert abs((cp - cn) / (2 * h) + s0 * s0) <= 1e-6


def test_radius_violation():
    with pytest.raises(ValueError):
        eval_series(generate_series(), 0.51)
    # a non-finite argument has no modulus inside the disc
    for order in (1, DEFAULT_ORDER):
        for z in (complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, math.nan)):
            with pytest.raises(ValueError, match="exceeds the series evaluation radius"):
                eval_series(generate_series(order), z)


def test_tail_bound_rejects_small_order():
    with pytest.raises(ConvergenceError):
        eval_series(generate_series(4), 0.5)


def test_small_order_ok_near_zero():
    s, c = eval_series(generate_series(10), 0.05)
    assert abs(s - 0.05) < 1e-5
    assert abs(c - 1.0) < 1e-3


# --- cached tail fit and series disc ----------------------------------------

def _per_call_tail(packed, offset, r):
    """The tail bound as eval_series computed it on every call before the fit
    was cached: refit from the packed coefficients each time."""
    nonzero = [i for i, a in enumerate(packed) if a != 0.0]
    if not nonzero:
        return 0.0
    last = nonzero[-1]
    term = abs(packed[last]) * r ** (3 * last + offset)
    if len(nonzero) >= 2:
        prev = nonzero[-2]
        step = abs(packed[last] / packed[prev]) ** (1.0 / (last - prev))
    else:
        step = (1.0 / 1.7) ** 3
    x = step * r ** 3
    if x >= 1.0:
        return math.inf
    return 2.0 * term * x / (1.0 - x)


TAIL_RADII = (0.0, 1e-5, 6.26e-5, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.5)


@pytest.mark.parametrize("order", range(1, MAX_ORDER + 1))
def test_cached_tail_bound_matches_per_call_fit(order):
    pair = generate_series(order)
    for r in TAIL_RADII:
        want = max(_per_call_tail(pair._s_packed, 1, r), _per_call_tail(pair._c_packed, 0, r))
        assert series._tail_bound(pair, r) == want
        if want > SERIES_TOL:
            with pytest.raises(ConvergenceError) as exc:
                eval_series(pair, r)
            assert exc.value.residual == want
            assert f"(tail bound {want:.1e})" in str(exc.value)
        else:
            eval_series(pair, r)


@pytest.mark.parametrize("order", range(1, MAX_ORDER + 1))
def test_eval_radius_is_largest_that_meets_tol(order):
    pair = generate_series(order)
    r = pair.eval_radius
    assert 0.0 < r <= SERIES_EVAL_RADIUS
    assert series._tail_bound(pair, r) <= SERIES_TOL
    if r < SERIES_EVAL_RADIUS:
        assert series._tail_bound(pair, math.nextafter(r, 1.0)) > SERIES_TOL
    eval_series(pair, cmath.rect(r, 0.7))
    assert abs(4.6 / 2 ** pair.halvings(4.6)) <= r


@pytest.mark.parametrize("order", range(1, MAX_ORDER + 1))
def test_tail_bound_met_inside_eval_radius(order):
    # eval_series skips the bound for |z| <= eval_radius: that is sound only
    # if the bound meets SERIES_TOL on the whole disc
    pair = generate_series(order)
    r_max = pair.eval_radius
    radii = [r_max * i / 2000 for i in range(2001)] + [math.nextafter(r_max, 0.0)]
    radii += [r_max * 2.0 ** -k for k in range(1, 60)]
    for r in radii:
        assert series._tail_bound(pair, r) <= SERIES_TOL, r


@pytest.mark.parametrize("order", [1, 4, 20, 27, 48, 64])
def test_eval_series_checks_outside_shortcut(order):
    pair = generate_series(order)
    r = pair.eval_radius
    # just beyond a disc smaller than SERIES_EVAL_RADIUS the bound is computed
    # and fails SERIES_TOL
    if r < SERIES_EVAL_RADIUS:
        for z in (math.nextafter(r, 1.0), SERIES_EVAL_RADIUS):
            tail = series._tail_bound(pair, z)
            with pytest.raises(ConvergenceError) as exc:
                eval_series(pair, z)
            assert exc.value.residual == tail > SERIES_TOL
            assert f"cannot meet tol {SERIES_TOL:.1e} " in str(exc.value)
            assert f"(tail bound {tail:.1e})" in str(exc.value)
    for z in (math.nextafter(SERIES_EVAL_RADIUS, 1.0), 0.51j, -0.6):
        with pytest.raises(ValueError, match="exceeds the series evaluation radius"):
            eval_series(pair, z)


def test_default_order_keeps_half_disc():
    pair = generate_series()
    assert pair.eval_radius == SERIES_EVAL_RADIUS
    # the K root-finder's bracket (1.5, 2.0) still takes exactly two halvings
    assert pair.halvings(1.5) == pair.halvings(2.0) == 2
    assert pair.halvings(0.5) == 0 and pair.halvings(0.0) == 0


def test_generated_once_per_order():
    assert generate_series(30) is generate_series(30)
    assert generate_series() is generate_series(DEFAULT_ORDER)


def test_fused_horner_matches_separate_recurrences():
    # each recurrence keeps its own operation order, from a complex zero start
    def horner(coeffs, u):
        acc = complex(0.0)
        for a in reversed(coeffs):
            acc = acc * u + a
        return acc

    rng = random.Random(9)
    for order in (1, 2, 3, 7, 47, 48, 49, 64):
        pair = generate_series(order)
        r = pair.eval_radius
        pts = [cmath.rect(rng.uniform(0, r), rng.uniform(0, 2 * math.pi)) for _ in range(50)]
        pts += [complex(-r / 2, -0.0), complex(-0.0, r / 3), complex(-0.0, -0.0), 0j]
        for z in pts:
            u = z * z * z
            want = (horner(pair._s_packed, u) * z, horner(pair._c_packed, u))
            assert repr(eval_series(pair, z)) == repr(want)


def test_sparse_recurrence_matches_dense():
    # the full convolutions, zero products included; each order's
    # coefficients are a prefix of the next order's
    s = [Fraction(0)] * (MAX_ORDER + 1)
    c = [Fraction(0)] * (MAX_ORDER + 1)
    c[0] = Fraction(1)
    for n in range(MAX_ORDER):
        cc = sum(c[k] * c[n - k] for k in range(n + 1))
        ss = sum(s[k] * s[n - k] for k in range(n + 1))
        s[n + 1] = cc / (n + 1)
        c[n + 1] = -ss / (n + 1)
    for order in range(1, MAX_ORDER + 1):
        pair = generate_series(order)
        assert pair.s_coeffs == tuple(s[: order + 1])
        assert pair.c_coeffs == tuple(c[: order + 1])
        assert all(type(a) is Fraction for a in pair.s_coeffs + pair.c_coeffs)


if __name__ == "__main__":
    print(table_text(), end="")
