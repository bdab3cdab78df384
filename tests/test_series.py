"""Coefficient layer: exact recurrence, sparsity, landmarks, the binary64
table, evaluation, the tail certificate of the one series order, and the
truncations at orders 1..64 that could stand in for it.

``python tests/test_series.py`` (with ``src`` on the path) prints the
binary64 table from the exact recurrence, the inverse's series from its
exact coefficients, and K from its root-finding, as
``src/dixonian/_tables.py`` holds them.
"""

import cmath
import math
import pathlib
import random
from fractions import Fraction

import pytest

from dixonian import SeriesPair, _tables, compute_K_root, eval_series, generate_series, identities, inverse, series, sm_cm
from dixonian.series import DEFAULT_ORDER, SERIES_EVAL_RADIUS, SERIES_TOL
from conftest import (
    LOWEST_USABLE_ORDER,
    MAX_TRUNCATION,
    assert_checks,
    assert_fact,
    horner_source,
    tail_bound,
    truncation,
    truncation_k,
    truncation_usable,
)

#: How far the certificate's exact coefficients run past DEFAULT_ORDER.
EXACT_ORDER = 2 * DEFAULT_ORDER


def test_initial_conditions():
    pair = generate_series()
    assert pair.s_coeffs[:2] == (Fraction(0), Fraction(1))
    assert pair.c_coeffs[:2] == (Fraction(1), Fraction(0))


def test_hand_derived_landmarks():
    pair = generate_series()
    assert pair.s_coeffs[4] == Fraction(-1, 6)
    assert pair.c_coeffs[3] == Fraction(-1, 3)
    assert pair.s_coeffs[7] == Fraction(2, 63)
    assert pair.c_coeffs[6] == Fraction(1, 18)


def test_factorial_form_landmarks():
    # sm(z) = z - 4 z^4/4! + 160 z^7/7! - ...
    pair = generate_series()
    assert pair.s_coeffs[4] == Fraction(-4, math.factorial(4))
    assert pair.s_coeffs[7] == Fraction(160, math.factorial(7))


def test_recurrence_exact():
    assert_checks("series_recurrence")


def test_mod3_sparsity():
    assert_checks("series_mod3_sparsity")


def test_all_rational():
    pair = generate_series()
    assert len(pair.s_coeffs) == len(pair.c_coeffs) == DEFAULT_ORDER + 1 == 49
    assert all(isinstance(a, Fraction) for a in pair.s_coeffs + pair.c_coeffs)


def test_deterministic():
    assert SeriesPair() == generate_series()
    assert SeriesPair()._horner is generate_series()._horner is _tables.horner_p


def test_pair_compared_by_value_and_unhashable():
    fresh = SeriesPair()
    assert fresh is not generate_series() and fresh == generate_series() and fresh.order == 48
    assert fresh != (fresh.s_coeffs, fresh.c_coeffs, 48)
    with pytest.raises(TypeError):
        hash(fresh)
    assert repr(fresh) == f"SeriesPair(s_coeffs={fresh.s_coeffs!r}, c_coeffs={fresh.c_coeffs!r}, order=48)"
    assert repr(fresh).startswith("SeriesPair(s_coeffs=(Fraction(0, 1), Fraction(1, 1), Fraction(0, 1), ")


def test_exact_coefficients_built_on_first_read():
    # evaluation reads only the binary64 table; the Fractions are built once
    fresh = SeriesPair()
    eval_series(fresh, 0.05 + 0.01j)
    assert "_exact" not in vars(fresh)
    assert fresh.s_coeffs == generate_series().s_coeffs and "_exact" in vars(fresh)
    assert fresh.c_coeffs is fresh.c_coeffs


def test_only_the_certified_pair_exists():
    # a pair of any other order would evaluate past the certificate (order 4
    # is off by 2.4e-4 at 0.5): no pair takes an order
    for order in (4, 200, -3, 48):
        with pytest.raises(TypeError):
            SeriesPair(order)


def test_order_bounds():
    # the one name that still takes an order, for the benchmark, accepts
    # only DEFAULT_ORDER
    for order in (-1, 0, 1, 4, 26, 27, 47, 49, 64, 65, 48.0, "48", True, None):
        with pytest.raises(ValueError, match=f"the series order is fixed at 48, got {order!r}"):
            generate_series(order)
    assert generate_series(48) is generate_series() and generate_series().order == DEFAULT_ORDER


# --- the binary64 table -------------------------------------------------------

def _rounded_recurrence():
    """P's coefficients through DEFAULT_ORDER, each exact coefficient of sm
    rounded to the nearest double."""
    return tuple(float(a) for a in generate_series().s_coeffs[1::3])


#: a_0 .. a_64: the terms of the inverse's series seed that ``_tables.py``
#: holds.
INVERSE_TERMS = 65


def _inverse_coefficients(count):
    """a_0 .. a_(count-1) of sm^-1(w) = sum a_n w^(3n+1), the exact
    (2/3)_n / (n! (3n+1)) of w 2F1(1/3, 2/3; 4/3; w^3)."""
    coeffs, rising = [], Fraction(1)
    for n in range(count):
        coeffs.append(rising / (3 * n + 1))
        rising *= (Fraction(2, 3) + n) / (n + 1)
    return coeffs


def _rounded_inverse():
    """a_0 .. a_64, each rounded to the nearest double."""
    return tuple(float(a) for a in _inverse_coefficients(INVERSE_TERMS))


def table_text():
    """The table's two tuples, K and the two Horner functions, as
    ``_tables.py`` writes them."""
    p = _rounded_recurrence()
    inv = _rounded_inverse()
    blocks = [
        "\n".join((f"{name} = (", *(f"    {v!r}," for v in values), ")"))
        for name, values in (("P_COEFFS", p), ("INVERSE_COEFFS", inv))
    ]
    blocks.append(f'K = float.fromhex("{compute_K_root().hex()}")')
    functions = (horner_source("horner_p", p=p), horner_source("horner_seed", a=inv))
    return "\n\n".join(blocks) + "\n\n\n" + "\n\n".join(functions)


def test_table_is_the_rounded_recurrence():
    p = _rounded_recurrence()
    assert len(p) == 16
    inv = _rounded_inverse()
    assert len(inv) == INVERSE_TERMS
    for table, want in ((_tables.P_COEFFS, p), (_tables.INVERSE_COEFFS, inv)):
        assert all(type(a) is float for a in table)
        assert [a.hex() for a in table] == [a.hex() for a in want]
    assert type(_tables.K) is float
    text = pathlib.Path(_tables.__file__).read_text()
    assert text.endswith("\n\n" + table_text())


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
        eval_series(generate_series(), 0.81)
    # a non-finite argument has no modulus inside the disc
    for z in (complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, math.nan)):
        with pytest.raises(ValueError, match="exceeds the series evaluation radius"):
            eval_series(generate_series(), z)


# --- the tail certificate, at the one order and at every truncation ---------

def _refused(order):
    """An order below LOWEST_USABLE_ORDER: its truncation could not stand in
    for the series, and generate_series refuses it as it refuses every
    order but DEFAULT_ORDER."""
    assert order < LOWEST_USABLE_ORDER and not truncation_usable(order)
    with pytest.raises(ValueError, match=f"the series order is fixed at 48, got {order}"):
        generate_series(order)


def _exact_past_order():
    """The exact coefficients of sm and cm through EXACT_ORDER."""
    s, c = series._recurrence(EXACT_ORDER)
    assert s[: DEFAULT_ORDER + 1] == generate_series().s_coeffs
    return s, c


@pytest.mark.parametrize("order", range(1, MAX_TRUNCATION + 1))
def test_packed_prefix_is_the_orders_rounded_coefficients(order):
    # each order's rounded coefficients and the table share their common
    # prefix: the table is the truncation at DEFAULT_ORDER
    pair = truncation(order)
    assert pair.s_coeffs == series._recurrence(order)[0]
    assert [a.hex() for a in pair.packed] == [float(a).hex() for a in pair.s_coeffs[1::3]]
    n = min(len(pair.packed), len(_tables.P_COEFFS))
    assert [a.hex() for a in pair.packed[:n]] == [a.hex() for a in _tables.P_COEFFS[:n]]
    if order == DEFAULT_ORDER:
        assert pair.packed == _tables.P_COEFFS


@pytest.mark.parametrize("order", range(1, MAX_TRUNCATION + 1))
def test_tail_bound_met_inside_eval_radius(order):
    # the certificate behind eval_series, which checks only |z|: the dropped
    # tail of sm's series stays within SERIES_TOL on the whole disc (the
    # bound grows with the radius, so its rim decides), at the one order and
    # at every order that could stand in for it
    if order < LOWEST_USABLE_ORDER:
        return _refused(order)
    r = SERIES_EVAL_RADIUS
    bounds = [tail_bound(truncation(order).packed, r * i / 8) for i in range(9)]
    assert bounds == sorted(bounds) and bounds[-1] <= SERIES_TOL
    # the bound covers the dropped terms that the exact coefficients through
    # EXACT_ORDER give at the rim
    s_exact = _exact_past_order()[0]
    dropped = sum(abs(a) * Fraction(r) ** n for n, a in enumerate(s_exact) if n > order)
    assert 0.0 < dropped <= bounds[-1]


TAIL_RADII = (0.0, 1e-5, 6.26e-5, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.5, 0.6, 0.7, 0.75, 0.8)


def _horner(coeffs, z):
    acc = 0j
    for a in reversed(coeffs):
        acc = acc * z + float(a)
    return acc


def test_tail_bound_holds_against_longer_series():
    # at every radius of the disc the bound meets SERIES_TOL, and the values
    # eval_series gives honour it against both series through EXACT_ORDER,
    # their coefficients rounded to doubles and summed by Horner: sm's, and
    # cm's, which the curve gives within |sm/cm|^2 <= 0.55 times sm's error
    s_exact, c_exact = _exact_past_order()
    pair = generate_series()
    for r in TAIL_RADII:
        bound = tail_bound(truncation(DEFAULT_ORDER).packed, r)
        assert bound <= SERIES_TOL
        for z in (complex(r, 0.0), cmath.rect(r, 0.7), complex(-0.0, -r)):
            got, want = eval_series(pair, z), (_horner(s_exact, z), _horner(c_exact, z))
            for a, b in zip(got, want):
                assert abs(a - b) <= bound + 4 * math.ulp(1.0)


@pytest.mark.parametrize("order", range(1, MAX_TRUNCATION + 1))
def test_cached_tail_bound_matches_per_call_fit(order):
    # the certificate is fitted on a fresh truncation; eval_series reads the
    # library's cached pair, which sums the same coefficients at
    # DEFAULT_ORDER. At every radius of the disc each usable order's bound
    # meets SERIES_TOL, and its values honour it against the longest
    # truncation
    if order < LOWEST_USABLE_ORDER:
        return _refused(order)
    assert truncation(DEFAULT_ORDER).packed == _tables.P_COEFFS
    pair = generate_series() if order == DEFAULT_ORDER else truncation(order)
    full = truncation(MAX_TRUNCATION)
    for r in TAIL_RADII:
        bound = tail_bound(truncation(order).packed, r)
        assert bound <= SERIES_TOL
        for z in (complex(r, 0.0), cmath.rect(r, 0.7), complex(-0.0, -r)):
            got, want = eval_series(pair, z), eval_series(full, z)
            for a, b in zip(got, want):
                assert abs(a - b) <= bound + 4 * math.ulp(1.0)


@pytest.mark.parametrize("order", range(1, MAX_TRUNCATION + 1))
def test_eval_radius_is_largest_that_meets_tol(order):
    # every usable order evaluates on the one SERIES_EVAL_RADIUS disc, out
    # to its rim, and the kernel's halvings bring the cell (|z| < 4.6) inside
    if order < LOWEST_USABLE_ORDER:
        return _refused(order)
    r = SERIES_EVAL_RADIUS
    assert tail_bound(truncation(order).packed, r) <= SERIES_TOL
    eval_series(truncation(order), cmath.rect(r, 0.7))
    if order == DEFAULT_ORDER:
        eval_series(generate_series(), cmath.rect(r, 0.7))
        # the rule: the largest radius of one decimal digit on which the
        # one order's tail meets SERIES_TOL; the exact edge lies at 0.812
        packed = truncation(order).packed
        assert tail_bound(packed, 0.812) <= SERIES_TOL < tail_bound(packed, 0.813)
        assert r == 0.8 and tail_bound(packed, 0.9) > SERIES_TOL
        # on the disc |sm^3| < 1, so the principal cube root of 1 - sm^3 is cm
        rim = [z for z in (cmath.rect(r, math.pi * i / 360) for i in range(720)) if abs(z) <= r]
        assert len(rim) > 360
        assert max(abs(eval_series(generate_series(), z)[0]) ** 3 for z in rim) <= 0.68
    # the cell needs three halvings
    assert 4.6 / 2 ** 3 <= r < 4.6 / 2 ** 2


@pytest.mark.parametrize("order", [1, 4, 20, 27, 48, 64])
def test_eval_series_checks_outside_shortcut(order):
    # eval_series checks only that |z| lies in the disc, whatever the pair
    pair = generate_series() if order == DEFAULT_ORDER else truncation(order)
    eval_series(pair, SERIES_EVAL_RADIUS)
    for z in (math.nextafter(SERIES_EVAL_RADIUS, 1.0), 0.81j, -0.9, complex(math.nan, 0.0)):
        with pytest.raises(ValueError, match="exceeds the series evaluation radius"):
            eval_series(pair, z)


def test_tail_bound_rejects_small_order():
    # order 4 drops terms far above SERIES_TOL on the disc, and is refused
    assert tail_bound(truncation(4).packed, SERIES_EVAL_RADIUS) > SERIES_TOL
    _refused(4)


def test_small_order_ok_near_zero():
    # near 0 the smallest usable truncation and the one order agree to the
    # last bits
    s, c = eval_series(truncation(LOWEST_USABLE_ORDER), 0.05)
    s48, c48 = eval_series(generate_series(), 0.05)
    assert abs(s - s48) <= 1e-16 and abs(c - c48) <= 1e-16


def test_min_order_is_derived():
    # LOWEST_USABLE_ORDER is the smallest order from which every truncation
    # root-finds the tabulated K to the bit and meets SERIES_TOL on the disc;
    # DEFAULT_ORDER is among them, and sums the same terms of sm as the
    # lowest: sm has no terms of z**47 or z**48
    k = _tables.K.hex()
    assert k == "0x1.c4426fe852836p+0" == compute_K_root().hex()
    assert all(truncation_usable(order) for order in range(LOWEST_USABLE_ORDER, MAX_TRUNCATION + 1))
    assert LOWEST_USABLE_ORDER <= DEFAULT_ORDER <= MAX_TRUNCATION
    assert truncation(LOWEST_USABLE_ORDER).packed == _tables.P_COEFFS
    # the order below drops the term of z**46, 5.6e-16 at the rim
    below = LOWEST_USABLE_ORDER - 1
    assert 5e-16 < tail_bound(truncation(below).packed, SERIES_EVAL_RADIUS)
    assert not truncation_usable(below)


def test_inverse_seed_radius_is_derived():
    # SERIES_SEED_RADIUS lies inside the largest disc, 0.854 to three digits,
    # on which the terms the inverse's series seed drops past a_64 sum to at
    # most 2^-53, binary64's unit roundoff.
    # a_(n+1) / a_n = (3n+1)(3n+2) / ((3n+3)(3n+4)) < 1 for every n, so the
    # dropped terms sum to at most a_65 x^65 / (1 - x) at x = |w|^3
    a = _inverse_coefficients(INVERSE_TERMS + 1)
    for n in range(INVERSE_TERMS):
        assert a[n + 1] / a[n] == Fraction((3 * n + 1) * (3 * n + 2), (3 * n + 3) * (3 * n + 4)) < 1

    def tail(radius):
        x = Fraction(radius) ** 3
        return a[INVERSE_TERMS] * x ** INVERSE_TERMS / (1 - x)

    roundoff = Fraction(1, 2 ** 53)
    assert tail(inverse.SERIES_SEED_RADIUS) <= tail(0.854) <= roundoff < tail(0.855)
    assert len(_tables.INVERSE_COEFFS) == INVERSE_TERMS


def test_generated_seed_is_the_loop():
    # the inverse's series seed, _tables.horner_seed, is the Horner loop over
    # a_64..a_0 from 0j written out: the same bits on the seeded disc, on
    # its rim and at the signed zeros
    def loop(u):
        acc = 0j
        for a in reversed(_tables.INVERSE_COEFFS):
            acc = acc * u + a
        return acc

    rng = random.Random(10)
    r = inverse.SERIES_SEED_RADIUS
    ws = [cmath.rect(rng.uniform(0, r), rng.uniform(0, 2 * math.pi)) for _ in range(2000)]
    ws += [cmath.rect(r, 2 * math.pi * i / 60) for i in range(60)]
    ws += [complex(r, -0.0), complex(-r, -0.0), complex(-0.0, r), complex(0.0, -r), complex(-r / 2, -0.0)]
    ws += [complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0)]
    for w in ws:
        u = w * w * w
        assert repr(_tables.horner_seed(u)) == repr(loop(u)), w


def test_generated_horner_is_the_loop_over_its_steps():
    # every pair's _horner, the library's and each truncation's, is the loop
    # over its P coefficients written out, to the bit, on the disc, on its
    # rim and at the signed zeros
    def loop(coeffs, u):
        acc = 0j
        for a in reversed(coeffs):
            acc = acc * u + a
        return acc

    rng = random.Random(11)
    r = SERIES_EVAL_RADIUS
    zs = [cmath.rect(rng.uniform(0, r), rng.uniform(0, 2 * math.pi)) for _ in range(300)]
    zs += [cmath.rect(r, 2 * math.pi * i / 24) for i in range(24)]
    zs += [complex(-r, -0.0), complex(-0.0, r / 3), *(complex(a, b) for a in (0.0, -0.0) for b in (0.0, -0.0))]
    assert generate_series()._horner is _tables.horner_p
    pairs = [(generate_series(), _tables.P_COEFFS)]
    pairs += [(truncation(order), truncation(order).packed) for order in range(1, MAX_TRUNCATION + 1)]
    for pair, coeffs in pairs:
        for z in zs:
            u = z * z * z
            assert repr(pair._horner(u)) == repr(loop(coeffs, u)), (pair.order, z)


def test_default_order_keeps_half_disc(monkeypatch):
    # the kernel duplicates as often as it halved: once at the K
    # root-finder's bracket end 1.5 and twice at 2.0, never inside the 0.8
    # disc, where it makes no call and returns the series' values, and once
    # just past its rim
    times = []
    duplicate_values = identities.duplicate_values

    def counting(s, c, k):
        times.append(k)
        return duplicate_values(s, c, k)

    monkeypatch.setattr(identities, "duplicate_values", counting)
    for z, want in ((1.5, [1]), (2.0, [2]), (0.8, []), (0.0, []), (math.nextafter(0.8, 1.0), [1])):
        times.clear()
        s, c = sm_cm(z)
        assert times == want, z
        if not want:
            assert repr((s.value, c.value)) == repr(eval_series(generate_series(), z)), z


def test_generated_once_per_order():
    assert generate_series() is generate_series() is generate_series(DEFAULT_ORDER)


def test_fused_horner_matches_separate_recurrences():
    # sm is P's Horner loop from a complex zero start, to the bit; cm, read
    # off the curve, is within 2 ulp of 1 of Q's loop over cm's own
    # coefficients rounded to doubles (|cm| lies in [0.84, 1.2] on the disc)
    def horner(coeffs, u):
        acc = complex(0.0)
        for a in reversed(coeffs):
            acc = acc * u + a
        return acc

    rng = random.Random(9)
    pair = generate_series()
    q = [float(a) for a in pair.c_coeffs[0::3]]
    r = SERIES_EVAL_RADIUS
    pts = [cmath.rect(rng.uniform(0, r), rng.uniform(0, 2 * math.pi)) for _ in range(2000)]
    pts += [complex(-r / 2, -0.0), complex(-0.0, r / 3), complex(-0.0, -0.0), 0j, complex(r, 0.0), complex(-r, 0.0)]
    for z in pts:
        u = z * z * z
        s, c = eval_series(pair, z)
        assert repr(s) == repr(horner(_tables.P_COEFFS, u) * z), z
        assert abs(c - horner(q, u)) <= 2 * math.ulp(1.0), z


def test_sparse_recurrence_matches_dense():
    # the full convolutions, zero products included, through EXACT_ORDER;
    # the pair's coefficients are their prefix
    s = [Fraction(0)] * (EXACT_ORDER + 1)
    c = [Fraction(0)] * (EXACT_ORDER + 1)
    c[0] = Fraction(1)
    for n in range(EXACT_ORDER):
        cc = sum(c[k] * c[n - k] for k in range(n + 1))
        ss = sum(s[k] * s[n - k] for k in range(n + 1))
        s[n + 1] = cc / (n + 1)
        c[n + 1] = -ss / (n + 1)
    assert series._recurrence(EXACT_ORDER) == (tuple(s), tuple(c))
    pair = generate_series()
    assert pair.s_coeffs == tuple(s[: DEFAULT_ORDER + 1])
    assert pair.c_coeffs == tuple(c[: DEFAULT_ORDER + 1])
    assert all(type(a) is Fraction for a in pair.s_coeffs + pair.c_coeffs)


if __name__ == "__main__":
    print(table_text(), end="")
