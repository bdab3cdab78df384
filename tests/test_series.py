"""Coefficient layer: exact recurrence, sparsity, landmarks, the binary64
table, evaluation.

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

from dixonian import _tables, compute_K_root, eval_series, generate_series, identities, inverse, series, sm_cm
from dixonian.series import DEFAULT_ORDER, MAX_ORDER, MIN_ORDER, SERIES_EVAL_RADIUS, SERIES_TOL
from conftest import assert_checks, assert_fact


def test_initial_conditions():
    pair = generate_series(MIN_ORDER)
    assert pair.s_coeffs[:2] == (Fraction(0), Fraction(1))
    assert pair.c_coeffs[:2] == (Fraction(1), Fraction(0))


def test_hand_derived_landmarks():
    pair = generate_series(MIN_ORDER)
    assert pair.s_coeffs[4] == Fraction(-1, 6)
    assert pair.c_coeffs[3] == Fraction(-1, 3)
    assert pair.s_coeffs[7] == Fraction(2, 63)
    assert pair.c_coeffs[6] == Fraction(1, 18)


def test_factorial_form_landmarks():
    # sm(z) = z - 4 z^4/4! + 160 z^7/7! - ...
    pair = generate_series(MIN_ORDER)
    assert pair.s_coeffs[4] == Fraction(-4, math.factorial(4))
    assert pair.s_coeffs[7] == Fraction(160, math.factorial(7))


def test_recurrence_exact():
    assert_checks("series_recurrence")


def test_mod3_sparsity():
    assert_checks("series_mod3_sparsity")


def test_all_rational():
    pair = generate_series(MIN_ORDER)
    assert all(isinstance(a, Fraction) for a in pair.s_coeffs + pair.c_coeffs)


def test_deterministic():
    assert generate_series(MIN_ORDER) == generate_series(MIN_ORDER)


def test_pair_compared_by_value_and_unhashable():
    fresh = series._generate.__wrapped__(30)
    assert fresh is not generate_series(30) and fresh == generate_series(30)
    assert fresh != generate_series(31) and fresh != (fresh.s_coeffs, fresh.c_coeffs, 30)
    with pytest.raises(TypeError):
        hash(fresh)
    assert repr(fresh) == f"SeriesPair(s_coeffs={fresh.s_coeffs!r}, c_coeffs={fresh.c_coeffs!r}, order=30)"
    assert repr(fresh).startswith("SeriesPair(s_coeffs=(Fraction(0, 1), Fraction(1, 1), Fraction(0, 1), ")


def test_exact_coefficients_built_on_first_read():
    # evaluation reads only the binary64 table; the Fractions are built once
    fresh = series._generate.__wrapped__(40)
    eval_series(fresh, 0.05 + 0.01j)
    assert "_exact" not in vars(fresh)
    assert fresh.s_coeffs == generate_series(40).s_coeffs and "_exact" in vars(fresh)
    assert fresh.c_coeffs is fresh.c_coeffs


# --- the binary64 table -------------------------------------------------------

def _rounded_recurrence():
    """P's and Q's coefficients through MAX_ORDER, each exact coefficient
    rounded to the nearest double."""
    pair = generate_series(MAX_ORDER)
    return tuple(float(a) for a in pair.s_coeffs[1::3]), tuple(float(a) for a in pair.c_coeffs[0::3])


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
    """The table's three tuples and K, as ``_tables.py`` writes them."""
    names = ("P_COEFFS", "Q_COEFFS", "INVERSE_COEFFS")
    blocks = [
        "\n".join((f"{name} = (", *(f"    {v!r}," for v in values), ")"))
        for name, values in zip(names, (*_rounded_recurrence(), _rounded_inverse()))
    ]
    blocks.append(f'K = float.fromhex("{compute_K_root(DEFAULT_ORDER).hex()}")')
    return "\n\n".join(blocks) + "\n"


def test_table_is_the_rounded_recurrence():
    p, q = _rounded_recurrence()
    assert len(p) == len(q) == 22
    inv = _rounded_inverse()
    assert len(inv) == INVERSE_TERMS
    for table, want in ((_tables.P_COEFFS, p), (_tables.Q_COEFFS, q), (_tables.INVERSE_COEFFS, inv)):
        assert all(type(a) is float for a in table)
        assert [a.hex() for a in table] == [a.hex() for a in want]
    assert type(_tables.K) is float
    text = pathlib.Path(_tables.__file__).read_text()
    assert text.endswith("\n\n" + table_text())


def _refused(order):
    """Order below MIN_ORDER: generate_series raises ValueError."""
    assert order < MIN_ORDER
    with pytest.raises(ValueError, match=f"series order must be in {MIN_ORDER}..{MAX_ORDER}, got {order}"):
        generate_series(order)


@pytest.mark.parametrize("order", range(1, MAX_ORDER + 1))
def test_packed_prefix_is_the_orders_rounded_coefficients(order):
    if order < MIN_ORDER:
        return _refused(order)
    pair = generate_series(order)
    assert [a.hex() for a in pair._s_packed] == [float(a).hex() for a in pair.s_coeffs[1::3]]
    assert [a.hex() for a in pair._c_packed] == [float(a).hex() for a in pair.c_coeffs[0::3]]


def test_order_bounds():
    for order in (-1, 0, 1, MIN_ORDER - 1, MAX_ORDER + 1):
        with pytest.raises(ValueError):
            generate_series(order)
    assert generate_series(MIN_ORDER).order == MIN_ORDER


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
    for order in (MIN_ORDER, DEFAULT_ORDER):
        for z in (complex(math.nan, 0.0), complex(0.0, math.nan), complex(math.inf, math.nan)):
            with pytest.raises(ValueError, match="exceeds the series evaluation radius"):
                eval_series(generate_series(order), z)


def test_tail_bound_rejects_small_order():
    # order 4 drops terms far above SERIES_TOL on the disc, and is refused
    assert tail_bound(4, SERIES_EVAL_RADIUS) > SERIES_TOL
    _refused(4)


def test_small_order_ok_near_zero():
    s, c = eval_series(generate_series(MIN_ORDER), 0.05)
    s48, c48 = eval_series(generate_series(), 0.05)
    assert abs(s - s48) <= 1e-16 and abs(c - c48) <= 1e-16


# --- one series disc and one K for every accepted order ----------------------

def tail_bound(order, r):
    """Bound on the terms of sm and cm that the order drops, at radius r.

    Each series' last kept term times the geometric sum x + x^2 + ... of the
    decay per power of z**3 between its last two kept terms, with a 2x guard.
    Built from the binary64 table, none of whose entries is zero.
    """
    pair = series.SeriesPair(order)
    bound = 0.0
    for packed, offset in ((pair._s_packed, 1), (pair._c_packed, 0)):
        last = len(packed) - 1
        x = abs(packed[last] / packed[last - 1]) * r ** 3
        assert x < 1.0
        bound = max(bound, 2.0 * abs(packed[last]) * r ** (3 * last + offset) * x / (1.0 - x))
    return bound


@pytest.mark.parametrize("order", range(1, MAX_ORDER + 1))
def test_tail_bound_met_inside_eval_radius(order):
    # the certificate behind eval_series, which checks only |z|: at every
    # accepted order the dropped tail stays within SERIES_TOL on the whole
    # disc (the bound grows with the radius, so its rim decides)
    if order < MIN_ORDER:
        return _refused(order)
    bounds = [tail_bound(order, SERIES_EVAL_RADIUS * i / 8) for i in range(9)]
    assert bounds == sorted(bounds) and bounds[-1] <= SERIES_TOL
    # the bound covers the dropped terms that the exact coefficients through
    # MAX_ORDER give at the rim
    full = generate_series(MAX_ORDER)
    for coeffs in (full.s_coeffs, full.c_coeffs):
        dropped = sum(abs(a) / 2 ** n for n, a in enumerate(coeffs) if n > order)
        assert dropped <= bounds[-1]


TAIL_RADII = (0.0, 1e-5, 6.26e-5, 1e-3, 0.01, 0.05, 0.1, 0.2, 0.3, 0.4, 0.45, 0.5)


@pytest.mark.parametrize("order", range(1, MAX_ORDER + 1))
def test_cached_tail_bound_matches_per_call_fit(order):
    # the certificate is fitted on a fresh pair; eval_series reads the cached
    # one, which must carry the same table. At every radius of the disc the
    # bound meets SERIES_TOL and the cached pair's values honour it against
    # the longest series
    if order < MIN_ORDER:
        return _refused(order)
    cached, fresh = generate_series(order), series.SeriesPair(order)
    assert cached._s_packed == fresh._s_packed and cached._c_packed == fresh._c_packed
    full = generate_series(MAX_ORDER)
    for r in TAIL_RADII:
        bound = tail_bound(order, r)
        assert bound <= SERIES_TOL
        for z in (complex(r, 0.0), cmath.rect(r, 0.7), complex(-0.0, -r)):
            got, want = eval_series(cached, z), eval_series(full, z)
            for a, b in zip(got, want):
                assert abs(a - b) <= bound + 4 * math.ulp(1.0)


@pytest.mark.parametrize("order", range(1, MAX_ORDER + 1))
def test_eval_radius_is_largest_that_meets_tol(order):
    # every accepted order evaluates on the one SERIES_EVAL_RADIUS disc, out
    # to its rim, and the kernel's halvings bring the cell (|z| < 4.6) inside
    if order < MIN_ORDER:
        return _refused(order)
    pair = generate_series(order)
    r = SERIES_EVAL_RADIUS
    assert tail_bound(order, r) <= SERIES_TOL
    eval_series(pair, cmath.rect(r, 0.7))
    # the cell needs four halvings
    assert 4.6 / 2 ** 4 <= r < 4.6 / 2 ** 3


@pytest.mark.parametrize("order", [1, 4, 20, 27, 48, 64])
def test_eval_series_checks_outside_shortcut(order):
    # eval_series checks only that |z| lies in the disc; the orders that
    # could not meet SERIES_TOL on it are refused before any pair exists
    if order < MIN_ORDER:
        return _refused(order)
    pair = generate_series(order)
    eval_series(pair, SERIES_EVAL_RADIUS)
    for z in (math.nextafter(SERIES_EVAL_RADIUS, 1.0), 0.51j, -0.6, complex(math.nan, 0.0)):
        with pytest.raises(ValueError, match="exceeds the series evaluation radius"):
            eval_series(pair, z)


def test_min_order_is_derived(monkeypatch):
    # MIN_ORDER is the smallest order from which every order root-finds the
    # tabulated K to the bit and meets SERIES_TOL on the disc
    k = _tables.K.hex()
    assert k == "0x1.c4426fe852836p+0"

    def shares_k_and_disc(order):
        return compute_K_root(order).hex() == k and tail_bound(order, SERIES_EVAL_RADIUS) <= SERIES_TOL

    assert all(shares_k_and_disc(order) for order in range(MIN_ORDER, MAX_ORDER + 1))
    # the order below is refused; an unchecked pair shows why: its tail
    # still meets the disc, but its K is one ulp off
    monkeypatch.setattr(series, "generate_series", series.SeriesPair)
    assert tail_bound(MIN_ORDER - 1, SERIES_EVAL_RADIUS) <= SERIES_TOL
    assert compute_K_root(MIN_ORDER - 1).hex() == "0x1.c4426fe852837p+0"
    assert not shares_k_and_disc(MIN_ORDER - 1)


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


def test_default_order_keeps_half_disc(monkeypatch):
    # the kernel duplicates as often as it halved: twice over the K
    # root-finder's bracket (1.5, 2.0), never inside the disc, and once just
    # past its rim
    times = []
    duplicate_values = identities.duplicate_values

    def counting(s, c, k):
        times.append(k)
        return duplicate_values(s, c, k)

    monkeypatch.setattr(identities, "duplicate_values", counting)
    for z in (1.5, 2.0, 0.5, 0.0, math.nextafter(0.5, 1.0)):
        sm_cm(z)
    assert times == [2, 2, 0, 0, 1]


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
    for order in (MIN_ORDER, 28, 29, 47, 48, 49, 64):
        pair = generate_series(order)
        r = SERIES_EVAL_RADIUS
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
    for order in range(MIN_ORDER, MAX_ORDER + 1):
        pair = generate_series(order)
        assert pair.s_coeffs == tuple(s[: order + 1])
        assert pair.c_coeffs == tuple(c[: order + 1])
        assert all(type(a) is Fraction for a in pair.s_coeffs + pair.c_coeffs)


if __name__ == "__main__":
    print(table_text(), end="")
