"""Identity layer: addition, duplication, triplication, translation, bridge."""

import pytest

from dixonian import (
    DegenerateDenominatorError,
    FunctionPair,
    WeierstrassValue,
    add,
    duplicate,
    from_weierstrass,
    to_weierstrass,
    translate_2K,
    triplicate,
)
from conftest import CONSTS, K, assert_fact, values


def pair_at(z):
    return FunctionPair(*values(z))


# --- addition -----------------------------------------------------------------

def test_add_identity_element():
    zero = FunctionPair(0.0, 1.0)
    p = pair_at(0.4 + 0.3j)
    q = add(zero, p)
    assert abs(q.s - p.s) <= 1e-14
    assert abs(q.c - p.c) <= 1e-14


def test_add_half_k_twice():
    p = pair_at(K / 2.0)
    q = add(p, p)
    assert abs(q.s - 1.0) <= 1e-10
    assert abs(q.c) <= 1e-10


def test_add_matches_evaluator():
    assert_pair_close(add(pair_at(0.3), pair_at(0.4)), values(0.7), 1e-10)
    assert_fact("addition_formula", 31, 200)


def test_add_degenerate():
    with pytest.raises(DegenerateDenominatorError):
        add(FunctionPair(0.0, 1.0), FunctionPair(1.0, 1e-9))


# --- duplication ----------------------------------------------------------------

def test_duplicate_origin():
    q = duplicate(FunctionPair(0.0, 1.0))
    assert q.s == 0 and q.c == 1


def test_duplicate_quarter_pole():
    # -K/4 doubles to -K/2 where sm = -1 (the cube of sm(-K/4) solves the
    # quartic 1 + 10x - 12x^2 + 4x^3 - 2x^4 = 0)
    q = duplicate(pair_at(-K / 4.0))
    assert abs(q.s + 1.0) <= 1e-8


def test_duplicate_matches_evaluator():
    assert_pair_close(duplicate(pair_at(0.3)), values(0.6), 1e-10)


def test_duplicate_equals_self_addition():
    assert_fact("duplication_consistency", 32, 200)


def test_duplicate_degenerate_at_half_pole():
    with pytest.raises(DegenerateDenominatorError):
        duplicate(pair_at(-K / 2.0))


# --- triplication ----------------------------------------------------------------

def test_triplicate_origin():
    q = triplicate(FunctionPair(0.0, 1.0))
    assert q.s == 0 and q.c == 1


def test_triplicate_third_of_k():
    q = triplicate(pair_at(K / 3.0))
    assert abs(q.s - 1.0) <= 1e-9
    assert abs(q.c) <= 1e-9


def test_triplicate_matches_evaluator_and_addition():
    p = pair_at(0.2)
    t = triplicate(p)
    assert_pair_close(t, values(0.6), 1e-10)
    via = add(duplicate(p), p)
    assert abs(t.s - via.s) <= 1e-10
    assert abs(t.c - via.c) <= 1e-10


def test_triplicate_consistency_random():
    assert_fact("triplication_consistency", 33, 200)


def test_triplicate_degenerate():
    with pytest.raises(DegenerateDenominatorError):
        triplicate(pair_at(-K / 3.0))


# --- 2K translation ---------------------------------------------------------------

def test_translate_closes_period():
    q = translate_2K(FunctionPair(1.0, 0.0))  # pair at K -> pair at 3K = origin
    assert q.s == 0 and q.c == 1


def test_translate_matches_evaluator():
    assert_pair_close(translate_2K(pair_at(K / 2.0)), values(2.0 * K + K / 2.0), 1e-10)
    assert_pair_close(translate_2K(pair_at(-K / 2.0)), values(1.5 * K), 1e-10)


def test_translate_degenerate_at_zero():
    with pytest.raises(DegenerateDenominatorError):
        translate_2K(FunctionPair(0.0, 1.0))


# --- Weierstrass bridge --------------------------------------------------------------

def test_weierstrass_at_k():
    w = to_weierstrass(FunctionPair(1.0, 0.0))
    assert abs(w.p - 1.0 / 3.0) <= 1e-15
    assert abs(w.p_prime + 1.0 / 3.0) <= 1e-15
    assert abs(27.0 * (w.p_prime ** 2 - 4.0 * w.p ** 3) + 1.0) <= 1e-12


def test_weierstrass_zero_of_sm():
    w = to_weierstrass(pair_at(CONSTS.zero_reps[1]))
    assert abs(w.p) <= 1e-10


def test_weierstrass_ode_residual():
    w = to_weierstrass(pair_at(0.7))
    assert abs(w.p_prime ** 2 - 4.0 * w.p ** 3 + 1.0 / 27.0) <= 1e-10


def test_weierstrass_roundtrip():
    p = pair_at(0.6)
    back = from_weierstrass(to_weierstrass(p))
    assert abs(back.s - p.s) <= 1e-10
    assert abs(back.c - p.c) <= 1e-10


def test_weierstrass_random():
    assert_fact("weierstrass_bridge", 34, 200)


def test_from_weierstrass_inverts_cardinal():
    p = from_weierstrass(WeierstrassValue(1.0 / 3.0, -1.0 / 3.0))
    assert abs(p.c) <= 1e-15
    assert abs(p.s - 1.0) <= 1e-15


def test_from_weierstrass_degenerate():
    with pytest.raises(DegenerateDenominatorError):
        from_weierstrass(WeierstrassValue(0.0, 1.0 / 3.0))


def test_to_weierstrass_degenerate_near_origin():
    with pytest.raises(DegenerateDenominatorError):
        to_weierstrass(pair_at(1e-4))


# helper ------------------------------------------------------------------------

def assert_pair_close(pair, sc, tol):
    s, c = sc
    assert abs(pair.s - s) <= tol
    assert abs(pair.c - c) <= tol
