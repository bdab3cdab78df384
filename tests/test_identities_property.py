"""Property tests of the identity layer over the plane (skipped without
hypothesis): ``add``, ``duplicate``, ``triplicate`` and ``translate_2K``
against ``sm_cm`` at the summed, doubled, tripled and shifted argument, and
``to_weierstrass`` followed by ``from_weierstrass`` as a round trip.

Every point, argument or target, lies at least MARGIN from the poles, and a
point where a map's denominator is below MARGIN is skipped, as the selftest
does. Each value is held within BOUND * max(1, |v|) of the evaluator's."""

import pytest

pytest.importorskip("hypothesis")
from hypothesis import assume, given, settings, strategies as st

from dixonian import (
    FunctionPair,
    add,
    duplicate,
    from_weierstrass,
    reduce_to_fundamental,
    to_weierstrass,
    translate_2K,
    triplicate,
)
from conftest import CONSTS, K, values

#: Distance kept from the poles, and the smallest denominator a map is given.
MARGIN = 0.05
#: The one bound, relative to max(1, |v|). The worst seen over 100000 seeded
#: draws of this domain, the poles' margins included, is 3.2e-13.
BOUND = 1e-11

#: a point with |z| <= 50
POINTS = st.tuples(st.floats(-50.0, 50.0), st.floats(-50.0, 50.0)).map(lambda t: complex(*t)).filter(
    lambda z: abs(z) <= 50.0
)


def pair_off_poles(z):
    """(sm, cm) at z as a FunctionPair; the example is skipped unless z lies
    at least MARGIN from every pole."""
    zr = reduce_to_fundamental(z).z_reduced
    assume(min(abs(zr - p) for p in CONSTS.pole_reps) >= MARGIN)
    return FunctionPair(*values(z))


def assert_close(got, z, want):
    for g, w in zip(got, want):
        assert abs(g - w) <= BOUND * max(1.0, abs(w)), (z, got, want)


@settings(max_examples=300, deadline=None)
@given(POINTS, POINTS)
def test_add_matches_sm_cm(z, w):
    a, b = pair_off_poles(z), pair_off_poles(w)
    want = pair_off_poles(z + w)
    assume(abs(a.s * a.c * b.s * b.s + b.c) >= MARGIN)
    assert_close(add(a, b), (z, w), want)


@settings(max_examples=300, deadline=None)
@given(POINTS)
def test_duplicate_matches_sm_cm(z):
    p, want = pair_off_poles(z), pair_off_poles(2.0 * z)
    assume(abs(p.c * (1.0 + p.s ** 3)) >= MARGIN)
    assert_close(duplicate(p), z, want)


@settings(max_examples=300, deadline=None)
@given(POINTS)
def test_triplicate_matches_sm_cm(z):
    p, want = pair_off_poles(z), pair_off_poles(3.0 * z)
    s3, c3 = p.s ** 3, p.c ** 3
    assume(abs(c3 - s3 * s3 + 3.0 * s3 * c3 + s3 * c3 * c3) >= MARGIN)
    assert_close(triplicate(p), z, want)


@settings(max_examples=300, deadline=None)
@given(POINTS)
def test_translate_2K_matches_sm_cm(z):
    p, want = pair_off_poles(z), pair_off_poles(z + 2.0 * K)
    assume(abs(p.s) >= MARGIN)
    assert_close(translate_2K(p), z, want)


@settings(max_examples=300, deadline=None)
@given(POINTS)
def test_weierstrass_round_trip(z):
    p = pair_off_poles(z)
    assume(abs(1.0 - p.c) >= MARGIN)
    w = to_weierstrass(p)
    assume(abs(3.0 * w.p_prime - 1.0) >= MARGIN)
    assert_close(from_weierstrass(w), z, p)
