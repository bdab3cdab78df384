"""Property test of sampled grids against the one-point API (skipped without
hypothesis): every pixel, summed or not, within the grid tests' bound, and
every pole where the one-point API reports it."""

import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from dixonian import Region, sample_grid
from conftest import CONSTS, W1, W2
from test_render import STEP_BOUND, _bits, _one_point

#: a side of 1e-4 to 20, log-uniform
SIDES = st.floats(-4.0, math.log10(20.0)).map(lambda e: 10.0 ** e)
#: a centre within 60 of 0, so that every corner lies within 70 ...
FREE = st.tuples(st.floats(-60.0, 60.0), st.floats(-60.0, 60.0)).map(lambda t: complex(*t))
#: ... or, for a third of the regions, within 0.01 of a pole copy
NEAR_POLE = st.builds(
    lambda j, m, n, dx, dy: CONSTS.pole_reps[j] + m * W1 + n * W2 + complex(dx, dy),
    st.integers(0, 2), st.integers(-10, 10), st.integers(-7, 7),
    st.floats(-0.01, 0.01), st.floats(-0.01, 0.01),
).filter(lambda z: abs(z.real) <= 60.0 and abs(z.imag) <= 60.0)
CENTRES = st.one_of(FREE, FREE, NEAR_POLE)


@settings(max_examples=300, deadline=None)
@given(CENTRES, SIDES, SIDES, st.integers(1, 12), st.integers(1, 12), st.sampled_from(["sm", "cm", "wp"]))
def test_grid_pixels_match_one_point_api(center, width, height, nx, ny, selector):
    region = Region(center, width, height, nx, ny)
    grid = sample_grid(region, selector)
    xs, ys = region.xs(), region.ys()
    for z, got in zip((complex(x, y) for y in ys for x in xs), grid.values):
        want = _one_point(selector, z, 48)
        if want.value is None or got.value is None:
            assert _bits(got) == _bits(want), (region, selector, z)
        else:
            assert abs(got.value - want.value) <= STEP_BOUND * max(1.0, abs(want.value)), (region, selector, z)
