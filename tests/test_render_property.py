"""Property tests (skipped without hypothesis): sampled grids against the
one-point API, every pixel, summed or not, within the grid tests' bound and
every pole where the one-point API reports it; and the PPM encoder against
its colorsys reference on rows of arbitrary finite values and poles."""

import math
import sys

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, settings, strategies as st

from dixonian import EllipticValue, Region, ValueGrid, domain_color, sample_grid
from dixonian.render import ZERO_CLIP
from conftest import CONSTS, W1, W2
from test_render import STEP_BOUND, _bits, _one_point, _reference_ppm

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
        want = _one_point(selector, z)
        if want.value is None or got.value is None:
            assert _bits(got) == _bits(want), (region, selector, z)
        else:
            assert abs(got.value - want.value) <= STEP_BOUND * max(1.0, abs(want.value)), (region, selector, z)


def _ulps(x, k):
    """x moved k doubles up (k > 0) or down."""
    for _ in range(abs(k)):
        x = math.nextafter(x, math.copysign(math.inf, k))
    return x


def _polar(mags):
    """Values of the drawn magnitudes in every direction."""
    return st.builds(lambda mag, angle: complex(mag * math.cos(angle), mag * math.sin(angle)),
                     mags, st.floats(-math.pi, math.pi))


#: parts of every scale: hypothesis's floats reach +-0, subnormals and the
#: largest double, where the modulus is above it
PARTS = st.floats(-sys.float_info.max, sys.float_info.max)
#: on an axis, within a few ulps of ZERO_CLIP, the black clip
NEAR_CLIP = st.builds(lambda k, unit: unit * _ulps(ZERO_CLIP, k), st.integers(-3, 3), st.sampled_from([1, -1, 1j, -1j]))
VALUES = st.one_of(
    st.builds(complex, PARTS, PARTS),
    _polar(st.floats(-12.0, 308.0).map(lambda e: 10.0 ** e)),
    NEAR_CLIP,
    # magnitudes either side of 1.1768, where the lightness crosses 0.5
    _polar(st.floats(1.16, 1.19)),
).map(EllipticValue.finite)
PIXELS = st.one_of(VALUES, VALUES, VALUES, st.sampled_from([EllipticValue.pole(p) for p in CONSTS.pole_reps]))


@settings(max_examples=300, deadline=None)
@given(st.lists(PIXELS, min_size=1, max_size=40))
def test_domain_color_matches_colorsys(pixels):
    grid = ValueGrid(Region(0j, 1.0, 1.0, len(pixels), 1), pixels)
    assert domain_color(grid) == _reference_ppm(grid)
