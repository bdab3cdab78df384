"""Render layer: grid sampling, PPM coloring, CSV dump, determinism."""

import colorsys
import gc
import io
import math
import pickle
import re
import sys
import tracemalloc

import pytest

from dixonian import (
    EllipticValue,
    PoleError,
    Region,
    ValueGrid,
    cm,
    domain_color,
    grid_to_csv,
    reduce_to_fundamental,
    render,
    sample_grid,
    sm,
    sm_cm,
    sm_cm_values,
    wp,
    write_grid,
)
from dixonian.render import ZERO_CLIP, _rgb_row
from conftest import CONSTS, K, W1, W2, kernel_calls, kernel_pixels


def test_region_validation():
    with pytest.raises(ValueError):
        Region(0j, -1.0, 1.0, 4, 4)
    with pytest.raises(ValueError):
        Region(0j, 1.0, 1.0, 0, 4)
    with pytest.raises(ValueError):
        Region(0j, 1.0, 1.0, 4096, 4097)
    with pytest.raises(ValueError):
        Region(0j, 1.0, 1.0, 4, 4)._replace(nx=0)
    # _make builds through the class call, so it checks the fields too
    with pytest.raises(ValueError):
        Region._make((0j, -1.0, 1.0, 4, 4))
    # every sample must be reducible: each part within evaluator.MAX_ARGUMENT
    edge = 2.0 ** 45
    Region(complex(edge, -edge), 1.0, 1.0, 1, 1)
    Region(complex(edge - 1.0, 1.0 - edge), 2.0, 2.0, 5, 3)
    for bad in [(complex(edge - 1.0), 4.0, 1.0, 3, 1), (complex(0.0, -edge), 1.0, 1.0, 2, 2),
                (1e14 + 0j, 1.0, 1.0, 4, 3), (0j, math.inf, 1.0, 4, 3), (complex(0.0, math.nan), 1.0, 1.0, 1, 1)]:
        with pytest.raises(ValueError, match="2\\*\\*45"):
            Region(*bad)


def test_selector_validation():
    with pytest.raises(ValueError):
        sample_grid(Region(0j, 1.0, 1.0, 2, 2), "sn")


def test_single_point_grid():
    grid = sample_grid(Region(0j, 1.0, 1.0, 1, 1), "sm")
    assert len(grid.values) == 1
    assert grid.values[0].value == 0


def test_three_point_line():
    grid = sample_grid(Region(0j, 2.0 * K, 1.0, 3, 1), "sm")
    pole, zero, one = grid.values
    assert pole.is_pole
    assert abs(zero.value) <= 1e-12
    assert abs(one.value - 1.0) <= 1e-10


def test_row_major_layout():
    region = Region(0j, 2.0, 2.0, 3, 2)
    grid = sample_grid(region, "cm")
    xs, ys = region.xs(), region.ys()
    assert len(grid.values) == 6
    direct = sample_grid(Region(complex(xs[2], ys[1]), 1.0, 1.0, 1, 1), "cm").values[0].value
    # the pixel is a sum, within the bound of the one-point value
    assert abs(grid.values[1 * 3 + 2].value - direct) <= 2e-13 * max(1.0, abs(direct))


def test_conjugate_grid_values():
    region = Region(0.3 + 0j, 1.5, 1.0, 5, 5)
    grid = sample_grid(region, "sm")
    nx, ny = region.nx, region.ny
    for j in range(ny):
        for i in range(nx):
            v = grid.values[j * nx + i].value
            w = grid.values[(ny - 1 - j) * nx + i].value
            assert abs(v - w.conjugate()) <= 1e-10


def test_ppm_header_and_size():
    grid = sample_grid(Region(0j, 1.0, 1.0, 5, 4), "sm")
    data = domain_color(grid)
    assert data.startswith(b"P6\n5 4\n255\n")
    assert len(data) == len(b"P6\n5 4\n255\n") + 3 * 5 * 4


def test_pixel_conventions():
    grid = sample_grid(Region(0j, 2.0 * K, 1.0, 3, 1), "sm")
    data = domain_color(grid)
    body = data[len(b"P6\n3 1\n255\n"):]
    pole_px = tuple(body[0:3])
    zero_px = tuple(body[3:6])
    one_px = tuple(body[6:9])
    assert pole_px == (255, 255, 255)
    assert zero_px == (0, 0, 0)
    # value 1 has phase 0: red-family hue, mid-high lightness
    r, g, b = one_px
    assert r > g and r > b and g == b
    assert 0 < r < 255


def test_determinism_across_runs_and_workers():
    region = Region(0.2 + 0.1j, 3.0, 2.0, 24, 18)
    ppm1 = domain_color(sample_grid(region, "sm"))
    ppm2 = domain_color(sample_grid(region, "sm"))
    ppm4 = domain_color(sample_grid(region, "sm", workers=4))
    assert ppm1 == ppm2 == ppm4


def test_workers_validated():
    region = Region(0j, 1.0, 1.0, 3, 2)
    with pytest.raises(ValueError):
        sample_grid(region, "sm", workers=0)


def test_csv_dump():
    grid = sample_grid(Region(0j, 2.0 * K, 1.0, 3, 1), "sm")
    lines = grid_to_csv(grid).splitlines()
    assert lines[0] == "re,im,s_re,s_im,pole"
    assert len(lines) == 4
    pole_row = lines[1].split(",")
    assert pole_row[2] == "nan" and pole_row[4] == "1"
    one_row = lines[3].split(",")
    assert float(one_row[0]) == pytest.approx(K, abs=1e-15)
    assert one_row[4] == "0"
    # 17 significant digits survive a float round trip
    assert float(one_row[2]) == grid.values[2].value.real


def test_wp_grid():
    grid = sample_grid(Region(0j, 2.0 * K, 1.0, 3, 1), "wp")
    left, origin, right = grid.values
    assert origin.is_pole  # double pole of wp at the lattice point
    assert abs(left.value - 1.0 / 3.0) <= 1e-12  # finite at the sm pole
    assert abs(right.value - 1.0 / 3.0) <= 1e-12


def test_one_object_per_pole():
    # the evaluator builds each pole marker once: every call and every grid
    # pixel on a pole of one class hands out that object
    on_k = Region(0j, 2.0 * K, math.sqrt(3.0) * K, 5, 3)
    grid = sample_grid(on_k, "sm")
    classes = set()
    for v in grid.values:
        if v.is_pole:
            j = CONSTS.pole_reps.index(v.pole_rep)
            assert v is sm(CONSTS.pole_reps[j])
            classes.add(j)
    assert classes == {0, 1, 2}
    for j, p in enumerate(CONSTS.pole_reps):
        assert sm(p) is sm(p) and sm(p) is cm(p)
        with pytest.raises(PoleError) as info:
            sm_cm_values(p)
        assert info.value.pole_rep == CONSTS.pole_reps[j]
    lattice = wp(0.0)
    assert lattice.is_pole and lattice is wp(3 * K)
    poles = [v for v in sample_grid(on_k, "wp").values if v.is_pole]
    assert poles and all(v is lattice for v in poles)


def test_cell_grid_pole_and_zero_clusters():
    # node-aligned sweep of the fundamental cell's bounding box: the flagged
    # pixels must reduce to exactly the three pole and three zero classes
    region = Region(0j, 4.5 * K, 1.5 * math.sqrt(3.0) * K, 37, 13)
    grid = sample_grid(region, "sm")
    xs, ys = region.xs(), region.ys()

    pole_classes = set()
    zero_classes = set()
    for idx, v in enumerate(grid.values):
        z = complex(xs[idx % 37], ys[idx // 37])
        if v.is_pole:
            pole_classes.add(min(range(3), key=lambda i: abs(v.pole_rep - CONSTS.pole_reps[i])))
            assert min(abs(v.pole_rep - p) for p in CONSTS.pole_reps) <= 1e-12
        elif abs(v.value) <= 1e-9:
            zr = reduce_to_fundamental(z).z_reduced
            zero_classes.add(min(range(3), key=lambda i: abs(zr - CONSTS.zero_reps[i])))
    assert pole_classes == {0, 1, 2}
    assert zero_classes == {0, 1, 2}


# -- the grid rows against the one-point API ---------------------------------

P0, P1, P2 = CONSTS.pole_reps
MAX = sys.float_info.max

#: region, the pole representative it must sample, and whether the grid is
#: separable, its pixels sums of a column pair and a row pair (otherwise
#: every pixel runs the kernel). The comments name the rule of
#: ``render._pair_rows`` that each region fails without.
KERNEL_REGIONS = {
    # odd axes whose nodes land exactly on a pole representative; the column
    # x = -K of "on -K" is a pole, whose pixels go to the kernel
    "on -K": (Region(0j, 2.0 * K, math.sqrt(3.0) * K, 5, 3), P0, True),
    # STEP_MIN_DEN: the pole pixel's sum reads finite without the floor
    "on -K*gamma": (Region(P1, 1.0, 1.0, 3, 3), P1, True),
    "on -K*conj(gamma)": (Region(P2, 1.0, 1.0, 3, 3), P2, True),
    # a pole column at x = -K, and a pole pixel two columns in
    "right of -K": (Region(P0 + 1.0, 2.0, 1.0, 5, 3), P0, True),
    "right of -K*gamma": (Region(P1 + 1.0, 2.0, 1.0, 5, 3), P1, True),
    # rows within 1e-3 of a pole, inside NEAR_TOL: the near-pole rescue
    "near -K": (Region(P0 + 5e-4j, 1.6e-3, 8e-4, 9, 3), None, True),
    "near -K*gamma": (Region(P1 + 3e-4, 6e-4, 1.6e-3, 5, 4), None, True),
    # STEP_MAX: columns 1e-5 from the pole -K and rows through the pole
    # -K + 2 sqrt(3) K i; without the bound the sums next to it read 5.6e-11
    # relative to the kernel, whose near-pole rescue keeps full accuracy
    "pole columns": (Region(complex(-K, 2.0 * math.sqrt(3.0) * K), 2e-5, 2e-5, 3, 3), None, True),
    # rows at |z| ~ 1e6: lattice reduction of a large argument. A single row
    # runs on the kernel alone; STEP_MAX_COORD: without it the 200x2 pixels
    # add, and read 7.7e-12 off the kernel
    "far": (Region(complex(1e6, 0.25), 6.0, 0.5, 13, 1), None, False),
    "far 200x1": (Region(complex(1e6, 0.25), 6.0, 0.5, 200, 1), None, False),
    "far 200x2": (Region(complex(1e6, 0.25), 6.0, 0.5, 200, 2), None, False),
    "1x1": (Region(0.3 + 0.2j, 1.0, 1.0, 1, 1), None, False),
    "1xn": (Region(-0.4 + 0.1j, 1.0, 2.5, 1, 7), None, False),
    "cell": (Region(0j, 4.5 * K, 1.5 * math.sqrt(3.0) * K, 37, 13), None, True),
    # 256 columns at |z| ~ 40, where the column and row pairs carry the
    # lattice reduction's error
    "long band": (Region(complex(30.0, 21.207048989069378), 12.0 * K, 0.5, 256, 3), None, True),
    # the benchmark's off-origin framing at 64x48. STEP_LATTICE_GAP: its wp
    # sums read 7.8e-11 off the kernel without the gap
    "wide 64x48": (Region(complex(30.0, 20.0), 12.0 * K, 9.0 * K, 64, 48), None, True),
    # rows through the lattice point 0, where wp = sm / (3 (1 - cm)) cancels:
    # wp reads 4.3e-12 summed within STEP_LATTICE_GAP of cm = 1
    "lattice band": (Region(complex(0.0, 0.05), 1.0, 0.3, 101, 7), None, True),
}

#: a summed value lies within this of the one-point API's, times max(1, |v|)
STEP_BOUND = 2e-13


def _bits(v):
    # EllipticValue equality would let 0.0 == -0.0 through
    if v.value is None:
        return None, v.pole_rep.real.hex(), v.pole_rep.imag.hex()
    return v.value.real.hex(), v.value.imag.hex(), v.pole_rep


def _one_point(selector, z):
    if selector == "wp":
        return wp(z)
    return sm_cm(z)[0 if selector == "sm" else 1]


@pytest.mark.parametrize("selector", ["sm", "cm", "wp"])
@pytest.mark.parametrize("name", sorted(KERNEL_REGIONS))
def test_grid_values_match_one_point_api(name, selector):
    """Pole markers, every pixel the kernel ran on and every pixel of a grid
    that is not separable are the one-point API's bits; a summed pixel lies
    within STEP_BOUND * max(1, |v|) of its value."""
    region, pole, separable = KERNEL_REGIONS[name]
    xs, ys = region.xs(), region.ys()
    points = [complex(x, y) for y in ys for x in xs]
    if pole is not None:
        assert pole in points, name  # the case this region exists for
    grid, calls = kernel_calls(sample_grid, region, selector)
    if separable:
        ran = {j * region.nx + i for i, j in kernel_pixels(region, calls)}
    else:
        assert calls == points, name
        ran = range(len(points))
    assert len(grid.values) == len(points)
    assert all(type(v) is EllipticValue for v in grid.values)
    for idx, (z, got) in enumerate(zip(points, grid.values)):
        want = _one_point(selector, z)
        if want.value is None or idx in ran:
            assert _bits(got) == _bits(want), (name, selector, z)
        else:
            assert got.value is not None, (name, selector, z)
            assert abs(got.value - want.value) <= STEP_BOUND * max(1.0, abs(want.value)), (name, selector, z)


@pytest.mark.parametrize("selector", ["sm", "cm", "wp"])
@pytest.mark.parametrize("name", sorted(KERNEL_REGIONS))
def test_grid_round_trips_through_its_values(name, selector):
    """A grid rebuilt from the EllipticValues it reads out, or unpickled, is
    equal to it, hashes alike and writes the same bytes."""
    grid = sample_grid(KERNEL_REGIONS[name][0], selector)
    values = tuple(grid.values)
    assert values[-1] == grid.values[-1] and values[1:] == grid.values[1:]
    twins = [ValueGrid(grid.region, values), ValueGrid._make((grid.region, values)), grid._replace(values=values)]
    twins += [pickle.loads(pickle.dumps(grid, p)) for p in range(pickle.HIGHEST_PROTOCOL + 1)]
    ppm, csv = domain_color(grid), grid_to_csv(grid)
    for other in twins:
        assert other == grid and hash(other) == hash(grid), (name, selector)
        assert other.values.__class__ is grid.values.__class__, (name, selector)
        assert domain_color(other) == ppm and grid_to_csv(other) == csv, (name, selector)


def test_kernel_runs_only_where_a_rule_sends_it():
    from dixonian.render import STEP_LATTICE_GAP, STEP_MAX, STEP_MIN_DEN

    region = Region(0j, 4.5 * K, 1.5 * math.sqrt(3.0) * K, 181, 61)
    xs, ys = region.xs(), region.ys()
    cols = [sm_cm(x) for x in xs]
    rows = [sm_cm(complex(0.0, y)) for y in ys]
    # after its 181 + 61 column and row pairs, the kernel runs at 3.2% of the
    # sm pixels of the cell framing and, with the lattice rule, at 10.1% of
    # the wp pixels
    for selector, share in (("sm", 0.04), ("wp", 0.12)):
        grid, calls = kernel_calls(sample_grid, region, selector)
        ran = set(kernel_pixels(region, calls))
        assert len(ran) < share * len(grid.values), (selector, len(ran))
        broken = {"pole column": 0, "floor": 0, "bound": 0, "lattice": 0}
        for j, (sh, ch) in enumerate(rows):
            sh, ch = sh.value, ch.value
            for i, (s, c) in enumerate(cols):
                if s.value is None:
                    rule = "pole column"
                else:
                    # the sum as the grid forms it, from the kernel's pairs
                    s, c = s.value, c.value
                    den = s * c * (sh * sh) + ch
                    s, c = (s + c * c * (ch * sh)) / den, (c * (ch * ch) - s * s * sh) / den
                    if abs(den) < STEP_MIN_DEN:
                        rule = "floor"
                    elif not (abs(s) <= STEP_MAX and abs(c) <= STEP_MAX):
                        rule = "bound"
                    elif selector == "wp" and abs(1.0 - c) <= STEP_LATTICE_GAP:
                        rule = "lattice"
                    else:
                        rule = None
                assert ((i, j) in ran) == (rule is not None), (selector, i, j, rule)
                if rule:
                    broken[rule] += 1
        # every rule sends pixels to the kernel here but the lattice rule,
        # which holds for wp alone
        assert all(broken[rule] for rule in ("pole column", "floor", "bound")), broken
        assert (broken["lattice"] > 0) == (selector == "wp"), broken
        if selector == "sm":
            # cm pixels are sm's pairs: the same calls
            assert kernel_calls(sample_grid, region, "cm")[1] == calls


def test_grids_that_are_not_separable_run_the_kernel_everywhere():
    # a single column, a single row, and a corner part beyond STEP_MAX_COORD,
    # in x and in y
    for region in (
        Region(0.25 + 0.5j, 1.0, 2.0, 1, 40),
        Region(0.25 + 0.5j, 2.0, 1.0, 40, 1),
        Region(complex(70.0, 0.25), 6.0, 0.5, 200, 2),
        Region(complex(0.5, -64.25), 6.0, 0.5, 200, 2),
    ):
        _, calls = kernel_calls(sample_grid, region, "sm")
        assert calls == [complex(x, y) for y in region.ys() for x in region.xs()]
    # at the corner limit itself, and for columns wider than the series
    # disc, the pixels add
    for region in (Region(0.5j, 20.0 * 0.5000001, 1.0, 21, 2), Region(0.5j, 10.0, 1.0, 21, 2),
                   Region(complex(61.0, 0.25), 6.0, 0.5, 200, 2)):
        _, calls = kernel_calls(sample_grid, region, "sm")
        assert len(calls) < region.nx * region.ny


def test_cube_identity_on_the_cell_framing():
    # the benchmark pairs the sm grid's CSV with a separately sampled cm grid
    region = Region(0j, 4.5 * K, 1.5 * math.sqrt(3.0) * K, 400, 300)
    sms = sample_grid(region, "sm").values
    cms = sample_grid(region, "cm").values
    for s, c in zip(sms, cms):
        if s.value is None:
            assert c == s
            continue
        s, c = s.value, c.value
        scale = max(1.0, abs(s) ** 3, abs(c) ** 3)
        assert abs(s * s * s + c * c * c - 1.0) / scale <= 1e-12, (s, c)


# -- the writers against the colorsys / per-index formulation they replace ----


def _reference_pixel(v):
    if v.is_pole:
        return 255, 255, 255
    try:
        mag = abs(v.value)
    except OverflowError:
        # |v| is above the largest double, where both parts are integers:
        # log1p(|v|) is half the log of the exact integer |v|**2
        x = math.log(int(v.value.real) ** 2 + int(v.value.imag) ** 2) / 2.0
    else:
        if mag <= ZERO_CLIP:
            return 0, 0, 0
        x = math.log1p(mag)
    hue = (math.atan2(v.value.imag, v.value.real) / (2.0 * math.pi)) % 1.0
    light = 0.15 + (0.95 - 0.15) * x / (1.0 + x)
    r, g, b = colorsys.hls_to_rgb(hue, light, 1.0)
    return int(255.0 * r + 0.5), int(255.0 * g + 0.5), int(255.0 * b + 0.5)


def _reference_ppm(grid):
    header = f"P6\n{grid.region.nx} {grid.region.ny}\n255\n".encode("ascii")
    return header + bytes(c for v in grid.values for c in _reference_pixel(v))


def _reference_csv(grid):
    xs, ys = grid.region.xs(), grid.region.ys()
    nx = grid.region.nx
    lines = ["re,im,s_re,s_im,pole"]
    for idx, v in enumerate(grid.values):
        z = complex(xs[idx % nx], ys[idx // nx])
        if v.is_pole:
            lines.append(f"{z.real:.17g},{z.imag:.17g},nan,nan,1")
        else:
            lines.append(f"{z.real:.17g},{z.imag:.17g},{v.value.real:.17g},{v.value.imag:.17g},0")
    return "\n".join(lines) + "\n"


def _hue(v):
    return (math.atan2(v.imag, v.real) / (2.0 * math.pi)) % 1.0


def _value_at_hue(target, mag):
    """A value of about ``mag`` whose computed hue is exactly ``target``,
    found by stepping one component an ulp at a time."""
    angle = 2.0 * math.pi * target
    v = complex(mag * math.cos(angle), mag * math.sin(angle))
    for _ in range(200):
        h = _hue(v)
        if h == target:
            return v
        # move the angle toward the target along the tangent direction
        step = 1 if (h < target) != (h - target > 0.5) else -1
        re, im = v.real, v.imag
        if abs(math.sin(angle)) < abs(math.cos(angle)):
            v = complex(re, math.nextafter(im, step * math.copysign(math.inf, re)))
        else:
            v = complex(math.nextafter(re, -step * math.copysign(math.inf, im)), im)
    raise AssertionError(f"no value found with hue {target!r}")


def _writer_values():
    mags = (0.05, 0.5, 1.17, 1.18, 3.0, 1e6, 1e300)  # lightness on both sides of 0.5
    hues = (0.0, 1.0 / 6.0, 1.0 / 3.0, 0.5, 2.0 / 3.0, 5.0 / 6.0)
    values = [_value_at_hue(h, m) for h in hues for m in mags]
    assert {_hue(v) for v in values} == set(hues)
    values += [
        complex(ZERO_CLIP, 0.0),  # black
        complex(math.nextafter(ZERO_CLIP, math.inf), 0.0),  # colored
        complex(0.0, -ZERO_CLIP),
        0j,
        complex(-0.0, -0.0),
        complex(1.0, -1e-300),  # hue rounds up to 1.0 before colorsys reduces it
        complex(-1.0, -0.0),
        complex(-1.0, 0.0),
        complex(0.3, -0.0),
        complex(-2.5, 1e-17),
        complex(1e-300, -1e300),
    ]
    return [EllipticValue.finite(v) for v in values]


WRITER_REGIONS = (
    Region(complex(-0.0, -0.0), 1.0, 1.0, 1, 1),
    Region(complex(0.0, -0.0), 2.0, 1.0, 3, 1),
    Region(complex(-0.0, 0.0), 1.0, 2.0, 1, 4),
    Region(0j, 2.0, 2.0, 5, 5),
    Region(complex(-3.25, 1e6), 0.5, 1e-9, 4, 3),
)


@pytest.mark.parametrize("region", WRITER_REGIONS, ids=lambda r: f"{r.nx}x{r.ny}")
def test_writers_match_reference(region):
    pool = _writer_values() + [EllipticValue.pole(P0), EllipticValue.pole(P1)]
    n = region.nx * region.ny
    for start in range(0, len(pool), n):
        chunk = pool[start : start + n]
        chunk += pool[: n - len(chunk)]
        grid = ValueGrid(region, tuple(chunk))
        assert domain_color(grid) == _reference_ppm(grid)
        assert grid_to_csv(grid) == _reference_csv(grid)


def _neighbours(x, n):
    """x and the n doubles on each side of it."""
    out, lo, hi = [x], x, x
    for _ in range(n):
        lo, hi = math.nextafter(lo, -math.inf), math.nextafter(hi, math.inf)
        out += [lo, hi]
    return out


def _rounding_edges():
    """(hue, light) pairs at which a channel's 255 * c + 0.5 falls on or within
    a few ulps of an integer, so that a change of one ulp in c moves a byte."""
    # m2 = 2 * light below 0.5 and m1 = 2 * light - m2 above it hit byte
    # midpoints at these lightnesses; the boundary hues give c = m1 or m2
    lights = [(2 * k + 1) / 1020 for k in range(77, 255)]
    lights += [(1.0 + (2 * k + 1) / 510) / 2 for k in range(0, 230)]
    lights += _neighbours(0.5, 3)
    hues = [h for b in (0.0, 1 / 6, 1 / 3, 0.5, 2 / 3, 5 / 6) for h in _neighbours(b, 2)]
    pairs = [(h, l) for l in lights for h in hues]
    # on the rising ramp of the green channel, c = m1 + (m2 - m1) * 6 * hue:
    # solve for the hue of each byte midpoint and take its neighbours
    for light in [0.15 + 0.8 * i / 97 for i in range(98)] + lights[::7]:
        m2 = light * 2.0 if light <= 0.5 else light + 1.0 - light
        m1 = 2.0 * light - m2
        for n in range(256):
            hue = ((n + 0.5) / 255.0 - m1) / (6.0 * (m2 - m1))
            if 0.0 <= hue < 1 / 6:
                pairs += [(h, light) for h in _neighbours(hue, 2)]
    return pairs


def test_append_rgb_matches_colorsys_at_rounding_edges():
    # the encoder's (hue, light) -> bytes stage, fed every pair in one row
    edges = _rounding_edges()
    assert len(edges) > 20000
    got = _rgb_row([h for h, _ in edges], [l for _, l in edges])
    assert len(got) == 3 * len(edges)
    for k, (hue, light) in enumerate(edges):
        want = bytes(int(255.0 * c + 0.5) for c in colorsys.hls_to_rgb(hue, light, 1.0))
        assert got[3 * k : 3 * k + 3] == want, (hue.hex(), light.hex())


@pytest.mark.parametrize("count", [0, 4, 5, 7, 9])
def test_writers_refuse_a_grid_of_the_wrong_size(count):
    # a 3x2 region needs 6 values; a PPM of 4 or 9 would carry a 3x2 header
    # over 12 or 27 bytes
    grid = ValueGrid(Region(0j, 1.0, 1.0, 3, 2), (EllipticValue.finite(0.5),) * count)
    for writer in (domain_color, grid_to_csv):
        with pytest.raises(ValueError, match=f"grid has {count} values; its 3x2 region needs 6"):
            writer(grid)


@pytest.mark.parametrize("bad", [complex(math.inf, 0.0), complex(math.nan, 0.0), complex(0.5, -math.inf),
                                 complex(math.inf, math.nan)], ids=repr)
def test_ppm_names_a_non_finite_pixel(bad, monkeypatch):
    region = Region(0j, 1.0, 1.0, 3, 2)
    rows = [[0.5, EllipticValue.pole(P0), 1e-12], [-2.0, bad, 1j]]
    grid = ValueGrid(region, [v if v.__class__ is EllipticValue else EllipticValue.finite(v) for v in rows[0] + rows[1]])
    message = re.escape(f"cannot color {bad!r} at column 1, row 1")
    with pytest.raises(ValueError, match=message):
        domain_color(grid)
    # write_grid encodes its sampled rows with the same encoder
    monkeypatch.setattr(render, "_selected_rows", lambda region, selector: iter(rows))
    with pytest.raises(ValueError, match=message):
        write_grid(io.BytesIO(), region, "sm", "ppm")
    # CSV has a text for every float
    assert grid_to_csv(grid).splitlines()[5] == f"0,0.5,{bad.real:.17g},{bad.imag:.17g},0"


#: values whose modulus is above the largest double, where abs overflows
HUGE = [complex(1.5e308, 1.5e308), complex(-MAX, MAX), complex(MAX, -1e308), _value_at_hue(1.0 / 6.0, 1e308) * 2]


@pytest.mark.parametrize("huge", HUGE, ids=repr)
def test_writers_color_a_modulus_above_the_largest_double(huge, monkeypatch):
    # abs(huge) raises OverflowError; the pixel still has a color, the
    # other pixels of its row keep theirs, and a non-finite one later in the
    # row is still named
    with pytest.raises(OverflowError):
        abs(huge)
    region = Region(0j, 1.0, 1.0, 3, 2)
    rows = [[0.5, huge, EllipticValue.pole(P0)], [huge, 1e-12, -huge]]
    grid = ValueGrid(region, [v if v.__class__ is EllipticValue else EllipticValue.finite(v) for v in rows[0] + rows[1]])
    image = domain_color(grid)
    assert image == _reference_ppm(grid)
    # write_grid encodes its sampled rows with the same encoder
    monkeypatch.setattr(render, "_selected_rows", lambda region, selector: iter(rows))
    assert _streamed(region, "sm", "ppm") == image
    rows[1][1] = complex(math.nan, 0.0)
    with pytest.raises(ValueError, match=re.escape("cannot color (nan+0j) at column 1, row 1")):
        _streamed(region, "sm", "ppm")


# -- the streaming writer against the in-memory ones -----------------------------


def _streamed(region, selector, fmt):
    out = io.BytesIO() if fmt == "ppm" else io.StringIO()
    write_grid(out, region, selector, fmt)
    return out.getvalue()


STREAM_REGIONS = {**{name: spec[0] for name, spec in KERNEL_REGIONS.items()},
                  **{f"writer {r.nx}x{r.ny}": r for r in WRITER_REGIONS}}


@pytest.mark.parametrize("selector", ["sm", "cm", "wp"])
@pytest.mark.parametrize("name", sorted(STREAM_REGIONS))
def test_write_grid_matches_in_memory_writers(name, selector):
    region = STREAM_REGIONS[name]
    grid = sample_grid(region, selector)
    assert _streamed(region, selector, "ppm") == domain_color(grid), (name, selector)
    assert _streamed(region, selector, "csv") == grid_to_csv(grid), (name, selector)


def test_write_grid_validation():
    region = Region(0j, 1.0, 1.0, 2, 2)
    sink = io.StringIO()
    for selector, fmt in (("sn", "csv"), ("sm", "png")):
        with pytest.raises(ValueError) as written:
            write_grid(sink, region, selector, fmt)
        if fmt == "csv":
            # both writers run the one check of the selector
            with pytest.raises(ValueError) as sampled:
                sample_grid(region, selector)
            assert str(sampled.value) == str(written.value)
    assert sink.getvalue() == ""


class _CountingSink:
    """Discards what is written; counts the calls and the characters."""

    def __init__(self):
        self.calls = self.size = 0

    def write(self, chunk):
        self.calls += 1
        self.size += len(chunk)


def _peak(fn, *args):
    """What ``fn(*args)`` returns, and the peak of memory it allocated on
    top of what was live before the call."""
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        result = fn(*args)
        return result, tracemalloc.get_traced_memory()[1] - base
    finally:
        tracemalloc.stop()


def _cell(nx, ny):
    return Region(0j, 4.5 * K, 1.5 * math.sqrt(3.0) * K, nx, ny)


def test_grid_to_csv_peak_memory():
    # the text, extended in place a row at a time, and one row (1.03x); a
    # list of row strings and their join peaked at 2.0x the output, and a
    # whole-grid list of per-pixel lines, joined and then copied again, at 3.7x
    grid = sample_grid(_cell(200, 150), "sm")
    text, peak = _peak(grid_to_csv, grid)
    assert peak <= 1.3 * len(text), peak / len(text)


def test_domain_color_peak_memory():
    # the row encodings and the joined image, plus one row's hues and
    # lightnesses; a whole-grid buffer copied at the end peaked at 3.1x
    grid = sample_grid(_cell(200, 150), "sm")
    image, peak = _peak(domain_color, grid)
    assert peak <= 2.5 * len(image), peak / len(image)


def test_value_grid_holds_plain_values():
    # a grid stores each pixel's complex (32 B) and its slot (8 B); an
    # EllipticValue record per pixel held 104 B, each tracked by the collector
    region = _cell(200, 150)
    sample_grid(_cell(3, 3), "sm")  # a first grid, so no first-use work is counted
    tracemalloc.start()
    try:
        base = tracemalloc.get_traced_memory()[0]
        grid = sample_grid(region, "sm")
        retained = tracemalloc.get_traced_memory()[0] - base
    finally:
        tracemalloc.stop()
    assert retained <= 60 * 200 * 150, retained / (200 * 150)
    del grid
    for selector in ("sm", "cm", "wp"):
        gc.collect()
        before = len(gc.get_objects())
        grid = sample_grid(region, selector)
        assert len(gc.get_objects()) - before < region.ny, selector
        del grid


@pytest.mark.parametrize("ny", [150, 600])
def test_write_grid_streams_in_row_memory(ny):
    # one row of pairs, values and text at a time, whatever the row count
    write_grid(_CountingSink(), _cell(200, 2), "sm", "csv")  # a first grid, so no first-use work is counted
    sink = _CountingSink()
    _, peak = _peak(write_grid, sink, _cell(200, ny), "sm", "csv")
    assert sink.calls == 1 + ny
    assert sink.size > 200 * ny * 60
    assert peak < 1_000_000, peak
