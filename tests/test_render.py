"""Render layer: grid sampling, PPM coloring, CSV dump, determinism."""

import math

import pytest

from dixonian import Region, domain_color, grid_to_csv, reduce_to_fundamental, sample_grid
from conftest import CONSTS, K, W1, W2


def test_region_validation():
    with pytest.raises(ValueError):
        Region(0j, -1.0, 1.0, 4, 4)
    with pytest.raises(ValueError):
        Region(0j, 1.0, 1.0, 0, 4)
    with pytest.raises(ValueError):
        Region(0j, 1.0, 1.0, 4096, 4097)
    with pytest.raises(ValueError):
        Region(0j, 1.0, 1.0, 4, 4)._replace(nx=0)


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
    direct = sample_grid(Region(complex(xs[2], ys[1]), 1.0, 1.0, 1, 1), "cm")
    assert grid.values[1 * 3 + 2].value == direct.values[0].value


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
