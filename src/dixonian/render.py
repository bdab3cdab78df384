"""Grid sampling and domain-colored output for sm, cm, and the lattice wp.

Output is binary PPM (P6, maxval 255): hue encodes phase (hue angle =
arg/2pi), lightness grows with log(1 + |v|) mapped into [0.15, 0.95]. Pole
pixels are pure white, values of magnitude <= 1e-9 pure black. Identical
grids color to identical bytes regardless of worker count.
"""

from __future__ import annotations

import colorsys
import math

from ._record import record
from .evaluator import EllipticValue, sm_cm, wp
from .series import DEFAULT_ORDER

MAX_PIXELS = 4096 * 4096

ZERO_CLIP = 1e-9
_L_MIN, _L_MAX = 0.15, 0.95
_TWO_PI = 2.0 * math.pi

SELECTORS = ("sm", "cm", "wp")


class Region(record("Region", "center width height nx ny")):
    """Axis-aligned rectangle of nx * ny sample points, endpoints included."""

    __slots__ = ()

    def __new__(cls, center: complex, width: float, height: float, nx: int, ny: int):
        if not (width > 0.0 and height > 0.0):
            raise ValueError("width and height must be positive")
        if nx < 1 or ny < 1:
            raise ValueError("nx and ny must be at least 1")
        if nx * ny > MAX_PIXELS:
            raise ValueError(f"grid exceeds the {MAX_PIXELS} sample cap")
        return super().__new__(cls, center, width, height, nx, ny)

    @classmethod
    def _make(cls, iterable) -> "Region":
        # the namedtuple default skips __new__; _replace builds through here
        return cls(*iterable)

    def xs(self) -> list[float]:
        return self._axis(self.center.real, self.width, self.nx)

    def ys(self) -> list[float]:
        return self._axis(self.center.imag, self.height, self.ny)

    @staticmethod
    def _axis(mid: float, span: float, count: int) -> list[float]:
        if count == 1:
            return [mid]
        step = span / (count - 1)
        return [mid - span / 2.0 + i * step for i in range(count)]


class ValueGrid(record("ValueGrid", "region values")):
    """Row-major samples: values[j * nx + i] is the point (xs[i], ys[j]).

    ``values`` is a tuple of EllipticValue.
    """

    __slots__ = ()


def sample_grid(
    region: Region, selector: str, workers: int = 1, *, order: int = DEFAULT_ORDER
) -> ValueGrid:
    """Evaluate the selected function over the region, row by row, at the
    series ``order``.

    ``workers`` must be at least 1. Whatever its value, rows run in order on
    the calling thread: evaluation is pure Python and holds the interpreter
    lock, so a thread pool only slowed it down.
    """
    if selector not in SELECTORS:
        raise ValueError(f"selector must be one of {SELECTORS}, got {selector!r}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    if selector == "wp":
        fn = lambda z: wp(z, order=order)
    elif selector == "sm":
        fn = lambda z: sm_cm(z, order=order)[0]
    else:
        fn = lambda z: sm_cm(z, order=order)[1]
    xs = region.xs()
    return ValueGrid(region, tuple(fn(complex(x, y)) for y in region.ys() for x in xs))


def _pixel(v: EllipticValue) -> tuple[int, int, int]:
    if v.is_pole:
        return 255, 255, 255
    mag = abs(v.value)
    if mag <= ZERO_CLIP:
        return 0, 0, 0
    hue = (math.atan2(v.value.imag, v.value.real) / _TWO_PI) % 1.0
    x = math.log1p(mag)
    light = _L_MIN + (_L_MAX - _L_MIN) * x / (1.0 + x)
    r, g, b = colorsys.hls_to_rgb(hue, light, 1.0)
    return int(255.0 * r + 0.5), int(255.0 * g + 0.5), int(255.0 * b + 0.5)


def domain_color(grid: ValueGrid) -> bytes:
    """Render the grid as a binary PPM image (P6, maxval 255)."""
    if not grid.values:
        raise ValueError("empty grid")
    header = f"P6\n{grid.region.nx} {grid.region.ny}\n255\n".encode("ascii")
    body = bytearray()
    for v in grid.values:
        body.extend(_pixel(v))
    return header + bytes(body)


def grid_to_csv(grid: ValueGrid) -> str:
    """Numeric dump, one "re,im,s_re,s_im,pole" line per sample point.

    17 significant digits; pole rows carry nan values and pole = 1.
    """
    xs, ys = grid.region.xs(), grid.region.ys()
    nx = grid.region.nx
    lines = ["re,im,s_re,s_im,pole"]
    for idx, v in enumerate(grid.values):
        z = complex(xs[idx % nx], ys[idx // nx])
        if v.is_pole:
            lines.append(f"{z.real:.17g},{z.imag:.17g},nan,nan,1")
        else:
            lines.append(
                f"{z.real:.17g},{z.imag:.17g},{v.value.real:.17g},{v.value.imag:.17g},0"
            )
    return "\n".join(lines) + "\n"
