"""Grid sampling and domain-colored output for sm, cm, and the lattice wp.

Output is binary PPM (P6, maxval 255): hue encodes phase (hue angle =
arg/2pi), lightness grows with log(1 + |v|) mapped into [0.15, 0.95]. Pole
pixels are pure white, values of magnitude <= 1e-9 pure black. Identical
grids color to identical bytes regardless of worker count.
"""

from __future__ import annotations

import math
from itertools import chain

from ._record import record
# sample_grid calls the kernel; sm_cm and wp stay module attributes because
# the benchmark's tracer wraps render.sm_cm and render.wp
from .evaluator import (  # noqa: F401
    MAX_ARGUMENT, EllipticValue, _context, _new, _pair, _wp_of_pair, sm_cm, wp,
)
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
        # each axis is monotone, so its ends bound every sample; checked here,
        # a grid that evaluation would refuse fails before any output is opened
        for mid, span, count in ((center.real, width, nx), (center.imag, height, ny)):
            axis = cls._axis(mid, span, count)
            if not (abs(axis[0]) <= MAX_ARGUMENT and abs(axis[-1]) <= MAX_ARGUMENT):
                raise ValueError("grid corners must be finite and at most 2**45 in magnitude in each part")
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

    Every selector runs the evaluator's kernel along each row, with the
    context looked up once, and wraps only the selected value in a record.
    The values are bit for bit those of ``sm_cm`` and ``wp``.

    ``workers`` must be at least 1 and changes nothing: rows run in order on
    the calling thread, since evaluation is pure Python and holds the
    interpreter lock. It is accepted only because the benchmark still
    passes it.
    """
    if selector not in SELECTORS:
        raise ValueError(f"selector must be one of {SELECTORS}, got {selector!r}")
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    rows = _kernel_rows(_context(order), region.xs(), region.ys(), selector)
    return ValueGrid(region, tuple(chain.from_iterable(rows)))


def _kernel_rows(ctx, xs: list[float], ys: list[float], selector: str):
    """One list of records per row, of the selected function at the kernel's
    pairs; for sm and cm the three pole markers are built once. Rows are
    chained into the grid's tuple, so no whole-grid list is built."""
    if selector == "wp":
        for y in ys:
            yield [_wp_of_pair(*_pair(ctx, complex(x, y))) for x in xs]
        return
    pick = 0 if selector == "sm" else 1
    poles = [EllipticValue.pole(rep) for rep in ctx.constants.pole_reps]
    for y in ys:
        yield [
            poles[pair[1]] if pair[0] is None else _new(EllipticValue, (pair[pick], None))
            for pair in [_pair(ctx, complex(x, y)) for x in xs]
        ]


_POLE_PX = b"\xff\xff\xff"
_ZERO_PX = b"\x00\x00\x00"
# colorsys's constants, to the bit
_ONE_THIRD, _ONE_SIXTH, _TWO_THIRD = 1.0 / 3.0, 1.0 / 6.0, 2.0 / 3.0


def domain_color(grid: ValueGrid) -> bytes:
    """Render the grid as a binary PPM image (P6, maxval 255)."""
    if not grid.values:
        raise ValueError("empty grid")
    header = f"P6\n{grid.region.nx} {grid.region.ny}\n255\n".encode("ascii")
    atan2, log1p = math.atan2, math.log1p
    body = bytearray()
    append = body.append
    for v in grid.values:
        value = v[0]
        if value is None:
            body += _POLE_PX
            continue
        mag = abs(value)
        if mag <= ZERO_CLIP:
            body += _ZERO_PX
            continue
        x = log1p(mag)
        _append_rgb(
            append,
            (atan2(value.imag, value.real) / _TWO_PI) % 1.0,
            _L_MIN + (_L_MAX - _L_MIN) * x / (1.0 + x),
        )
    return header + bytes(body)


def _append_rgb(append, hue: float, light: float) -> None:
    """Append ``colorsys.hls_to_rgb(hue, light, 1.0)`` as three bytes, each
    channel rounded as int(255 * c + 0.5): the same float operations in the
    same order, without colorsys's four calls per pixel."""
    # hls_to_rgb at s = 1.0: l * (1.0 + s) and l + s - (l * s)
    m2 = light * 2.0 if light <= 0.5 else light + 1.0 - light
    m1 = 2.0 * light - m2
    for h in (hue + _ONE_THIRD, hue, hue - _ONE_THIRD):
        # colorsys._v
        h %= 1.0
        if h < _ONE_SIXTH:
            c = m1 + (m2 - m1) * h * 6.0
        elif h < 0.5:
            c = m2
        elif h < _TWO_THIRD:
            c = m1 + (m2 - m1) * (_TWO_THIRD - h) * 6.0
        else:
            c = m1
        append(int(255.0 * c + 0.5))


def grid_to_csv(grid: ValueGrid) -> str:
    """Numeric dump, one "re,im,s_re,s_im,pole" line per sample point.

    17 significant digits; pole rows carry nan values and pole = 1. Each
    column's x and each row's y is formatted once.
    """
    region = grid.region
    # float(x) is complex(x, y).real, also for an int centre
    xs = [f"{float(x):.17g}," for x in region.xs()]
    nx = region.nx
    values = grid.values
    lines = ["re,im,s_re,s_im,pole"]
    for j, y in enumerate(region.ys()):
        y_text = f"{float(y):.17g},"
        for x_text, v in zip(xs, values[j * nx : (j + 1) * nx]):
            value = v[0]
            if value is None:
                lines.append(f"{x_text}{y_text}nan,nan,1")
            else:
                lines.append(f"{x_text}{y_text}{value.real:.17g},{value.imag:.17g},0")
    return "\n".join(lines) + "\n"
