"""Grid sampling and domain-colored output for sm, cm, and the lattice wp.

Grid pixels come from the addition theorem. The evaluator's kernel runs
once at each column's x and once at each row's iy, and pixel x + iy is the
sum of those two pairs by ``identities.add``'s formula. The kernel runs at
the pixel's own coordinate instead where the column's pair is a pole, where
the sum's denominator is below STEP_MIN_DEN, and where the sum lies outside
|sm|, |cm| <= STEP_MAX; for wp also within STEP_LATTICE_GAP of cm = 1,
next to a lattice point, where wp ~ 1 / (3 sm**2) magnifies the sum's
error of sm. A grid of one column or one row, or
with a corner beyond STEP_MAX_COORD, runs the kernel at every pixel. Values
therefore differ from ``sm_cm`` and ``wp`` only in the last bits (the tests
bound the difference by 2e-13 * max(1, |v|)); pole pixels, the pixels the
kernel ran on, and the grids where it runs at every pixel are theirs bit
for bit.

Output is binary PPM (P6, maxval 255): hue encodes phase (hue angle =
arg/2pi), lightness grows with log(1 + |v|) mapped into [0.15, 0.95]. Pole
pixels are pure white, values of magnitude <= 1e-9 pure black. A pixel's
bytes are ``colorsys.hls_to_rgb(hue, lightness, 1.0)``'s channels, each
rounded as int(255 * c + 0.5). A value that is not finite has no color:
the PPM encoder raises ValueError naming it and its pixel, where CSV
writes inf and nan. A finite value whose modulus is above the largest
double, where abs overflows, is colored from log(|v / 2|) + log(2).
Identical grids color to identical bytes. Rows run in order on the
calling thread, so ``sample_grid``'s ``workers`` changes nothing.

A pixel is a plain value: a complex, or at a pole the evaluator's marker,
the object ``sm_cm`` and ``wp`` return there. A ValueGrid stores them and
builds a pixel's EllipticValue only when ``values`` is read: about 40 B per
pixel, in objects the garbage collector does not track. Each format has
one row encoder, which turns a row of plain values into its pixels or
lines; the PPM one runs in two stages, the values to hues and
lightnesses and those to bytes. ``domain_color`` and ``grid_to_csv`` run
it over a ValueGrid's stored rows: ``domain_color`` joins the rows once,
and ``grid_to_csv`` appends each row to its text, which CPython extends in
place, so the CSV text is its one copy. ``write_grid``
runs it on each row as the row is sampled and writes the row out, so it
holds one row for every selector, and no grid. Its bytes are the
in-memory writers' because ``sample_grid`` and ``write_grid`` take their
rows from one function.
"""

from __future__ import annotations

from math import atan2, isfinite, log, log1p, pi
# collections.abc's Sequence, without the import of collections that
# collections.abc makes
from _collections_abc import Sequence
from itertools import chain, starmap

from ._record import _new, record
# sample_grid calls the kernel; sm_cm and wp stay module attributes because
# the benchmark's tracer wraps render.sm_cm and render.wp
from .evaluator import (  # noqa: F401
    _CTX, _POLES, MAX_ARGUMENT, EllipticValue, _pair, _wp_of_pair, sm_cm, wp,
)

MAX_PIXELS = 4096 * 4096

#: A pixel is a sum only where it has |sm|, |cm| <= STEP_MAX, and for wp
#: also |1 - cm| > STEP_LATTICE_GAP. Beyond STEP_MAX it nears a pole, where
#: the kernel keeps full relative accuracy; within STEP_LATTICE_GAP of
#: cm = 1 it nears a lattice point, where wp ~ 1 / (3 sm**2) magnifies the
#: error of sm. sm and cm themselves are well conditioned there.
STEP_MAX = 4.0
STEP_LATTICE_GAP = 0.25
#: A sum whose denominator s c sh**2 + ch, for (s, c) at x and (sh, ch) at
#: iy, is below this in magnitude goes to the kernel. At a pole x + iy the
#: denominator vanishes to second order and the numerators to first, so
#: the sum is 0/0 there and may round to a moderate value STEP_MAX lets
#: through. It is below 0.05 only within about 0.16 of a pole, inside the
#: STEP_MAX disc; floors from 0.005 to 0.1 measured alike.
STEP_MIN_DEN = 0.05
#: The whole grid runs on the kernel when a corner coordinate exceeds this
#: in magnitude, and for a single column or row, where the pairs would cost
#: as many kernel calls as the pixels. The column and row pairs carry the
#: lattice reduction's error, which grows with |x| and |y|; past this, only
#: the kernel at each pixel's own double keeps the 1e-12 contract.
STEP_MAX_COORD = 64.0

ZERO_CLIP = 1e-9
_L_MIN, _L_MAX = 0.15, 0.95
_L_SPAN = _L_MAX - _L_MIN
_TWO_PI = 2.0 * pi
_LOG_2 = log(2.0)

SELECTORS = ("sm", "cm", "wp")
_FORMATS = ("ppm", "csv")


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


class GridValues(Sequence):
    """A ValueGrid's ``values``: a read-only sequence of EllipticValue over
    the grid's stored items, each a pixel's finite value or, at a pole, an
    EllipticValue marker. A finite pixel's EllipticValue is built when it is
    read. Equality and hashing follow the stored items.
    """

    __slots__ = ("_items",)

    def __init__(self, items: tuple) -> None:
        self._items = items

    def __len__(self) -> int:
        return len(self._items)

    def __getitem__(self, index):
        if index.__class__ is slice:
            return tuple(map(_read, self._items[index]))
        return _read(self._items[index])

    def __iter__(self):
        return map(_read, self._items)

    def __eq__(self, other) -> bool:
        if other.__class__ is not GridValues:
            return NotImplemented
        return self._items == other._items

    def __hash__(self) -> int:
        return hash(self._items)

    def __repr__(self) -> str:
        return repr(tuple(self))

    def __reduce__(self):
        return GridValues, (self._items,)


def _read(item) -> EllipticValue:
    """The EllipticValue a stored item stands for."""
    return item if item.__class__ is EllipticValue else _new(EllipticValue, (item, None))


class ValueGrid(record("ValueGrid", "region values")):
    """Row-major samples: values[j * nx + i] is the point (xs[i], ys[j]).

    ``values`` is a GridValues; a ValueGrid built from any other sequence of
    EllipticValue stores its items in one.
    """

    __slots__ = ()

    def __new__(cls, region: Region, values):
        if values.__class__ is not GridValues:
            # a pole marker (value None) is stored as itself, a finite value as its value
            values = GridValues(tuple([v if v[0] is None else v[0] for v in values]))
        return super().__new__(cls, region, values)


def sample_grid(region: Region, selector: str, workers: int = 1) -> ValueGrid:
    """Evaluate the selected function over the region, row by row.

    Every selector takes its values from rows of (sm, cm) pairs, each the
    sum of its column's and its row's pair by the addition theorem or,
    where a rule of the module docstring sends it there, the kernel's at
    the pixel, and stores only the selected plain value. Pole pixels hold
    the very markers ``sm_cm`` and ``wp`` return; the pixels the kernel ran
    on and every pixel of a grid where it runs at every pixel are bit for
    bit theirs, and the tests hold every other value within
    2e-13 * max(1, |v|) of theirs.

    ``workers`` must be at least 1 and changes nothing: rows run in order on
    the calling thread, since evaluation is pure Python and holds the
    interpreter lock. It is accepted only because the benchmark still
    passes it.
    """
    if workers < 1:
        raise ValueError(f"workers must be at least 1, got {workers}")
    rows = _selected_rows(region, selector)
    # rows are chained into the grid's tuple, so no whole-grid list is built
    return ValueGrid(region, GridValues(tuple(chain.from_iterable(rows))))


def _selected_rows(region: Region, selector: str):
    """One list per row of the selected function's plain values, with the
    evaluator's marker at a pole of sm and cm and at a lattice point of wp:
    the one selection both ``sample_grid`` and ``write_grid`` run. The
    selector is checked here, before any row is sampled.
    """
    if selector not in SELECTORS:
        raise ValueError(f"selector must be one of {SELECTORS}, got {selector!r}")
    rows = _pair_rows(_CTX, region, selector)
    # a pole pair is (None, j)
    if selector == "sm":
        return ([_POLES[c] if s is None else s for s, c in row] for row in rows)
    if selector == "cm":
        return ([_POLES[c] if s is None else c for s, c in row] for row in rows)
    return (list(starmap(_wp_of_pair, row)) for row in rows)


def _pair_rows(ctx, region: Region, selector: str):
    """One list per row of plain (sm, cm), or (None, j) on pole j: the sums
    of each column's and each row's kernel pair, or the kernel at the pixel
    where a rule of the module docstring (for wp, the lattice rule too)
    sends it."""
    # sm and cm sums skip the lattice test
    gap = STEP_LATTICE_GAP if selector == "wp" else None
    xs, ys = region.xs(), region.ys()
    if min(region.nx, region.ny) == 1 or max(abs(xs[0]), abs(xs[-1]), abs(ys[0]), abs(ys[-1])) > STEP_MAX_COORD:
        for y in ys:
            yield [_pair(ctx, complex(x, y)) for x in xs]
        return
    # each column's pair and the products the addition reads of it, or None
    # on a pole
    cols = []
    for x in xs:
        s, c = _pair(ctx, complex(x))
        cols.append(None if s is None else (s, c, s * c, c * c, s * s))
    top, least = STEP_MAX, STEP_MIN_DEN
    for y in ys:
        # the imaginary axis keeps K/2 from every pole, so this pair is finite
        sh, ch = _pair(ctx, complex(0.0, y))
        sh2, chsh, ch2 = sh * sh, ch * sh, ch * ch
        row = []
        append = row.append
        for x, col in zip(xs, cols):
            if col is not None:
                # identities.add of (s, c) at x and (sh, ch) at iy, inline
                s, c, sc, cc, ss = col
                den = sc * sh2 + ch
                if abs(den) >= least:
                    s, c = (s + cc * chsh) / den, (c * ch2 - ss * sh) / den
                    if abs(s) <= top and abs(c) <= top and (gap is None or abs(1.0 - c) > gap):
                        append((s, c))
                        continue
            append(_pair(ctx, complex(x, y)))
        yield row


# colorsys's constants, to the bit
_ONE_THIRD, _ONE_SIXTH, _TWO_THIRD = 1.0 / 3.0, 1.0 / 6.0, 2.0 / 3.0


def domain_color(grid: ValueGrid) -> bytes:
    """Render the grid as a binary PPM image (P6, maxval 255)."""
    return b"".join(_encode(grid.region, _value_rows(grid), "ppm"))


def grid_to_csv(grid: ValueGrid) -> str:
    """Numeric dump, one "re,im,s_re,s_im,pole" line per sample point.

    17 significant digits; pole rows carry nan values and pole = 1. Each
    column's x and each row's y is formatted once.
    """
    text = ""
    for row in _encode(grid.region, _value_rows(grid), "csv"):
        # CPython extends a str that only this name holds in place, so the
        # text is built in one copy; a join would hold the rows beside it
        text += row
    return text


def write_grid(out, region: Region, selector: str, fmt: str) -> None:
    """Sample the selected function over the region and write it to ``out``
    as ``fmt``, "ppm" or "csv", a row at a time.

    The output is ``domain_color(sample_grid(region, selector))``
    (bytes) or ``grid_to_csv(...)`` of it (text), byte for byte, and goes to
    ``out.write`` in that type: the header, then one call per row as the row
    is sampled. The bytes agree because both writers select their values
    through one function, poles as the evaluator's markers, and encode them
    with one encoder per format. Memory stays one row's worth for every
    selector, whatever ``ny``: no ``ValueGrid`` is built.
    """
    rows = _selected_rows(region, selector)
    if fmt not in _FORMATS:
        raise ValueError(f"format must be one of {_FORMATS}, got {fmt!r}")
    write = out.write
    for chunk in _encode(region, rows, fmt):
        write(chunk)


def _value_rows(grid: ValueGrid):
    """The grid's stored plain values, one slice per row."""
    region, values = grid
    items = values._items
    nx, ny = region.nx, region.ny
    if len(items) != nx * ny:
        raise ValueError(f"grid has {len(items)} values; its {nx}x{ny} region needs {nx * ny}")
    return (items[i : i + nx] for i in range(0, len(items), nx))


def _encode(region: Region, rows, fmt: str):
    """The header, then each row's encoding: the one encoder per format that
    both the in-memory writers and ``write_grid`` run."""
    if fmt == "ppm":
        yield f"P6\n{region.nx} {region.ny}\n255\n".encode("ascii")
        for j, row in enumerate(rows):
            try:
                hues, lights = _hue_light_row(row)
            except OverflowError:
                # abs overflowed on a modulus above the largest double
                hues, lights = _hue_light_huge(row)
            try:
                pixels = _rgb_row(hues, lights)
            except ValueError:
                # only a NaN lightness fails to round, and only a value
                # that is not finite gives one
                raise _not_finite(row, j) from None
            yield pixels
        return
    yield "re,im,s_re,s_im,pole\n"
    # float(x) is complex(x, y).real, also for an int centre
    xs = [f"{float(x):.17g}," for x in region.xs()]
    for y, row in zip(region.ys(), rows):
        yield _csv_row(xs, f"{float(y):.17g},", row)


def _hue_light_row(values) -> tuple:
    """The PPM encoder's first stage: a row of plain values' hues and
    lightnesses, as two lists. A pole takes lightness 1.0 (white), a value
    of magnitude <= ZERO_CLIP 0.0 (black). A pole is known by its class:
    unpickled grids hold copies of the evaluator's markers."""
    hues, lights = [], []
    add_hue, add_light = hues.append, lights.append
    for value in values:
        if value.__class__ is EllipticValue:
            hue, light = 0.0, 1.0
        else:
            mag = abs(value)
            if mag <= ZERO_CLIP:
                hue, light = 0.0, 0.0
            else:
                x = log1p(mag)
                hue = (atan2(value.imag, value.real) / _TWO_PI) % 1.0
                light = _L_MIN + _L_SPAN * x / (1.0 + x)
        add_hue(hue)
        add_light(light)
    return hues, lights


def _hue_light_huge(values) -> tuple:
    """``_hue_light_row`` of a row on which abs overflows, run one value at a
    time. A value whose modulus is above the largest double takes the
    lightness of log1p(|v|) = log(|v / 2|) + log(2): 1 is far below the last
    bit of |v| there, and halving the parts is exact."""
    hues, lights = [], []
    for value in values:
        try:
            (hue,), (light,) = _hue_light_row((value,))
        except OverflowError:
            x = log(abs(complex(value.real * 0.5, value.imag * 0.5))) + _LOG_2
            hue = (atan2(value.imag, value.real) / _TWO_PI) % 1.0
            light = _L_MIN + _L_SPAN * x / (1.0 + x)
        hues.append(hue)
        lights.append(light)
    return hues, lights


def _rgb_row(hues, lights) -> bytes:
    """The PPM encoder's second stage: ``colorsys.hls_to_rgb(hue, light,
    1.0)`` of each pair, each channel rounded as int(255 * c + 0.5), for hue
    in [-1/3, 4/3] and lightness in [0, 1], with colorsys's float operations
    in its order but two whose result is known. A NaN lightness raises
    ValueError."""
    out = []
    append = out.append
    for hue, light in zip(hues, lights):
        # colorsys's m2 and m1 = 2.0 * light - m2 at saturation 1.0. Below
        # 0.5, m1 is light * 2.0 subtracted from itself: 0.0, byte 0. Above,
        # m2 = light + 1.0 - light lies within 2**-53 of 1.0: byte 255.
        if light <= 0.5:
            m1, m2 = 0.0, light * 2.0
            lo, hi = 0, int(255.0 * m2 + 0.5)
        else:
            m2 = light + 1.0 - light
            m1 = 2.0 * light - m2
            lo, hi = int(255.0 * m1 + 0.5), 255
        # colorsys._v at the red, green and blue hues, each in (-1, 2). The
        # compare and the add or subtract are its hue % 1.0 there: below 0
        # Python's % adds 1.0, and above 1 subtracting 1.0 is exact
        # (Sterbenz).
        for h in (hue + _ONE_THIRD, hue, hue - _ONE_THIRD):
            if h >= 1.0:
                h -= 1.0
            elif h < 0.0:
                h += 1.0
            if h < 0.5:
                append(hi if h >= _ONE_SIXTH else int(255.0 * (m1 + (m2 - m1) * h * 6.0) + 0.5))
            else:
                append(lo if h >= _TWO_THIRD else int(255.0 * (m1 + (m2 - m1) * (_TWO_THIRD - h) * 6.0) + 0.5))
    return bytes(out)


def _not_finite(row, j: int) -> ValueError:
    """The error for row j's first value that is neither finite nor a pole."""
    i, value = next((i, v) for i, v in enumerate(row)
                    if v.__class__ is not EllipticValue and not (isfinite(v.real) and isfinite(v.imag)))
    return ValueError(f"cannot color {value!r} at column {i}, row {j}: only finite values and poles have a color")


def _csv_row(xs: list, y_text: str, values) -> str:
    """One row's CSV lines, each ending in a newline, from the formatted
    column prefixes ``xs``, the row's ``y_text`` and its plain values."""
    return "".join([
        f"{x_text}{y_text}nan,nan,1\n" if value.__class__ is EllipticValue
        else f"{x_text}{y_text}{value.real:.17g},{value.imag:.17g},0\n"
        for x_text, value in zip(xs, values)
    ])
