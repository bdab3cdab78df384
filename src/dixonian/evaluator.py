"""Global evaluation of sm and cm anywhere in the complex plane.

Pipeline: reduce the argument modulo the period lattice to the cell centered
at 0; report a pole if the reduced point sits on one; rescue near-pole
arguments through the 2K translation identity (full relative accuracy where
direct duplication would cancel); otherwise halve k times into the series
disc, evaluate the series there and duplicate k times back out. Every pole
representative is K from 0, so only a reduced point about K - NEAR_TOL or
farther from 0 has its nearest pole framed. Outside the near-pole discs no
duplication denominator comes near zero: one would vanish only where the
doubled point is a pole, and the doubles of the poles lie outside the cell.

One kernel, ``_pair``, runs this pipeline, halvings included, and returns
plain complex values; ``sm_cm`` and ``wp`` wrap them in records, the grid
sampler runs it once per column and once per row and adds their pairs by
the addition theorem, and ``compute_K_root`` root-finds K through it.
"""

from . import identities, series
from ._record import _new, record
from .constants import CONSTANTS, GAMMA_POWERS, DixonConstants
from .errors import ConvergenceError, PoleError
from .identities import FunctionPair
from .series import SERIES_EVAL_RADIUS

#: Closer than this to a pole: report the pole itself.
POLE_TOL = 1e-12
#: Closer than this to a pole: evaluate through the 2K translation.
NEAR_TOL = 0.05
#: From this |z_reduced| on the kernel frames the nearest pole. Every pole
#: representative is K from 0, so a point closer to 0 is more than NEAR_TOL
#: from each, and the frame would send it to the series anyway; the 1e-6
#: covers the rounding of both distances many times over.
_FRAME_RADIUS = CONSTANTS.K - NEAR_TOL - 1e-6
#: Largest |Re z| and |Im z| the reduction accepts. From 2**45 on, one ulp
#: of z (2**-7) exceeds 1e-3 of the period 3K, so the reduced argument says
#: little about the point meant; from about 1e17 it comes out exactly 0.
MAX_ARGUMENT = 2.0 ** 45


class EllipticValue(record("EllipticValue", "value pole_rep", defaults=(None,))):
    """A finite complex value, or a pole marker with its lattice representative.

    ``value`` is None exactly at a pole; ``pole_rep`` is None off the poles.
    The class call refuses both set with ValueError. Immutable, and equal
    only to an EllipticValue with equal fields. The kernel builds instances
    with ``_new``, which skips the class call and its check.
    """

    __slots__ = ()

    def __new__(cls, value, pole_rep=None):
        if value is not None and pole_rep is not None:
            raise ValueError(f"an EllipticValue is a finite value or a pole, not both: got {value!r} and {pole_rep!r}")
        return super().__new__(cls, value, pole_rep)

    @property
    def is_pole(self) -> bool:
        return self.value is None

    @classmethod
    def finite(cls, v: complex) -> "EllipticValue":
        return _new(cls, (complex(v), None))

    @classmethod
    def pole(cls, rep: complex) -> "EllipticValue":
        return _new(cls, (None, complex(rep)))


class LatticeReduction(record("LatticeReduction", "m n z_reduced")):
    """Integer lattice coordinates and the remainder in the centered cell."""

    __slots__ = ()


class _Context(record("_Context", "constants pair")):
    """The DixonConstants and the SeriesPair the kernel reads."""

    __slots__ = ()


#: The kernel's one context.
_CTX = _Context(constants=CONSTANTS, pair=series.generate_series())

#: What stands at a singular point, built once and handed out by ``sm_cm``,
#: ``wp`` and the grid writers: the marker of sm and cm on pole j (the class
#: of ``pole_reps[j]``), wp's marker on a lattice point, and plain wp on pole j.
_POLES = tuple([EllipticValue.pole(rep) for rep in CONSTANTS.pole_reps])
_LATTICE = EllipticValue.pole(0j)
_WP_AT_POLES = tuple([g / 3.0 for g in GAMMA_POWERS])


def _context(order: int) -> _Context:
    """``_CTX``, for ``benchmarks/run.py:294`` and ``benchmarks/verify.py:126``,
    which pass ``series.DEFAULT_ORDER``; any other order raises ValueError."""
    series._pinned(order)
    return _CTX


def reduce_to_fundamental(z: complex, consts: DixonConstants | None = None) -> LatticeReduction:
    """Split z = m*w1 + n*w2 + z_reduced with z_reduced in the centered cell.

    A part of z beyond MAX_ARGUMENT in magnitude, or not finite, raises
    ValueError.
    """
    z = complex(z)
    # also false for NaN and the infinities
    if not (abs(z.real) <= MAX_ARGUMENT and abs(z.imag) <= MAX_ARGUMENT):
        raise ValueError(f"cannot reduce {z}: each part must be finite and at most 2**45 in magnitude")
    if consts is None:
        consts = CONSTANTS
    w1, w2 = consts.periods
    b = z.imag / w2.imag
    a = (z.real - b * w2.real) / w1.real
    m, n = round(a), round(b)
    return _new(LatticeReduction, (m, n, z - (m * w1 + n * w2)))


def sm_cm(z: complex) -> tuple[EllipticValue, EllipticValue]:
    """Evaluate (sm(z), cm(z)); both values share all intermediate work.

    Each result is finite or a pole marker; poles are reported when the
    reduced argument is within POLE_TOL of a pole representative.
    """
    s, c = _pair(_CTX, z)
    if s is None:
        return _POLES[c], _POLES[c]
    return _new(EllipticValue, (s, None)), _new(EllipticValue, (c, None))


def _pair(ctx: _Context, z: complex) -> tuple:
    """The kernel: plain (sm, cm) at z, or (None, j) where z sits on pole j
    (the class of ``pole_reps[j]``)."""
    zr = reduce_to_fundamental(z, ctx.constants).z_reduced
    r = abs(zr)
    if r >= _FRAME_RADIUS:
        j, w = _nearest_pole_frame(ctx, zr)
        dist = abs(w)
        if dist <= POLE_TOL:
            return None, j
        if dist <= NEAR_TOL:
            return _near_pole_pair(ctx, j, w)
    # k halvings bring zr (|zr| < 4.6 in the cell) into the series disc
    k = 0
    while r > SERIES_EVAL_RADIUS:
        r *= 0.5
        k += 1
    s, c = series.eval_series(ctx.pair, zr / (1 << k))
    if k:
        return identities.duplicate_values(s, c, k)
    return s, c


def compute_K_root() -> float:
    """First positive zero of cm, by bisection then Newton (cm' = -sm^2),
    each cm from the kernel.

    Returns t in (1.5, 2.0) with |cm(t)| <= 1e-14.
    """
    a, b = 1.5, 2.0
    fa = _pair(_CTX, a)[1].real
    fb = _pair(_CTX, b)[1].real
    if not (fa > 0.0 > fb):
        raise ConvergenceError(
            f"no sign change of cm on [{a}, {b}]: cm({a}) = {fa:.3g}, cm({b}) = {fb:.3g}"
        )
    for _ in range(20):
        mid = 0.5 * (a + b)
        if _pair(_CTX, mid)[1].real > 0.0:
            a = mid
        else:
            b = mid
    t = 0.5 * (a + b)
    for _ in range(20):
        s, c = _pair(_CTX, t)
        c = c.real
        if abs(c) <= 1e-14:
            return t
        t += c / (s.real * s.real)
    raise ConvergenceError(f"Newton stalled at |cm(t)| = {abs(c):.3e}", residual=abs(c))


def sm(z: complex) -> EllipticValue:
    return sm_cm(z)[0]


def cm(z: complex) -> EllipticValue:
    return sm_cm(z)[1]


def sm_cm_values(z: complex) -> tuple[complex, complex]:
    """Finite (sm, cm) values; raises PoleError when z is on a pole."""
    s, c = _pair(_CTX, z)
    if s is None:
        raise PoleError(CONSTANTS.pole_reps[c])
    return s, c


def wp(z: complex) -> EllipticValue:
    """Weierstrass p for the sm/cm lattice (invariants g2 = 0, g3 = 1/27).

    Double poles at the lattice points. Finite everywhere else, including at
    the simple poles of sm and cm, where s/(3(1 - c)) has the limit
    gamma**j / 3.
    """
    v = _wp_of_pair(*_pair(_CTX, z))
    return v if v is _LATTICE else _new(EllipticValue, (v, None))


def _wp_of_pair(s, c) -> complex | EllipticValue:
    """Plain wp from the kernel's plain (sm, cm), or from its (None, j) on
    pole j; ``_LATTICE`` at a lattice point."""
    if s is None:
        return _WP_AT_POLES[c]
    den = 1.0 - c
    if abs(den) < identities.DENOM_TOL:
        return _LATTICE
    return s / (3.0 * den)


def _nearest_pole_frame(ctx: _Context, zr: complex) -> tuple[int, complex]:
    """Index j of the nearest pole -K*gamma**j and w = gamma**-j * zr + K.

    |w| is the distance to that pole; w is the offset after rotating the pole
    onto the class of 2K. Non-interior pole copies sit at least 0.6 from the
    closed cell, so the three representatives suffice.
    """
    p0, p1, p2 = ctx.constants.pole_reps
    # gamma**-j = conj(GAMMA_POWERS[j]) = GAMMA_POWERS[-j % 3]
    _, g2, g1 = GAMMA_POWERS
    best_j, best_w = 0, zr - p0
    best_d = abs(best_w)
    w = g1 * (zr - p1)
    d = abs(w)
    if d < best_d:
        best_j, best_w, best_d = 1, w, d
    w = g2 * (zr - p2)
    if abs(w) < best_d:
        best_j, best_w = 2, w
    return best_j, best_w


def _near_pole_pair(ctx: _Context, j: int, w: complex) -> FunctionPair:
    # zr = gamma**j * (2K + w) modulo the lattice, with |w| < NEAR_TOL, so
    # s(zr) = gamma**j * (-c(w)/s(w)) and c(zr) = 1/s(w); s(w) ~ w carries
    # full relative accuracy this close to 0, inside the series disc
    s, c = series.eval_series(ctx.pair, w)
    return _new(FunctionPair, (GAMMA_POWERS[j] * (-c / s), 1.0 / s))
