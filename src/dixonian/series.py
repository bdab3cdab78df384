"""Taylor coefficients of sm and cm about 0, and their local evaluation.

sm and cm solve cm' = -sm^2, sm' = cm^2 with cm(0) = 1, sm(0) = 0. Equating
powers of z in the two equations gives a triangular recurrence over the
rationals:

    (n+1) * s[n+1] = sum_{k=0..n} c[k] * c[n-k]
    (n+1) * c[n+1] = -sum_{k=0..n} s[k] * s[n-k]

Its coefficients are the same in every process, so evaluation reads their
correctly rounded doubles from the checked-in table ``_tables`` (through
MAX_ORDER), and a pair of order n takes a prefix of it. The exact
``fractions.Fraction`` coefficients, the ground truth the table is derived
from and tested against, are built from the recurrence only when a caller
reads them.
"""

from __future__ import annotations

import math
from functools import cached_property, lru_cache

from ._tables import P_COEFFS, Q_COEFFS
from .errors import ConvergenceError

DEFAULT_ORDER = 48
MAX_ORDER = 64

#: Radius of the disc on which truncated evaluation is permitted. Chosen
#: inside the guaranteed-existence radius 2**(-2/3) = 0.62996..., leaving
#: ample tail margin at the default order.
SERIES_EVAL_RADIUS = 0.5

#: Bound on the truncation error of eval_series.
SERIES_TOL = 1e-13

#: Conservative lower bound on the convergence radius (the nearest poles sit
#: at distance K = 1.7666... from 0); used only when a measured coefficient
#: ratio is unavailable.
_FALLBACK_STEP = (1.0 / 1.7) ** 3


class SeriesPair:
    """Taylor coefficients of sm (``s_coeffs``) and cm (``c_coeffs``) about 0.

    ``s_coeffs[n]`` is the exact rational coefficient of z**n; both tuples
    run from index 0 through ``order`` inclusive, and are built from the
    recurrence the first time either is read. Evaluation never reads them:
    it takes the order's prefix of the binary64 table. Everything else
    evaluation needs is derived from that prefix once, on first use. Two
    pairs are equal when their orders are, and so their coefficients; pairs
    are not hashable.
    """

    __hash__ = None

    def __init__(self, order: int) -> None:
        self.order = order
        # sm(z) = z * P(z^3) and cm(z) = Q(z^3) in binary64
        self._s_packed = P_COEFFS[: (order + 2) // 3]
        self._c_packed = Q_COEFFS[: order // 3 + 1]

    @cached_property
    def _exact(self) -> tuple[tuple, tuple]:
        return _recurrence(self.order)

    @property
    def s_coeffs(self) -> tuple:
        return self._exact[0]

    @property
    def c_coeffs(self) -> tuple:
        return self._exact[1]

    def __repr__(self) -> str:
        return (
            f"SeriesPair(s_coeffs={self.s_coeffs!r}, c_coeffs={self.c_coeffs!r}, "
            f"order={self.order!r})"
        )

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return self.order == other.order

    @cached_property
    def _horner_steps(self) -> tuple[float | None, tuple[tuple[float, float], ...]]:
        """Coefficients of P and Q from the top down, paired for one loop.

        Q has as many coefficients as P or one more; that extra top
        coefficient of Q comes first, on its own (None when there is none).
        """
        s_rev = self._s_packed[::-1]
        c_rev = self._c_packed[::-1]
        extra = len(c_rev) - len(s_rev)
        return (c_rev[0] if extra else None), tuple(zip(s_rev, c_rev[extra:]))

    @cached_property
    def _tail_fits(self) -> tuple[tuple[float, int, float], ...]:
        """(|a|, power of z, decay step per power of z**3) of the last nonzero
        retained term, for sm and then cm."""
        return _tail_fit(self._s_packed, 1), _tail_fit(self._c_packed, 0)

    @cached_property
    def eval_radius(self) -> float:
        """Largest radius <= SERIES_EVAL_RADIUS at which the tail bound meets
        SERIES_TOL: evaluation at this tolerance works anywhere inside it."""
        if _tail_bound(self, SERIES_EVAL_RADIUS) <= SERIES_TOL:
            return SERIES_EVAL_RADIUS
        # the bound grows with r: bisect down to adjacent doubles
        lo, hi = 0.0, SERIES_EVAL_RADIUS
        while True:
            mid = 0.5 * (lo + hi)
            if mid in (lo, hi):
                return lo
            if _tail_bound(self, mid) <= SERIES_TOL:
                lo = mid
            else:
                hi = mid

    def halvings(self, r: float) -> int:
        """How many halvings bring the radius r inside eval_radius."""
        k = 0
        radius = self.eval_radius
        while r > radius:
            r *= 0.5
            k += 1
        return k


def generate_series(order: int = DEFAULT_ORDER) -> SeriesPair:
    """The series pair of the order: a prefix of the binary64 table, with
    the exact coefficients 0..order built from the recurrence on first read.

    Each order's pair is made once per process; later calls return the same
    pair. ``order`` outside 1..MAX_ORDER is a usage error.
    """
    if not 1 <= order <= MAX_ORDER:
        raise ValueError(f"series order must be in 1..{MAX_ORDER}, got {order}")
    return _generate(order)


@lru_cache(maxsize=None, typed=True)
def _generate(order: int) -> SeriesPair:
    return SeriesPair(order)


def _recurrence(order: int) -> tuple[tuple, tuple]:
    """The exact coefficients 0..order of sm and cm, as Fractions."""
    from fractions import Fraction

    s = [Fraction(0)] * (order + 1)
    c = [Fraction(0)] * (order + 1)
    c[0] = Fraction(1)
    # only c[3j] and s[3j+1] are nonzero, so the sum of c[k]*c[n-k] vanishes
    # unless n = 0 (mod 3), that of s[k]*s[n-k] unless n = 2 (mod 3), and in
    # each only every third k contributes
    for n in range(order):
        if n % 3 == 0:
            s[n + 1] = sum(c[k] * c[n - k] for k in range(0, n + 1, 3)) / (n + 1)
        elif n % 3 == 2:
            c[n + 1] = -sum(s[k] * s[n - k] for k in range(1, n + 1, 3)) / (n + 1)
    return tuple(s), tuple(c)


def eval_series(pair: SeriesPair, z: complex) -> tuple[complex, complex]:
    """Evaluate the truncated series at z, for |z| <= SERIES_EVAL_RADIUS.

    Horner evaluation in u = z**3 (two of every three coefficients vanish).
    The truncation error is bounded by a geometric tail fitted to the decay
    of the retained coefficients, with a 2x guard. The bound grows with |z|
    and stays within SERIES_TOL up to the pair's ``eval_radius`` and no
    farther, so it is computed only beyond that radius, where it exceeds
    SERIES_TOL and ConvergenceError is raised, signalling the order is too
    small. A |z| beyond SERIES_EVAL_RADIUS, or not a number, raises
    ValueError.
    """
    z = complex(z)
    r = abs(z)
    if not r <= pair.eval_radius:
        if not r <= SERIES_EVAL_RADIUS:
            raise ValueError(
                f"|z| = {r:.6g} exceeds the series evaluation radius {SERIES_EVAL_RADIUS}"
            )
        tail = _tail_bound(pair, r)
        raise ConvergenceError(
            f"series order {pair.order} cannot meet tol {SERIES_TOL:.1e} at |z| = {r:.3g} "
            f"(tail bound {tail:.1e})",
            residual=tail,
        )
    u = z * z * z
    c_top, steps = pair._horner_steps
    s = c = 0j
    if c_top is not None:
        c = c * u + c_top
    for a, b in steps:
        s = s * u + a
        c = c * u + b
    return s * z, c


def _tail_fit(packed: tuple[float, ...], offset: int) -> tuple[float, int, float]:
    # packed[0] is 1 for both sm and cm, so a nonzero term always exists
    nonzero = [i for i, a in enumerate(packed) if a != 0.0]
    last = nonzero[-1]
    if len(nonzero) >= 2:
        prev = nonzero[-2]
        step = abs(packed[last] / packed[prev]) ** (1.0 / (last - prev))
    else:
        step = _FALLBACK_STEP
    return abs(packed[last]), 3 * last + offset, step


def _tail_bound(pair: SeriesPair, r: float) -> float:
    """Bound on the dropped terms of sm and cm at radius r: each last term
    times the geometric sum x + x^2 + ... of its decay, with a 2x guard."""
    bound = 0.0
    for coeff, power, step in pair._tail_fits:
        x = step * r ** 3
        if x >= 1.0:
            return math.inf
        bound = max(bound, 2.0 * (coeff * r ** power) * x / (1.0 - x))
    return bound
