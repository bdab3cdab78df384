"""Algebraic identities on (sm, cm) value pairs.

Every operation here is a rational map on function values; nothing is
evaluated from scratch. They serve both as user-facing building blocks
(argument addition, duplication, triplication, 2K translation, the
Weierstrass bridge) and as independent cross-checks of the global evaluator.
"""

from ._record import _new, record
from .errors import DegenerateDenominatorError

#: Below this magnitude a denominator is treated as degenerate: the target
#: argument of the map sits on or too near a pole. Shared with the evaluator.
DENOM_TOL = 1e-8


class FunctionPair(record("FunctionPair", "s c")):
    """Values (s, c) = (sm(z), cm(z)) at a common argument z."""

    __slots__ = ()


class WeierstrassValue(record("WeierstrassValue", "p p_prime")):
    """A point (p, p') on the curve p'^2 = 4 p^3 - 1/27."""

    __slots__ = ()


def _require(den: complex, op: str) -> complex:
    if abs(den) < DENOM_TOL:
        raise DegenerateDenominatorError(
            f"{op}: denominator magnitude {abs(den):.3e} below {DENOM_TOL:.0e}"
        )
    return den


def add(a: FunctionPair, z: FunctionPair) -> FunctionPair:
    """Pair at the sum of the two arguments."""
    den = _require(a.s * a.c * z.s * z.s + z.c, "addition")
    return _new(FunctionPair, (
        (a.s + a.c * a.c * z.s * z.c) / den,
        (a.c * z.c * z.c - a.s * a.s * z.s) / den,
    ))


def duplicate(p: FunctionPair) -> FunctionPair:
    """Pair at twice the argument.

    s(2z) = s (1 + c^3) / (c (1 + s^3)),  c(2z) = (c^3 - s^3) / (c (1 + s^3)).
    """
    return _new(FunctionPair, duplicate_values(p.s, p.c, 1))


def duplicate_values(s: complex, c: complex, times: int) -> tuple[complex, complex]:
    """(sm, cm) at 2**times the argument of (s, c), by ``duplicate``'s formula
    on plain complex values."""
    for _ in range(times):
        s3 = s * s * s
        c3 = c * c * c
        den = c * (1.0 + s3)
        if abs(den) < DENOM_TOL:
            _require(den, "duplication")
        s, c = s * (1.0 + c3) / den, (c3 - s3) / den
    return s, c


def triplicate(p: FunctionPair) -> FunctionPair:
    """Pair at three times the argument."""
    s3 = p.s * p.s * p.s
    c3 = p.c * p.c * p.c
    s6 = s3 * s3
    c6 = c3 * c3
    den = _require(c3 - s6 + 3.0 * s3 * c3 + s3 * c6, "triplication")
    return _new(FunctionPair, (
        p.s * p.c * (2.0 + c6 - s3 * c3 + s6) / den,
        (c6 - s3 - 3.0 * s3 * c3 - s6 * c3) / den,
    ))


def translate_2K(p: FunctionPair) -> FunctionPair:
    """Pair at the argument shifted by 2K: (s, c) -> (-c/s, 1/s)."""
    _require(p.s, "2K translation")
    return _new(FunctionPair, (-p.c / p.s, 1.0 / p.s))


def to_weierstrass(p: FunctionPair) -> WeierstrassValue:
    """Map a pair to (p, p') via 3p = s/(1 - c) and 3p' = (c + 1)/(c - 1).

    Degenerates exactly at the lattice points, where c = 1 and the
    Weierstrass function has its double pole.
    """
    den = _require(1.0 - p.c, "Weierstrass map")
    return _new(WeierstrassValue, (p.s / (3.0 * den), (p.c + 1.0) / (3.0 * (p.c - 1.0))))


def from_weierstrass(w: WeierstrassValue) -> FunctionPair:
    """Invert to_weierstrass: c = (3p' + 1)/(3p' - 1), s = 6p/(1 - 3p')."""
    den = _require(3.0 * w.p_prime - 1.0, "inverse Weierstrass map")
    return _new(FunctionPair, (-6.0 * w.p / den, (3.0 * w.p_prime + 1.0) / den))
