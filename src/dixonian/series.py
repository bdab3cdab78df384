"""Taylor coefficients of sm and cm about 0, and their local evaluation.

sm and cm solve cm' = -sm^2, sm' = cm^2 with cm(0) = 1, sm(0) = 0. Equating
powers of z in the two equations gives a triangular recurrence over the
rationals:

    (n+1) * s[n+1] = sum_{k=0..n} c[k] * c[n-k]
    (n+1) * c[n+1] = -sum_{k=0..n} s[k] * s[n-k]

The library keeps one truncation of the two series, through z**48
(DEFAULT_ORDER). Its coefficients are the same in every process, so
evaluation runs on their correctly rounded doubles from the checked-in
table ``_tables``, through the Horner function generated there with those
doubles written in (``_tables.horner_pq``). The exact
``fractions.Fraction`` coefficients, the ground truth the table is derived
from and tested against, are built from the recurrence only when a caller
reads them.
"""

from ._tables import P_COEFFS, Q_COEFFS, horner_pq

#: The one series order: the highest power of z the series keep. 48 was the
#: default when the order could still be chosen, so every output keeps its
#: bits (README, "One series order"). The name is the one
#: ``benchmarks/verify.py`` imports.
DEFAULT_ORDER = 48

#: Radius of the disc on which truncated evaluation is permitted. Chosen
#: inside the guaranteed-existence radius 2**(-2/3) = 0.62996..., leaving
#: tail margin at DEFAULT_ORDER.
SERIES_EVAL_RADIUS = 0.5

#: Bound on the truncation error of eval_series.
SERIES_TOL = 1e-13


class SeriesPair:
    """Taylor coefficients of sm (``s_coeffs``) and cm (``c_coeffs``) about 0.

    ``s_coeffs[n]`` is the exact rational coefficient of z**n; both tuples
    run from index 0 through ``order`` (DEFAULT_ORDER) inclusive, and are
    built from the recurrence the first time either is read. Evaluation
    never reads them: it calls ``_horner``, the table's generated Horner
    function, whose steps ``_horner_steps`` lists. Every pair holds the
    same coefficients, so any two are equal; pairs are not hashable.
    """

    __hash__ = None
    order = DEFAULT_ORDER

    def __init__(self) -> None:
        # sm(z) = z * P(z^3) and cm(z) = Q(z^3) in binary64: (P(u), Q(u))
        self._horner = horner_pq
        # the coefficients of P and Q from the top down, paired as the steps
        # of one loop. Q has one more than P, and that top coefficient comes
        # first, on its own
        s_rev, c_rev = P_COEFFS[::-1], Q_COEFFS[::-1]
        self._horner_steps = c_rev[0], tuple(zip(s_rev, c_rev[1:], strict=True))

    def _exact_coeffs(self) -> tuple[tuple, tuple]:
        # not a __getattr__: a class with one leaves every attribute read of
        # its instances unspecialized, and the kernel reads the pair's
        # attributes on every call
        exact = self.__dict__.get("_exact")
        if exact is None:
            exact = self._exact = _recurrence(self.order)
        return exact

    @property
    def s_coeffs(self) -> tuple:
        return self._exact_coeffs()[0]

    @property
    def c_coeffs(self) -> tuple:
        return self._exact_coeffs()[1]

    def __repr__(self) -> str:
        return (
            f"SeriesPair(s_coeffs={self.s_coeffs!r}, c_coeffs={self.c_coeffs!r}, "
            f"order={self.order!r})"
        )

    def __eq__(self, other):
        return True if other.__class__ is self.__class__ else NotImplemented


_PAIR = SeriesPair()


def _pinned(order: int) -> None:
    """ValueError unless ``order`` is the int DEFAULT_ORDER: the check of the
    three names the benchmark still calls with its ``ORDER``."""
    if order.__class__ is not int or order != DEFAULT_ORDER:
        raise ValueError(f"the series order is fixed at {DEFAULT_ORDER}, got {order!r}")


def generate_series(order: int = DEFAULT_ORDER) -> SeriesPair:
    """The one series pair, made at import. ``order`` is there for
    ``benchmarks/run.py:234``, which passes DEFAULT_ORDER; any other value
    raises ValueError."""
    _pinned(order)
    return _PAIR


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

    Horner evaluation in u = z**3 (two of every three coefficients vanish),
    by the pair's straight-line ``_horner``. The dropped tail stays within
    SERIES_TOL on the whole disc; tests/test_series.py certifies it. A |z|
    beyond SERIES_EVAL_RADIUS, or not a number, raises ValueError.
    """
    z = complex(z)
    r = abs(z)
    if not r <= SERIES_EVAL_RADIUS:
        raise ValueError(f"|z| = {r:.6g} exceeds the series evaluation radius {SERIES_EVAL_RADIUS}")
    s, c = pair._horner(z * z * z)
    return s * z, c
