"""Independent oracles for the library, stdlib only.

``picard_coefficients``: the Taylor coefficients by fixed-point (Picard)
iteration of the integral operator on truncated polynomials over Fraction:

    s <- integral(c * c),  c <- 1 - integral(s * s)

starting from s = 0, c = 1. Each sweep fixes at least one further order, so
``order + 1`` sweeps leave coefficients 0..order exact. Shares no code with
the library's triangular recurrence.

``oracle_sm_cm``, ``oracle_wp`` and ``oracle_inverse``: values at DIGITS
decimal digits, in ``decimal``, for the tests that gate the README's
numerical contract (tests/test_contract.py). They agree with the mpmath
reference of ``benchmarks/reference.py`` within 1e-45 on the cell.
"""

from contextlib import contextmanager
from decimal import Decimal, localcontext
from fractions import Fraction
from functools import cache


def _multiply(p, q, order):
    out = [Fraction(0)] * (order + 1)
    for i, a in enumerate(p):
        if a == 0:
            continue
        for j in range(min(len(q), order - i + 1)):
            if q[j] != 0:
                out[i + j] += a * q[j]
    return out


def _integrate(p, order):
    out = [Fraction(0)] * (order + 1)
    for i in range(min(len(p), order)):
        out[i + 1] = p[i] / (i + 1)
    return out


def picard_coefficients(order):
    """Coefficient lists (s, c) for indices 0..order, exact rationals."""
    s = [Fraction(0)] * (order + 1)
    c = [Fraction(0)] * (order + 1)
    c[0] = Fraction(1)
    for _ in range(order + 1):
        s_next = _integrate(_multiply(c, c, order), order)
        c_next = [-x for x in _integrate(_multiply(s, s, order), order)]
        c_next[0] = Fraction(1)
        s, c = s_next, c_next
    return s, c


# --- sm, cm and wp at DIGITS decimal digits ------------------------------------
#
# A stdlib reference for the double-precision library, sharing no code with
# it: K from the AGM, the double input reduced exactly modulo the lattice,
# the recurrence coefficients in decimal, halving to |z| <= 1/4, Horner and
# duplication back out.

#: Decimal digits the oracle carries; the guard digits cover the rounding of
#: its few hundred operations and the cancellation of 1 - cm near 0.
DIGITS = 50
_PREC = DIGITS + 15
#: The oracle's series keep powers of z through this one; at |z| <= 1/4
#: the dropped terms are below 1e-60.
_ORDER = 75
_QUARTER = Decimal("0.25")


@contextmanager
def _precision():
    with localcontext() as ctx:
        ctx.prec = _PREC
        yield


def _mul(a, b):
    return a[0] * b[0] - a[1] * b[1], a[0] * b[1] + a[1] * b[0]


def _div(a, b):
    d = b[0] * b[0] + b[1] * b[1]
    return (a[0] * b[0] + a[1] * b[1]) / d, (a[1] * b[0] - a[0] * b[1]) / d


def _sub(a, b):
    return a[0] - b[0], a[1] - b[1]


def _abs(a):
    return (a[0] * a[0] + a[1] * a[1]).sqrt()


def _exact(z):
    """A Python number's value as a Decimal pair, exactly; a pair as it is."""
    if isinstance(z, tuple):
        return z
    z = complex(z)
    return Decimal(z.real), Decimal(z.imag)


def _pi():
    # Gauss-Legendre: the digits double with every step
    a, b, t, p = Decimal(1), 1 / Decimal(2).sqrt(), Decimal(1) / 4, Decimal(1)
    for _ in range(8):
        a, b, t, p = (a + b) / 2, (a * b).sqrt(), t - p * ((a - b) / 2) ** 2, 2 * p
    return (a + b) ** 2 / (4 * t)


def _agm(a, b):
    for _ in range(10):
        a, b = (a + b) / 2, (a * b).sqrt()
    return a


@cache
def oracle_constants():
    """K, the periods w1 = 3K and w2 = 3K*gamma, and the series' coefficients
    (of z**(3j+1) in sm and z**(3j) in cm), in decimal.

    K = 2^(4/3) 3^(1/4) pi / (6 AGM(1, (sqrt 6 + sqrt 2)/4)), from the
    singular value K(sin 15 deg) and K(k) = pi / (2 AGM(1, k')).
    """
    with _precision():
        root3 = Decimal(3).sqrt()
        k_prime = (Decimal(6).sqrt() + Decimal(2).sqrt()) / 4
        K = 2 * Decimal(2) ** (Decimal(1) / 3) * root3.sqrt() * _pi() / (6 * _agm(Decimal(1), k_prime))
        w1 = (3 * K, Decimal(0))
        w2 = (-3 * K / 2, 3 * K * root3 / 2)
        s = [Decimal(0)] * (_ORDER + 1)
        c = [Decimal(0)] * (_ORDER + 1)
        c[0] = Decimal(1)
        for n in range(_ORDER):
            s[n + 1] = sum(c[k] * c[n - k] for k in range(n + 1)) / (n + 1)
            c[n + 1] = -sum(s[k] * s[n - k] for k in range(n + 1)) / (n + 1)
        return K, w1, w2, tuple(s[1::3]), tuple(c[0::3])


def _reduced(z):
    _, w1, w2, _, _ = oracle_constants()
    n = (z[1] / w2[1]).to_integral_value()
    m = ((z[0] - n * w2[0]) / w1[0]).to_integral_value()
    return z[0] - m * w1[0] - n * w2[0], z[1] - n * w2[1]


def _horner(coeffs, u):
    acc = (Decimal(0), Decimal(0))
    for a in reversed(coeffs):
        acc = _mul(acc, u)
        acc = acc[0] + a, acc[1]
    return acc


def _sm_cm(z):
    zr = _reduced(z)
    k = 0
    r = _abs(zr)
    while r > _QUARTER:
        r /= 2
        k += 1
    h = zr[0] / 2 ** k, zr[1] / 2 ** k
    _, _, _, p, q = oracle_constants()
    u = _mul(_mul(h, h), h)
    s, c = _mul(h, _horner(p, u)), _horner(q, u)
    for _ in range(k):
        s3, c3 = _mul(_mul(s, s), s), _mul(_mul(c, c), c)
        den = _mul(c, (1 + s3[0], s3[1]))
        s, c = _div(_mul(s, (1 + c3[0], c3[1])), den), _div(_sub(c3, s3), den)
    return s, c


def oracle_sm_cm(z):
    """(sm(z), cm(z)) as Decimal pairs (re, im), for a Python number z taken
    exactly, or a Decimal pair."""
    with _precision():
        return _sm_cm(_exact(z))


def oracle_wp(z):
    """wp(z) = sm/(3 (1 - cm)) as a Decimal pair; the guard digits cover the
    cancellation of 1 - cm down to |z| = 1e-8."""
    with _precision():
        s, c = _sm_cm(_exact(z))
        return _div(s, (3 * (1 - c[0]), -3 * c[1]))


def oracle_inverse(w, z):
    """The preimage of w under sm next to z: Newton z - (sm(z) - w)/cm(z)^2
    in decimal from the double z, as a Decimal pair."""
    with _precision():
        w, z = _exact(w), _exact(z)
        tiny = Decimal(10) ** -(DIGITS - 5)
        for _ in range(20):
            s, c = _sm_cm(z)
            step = _div(_sub(s, w), _mul(c, c))
            z = _sub(z, step)
            if _abs(step) <= tiny * _abs(z):
                return z
        raise ArithmeticError(f"Newton did not settle next to {z}")


def error(got, ref):
    """|got - ref| for a Python number and a Decimal pair, as a float."""
    with _precision():
        return float(_abs(_sub(_exact(got), ref)))


def magnitude(ref):
    """|ref| of a Decimal pair, as a float."""
    with _precision():
        return float(_abs(ref))
