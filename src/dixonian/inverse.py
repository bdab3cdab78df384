"""Inversion of sm on its principal domain.

sm^-1(w) is the integral of (1 - t^3)^(-2/3) from 0 to w, whose Taylor
series is w 2F1(1/3, 2/3; 4/3; w^3) = sum a_n w^(3n+1) with a_n =
(2/3)_n / (n! (3n+1)) (DLMF 15.2). For |w| <= SERIES_SEED_RADIUS the seed is
that series, one Horner pass in w^3 over the tabulated a_64..a_0
(``_tables.INVERSE_COEFFS``), written out as straight-line code in
``_tables.horner_seed``: the a_n decrease, so the dropped tail is at
most a_65 x^65 / (1 - x) with x = |w|^3, which stays within binary64's unit
roundoff 2^-53 on that disc (tests/test_series.py certifies the radius).

Farther out the seed integrates (1 - sigma^3)^(-2/3) along the straight
segment from 0 to w with the principal-valued power (holomorphic throughout
the open unit disc), by tanh-sinh stopped at the first level it checks (81
integrand calls). That seed only has to land in Newton's basin. Either way
Newton steps against the forward evaluator then bring the residual
|sm(z) - w| down to ``tol``: the series seed meets it at the first residual
evaluation, the quadrature seed in one to three. The returned preimage is
the principal one, the value continuous along rays from 0; it is as
accurate as the residual makes it, about tol / |cm(z)|^2, which grows next
to the branch points.

Next to a branch point gamma**j, where the integrand blows up, the seed
comes instead from sm(gamma**j (K - y)) = gamma**j cm(y) = gamma**j (1 -
y^3/3 + ...): y is the principal cube root of 3 (1 - w gamma**-j). On the
unit circle only the six points +-gamma**j are in the domain, solved
exactly.
"""

from __future__ import annotations

import math

from ._record import record
from ._tables import horner_seed
from .constants import CONSTANTS, GAMMA_POWERS
from .errors import ConvergenceError
from .evaluator import sm_cm_values
from .quadrature import tanh_sinh

NEWTON_MAX_ITER = 50

#: Largest |w| whose seed is the series: up to 0.854 the tail it drops past
#: a_64 stays within 2^-53.
SERIES_SEED_RADIUS = 0.85

#: Newton cannot improve the iterate once |cm^2| is this small (w at a
#: branch point gamma**j, where z = gamma**j K and cm vanishes).
_FLAT_DERIVATIVE = 1e-9

#: The quadrature seed only has to land in Newton's basin, and Newton then
#: meets ``tol``; at this tolerance tanh_sinh stops at the first level it
#: checks (level 3, 81 integrand calls).
_SEED_TOL = 1e-3

#: Within this distance of a branch point the cube-root seed replaces the
#: quadrature: it costs no integrand calls and is off by about
#: |y|^6 / 18 <= 5e-19 in w. The other two preimages near gamma**j K lie
#: sqrt(3)|y| away, and the quadrature seed's error grows against |y| toward
#: the branch point: at most 1.8% of |y| at 1e-9 and 13% at 1e-15, over five
#: directions to each branch point.
_BRANCH_RADIUS = 1e-9


class InverseResult(record("InverseResult", "z residual")):
    """Principal preimage and the verified forward residual |sm(z) - w|."""

    __slots__ = ()


def sm_inverse(w: complex, tol: float = 1e-12) -> InverseResult:
    """Solve sm(z) = w for the principal z.

    Defined for |w| < 1 and, on the unit circle, for the six points
    +-gamma**j: the branch point gamma**j maps to gamma**j K and -gamma**j
    to -gamma**j K / 2 (w = 1 to K, w = -1 to -K/2). Every other |w| >= 1
    raises ValueError. Raises ConvergenceError with the best residual if
    Newton fails to reach ``tol`` in NEWTON_MAX_ITER steps.
    """
    w = complex(w)
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise ValueError(f"non-finite argument {w}")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    if w == 0:
        return InverseResult(complex(0.0), 0.0)
    if abs(w) <= SERIES_SEED_RADIUS:
        z = w * horner_seed(w * w * w)
    elif abs(w) >= 1.0:
        z = _unit_circle_preimage(w, CONSTANTS.K)
    else:
        z = _branch_guess(w, CONSTANTS.K)
        if z is None:
            z = w * tanh_sinh(lambda x, _: (1.0 - (w * x) ** 3) ** (-2.0 / 3.0), tol=_SEED_TOL)

    best_r = math.inf
    for _ in range(NEWTON_MAX_ITER):
        s, c = sm_cm_values(z)
        r = abs(s - w)
        if r <= tol:
            return InverseResult(z, r)
        if r < best_r:
            best_r = r
        c2 = c * c
        if abs(c2) < _FLAT_DERIVATIVE:
            break
        z = z - (s - w) / c2
    raise ConvergenceError(
        f"Newton did not reach {tol:.1e}; best residual {best_r:.3e}",
        residual=best_r,
    )


def _branch_guess(w: complex, K: float) -> complex | None:
    """gamma**j (K - y) with y = (3 (1 - w gamma**-j))**(1/3), for w within
    _BRANCH_RADIUS of the branch point gamma**j; None farther out."""
    for b in GAMMA_POWERS:
        if abs(w - b) <= _BRANCH_RADIUS:
            y = (3.0 * (1.0 - w * b.conjugate())) ** (1.0 / 3.0)
            return b * (K - y)
    return None


def _unit_circle_preimage(w: complex, K: float) -> complex:
    """gamma**j K at the branch point w = gamma**j, -gamma**j K / 2 at
    w = -gamma**j; every other |w| >= 1 is outside the principal domain."""
    for b in GAMMA_POWERS:
        if w == b:
            return b * K
        if w == -b:
            return -b * K / 2.0
    raise ValueError("sm_inverse requires |w| < 1, or w = +-gamma**j on the unit circle")
