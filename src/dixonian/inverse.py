"""Inversion of sm on its principal domain.

The initial guess integrates (1 - sigma^3)^(-2/3) along the straight segment
from 0 to w with the principal-valued power (holomorphic throughout the open
unit disc), then Newton steps against the forward evaluator polish the
residual down to tolerance. The returned preimage is the principal one: the
value continuous along rays from 0.

Next to a branch point gamma**j, where the integrand blows up, the guess
comes instead from sm(gamma**j (K - y)) = gamma**j cm(y) = gamma**j (1 -
y^3/3 + ...): y is the principal cube root of 3 (1 - w gamma**-j).
"""

from __future__ import annotations

import math

from . import series
from ._record import record
from .constants import GAMMA_POWERS, dixon_constants
from .errors import ConvergenceError
from .evaluator import sm_cm_values
from .quadrature import tanh_sinh

NEWTON_MAX_ITER = 50

#: Newton cannot improve the iterate once |cm^2| is this small (w at the
#: branch point 1, where z = K and cm vanishes).
_FLAT_DERIVATIVE = 1e-9

#: Within this distance of a branch point the quadrature guess stops
#: converging (from about 1e-12); the cube-root guess is then off by about
#: |y|^6 / 18 <= 5e-19 in w.
_BRANCH_RADIUS = 1e-9


class InverseResult(record("InverseResult", "z residual")):
    """Principal preimage and the verified forward residual |sm(z) - w|."""

    __slots__ = ()


def sm_inverse(w: complex, tol: float = 1e-12, *, order: int = series.DEFAULT_ORDER) -> InverseResult:
    """Solve sm(z) = w for the principal z.

    Defined for |w| < 1, and for real w with |w| = 1 (the endpoint w = 1
    maps to K, w = -1 to -K/2). Raises ConvergenceError with the best
    residual if Newton fails to reach ``tol`` in NEWTON_MAX_ITER steps.
    """
    w = complex(w)
    if not (math.isfinite(w.real) and math.isfinite(w.imag)):
        raise ValueError(f"non-finite argument {w}")
    if not tol > 0.0:
        raise ValueError("tol must be positive")
    consts = dixon_constants(order)
    if w == 0:
        return InverseResult(complex(0.0), 0.0)
    if abs(w) >= 1.0:
        if w.imag != 0.0 or abs(w.real) != 1.0:
            raise ValueError("sm_inverse requires |w| < 1, or real w with |w| = 1")
        z = complex(consts.K if w.real > 0 else -consts.K / 2.0, 0.0)
    else:
        z = _branch_guess(w, consts.K)
        if z is None:
            z = w * tanh_sinh(lambda x, _: (1.0 - (w * x) ** 3) ** (-2.0 / 3.0), tol=1e-11)

    best_r = math.inf
    for _ in range(NEWTON_MAX_ITER):
        s, c = sm_cm_values(z, order=order)
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
