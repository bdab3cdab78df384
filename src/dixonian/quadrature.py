"""Tanh-sinh (double exponential) quadrature on the unit interval.

The substitution x = (1 + tanh((pi/2) sinh t)) / 2 pushes nodes toward the
endpoints double exponentially, so algebraic endpoint singularities such as
(1 - x)^(-2/3) are integrated to full precision without special casing. The
integrand receives both x and 1 - x so it can treat the singular endpoint
without cancellation.

The nodes and weights depend only on the level (step h = 2**-level), never on
the integrand, so each level's table of (weight, x, 1 - x) is built the first
time any integration reaches that level and is reused for the rest of the
process. Level 0 holds the nodes t = -5..5; each later level holds the new
nodes t = +k*h, -k*h for odd k, in pairs, in the order they are summed.
Levels 0-6 take about 0.08 MB, all levels to MAX_LEVEL 1.2 MB.
"""

from __future__ import annotations

import math

from ._record import memo
from .errors import ConvergenceError

_HALF_PI = math.pi / 2.0
_T_MAX = 5.0  # weight * (1-x)^(-2/3) is ~1e-34 here; further nodes are noise

#: Halvings of the step before tanh_sinh gives up.
MAX_LEVEL = 10


def tanh_sinh(f, tol: float = 1e-12) -> complex:
    """Integrate ``f(x, 1 - x)`` over (0, 1); ``f`` takes two floats and
    returns a complex (or float) value.

    The trapezoid step in the transformed variable is halved until two
    successive estimates agree within ``tol``. Raises ConvergenceError
    (carrying the achieved error estimate) if MAX_LEVEL halvings are not
    enough.
    """
    h = 1.0
    total = 0.0
    for w, x, omx in _level_nodes(0):
        total += w * f(x, omx)
    estimate = h * total
    diff = math.inf
    for level in range(1, MAX_LEVEL + 1):
        h *= 0.5
        new = 0.0
        for w1, x1, omx1, w2, x2, omx2 in _level_nodes(level):
            new += w1 * f(x1, omx1) + w2 * f(x2, omx2)
        refined = estimate * 0.5 + h * new
        diff = abs(refined - estimate)
        estimate = refined
        if level >= 3 and diff <= tol:
            return estimate
    raise ConvergenceError(
        f"tanh-sinh did not converge to {tol:.1e} in {MAX_LEVEL} levels "
        f"(last refinement changed the estimate by {diff:.1e})",
        residual=diff,
    )


@memo
def _level_nodes(level: int) -> tuple[tuple[float, ...], ...]:
    """The nodes a level adds, in summation order: (w, x, 1 - x) for each t
    at level 0, (w, x, 1 - x) at +t then at -t for each pair after it."""
    if level == 0:
        return tuple(_node(float(k)) for k in range(-int(_T_MAX), int(_T_MAX) + 1))
    h = 0.5 ** level
    pairs = []
    k = 1
    while k * h <= _T_MAX:
        pairs.append(_node(k * h) + _node(-k * h))
        k += 2
    return tuple(pairs)


def _node(t: float) -> tuple[float, float, float]:
    """(w, x, 1 - x) at t.

    None of the three is ever 0, so every node adds its term: 1 - x (x, for
    t < 0) would underflow only past |u| = 372.2, but cosh(u)**2 overflows,
    raising OverflowError, from |u| = 355.6 on, and below that w stays above
    1e-309. |t| <= _T_MAX keeps |u| below 117.
    """
    u = _HALF_PI * math.sinh(t)
    if u >= 0.0:
        e = math.exp(-2.0 * u)
        x, omx = 1.0 / (1.0 + e), e / (1.0 + e)
    else:
        e = math.exp(2.0 * u)
        x, omx = e / (1.0 + e), 1.0 / (1.0 + e)
    # dx/dt for x = (1 + tanh(u))/2 with u = (pi/2) sinh(t)
    w = 0.5 * _HALF_PI * math.cosh(t) / math.cosh(u) ** 2
    return w, x, omx
