"""Fundamental constants: K, gamma, the period lattice, poles and zeros.

K (the first positive zero of cm, 1.76663875...) is located with the
library's own machinery: halving into the series disc, series evaluation and
duplication back out cover the bracket (1.5, 2.0). Every accepted series
order finds the same double. The
defining singular integral over (0, 1) is computed independently as a
cross-check only. Everything is computed once and frozen.

The gamma frame: sm(gamma*z) = gamma*sm(z) and cm(gamma*z) = cm(z), so the
poles, zeros and branch points come in triples gamma**j * p, j = 0, 1, 2.
``GAMMA_POWERS[j]`` is the rotation of member j; every layer (the constants
record, the evaluator's pole framing and near-pole rescue, the inverse's
branch-point guess, the selftest) reads it from here, and rotates back by
its conjugate.
"""

from __future__ import annotations

import math
from functools import lru_cache

from . import identities, series
from ._record import record
from .errors import ConvergenceError
from .quadrature import tanh_sinh

#: gamma = exp(2*pi*i/3) = (-1 + i*sqrt(3))/2, the primitive cube root of unity.
GAMMA = complex(-0.5, math.sqrt(3.0) / 2.0)

#: (1, gamma, conj(gamma)) = gamma**j for j = 0, 1, 2; conj(gamma) = gamma**2
#: = gamma**-1, so ``GAMMA_POWERS[j].conjugate()`` is gamma**-j.
GAMMA_POWERS = (complex(1.0), GAMMA, GAMMA.conjugate())

#: The centered cell lies within 3K*sqrt(3)/2 < 4.6 of 0. halve_and_duplicate
#: takes reduced arguments (the evaluator reduces every z first, and rejects
#: parts beyond evaluator.MAX_ARGUMENT); a larger one is refused, not halved.
MAX_REDUCED = 32.0


class DixonConstants(record("DixonConstants", "K gamma periods pole_reps zero_reps g2 g3")):
    """Immutable record every other module reads.

    ``K`` is the first positive zero of cm and ``gamma`` is GAMMA.
    ``periods`` are 3K and 3K*gamma; they span the fundamental cell
    centered at 0. ``pole_reps`` (-K*gamma**j) and ``zero_reps`` are the
    representatives of the three pole and zero classes of sm inside that
    cell, in the order of GAMMA_POWERS. ``g2`` and ``g3`` are the invariants
    of the Weierstrass p function of the same lattice.
    """

    __slots__ = ()


def halve_and_duplicate(pair: series.SeriesPair, y: complex) -> tuple[complex, complex]:
    """(sm, cm) at y: halve into the pair's series disc, evaluate the series
    there and duplicate back out.

    The evaluator's kernel and K's root-finder (two halvings for
    1.5 <= t <= 2.0) both run through here.
    """
    a = abs(y)
    if a > MAX_REDUCED:
        raise ValueError(f"reduced argument {y} lies outside the fundamental cell")
    k = pair.halvings(a)
    s, c = series.eval_series(pair, y / (1 << k))
    return identities.duplicate_values(s, c, k)


def compute_K_root(order: int = series.DEFAULT_ORDER) -> float:
    """First positive zero of cm, by bisection then Newton (cm' = -sm^2).

    Returns t in (1.5, 2.0) with |cm(t)| <= 1e-14.
    """
    pair = series.generate_series(order)
    a, b = 1.5, 2.0
    fa = halve_and_duplicate(pair, a)[1].real
    fb = halve_and_duplicate(pair, b)[1].real
    if not (fa > 0.0 > fb):
        raise ConvergenceError(
            f"no sign change of cm on [{a}, {b}]: cm({a}) = {fa:.3g}, cm({b}) = {fb:.3g}"
        )
    for _ in range(20):
        mid = 0.5 * (a + b)
        if halve_and_duplicate(pair, mid)[1].real > 0.0:
            a = mid
        else:
            b = mid
    t = 0.5 * (a + b)
    for _ in range(20):
        s, c = halve_and_duplicate(pair, t)
        c = c.real
        if abs(c) <= 1e-14:
            return t
        t += c / (s.real * s.real)
    raise ConvergenceError(f"Newton stalled at |cm(t)| = {abs(c):.3e}", residual=abs(c))


def _k_integrand(sigma: float, one_minus_sigma: float) -> float:
    # (1 - sigma^3)^(-2/3), with the factor (1 - sigma) supplied exactly
    return (one_minus_sigma * (1.0 + sigma + sigma * sigma)) ** (-2.0 / 3.0)


def compute_K_quadrature() -> float:
    """K as the integral of (1 - sigma^3)^(-2/3) over (0, 1).

    The integrand has an algebraic singularity at sigma = 1; the tanh-sinh
    transformation absorbs it; successive refinements agree within 1e-11.
    Cross-check only; the root-finder is the authoritative K.
    """
    return tanh_sinh(_k_integrand, tol=1e-11).real


@lru_cache(maxsize=None)
def dixon_constants(order: int = series.DEFAULT_ORDER) -> DixonConstants:
    """Compute once per series order and freeze."""
    K = compute_K_root(order=order)
    _, g, gbar = GAMMA_POWERS
    return DixonConstants(
        K=K,
        gamma=g,
        periods=(complex(3.0 * K, 0.0), 3.0 * K * g),
        pole_reps=(complex(-K, 0.0), -K * g, -K * gbar),
        # the class of -K + K*gbar is represented by K - K*g, one period over
        zero_reps=(complex(0.0), -K + K * g, K - K * g),
        g2=0.0,
        g3=1.0 / 27.0,
    )
