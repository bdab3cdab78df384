"""Shared constants for the test suite, and access to the selftest registry.

The analytic facts are stated once, in ``dixonian.selftest``; the tests
sample its residuals through its sampler (``worst``) and run its fixed
checks (``assert_checks``) instead of restating them.
"""

import contextlib
import functools
import math

import pytest

from dixonian import dixon_constants, evaluator, render, run_selftest, selftest, series
from dixonian.evaluator import sm_cm_values

CONSTS = dixon_constants()
K = CONSTS.K
GAMMA = CONSTS.gamma
W1, W2 = CONSTS.periods

#: default tolerance of each selftest check, by name
TOL = {check.name: check.tol for check in selftest._CHECKS}

#: every lattice shift (m, n) with |m|, |n| <= 2
ALL_SHIFTS = tuple((m, n) for m in range(-2, 3) for n in range(-2, 3))


def values(z):
    """Finite (sm, cm) at z; fails the test at a pole."""
    return sm_cm_values(z)


def worst(name, seed, count):
    """Worst residual of the registry's sampled check ``name`` over ``count`` samples."""
    return selftest._sample(name, seed, count)


def assert_fact(name, seed, count):
    """The fact ``name`` holds to its selftest tolerance over ``count`` samples."""
    got = worst(name, seed, count)
    assert got <= TOL[name], f"{name}: {got:.3e} > {TOL[name]:.1e}"


def assert_checks(*names):
    """The named selftest checks pass at their own tolerances."""
    results = run_selftest(names=list(names))
    assert sorted(r.name for r in results) == sorted(names)
    for r in results:
        assert r.passed, f"{r.name}: {r.residual:.3e} > {r.tol:.1e}"


def kernel_calls(fn, *args, **kwargs):
    """What ``fn(*args, **kwargs)`` returns, and the points at which it ran
    the grid sampler's kernel (``render._pair``), in order."""
    calls = []
    kernel = render._pair

    def recording(ctx, z):
        calls.append(z)
        return kernel(ctx, z)

    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(render, "_pair", recording)
        return fn(*args, **kwargs), calls


def kernel_pixels(region, calls):
    """The (i, j) of each pixel (xs[i], ys[j]) of a separable grid on which
    the kernel ran, from its ``kernel_calls``: first each column's pair at
    x, then each row's pair at iy followed by that row's kernel pixels, left
    to right."""
    xs, ys = region.xs(), region.ys()
    assert calls[: len(xs)] == [complex(x) for x in xs]
    pixels, k = [], len(xs)
    for j, y in enumerate(ys):
        assert calls[k] == complex(0.0, y), (j, calls[k])
        k += 1
        i = 0
        while k < len(calls) and calls[k].imag == y:
            i = xs.index(calls[k].real, i)
            assert calls[k] == complex(xs[i], y)
            pixels.append((i, j))
            k += 1
            i += 1
    assert k == len(calls)
    return pixels


# --- truncations of the one series -------------------------------------------
#
# The library keeps the series of sm and cm through z**48. A truncation at
# another order is usable in its place when its dropped tail stays within
# SERIES_TOL on the SERIES_EVAL_RADIUS disc and, swapped into the kernel, it
# root-finds the tabulated K to the bit. Every order from 27 through 64 is;
# order 26 root-finds a K one ulp off. These facts bound the choice of a
# lower order (ROADMAP item 17).

#: The smallest usable truncation order; test_series.py derives it.
LOWEST_USABLE_ORDER = 27
#: The longest truncation the per-order checks sweep.
MAX_TRUNCATION = 64


class Truncation:
    """The series of sm and cm through z**order, rounded to doubles and
    stepped as ``eval_series`` steps the library's pair, which is all it
    reads (``_horner_steps``)."""

    def __init__(self, order):
        self.order = order
        self.s_coeffs, self.c_coeffs = series._recurrence(order)
        # sm(z) = z * P(z^3) and cm(z) = Q(z^3)
        self.packed = tuple(float(a) for a in self.s_coeffs[1::3]), tuple(float(a) for a in self.c_coeffs[0::3])
        s_rev, c_rev = self.packed[0][::-1], self.packed[1][::-1]
        # Q has as many coefficients as P or one more; without one more, a
        # zero top coefficient starts cm's loop from zero
        extra = len(c_rev) - len(s_rev)
        self._horner_steps = (c_rev[0] if extra else 0.0), tuple(zip(s_rev, c_rev[extra:], strict=True))


truncation = functools.cache(Truncation)


def tail_bound(packed, r):
    """Bound on the terms of sm and cm that a truncation drops, at radius r,
    from its ``packed`` (P, Q) coefficients.

    Each series' last kept term times the geometric sum x + x^2 + ... of the
    decay per power of z**3 between its last two kept terms, with a 2x guard.
    None of the coefficients is zero; a series with one kept term has no
    decay to fit, and no bound.
    """
    bound = 0.0
    for coeffs, offset in zip(packed, (1, 0)):
        last = len(coeffs) - 1
        if last < 1:
            return math.inf
        x = abs(coeffs[last] / coeffs[last - 1]) * r ** 3
        assert x < 1.0
        bound = max(bound, 2.0 * abs(coeffs[last]) * r ** (3 * last + offset) * x / (1.0 - x))
    return bound


@contextlib.contextmanager
def kernel_with(pair):
    """The evaluator's kernel reading ``pair`` in place of the library's."""
    ctx = evaluator._CTX
    with pytest.MonkeyPatch.context() as patch:
        patch.setattr(evaluator, "_CTX", evaluator._Context(constants=ctx.constants, pair=pair))
        yield


@functools.cache
def truncation_k(order):
    """The K the kernel root-finds with the truncation at ``order``, as hex."""
    with kernel_with(truncation(order)):
        return evaluator.compute_K_root().hex()


def truncation_usable(order):
    """Whether the truncation at ``order`` could stand in for the library's
    series: its tail meets SERIES_TOL on the disc and it root-finds the
    tabulated K to the bit."""
    pair = truncation(order)
    return (tail_bound(pair.packed, series.SERIES_EVAL_RADIUS) <= series.SERIES_TOL
            and truncation_k(order) == K.hex())
