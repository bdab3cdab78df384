"""Shared constants for the test suite, and access to the selftest registry.

The analytic facts are stated once, in ``dixonian.selftest``; the tests
sample its residuals through its sampler (``worst``) and run its fixed
checks (``assert_checks``) instead of restating them.
"""

import pytest

from dixonian import dixon_constants, render, run_selftest, selftest
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
