"""Quadrature layer: the per-level node tables against the per-node loop they
replace, bit for bit, and the life of the tables."""

import cmath
import math
import random

import pytest

from dixonian import ConvergenceError, sm_inverse
from dixonian import quadrature
from dixonian.constants import _k_integrand
from dixonian.quadrature import MAX_LEVEL, tanh_sinh
from conftest import GAMMA

HALF_PI = math.pi / 2.0


def reference_node(t):
    u = HALF_PI * math.sinh(t)
    if u >= 0.0:
        e = math.exp(-2.0 * u)
        x, omx = 1.0 / (1.0 + e), e / (1.0 + e)
    else:
        e = math.exp(2.0 * u)
        x, omx = e / (1.0 + e), 1.0 / (1.0 + e)
    w = 0.5 * HALF_PI * math.cosh(t) / math.cosh(u) ** 2
    return w, x, omx


def reference_sample(f, t):
    # one node, computed from t on every call
    w, x, omx = reference_node(t)
    if w == 0.0 or omx == 0.0 or x == 0.0:
        return 0.0
    return w * f(x, omx)


def reference_tanh_sinh(f, tol, max_level=10, t_max=5.0):
    """(estimate, level stopped at), summed exactly as the table loop sums."""
    h = 1.0
    total = 0.0
    for k in range(-int(t_max), int(t_max) + 1):
        total += reference_sample(f, k * h)
    estimate = h * total
    diff = math.inf
    for level in range(1, max_level + 1):
        h *= 0.5
        new = 0.0
        k = 1
        while k * h <= t_max:
            new += reference_sample(f, k * h) + reference_sample(f, -k * h)
            k += 2
        refined = estimate * 0.5 + h * new
        diff = abs(refined - estimate)
        estimate = refined
        if level >= 3 and diff <= tol:
            return estimate, level
    raise ConvergenceError(
        f"tanh-sinh did not converge to {tol:.1e} in {max_level} levels "
        f"(last refinement changed the estimate by {diff:.1e})",
        residual=diff,
    )


def outcome(integrate, f, tol):
    try:
        value = integrate(f, tol)
    except ConvergenceError as exc:
        return "ConvergenceError", str(exc), repr(exc.residual)
    return repr(value[0] if isinstance(value, tuple) else value)


def inverse_integrand(w):
    # the integrand sm_inverse hands to tanh_sinh
    return lambda x, _: (1.0 - (w * x) ** 3) ** (-2.0 / 3.0)


#: sm_inverse's integrand for a target 1e-13 from the branch point 1: at tol
#: 1e-11 the last of MAX_LEVEL refinements still moves the estimate by 1.2e-9
BRANCH_SIDE = inverse_integrand(1.0 - 1e-13)

B_HALF = 2.0 ** (-1.0 / 3.0)


def half_range(x, _):
    return B_HALF * (1.0 - (B_HALF * x) ** 3) ** (-2.0 / 3.0)


def integrands():
    rng = random.Random(41)
    disc = [cmath.rect(0.9 * math.sqrt(rng.random()), rng.uniform(0.0, 2.0 * math.pi)) for _ in range(6)]
    branch = [
        b * (1.0 - d * cmath.exp(1j * rng.uniform(-1.0, 1.0)))
        for b in (1.0, GAMMA, GAMMA.conjugate())
        for d in (math.exp(rng.uniform(math.log(1e-8), math.log(1e-2))) for _ in range(2))
    ]
    return [("k", _k_integrand), ("half_range", half_range)] + [
        (f"w={w:.6g}", inverse_integrand(w)) for w in disc + branch
    ]


INTEGRANDS = integrands()


@pytest.mark.parametrize("f", [f for _, f in INTEGRANDS], ids=[name for name, _ in INTEGRANDS])
def test_bit_identical_to_per_node_loop(f):
    for tol in (1e-10, 1e-11, 1e-12):
        want = outcome(reference_tanh_sinh, f, tol)
        got = outcome(lambda g, t: tanh_sinh(g, tol=t), f, tol)
        assert got == want, tol


def test_nonconvergence_message_and_residual():
    with pytest.raises(ConvergenceError) as want:
        reference_tanh_sinh(BRANCH_SIDE, 1e-11)
    with pytest.raises(ConvergenceError) as got:
        tanh_sinh(BRANCH_SIDE, tol=1e-11)
    assert str(got.value) == str(want.value)
    assert "in 10 levels (last refinement changed the estimate by 1.2e-09)" in str(got.value)
    assert repr(got.value.residual) == repr(want.value.residual)


def test_tables_hold_the_nodes_in_summation_order():
    for level in range(0, 11):
        if level == 0:
            ts = [float(k) for k in range(-5, 6)]
        else:
            h = 0.5 ** level
            ts = [t for k in range(1, 5 * 2 ** level + 1, 2) for t in (k * h, -k * h)]
        want = [v for t in ts for v in reference_node(t)]
        got = [v for entry in quadrature._level_nodes(level) for v in entry]
        assert [repr(v) for v in got] == [repr(v) for v in want]
        # the per-node loop's zero-contribution guard never fires
        assert all(v > 0.0 for v in got)


@pytest.fixture
def built(monkeypatch):
    """The levels whose tables get built, in order, from an empty memo."""
    levels = []
    build = quadrature._level_nodes.__wrapped__

    def counting(level):
        levels.append(level)
        return build(level)

    monkeypatch.setattr(quadrature._level_nodes, "__wrapped__", counting)
    quadrature._level_nodes.clear()
    return levels


def test_each_level_built_once_up_to_the_level_reached(built):
    _, level = reference_tanh_sinh(_k_integrand, 1e-11)
    tanh_sinh(_k_integrand, tol=1e-11)
    assert built == list(range(level + 1)) and len(quadrature._level_nodes) == level + 1
    tanh_sinh(_k_integrand, tol=1e-11)
    assert len(built) == level + 1

    quadrature._level_nodes.clear()
    with pytest.raises(ConvergenceError):
        tanh_sinh(BRANCH_SIDE, tol=1e-11)
    assert sorted(quadrature._level_nodes) == list(range(MAX_LEVEL + 1))


def test_disc_solves_cache_at_most_five_levels(built):
    rng = random.Random(17)
    for _ in range(50):
        sm_inverse(cmath.rect(0.9 * math.sqrt(rng.random()), rng.uniform(0.0, 2.0 * math.pi)))
    assert len(built) == len(set(built)) == len(quadrature._level_nodes) <= 5
