"""Inverse layer: landmarks, round trips, branch behavior, domain errors."""

import cmath
import math
import random

import pytest

from dixonian import inverse, quadrature, sm_inverse
from dixonian.evaluator import sm_cm_values
from conftest import GAMMA, K, values, worst


def test_zero():
    r = sm_inverse(0.0)
    assert r.z == 0
    assert r.residual == 0.0


def test_endpoint_one_is_k():
    r = sm_inverse(1.0)
    assert abs(r.z - K) <= 1e-8


def test_half_k():
    r = sm_inverse(2.0 ** (-1.0 / 3.0))
    assert abs(r.z - K / 2.0) <= 1e-9


def test_endpoint_minus_one():
    r = sm_inverse(-1.0)
    assert abs(r.z + K / 2.0) <= 1e-9


def test_roundtrip_random():
    # the round-trip error is the residual sm_inverse verified, so it also
    # meets the default tol of 1e-12
    assert worst("inverse_roundtrip", 41, 300) <= 1e-12


def test_reality_scaling():
    for direction in (1.0, GAMMA, GAMMA.conjugate()):
        for t in (0.1, 0.45, 0.85):
            r = sm_inverse(t * direction)
            ratio = r.z / (t * direction)
            assert abs(ratio.imag) <= 1e-9
            assert ratio.real > 0.0


def test_gamma_homogeneity():
    rng = random.Random(42)
    for _ in range(50):
        w = cmath.rect(rng.uniform(0.1, 0.85), rng.uniform(0.0, 2.0 * math.pi))
        assert abs(sm_inverse(GAMMA * w).z - GAMMA * sm_inverse(w).z) <= 1e-10
    # the six exact points +-gamma**j of the unit circle: gamma**j K and
    # -gamma**j K / 2, rotated from sm_inverse(1) = K and sm_inverse(-1) = -K/2
    for b in (1.0, GAMMA, GAMMA.conjugate()):
        for w, z in ((b, b * K), (-b, -b * K / 2.0)):
            r = sm_inverse(w)
            assert r.z == z, (w, r.z)
            assert r.residual <= 1e-12


@pytest.mark.parametrize("distance", [1e-12, 1e-15])
@pytest.mark.parametrize("j", [0, 1, 2])
def test_solves_next_to_branch_points(j, distance):
    # sm(gamma**j (K - y)) = gamma**j cm(y) = gamma**j (1 - y^3/3 + ...): the
    # principal preimage sits next to gamma**j (K - y), and the other two
    # preimages near gamma**j K lie sqrt(3)|y| away
    b = (1.0, GAMMA, GAMMA.conjugate())[j]
    for theta in (0.0, 0.9, -0.9):
        w = b * (1.0 - distance * cmath.exp(1j * theta))
        r = sm_inverse(w)
        assert r.residual <= 1e-12
        y = (3.0 * (1.0 - w / b)) ** (1.0 / 3.0)
        assert abs(r.z - b * (K - y)) <= 0.1 * abs(y), (w, r.z)


def test_domain_errors():
    # |w| >= 1 is refused except at the six points +-gamma**j
    off_gamma = complex(GAMMA.real, math.nextafter(GAMMA.imag, 2.0))
    for bad in (1.2, -1.5, complex(1.0, 0.1), 1j, -1j, 1.2 * GAMMA, off_gamma, -off_gamma,
                complex(math.nan, 0.0)):
        with pytest.raises(ValueError):
            sm_inverse(bad)


def test_tol_validation():
    for tol in (0.0, -1e-12, math.nan):
        with pytest.raises(ValueError, match="tol must be positive"):
            sm_inverse(0.5, tol=tol)


def test_newton_reports_best_residual():
    from dixonian import ConvergenceError

    # this target's forward residual bottoms out just above zero (1.4e-17),
    # so an impossible tolerance must surface the best value reached
    with pytest.raises(ConvergenceError) as exc:
        sm_inverse(0.654321 + 0.123456j, tol=1e-300)
    assert exc.value.residual is not None
    assert 0.0 < exc.value.residual < 1e-10


def test_residual_is_forward_error():
    r = sm_inverse(0.3 + 0.2j)
    assert abs(values(r.z)[0] - (0.3 + 0.2j)) == pytest.approx(r.residual, abs=1e-15)


def _count_module_calls(monkeypatch, *names):
    # per-layer timing wraps inverse.tanh_sinh and inverse.sm_cm_values; a
    # solve must reach them through those names for the wrappers to see it
    calls = dict.fromkeys(names, 0)

    def counted(name):
        real = getattr(inverse, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return real(*args, **kwargs)

        return wrapper

    for name in names:
        monkeypatch.setattr(inverse, name, counted(name))
    return calls


def test_solve_calls_through_module_globals(monkeypatch):
    # a target in the annulus SERIES_SEED_RADIUS < |w| < 1, away from the
    # branch points, takes the quadrature seed
    calls = _count_module_calls(monkeypatch, "tanh_sinh", "sm_cm_values")
    w = 0.6 + 0.7j
    assert inverse.SERIES_SEED_RADIUS < abs(w) < 1.0
    r = sm_inverse(w)
    assert abs(values(r.z)[0] - w) <= 1e-12
    assert calls["tanh_sinh"] == 1
    assert calls["sm_cm_values"] >= 1


def test_disc_solve_takes_series_seed(monkeypatch):
    # inside SERIES_SEED_RADIUS the seed is the series: no quadrature, and
    # the residual still goes through inverse.sm_cm_values
    calls = _count_module_calls(monkeypatch, "tanh_sinh", "sm_cm_values")
    w = 0.4 - 0.3j
    r = sm_inverse(w)
    assert abs(values(r.z)[0] - w) <= 1e-12
    assert calls["tanh_sinh"] == 0
    assert calls["sm_cm_values"] >= 1


def _sweep_targets():
    # 1e-9..0.9 from each branch point (mantissas 1, 3, 5, 7, 9 per decade,
    # five directions, those with |w| < 1), seeded disc points, and rings
    # out to 1e-5 from the unit circle
    branch = [
        b * (1.0 - m * 10.0 ** -e * cmath.exp(1j * theta))
        for b in (1.0, GAMMA, GAMMA.conjugate())
        for e in range(1, 10)
        for m in (1, 3, 5, 7, 9)
        for theta in (0.0, 0.7, -0.7, 1.4, -1.4)
    ]
    rng = random.Random(14)
    disc = [cmath.rect(0.999999 * math.sqrt(rng.random()), rng.uniform(0.0, 2.0 * math.pi)) for _ in range(2000)]
    rings = [cmath.rect(r, 2.0 * math.pi * k / 48) for r in (0.99, 0.999, 0.9999, 0.99999) for k in range(48)]
    return [w for w in branch if abs(w) < 1.0] + disc + rings


def _tight_seed_solve(w, tol):
    # the quadrature converged to 1e-11 before Newton: the principal
    # preimage this test holds the cheaper seed to
    z = w * quadrature.tanh_sinh(lambda x, _: (1.0 - (w * x) ** 3) ** (-2.0 / 3.0), tol=1e-11)
    for _ in range(inverse.NEWTON_MAX_ITER):
        s, c = sm_cm_values(z)
        if abs(s - w) <= tol:
            return z
        z = z - (s - w) / (c * c)
    raise AssertionError(f"reference Newton did not converge at {w}")


def test_seed_sweep(monkeypatch):
    # the quadrature seed stops at tanh-sinh's first checked level and
    # Newton meets tol from it, on the principal branch; inside
    # SERIES_SEED_RADIUS the series seed meets tol at the first residual
    # evaluation, without the quadrature
    tol = 1e-12
    calls = {"sm_cm_values": 0, "integrand": 0}

    def counted_values(*args, **kwargs):
        calls["sm_cm_values"] += 1
        return sm_cm_values(*args, **kwargs)

    def counted_tanh_sinh(f, tol):
        def g(x, omx):
            calls["integrand"] += 1
            return f(x, omx)

        return quadrature.tanh_sinh(g, tol)

    monkeypatch.setattr(inverse, "sm_cm_values", counted_values)
    monkeypatch.setattr(inverse, "tanh_sinh", counted_tanh_sinh)
    targets = _sweep_targets()
    assert len(targets) == 2849
    in_disc = 0
    for w in targets:
        calls.update(sm_cm_values=0, integrand=0)
        r = sm_inverse(w, tol)
        assert r.residual <= tol, w
        assert calls["sm_cm_values"] <= 3, (w, calls)
        assert calls["integrand"] <= 81, (w, calls)
        if abs(w) <= inverse.SERIES_SEED_RADIUS:
            in_disc += 1
            assert calls == {"sm_cm_values": 1, "integrand": 0}, (w, calls)
        c = sm_cm_values(r.z)[1]
        assert abs(r.z - _tight_seed_solve(w, tol)) <= 2.0 * tol / abs(c * c) + 1e-13, w
    assert in_disc > 1000
