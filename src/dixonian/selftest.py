"""Built-in verification suite: the registry of analytic facts.

Every analytic fact the library promises is stated here once, as a named
check that reports a measured residual against a default tolerance. A
sampled fact is a residual at one sample (a point of the centered cell, a
pair of them, or a point of a disc), kept in ``_FACTS``: the selftest reduces
it over a small seeded sample, and the test suite over larger ones. The CLI
``selftest`` subcommand runs every check and renders a pass/fail table;
``run_selftest`` is the programmatic entry. Every sample reads the constants
of the default series order, the one the evaluator uses.
"""

from __future__ import annotations

import cmath
import math
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable, Sequence

from . import identities, series
from .constants import CONSTANTS, GAMMA_POWERS, compute_K_quadrature, compute_K_root
from .evaluator import sm_cm_values, wp
from .identities import FunctionPair
from .inverse import sm_inverse

K_REFERENCE = 1.76663875
QUARTIC_ROOT_REFERENCE = -0.0899798


@dataclass(frozen=True)
class Check:
    name: str
    tol: float
    fn: Callable[[], float]


@dataclass(frozen=True)
class CheckResult:
    name: str
    passed: bool
    residual: float
    tol: float


class Fact:
    """An analytic fact as a residual at one sample.

    ``draw(rng)`` returns the arguments of one sample. ``residual`` returns
    None for a sample outside the fact's domain (too near a zero of one of
    its denominators), and another sample is drawn in its place.
    """

    # a plain class: building a dataclass would add about 1 ms to the import
    __slots__ = ("residual", "draw")

    def __init__(
        self,
        residual: Callable[..., float | None],
        draw: Callable[[random.Random], Sequence[complex]],
    ) -> None:
        self.residual = residual
        self.draw = draw

    def worst(self, rng: random.Random, count: int) -> float:
        """Largest residual over ``count`` samples from the domain."""
        worst = 0.0
        done = 0
        while done < count:
            r = self.residual(*self.draw(rng))
            if r is not None:
                worst = max(worst, r)
                done += 1
        return worst


_CHECKS: list[Check] = []

#: The sampled facts, by the name of the check that samples them.
_FACTS: dict[str, Fact] = {}


def _register(name: str, tol: float):
    def deco(fn):
        _CHECKS.append(Check(name, tol, fn))
        return fn

    return deco


def list_checks() -> list[str]:
    return [c.name for c in _CHECKS]


def run_selftest(names: list[str] | None = None) -> list[CheckResult]:
    """Run all (or the named) checks against their default tolerances."""
    results = []
    for check in _CHECKS:
        if names is not None and check.name not in names:
            continue
        residual = check.fn()
        results.append(CheckResult(check.name, residual <= check.tol, residual, check.tol))
    return results


# ---------------------------------------------------------------------------
# sampling helpers

def _values(z: complex) -> tuple[complex, complex]:
    return sm_cm_values(z)


def _pair_at(z: complex) -> FunctionPair:
    return FunctionPair(*_values(z))


def _cell_points(rng: random.Random, count: int, pole_margin: float = 0.05) -> list[complex]:
    """Uniform points of the centered cell, at least ``pole_margin`` from the poles."""
    k = CONSTANTS
    w1, w2 = k.periods
    pts: list[complex] = []
    while len(pts) < count:
        z = rng.uniform(-0.5, 0.5) * w1 + rng.uniform(-0.5, 0.5) * w2
        if min(abs(z - p) for p in k.pole_reps) < pole_margin:
            continue
        pts.append(z)
    return pts


def _cell_point(rng: random.Random) -> list[complex]:
    return _cell_points(rng, 1)


def _cell_pair(rng: random.Random) -> list[complex]:
    return _cell_points(rng, 2)


def _disc(radius: float) -> Callable[[random.Random], tuple[complex]]:
    def draw(rng: random.Random) -> tuple[complex]:
        return (cmath.rect(rng.uniform(0.0, radius), rng.uniform(0.0, 2.0 * math.pi)),)

    return draw


def _near(z: complex, loci: Sequence[complex]) -> bool:
    return min(abs(z - q) for q in loci) < 0.05


def _sampled(
    name: str,
    tol: float,
    seed: int,
    count: int,
    draw: Callable[[random.Random], Sequence[complex]] = _cell_point,
):
    """Register a residual as a fact, and as a check reducing it over
    ``count`` samples drawn from ``random.Random(seed)``."""

    def deco(residual):
        fact = _FACTS[name] = Fact(residual, draw)
        _CHECKS.append(Check(name, tol, lambda: fact.worst(random.Random(seed), count)))
        return residual

    return deco


#: (1 - cm) ~ z^3/3 cancels near the lattice points, so the Weierstrass
#: facts keep this far from 0.
_LATTICE_MARGIN = 0.35


# ---------------------------------------------------------------------------
# series layer

@_register("series_recurrence", 0.0)
def _check_series_recurrence() -> float:
    pair = series.generate_series()
    s, c = pair.s_coeffs, pair.c_coeffs
    # a product with a zero factor is exactly zero, so skipping it leaves
    # every sum as it is; a coefficient that should vanish and does not
    # still takes part
    for n in range(pair.order):
        cc = sum(c[k] * c[n - k] for k in range(n + 1) if c[k] and c[n - k])
        ss = sum(s[k] * s[n - k] for k in range(n + 1) if s[k] and s[n - k])
        if (n + 1) * s[n + 1] != cc or (n + 1) * c[n + 1] != -ss:
            return 1.0
    return 0.0


@_register("series_mod3_sparsity", 0.0)
def _check_series_sparsity() -> float:
    pair = series.generate_series()
    for n in range(pair.order + 1):
        if n % 3 != 1 and pair.s_coeffs[n] != 0:
            return 1.0
        if n % 3 != 0 and pair.c_coeffs[n] != 0:
            return 1.0
    return 0.0


@_register("series_landmarks", 0.0)
def _check_series_landmarks() -> float:
    pair = series.generate_series()
    expected = {
        ("s", 0): Fraction(0),
        ("s", 1): Fraction(1),
        ("s", 4): Fraction(-1, 6),
        ("s", 7): Fraction(2, 63),
        ("c", 0): Fraction(1),
        ("c", 3): Fraction(-1, 3),
        ("c", 6): Fraction(1, 18),
    }
    for (which, n), want in expected.items():
        got = pair.s_coeffs[n] if which == "s" else pair.c_coeffs[n]
        if got != want:
            return 1.0
    return 0.0


@_sampled("series_cube_identity", 1e-12, 101, 300, _disc(0.5))
def _series_cube(z: complex) -> float:
    s, c = series.eval_series(series.generate_series(), z)
    return abs(s * s * s + c * c * c - 1.0)


# ---------------------------------------------------------------------------
# constants layer

@_register("k_value_root", 1e-8)
def _check_k_root() -> float:
    return abs(compute_K_root() - K_REFERENCE)


@_register("k_value_quadrature", 1e-8)
def _check_k_quadrature() -> float:
    return abs(compute_K_quadrature() - K_REFERENCE)


@_register("k_cross_agreement", 1e-9)
def _check_k_agreement() -> float:
    return abs(compute_K_root() - compute_K_quadrature())


@_register("cardinal_values", 1e-10)
def _check_cardinals() -> float:
    k = CONSTANTS
    half = 2.0 ** (-1.0 / 3.0)
    sK, cK = _values(k.K)
    sh, ch = _values(k.K / 2.0)
    sn, cn = _values(-k.K / 2.0)
    return max(
        abs(sK - 1.0),
        abs(cK),
        abs(sh - half),
        abs(ch - half),
        abs(sn + 1.0),
        abs(cn - 2.0 ** (1.0 / 3.0)),
    )


def _pole_probes() -> list[complex]:
    """One point 1e-9 from each pole representative, in a seeded direction."""
    rng = random.Random(202)
    return [rep + cmath.rect(1e-9, rng.uniform(0.0, 2.0 * math.pi)) for rep in CONSTANTS.pole_reps]


@_register("pole_probe", 1e-8)
def _check_pole_probe() -> float:
    return max(1.0 / abs(_values(z)[0]) for z in _pole_probes())


# ---------------------------------------------------------------------------
# global evaluator

@_sampled("cube_identity_cell", 1e-10, 303, 400)
def _cube(z: complex) -> float:
    s, c = _values(z)
    return abs(s * s * s + c * c * c - 1.0)


def _ivp_errors(z: complex) -> tuple[tuple[float, complex], tuple[float, complex]]:
    """Central differences at h = 1e-5 against sm' = cm^2 and cm' = -sm^2:
    the absolute error of each, with the derivative it tests."""
    h = 1e-5
    s0, c0 = _values(z)
    sp, cp = _values(z + h)
    sn, cn = _values(z - h)
    ds = (sp - sn) / (2.0 * h)
    dc = (cp - cn) / (2.0 * h)
    return (abs(ds - c0 * c0), c0 * c0), (abs(dc + s0 * s0), s0 * s0)


@_sampled("ivp_derivatives", 1e-6, 404, 150)
def _ivp(z: complex) -> float:
    # relative to the derivative where it exceeds 1: it grows like d^-2
    # toward the poles, and the h^2 truncation error with it
    return max(err / max(1.0, abs(d)) for err, d in _ivp_errors(z))


#: The lattice shifts (m, n) of the periodicity check.
_SHIFTS = ((1, 0), (0, 1), (-1, -1), (2, -1), (-2, 2))


@_sampled("periodicity", 1e-9, 505, 100)
def _periodicity(z: complex, shifts: Sequence[tuple[int, int]] = _SHIFTS) -> float:
    w1, w2 = CONSTANTS.periods
    s, c = _values(z)
    worst = 0.0
    for m, n in shifts:
        s2, c2 = _values(z + m * w1 + n * w2)
        worst = max(worst, abs(s2 - s), abs(c2 - c))
    return worst


@_sampled("conjugation_symmetry", 1e-10, 606, 150)
def _conjugation(z: complex) -> float:
    s, c = _values(z)
    sb, cb = _values(z.conjugate())
    return max(abs(sb - s.conjugate()), abs(cb - c.conjugate()))


@_sampled("negation_symmetry", 1e-10, 707, 150)
def _negation(z: complex) -> float | None:
    # the zeros of cm: K * gamma**j
    K = CONSTANTS.K
    if _near(z, [K * g for g in GAMMA_POWERS]):
        return None
    s, c = _values(z)
    sn, cn = _values(-z)
    return max(abs(cn - 1.0 / c), abs(sn + s / c))


@_sampled("rotation_symmetry", 1e-10, 808, 150)
def _rotation(z: complex) -> float:
    g = CONSTANTS.gamma
    s, c = _values(z)
    sg, cg = _values(g * z)
    return max(abs(sg - g * s), abs(cg - c))


@_sampled("reflection_identity", 1e-10, 909, 150)
def _reflection(z: complex) -> float:
    s, c = _values(z)
    sr, cr = _values(CONSTANTS.K - z)
    return max(abs(sr - c), abs(cr - s))


@_sampled("translation_2k", 1e-10, 1010, 150)
def _translation(z: complex) -> float | None:
    k = CONSTANTS
    if _near(z, k.zero_reps):
        return None
    s, c = _values(z)
    st, ct = _values(2.0 * k.K + z)
    return max(abs(ct - 1.0 / s), abs(st + c / s))


@_register("zeros", 1e-9)
def _check_zeros() -> float:
    k = CONSTANTS
    w1, w2 = k.periods
    worst = 0.0
    for rep in k.zero_reps:
        for m, n in ((0, 0), (1, 0), (0, 1)):
            s, _ = _values(rep + m * w1 + n * w2)
            worst = max(worst, abs(s))
    return worst


def _ring_average(p: complex, component: int, radius: float = 1e-4) -> complex:
    total = 0.0j
    for i in range(8):
        z = p + cmath.rect(radius, i * math.pi / 4.0)
        total += (z - p) * _values(z)[component]
    return total / 8.0


@_register("residues_sm", 1e-5)
def _check_residues_sm() -> float:
    k = CONSTANTS
    _, g, gbar = GAMMA_POWERS
    targets = [
        (complex(-k.K), complex(-1.0)),
        (2.0 * k.K * g, -gbar),
        (2.0 * k.K * gbar, -g),
    ]
    total = 0.0j
    worst = 0.0
    for p, expected in targets:
        got = _ring_average(p, 0)
        total += got
        worst = max(worst, abs(got - expected))
    return max(worst, abs(total))


@_register("residue_cm", 1e-5)
def _check_residue_cm() -> float:
    k = CONSTANTS
    return abs(_ring_average(complex(-k.K), 1) - 1.0)


@_register("triangle_boundary", 1e-9)
def _check_triangle() -> float:
    k = CONSTANTS
    verts = [k.K * g for g in GAMMA_POWERS]
    worst = 0.0
    for a, b in zip(verts, verts[1:] + verts[:1]):
        for i in range(100):
            t = i / 99.0
            s, _ = _values((1.0 - t) * a + t * b)
            worst = max(worst, abs(abs(s) - 1.0))
    return worst


@_register("imaginary_axis", 1e-9)
def _check_imaginary_axis() -> float:
    worst = 0.0
    for i in range(100):
        t = -4.5 + 9.0 * i / 99.0
        _, c = _values(complex(0.0, t))
        worst = max(worst, abs(abs(c) - 1.0))
    return worst


@_register("hexagon_edge", 1e-9)
def _check_hexagon_edge() -> float:
    # edge from K toward -K*conj(gamma) = K + K*gamma; sm is real there and
    # cm lies on the line gamma * R; stop short of the pole at the far vertex
    k = CONSTANTS
    _, g, gbar = GAMMA_POWERS
    worst = 0.0
    for i in range(100):
        t = i / 100.0
        s, c = _values(k.K + t * k.K * g)
        worst = max(worst, abs(s.imag), abs((c * gbar).imag))
    return worst


def _ray_points(per_sextant: int) -> list[complex]:
    """Points from 0.05 to 0.59 along each ray arg z = j*pi/3."""
    return [
        (0.05 + 0.54 * i / (per_sextant - 1)) * cmath.rect(1.0, sextant * math.pi / 3.0)
        for sextant in range(6)
        for i in range(per_sextant)
    ]


def _reality(z: complex) -> float:
    # sm(z)/z is real and positive along the rays
    ratio = _values(z)[0] / z
    return max(abs(ratio.imag), 0.0 if ratio.real > 0.0 else math.inf)


@_register("reality_rays", 1e-9)
def _check_reality_rays() -> float:
    return max(map(_reality, _ray_points(10)))


@_register("quartic_root", 1e-6)
def _check_quartic_root() -> float:
    # sigma = sm(-K/4)**3 is the unique root of the quartic in the unit disc;
    # doubling -K/4 forces sm(-K/2)**3 = -1
    k = CONSTANTS
    s, _ = _values(-k.K / 4.0)
    sigma = s * s * s
    quartic = 1.0 + 10.0 * sigma - 12.0 * sigma ** 2 + 4.0 * sigma ** 3 - 2.0 * sigma ** 4
    return max(abs(sigma - QUARTIC_ROOT_REFERENCE), abs(quartic))


# ---------------------------------------------------------------------------
# identity layer

@_sampled("addition_formula", 1e-9, 1111, 150, _cell_pair)
def _addition(a: complex, z: complex) -> float | None:
    pa, pz = _pair_at(a), _pair_at(z)
    if abs(pa.s * pa.c * pz.s * pz.s + pz.c) < 0.05:
        return None
    got = identities.add(pa, pz)
    s, c = _values(a + z)
    return max(abs(got.s - s), abs(got.c - c))


@_sampled("duplication_consistency", 1e-11, 1212, 150)
def _duplication(z: complex) -> float | None:
    p = _pair_at(z)
    if abs(p.c * (1.0 + p.s ** 3)) < 0.05:
        return None
    d = identities.duplicate(p)
    via_add = identities.add(p, p)
    return max(abs(d.s - via_add.s), abs(d.c - via_add.c))


@_sampled("triplication_consistency", 1e-10, 1313, 150)
def _triplication(z: complex) -> float | None:
    p = _pair_at(z)
    s3, c3 = p.s ** 3, p.c ** 3
    trip_den = c3 - s3 * s3 + 3.0 * s3 * c3 + s3 * c3 * c3
    dup_den = p.c * (1.0 + s3)
    if abs(trip_den) < 0.05 or abs(dup_den) < 0.05:
        return None
    d = identities.duplicate(p)
    if abs(d.s * d.c * p.s * p.s + p.c) < 0.05:
        return None
    t = identities.triplicate(p)
    via = identities.add(d, p)
    return max(abs(t.s - via.s), abs(t.c - via.c))


@_sampled("weierstrass_bridge", 1e-10, 1414, 150)
def _weierstrass(z: complex) -> float | None:
    if abs(z) < _LATTICE_MARGIN:
        return None
    p = _pair_at(z)
    if abs(1.0 - p.c) < 0.05:
        return None
    w = identities.to_weierstrass(p)
    if abs(3.0 * w.p_prime - 1.0) < 0.05:
        return None
    ode = w.p_prime ** 2 - 4.0 * w.p ** 3 + 1.0 / 27.0
    back = identities.from_weierstrass(w)
    return max(abs(ode), abs(back.s - p.s), abs(back.c - p.c))


@_sampled("wp_periodicity", 1e-9, 1515, 80)
def _wp_periodicity(z: complex) -> float | None:
    if abs(z) < _LATTICE_MARGIN:
        return None
    w1, w2 = CONSTANTS.periods
    base = wp(z).value
    return max(abs(wp(z + shift).value - base) for shift in (w1, w2, w1 + w2))


# ---------------------------------------------------------------------------
# inverse layer

@_sampled("inverse_roundtrip", 1e-9, 1616, 60, _disc(0.9))
def _inverse_roundtrip(w: complex) -> float:
    return abs(_values(sm_inverse(w).z)[0] - w)


@_register("inverse_landmarks", 1e-7)
def _check_inverse_landmarks() -> float:
    k = CONSTANTS
    return max(
        abs(sm_inverse(1.0).z - k.K),
        abs(sm_inverse(2.0 ** (-1.0 / 3.0)).z - k.K / 2.0),
        abs(sm_inverse(-1.0).z + k.K / 2.0),
        abs(sm_inverse(-abs(QUARTIC_ROOT_REFERENCE) ** (1.0 / 3.0)).z + k.K / 4.0),
    )
