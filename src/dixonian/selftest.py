"""Built-in verification suite: the registry of analytic facts.

Every analytic fact the library promises is stated here once, as a named
check: a residual reduced by ``_worst`` over its points (a fixed list, or
seeded draws of its domain that the test suite repeats at larger counts
through ``_sample``) against a default tolerance. ``_worst`` returns NaN at
the first NaN term, so a NaN value fails its check. The CLI ``selftest``
subcommand runs every check and renders a pass/fail table; ``run_selftest``
is the programmatic entry. Every check reads the one constants record and
the one series pair, those the evaluator uses.
"""

from __future__ import annotations

import cmath
import math
import random
from collections.abc import Callable, Iterable
from dataclasses import dataclass
from fractions import Fraction

from . import identities, series
from .constants import CONSTANTS, GAMMA_POWERS, compute_K_quadrature
from .evaluator import compute_K_root, sm_cm_values, wp
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


_CHECKS: list[Check] = []

#: The residual, draw and points per sample of each sampled check, by name.
_DOMAINS: dict[str, tuple] = {}


def list_checks() -> list[str]:
    return [c.name for c in _CHECKS]


def run_selftest(names: list[str] | None = None) -> list[CheckResult]:
    """Run all (or the named) checks against their default tolerances.

    A name that is no check raises ValueError and a bare string TypeError,
    so that a misspelt name cannot pass by running nothing.
    """
    if isinstance(names, str):
        raise TypeError(f"names must be a list of check names, not the string {names!r}")
    if names is not None:
        # read once: an iterator would be used up by the check below
        names = list(names)
    unknown = set(names or ()).difference(list_checks())
    if unknown:
        raise ValueError(f"unknown selftest checks: {', '.join(sorted(unknown))}")
    results = []
    for check in _CHECKS:
        if names is None or check.name in names:
            residual = check.fn()
            results.append(CheckResult(check.name, residual <= check.tol, residual, check.tol))
    return results


def _worst(terms: Iterable) -> float:
    """The largest of ``terms``, or NaN at the first NaN term (``max`` keeps
    a larger term that comes before a NaN). A term that is not a float is an
    iterable of terms, reduced the same way."""
    worst = 0.0
    for term in terms:
        if type(term) is not float:
            term = _worst(term)
        if term > worst:
            worst = term
        elif term != term:  # NaN
            return term
    return worst


# ---------------------------------------------------------------------------
# sampling helpers

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


def _disc(radius: float) -> Callable[[random.Random, int], list[complex]]:
    """Draw of points uniform in modulus and argument over |z| <= ``radius``."""

    def draw(rng: random.Random, count: int) -> list[complex]:
        return [cmath.rect(rng.uniform(0.0, radius), rng.uniform(0.0, 2.0 * math.pi)) for _ in range(count)]

    return draw


def _near(z: complex, loci: Iterable[complex]) -> bool:
    return min(abs(z - q) for q in loci) < 0.05


def _check(
    name: str,
    tol: float,
    points: Iterable | None = None,
    *,
    seed: int = 0,
    count: int = 0,
    draw: Callable[[random.Random, int], list[complex]] = _cell_points,
    arity: int = 1,
):
    """Register ``residual`` as check ``name``: the worst of its terms at
    each of ``points``, over ``count`` samples of ``arity`` points
    ``draw(rng, arity)`` with rng seeded ``seed`` (``_sample``), or of its
    terms alone."""

    def deco(residual):
        def fn() -> float:
            if count:
                return _sample(name, seed, count)
            return _worst((residual(),) if points is None else map(residual, points))

        if count:
            _DOMAINS[name] = residual, draw, arity
        _CHECKS.append(Check(name, tol, fn))
        return residual

    return deco


def _sample(name: str, seed: int, count: int) -> float:
    """The worst residual of the sampled check ``name`` over ``count``
    samples of its domain drawn from ``random.Random(seed)``. A residual of
    None marks a sample outside the domain (too near a zero of one of its
    denominators), and another is drawn in its place."""
    residual, draw, arity = _DOMAINS[name]
    rng = random.Random(seed)
    terms = []
    while len(terms) < count:
        term = residual(*draw(rng, arity))
        if term is not None:
            terms.append(term)
    return _worst(terms)


#: (1 - cm) ~ z^3/3 cancels near the lattice points, so the Weierstrass
#: facts keep this far from 0.
_LATTICE_MARGIN = 0.35


# ---------------------------------------------------------------------------
# series layer

@_check("series_recurrence", 0.0)
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


@_check("series_mod3_sparsity", 0.0)
def _check_series_sparsity() -> float:
    pair = series.generate_series()
    for n in range(pair.order + 1):
        if n % 3 != 1 and pair.s_coeffs[n] != 0:
            return 1.0
        if n % 3 != 0 and pair.c_coeffs[n] != 0:
            return 1.0
    return 0.0


@_check("series_landmarks", 0.0)
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


@_check("series_cube_identity", 1e-12, seed=101, count=300, draw=_disc(0.5))
def _series_cube(z: complex) -> float:
    s, c = series.eval_series(series.generate_series(), z)
    return abs(s * s * s + c * c * c - 1.0)


# ---------------------------------------------------------------------------
# constants layer

@_check("k_value_root", 1e-8)
def _check_k_root() -> float:
    return abs(compute_K_root() - K_REFERENCE)


@_check("k_value_quadrature", 1e-8)
def _check_k_quadrature() -> float:
    return abs(compute_K_quadrature() - K_REFERENCE)


@_check("k_cross_agreement", 1e-9)
def _check_k_agreement() -> float:
    return abs(compute_K_root() - compute_K_quadrature())


#: (z, sm(z), cm(z)) at K, K/2 and -K/2
_CARDINALS = [
    (CONSTANTS.K, 1.0, 0.0),
    (CONSTANTS.K / 2.0, 2.0 ** (-1.0 / 3.0), 2.0 ** (-1.0 / 3.0)),
    (-CONSTANTS.K / 2.0, -1.0, 2.0 ** (1.0 / 3.0)),
]


@_check("cardinal_values", 1e-10, _CARDINALS)
def _cardinal(point: tuple[float, float, float]) -> tuple[float, float]:
    z, s_want, c_want = point
    s, c = sm_cm_values(z)
    return abs(s - s_want), abs(c - c_want)


def _pole_probes() -> list[complex]:
    """One point 1e-9 from each pole representative, in a seeded direction."""
    rng = random.Random(202)
    return [rep + cmath.rect(1e-9, rng.uniform(0.0, 2.0 * math.pi)) for rep in CONSTANTS.pole_reps]


@_check("pole_probe", 1e-8, _pole_probes())
def _pole_probe(z: complex) -> float:
    return 1.0 / abs(sm_cm_values(z)[0])


# ---------------------------------------------------------------------------
# global evaluator

@_check("cube_identity_cell", 1e-10, seed=303, count=400)
def _cube(z: complex) -> float:
    s, c = sm_cm_values(z)
    return abs(s * s * s + c * c * c - 1.0)


def _ivp_errors(z: complex) -> tuple[tuple[float, complex], tuple[float, complex]]:
    """Central differences at h = 1e-5 against sm' = cm^2 and cm' = -sm^2:
    the absolute error of each, with the derivative it tests."""
    h = 1e-5
    s0, c0 = sm_cm_values(z)
    sp, cp = sm_cm_values(z + h)
    sn, cn = sm_cm_values(z - h)
    ds = (sp - sn) / (2.0 * h)
    dc = (cp - cn) / (2.0 * h)
    return (abs(ds - c0 * c0), c0 * c0), (abs(dc + s0 * s0), s0 * s0)


@_check("ivp_derivatives", 1e-6, seed=404, count=150)
def _ivp(z: complex) -> list[float]:
    # relative to the derivative where it exceeds 1: it grows like d^-2
    # toward the poles, and the h^2 truncation error with it
    return [err / max(1.0, abs(d)) for err, d in _ivp_errors(z)]


#: The lattice shifts (m, n) of the periodicity check.
_SHIFTS = ((1, 0), (0, 1), (-1, -1), (2, -1), (-2, 2))


@_check("periodicity", 1e-9, seed=505, count=100)
def _periodicity(z: complex, shifts: Iterable[tuple[int, int]] = _SHIFTS) -> list[tuple[float, float]]:
    w1, w2 = CONSTANTS.periods
    s, c = sm_cm_values(z)
    shifted = [sm_cm_values(z + m * w1 + n * w2) for m, n in shifts]
    return [(abs(s2 - s), abs(c2 - c)) for s2, c2 in shifted]


@_check("conjugation_symmetry", 1e-10, seed=606, count=150)
def _conjugation(z: complex) -> tuple[float, float]:
    s, c = sm_cm_values(z)
    sb, cb = sm_cm_values(z.conjugate())
    return abs(sb - s.conjugate()), abs(cb - c.conjugate())


@_check("negation_symmetry", 1e-10, seed=707, count=150)
def _negation(z: complex) -> tuple[float, float] | None:
    # the zeros of cm: K * gamma**j
    K = CONSTANTS.K
    if _near(z, [K * g for g in GAMMA_POWERS]):
        return None
    s, c = sm_cm_values(z)
    sn, cn = sm_cm_values(-z)
    return abs(cn - 1.0 / c), abs(sn + s / c)


@_check("rotation_symmetry", 1e-10, seed=808, count=150)
def _rotation(z: complex) -> tuple[float, float]:
    g = CONSTANTS.gamma
    s, c = sm_cm_values(z)
    sg, cg = sm_cm_values(g * z)
    return abs(sg - g * s), abs(cg - c)


@_check("reflection_identity", 1e-10, seed=909, count=150)
def _reflection(z: complex) -> tuple[float, float]:
    s, c = sm_cm_values(z)
    sr, cr = sm_cm_values(CONSTANTS.K - z)
    return abs(sr - c), abs(cr - s)


@_check("translation_2k", 1e-10, seed=1010, count=150)
def _translation(z: complex) -> tuple[float, float] | None:
    k = CONSTANTS
    if _near(z, k.zero_reps):
        return None
    s, c = sm_cm_values(z)
    st, ct = sm_cm_values(2.0 * k.K + z)
    return abs(ct - 1.0 / s), abs(st + c / s)


#: The zero representatives and their shifts by one period of each kind.
_ZEROS = [
    rep + m * CONSTANTS.periods[0] + n * CONSTANTS.periods[1]
    for rep in CONSTANTS.zero_reps
    for m, n in ((0, 0), (1, 0), (0, 1))
]


@_check("zeros", 1e-9, _ZEROS)
def _zero(z: complex) -> float:
    return abs(sm_cm_values(z)[0])


def _ring_average(p: complex, component: int, radius: float = 1e-4) -> complex:
    total = 0.0j
    for i in range(8):
        z = p + cmath.rect(radius, i * math.pi / 4.0)
        total += (z - p) * sm_cm_values(z)[component]
    return total / 8.0


@_check("residues_sm", 1e-5)
def _check_residues_sm() -> tuple[list[float], float]:
    k = CONSTANTS
    _, g, gbar = GAMMA_POWERS
    targets = [
        (complex(-k.K), complex(-1.0)),
        (2.0 * k.K * g, -gbar),
        (2.0 * k.K * gbar, -g),
    ]
    total = 0.0j
    terms = []
    for p, expected in targets:
        got = _ring_average(p, 0)
        total += got
        terms.append(abs(got - expected))
    return terms, abs(total)


@_check("residue_cm", 1e-5)
def _check_residue_cm() -> float:
    k = CONSTANTS
    return abs(_ring_average(complex(-k.K), 1) - 1.0)


_VERTICES = [CONSTANTS.K * g for g in GAMMA_POWERS]

#: 100 points along each side of the triangle with vertices K * gamma**j
_TRIANGLE = [
    (1.0 - t) * a + t * b
    for a, b in zip(_VERTICES, _VERTICES[1:] + _VERTICES[:1])
    for t in (i / 99.0 for i in range(100))
]


@_check("triangle_boundary", 1e-9, _TRIANGLE)
def _triangle(z: complex) -> float:
    return abs(abs(sm_cm_values(z)[0]) - 1.0)


@_check("imaginary_axis", 1e-9, [complex(0.0, -4.5 + 9.0 * i / 99.0) for i in range(100)])
def _imaginary_axis(z: complex) -> float:
    return abs(abs(sm_cm_values(z)[1]) - 1.0)


#: The edge from K toward -K*conj(gamma) = K + K*gamma, short of the pole
#: at the far vertex
_HEXAGON_EDGE = [CONSTANTS.K + i / 100.0 * CONSTANTS.K * GAMMA_POWERS[1] for i in range(100)]


@_check("hexagon_edge", 1e-9, _HEXAGON_EDGE)
def _hexagon_edge(z: complex) -> tuple[float, float]:
    # sm is real there and cm lies on the line gamma * R
    s, c = sm_cm_values(z)
    return abs(s.imag), abs((c * GAMMA_POWERS[2]).imag)


def _ray_points(per_sextant: int) -> list[complex]:
    """Points from 0.05 to 0.59 along each ray arg z = j*pi/3."""
    return [
        (0.05 + 0.54 * i / (per_sextant - 1)) * cmath.rect(1.0, sextant * math.pi / 3.0)
        for sextant in range(6)
        for i in range(per_sextant)
    ]


@_check("reality_rays", 1e-9, _ray_points(10))
def _reality(z: complex) -> tuple[float, float]:
    # sm(z)/z is real and positive along the rays
    ratio = sm_cm_values(z)[0] / z
    return abs(ratio.imag), 0.0 if ratio.real > 0.0 else math.inf


@_check("quartic_root", 1e-6)
def _check_quartic_root() -> tuple[float, float]:
    # sigma = sm(-K/4)**3 is the unique root of the quartic in the unit disc;
    # doubling -K/4 forces sm(-K/2)**3 = -1
    k = CONSTANTS
    s, _ = sm_cm_values(-k.K / 4.0)
    sigma = s * s * s
    quartic = 1.0 + 10.0 * sigma - 12.0 * sigma ** 2 + 4.0 * sigma ** 3 - 2.0 * sigma ** 4
    return abs(sigma - QUARTIC_ROOT_REFERENCE), abs(quartic)


# ---------------------------------------------------------------------------
# identity layer

@_check("addition_formula", 1e-9, seed=1111, count=150, arity=2)
def _addition(a: complex, z: complex) -> tuple[float, float] | None:
    pa, pz = FunctionPair(*sm_cm_values(a)), FunctionPair(*sm_cm_values(z))
    if abs(pa.s * pa.c * pz.s * pz.s + pz.c) < 0.05:
        return None
    got = identities.add(pa, pz)
    s, c = sm_cm_values(a + z)
    return abs(got.s - s), abs(got.c - c)


@_check("duplication_consistency", 1e-11, seed=1212, count=150)
def _duplication(z: complex) -> tuple[float, float] | None:
    p = FunctionPair(*sm_cm_values(z))
    if abs(p.c * (1.0 + p.s ** 3)) < 0.05:
        return None
    d = identities.duplicate(p)
    via_add = identities.add(p, p)
    return abs(d.s - via_add.s), abs(d.c - via_add.c)


@_check("triplication_consistency", 1e-10, seed=1313, count=150)
def _triplication(z: complex) -> tuple[float, float] | None:
    p = FunctionPair(*sm_cm_values(z))
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
    return abs(t.s - via.s), abs(t.c - via.c)


@_check("weierstrass_bridge", 1e-10, seed=1414, count=150)
def _weierstrass(z: complex) -> tuple[float, float, float] | None:
    if abs(z) < _LATTICE_MARGIN:
        return None
    p = FunctionPair(*sm_cm_values(z))
    if abs(1.0 - p.c) < 0.05:
        return None
    w = identities.to_weierstrass(p)
    if abs(3.0 * w.p_prime - 1.0) < 0.05:
        return None
    ode = w.p_prime ** 2 - 4.0 * w.p ** 3 + 1.0 / 27.0
    back = identities.from_weierstrass(w)
    return abs(ode), abs(back.s - p.s), abs(back.c - p.c)


@_check("wp_periodicity", 1e-9, seed=1515, count=80)
def _wp_periodicity(z: complex) -> list[float] | None:
    if abs(z) < _LATTICE_MARGIN:
        return None
    w1, w2 = CONSTANTS.periods
    base = wp(z).value
    return [abs(wp(z + shift).value - base) for shift in (w1, w2, w1 + w2)]


# ---------------------------------------------------------------------------
# inverse layer

@_check("inverse_roundtrip", 1e-9, seed=1616, count=60, draw=_disc(0.9))
def _inverse_roundtrip(w: complex) -> float:
    return abs(sm_cm_values(sm_inverse(w).z)[0] - w)


#: (w, sm_inverse(w)) at 1, 2^(-1/3), -1 and -|sigma|^(1/3)
_INVERSE_LANDMARKS = [
    (1.0, CONSTANTS.K),
    (2.0 ** (-1.0 / 3.0), CONSTANTS.K / 2.0),
    (-1.0, -CONSTANTS.K / 2.0),
    (-abs(QUARTIC_ROOT_REFERENCE) ** (1.0 / 3.0), -CONSTANTS.K / 4.0),
]


@_check("inverse_landmarks", 1e-7, _INVERSE_LANDMARKS)
def _inverse_landmark(point: tuple[float, float]) -> float:
    w, z = point
    return abs(sm_inverse(w).z - z)
