"""The sm/cm kernel: bit-identity with the identity layer, every truncation
from order 27 usable in place of the one series, one constants record, no
entry point that takes a series order, the package's public names, what a
cold start imports, and the library names the benchmark calls and wraps."""

import cmath
import dataclasses
import importlib.util
import inspect
import json
import math
import os
import pathlib
import random
import re
import subprocess
import sys
import types

import pytest

from dixonian import (
    DENOM_TOL,
    DegenerateDenominatorError,
    FunctionPair,
    cli,
    constants,
    dixon_constants,
    duplicate,
    eval_series,
    evaluator,
    identities,
    inverse,
    reduce_to_fundamental,
    render,
    selftest,
    series,
    sm_cm,
    translate_2K,
)
from dixonian.constants import GAMMA_POWERS
from dixonian.evaluator import _CTX, NEAR_TOL, POLE_TOL, _nearest_pole_frame
from dixonian.identities import duplicate_values
from dixonian.series import SERIES_EVAL_RADIUS
from dixonian.selftest import _cell_points
from conftest import CONSTS, LOWEST_USABLE_ORDER, MAX_TRUNCATION, K, W1, W2, kernel_with, truncation, truncation_usable

ROOT = pathlib.Path(__file__).resolve().parents[1]


def _duplicate_formula(p):
    # the duplication formula with its operations in the kernel's order,
    # written out so the reference shares no code with the kernel's loop
    s3 = p.s * p.s * p.s
    c3 = p.c * p.c * p.c
    den = p.c * (1.0 + s3)
    if abs(den) < DENOM_TOL:
        raise DegenerateDenominatorError("duplication")
    return FunctionPair(p.s * (1.0 + c3) / den, (c3 - s3) / den)


def _halvings(zr):
    """How many halvings bring zr into the series disc."""
    k, a = 0, abs(zr)
    while a > SERIES_EVAL_RADIUS:
        a *= 0.5
        k += 1
    return k


def _identity_duplication(zr):
    """(sm, cm) at a reduced argument away from the poles, from eval_series
    on the 0.5 disc and one duplication per halving."""
    k = _halvings(zr)
    p = FunctionPair(*eval_series(_CTX.pair, zr / (1 << k)))
    for _ in range(k):
        p = _duplicate_formula(p)
    return p.s, p.c


def _identity_layer(z):
    """(sm, cm) at z from the identity layer, ``translate_2K`` near a pole;
    None at a pole."""
    ctx = _CTX
    zr = reduce_to_fundamental(z, CONSTS).z_reduced
    j, w = _nearest_pole_frame(ctx, zr)
    if abs(w) <= POLE_TOL:
        return None
    if abs(w) <= NEAR_TOL:
        p = translate_2K(FunctionPair(*eval_series(ctx.pair, w)))
        return GAMMA_POWERS[j] * p.s, p.c
    return _identity_duplication(zr)


def _kernel_points():
    rng = random.Random(404)
    pts = _cell_points(rng, 400, pole_margin=0.0)
    # near-pole rescue, far enough out that translate_2K's guard passes
    def log_uniform(lo, hi):
        return math.exp(rng.uniform(math.log(lo), math.log(hi)))

    pts += [
        rep + cmath.rect(log_uniform(1e-7, NEAR_TOL), rng.uniform(0, 2 * math.pi))
        for rep in CONSTS.pole_reps
        for _ in range(40)
    ]
    # far points, reduced by whole periods
    pts += [cmath.rect(log_uniform(1.0, 1e6), rng.uniform(0, 2 * math.pi)) for _ in range(200)]
    pts += [z + 7 * W1 - 3 * W2 for z in pts[:50]]
    # signed zeros, the origin, the series-disc edge, cardinal points
    pts += [0j, complex(-0.0, -0.0), complex(-0.3, -0.0), complex(-0.0, 0.3), complex(-1.8, -0.0),
            0.5, -0.5, 0.5j, -K / 2.0, K / 2.0, complex(-2.0 * K, 0.0), complex(-2.0 * K, -0.0)]
    return pts


def test_kernel_bit_identical_to_identity_layer():
    for z in _kernel_points():
        want = _identity_layer(z)
        sv, cv = sm_cm(z)
        if want is None:
            assert sv.is_pole and cv.is_pole, z
        else:
            assert repr((sv.value, cv.value)) == repr(want), z


def test_duplication_denominators_bounded_over_cell():
    # A denominator c(1 + s^3) vanishes only where the doubled argument is a
    # pole. The doubles of the poles lie outside the cell, so outside the
    # NEAR_TOL discs no duplication the kernel runs comes near DENOM_TOL
    # (1e-8): the smallest denominator, about 0.14, sits on the disc about -K.
    n = 17
    pts = [(i / (n - 1) - 0.5) * W1 + (j / (n - 1) - 0.5) * W2 for i in range(n) for j in range(n)]
    pts += [
        rep + cmath.rect(NEAR_TOL * (1.0 + 1e-9), i * math.pi / 12.0)
        for rep in CONSTS.pole_reps
        for i in range(24)
    ]
    smallest = math.inf
    for zr in pts:
        if abs(_nearest_pole_frame(_CTX, zr)[1]) <= NEAR_TOL:
            continue
        k = _halvings(zr)
        s, c = eval_series(_CTX.pair, zr / (1 << k))
        for _ in range(k):
            smallest = min(smallest, abs(c * (1.0 + s * s * s)))
            s, c = duplicate_values(s, c, 1)
    assert 0.1 < smallest < 0.15


def test_duplicate_values_is_duplicate():
    rng = random.Random(3)
    for z in _cell_points(rng, 50):
        s, c = sm_cm(z / 4)
        p = _duplicate_formula(_duplicate_formula(FunctionPair(s.value, c.value)))
        assert repr(duplicate_values(s.value, c.value, 2)) == repr((p.s, p.c))
        q = duplicate(FunctionPair(s.value, c.value))
        assert repr(duplicate_values(s.value, c.value, 1)) == repr((q.s, q.c))
    assert duplicate_values(0.25j, 1.0, 0) == (0.25j, 1.0)


def _always_framed(z):
    """The kernel's (sm, cm) at z with the nearest pole framed at every
    reduced argument, (None, j) on pole j: the reference for the kernel,
    which frames only from ``_FRAME_RADIUS`` out."""
    zr = reduce_to_fundamental(z, CONSTS).z_reduced
    j, w = _nearest_pole_frame(_CTX, zr)
    if abs(w) <= POLE_TOL:
        return None, j
    if abs(w) <= NEAR_TOL:
        return tuple(evaluator._near_pole_pair(_CTX, j, w))
    k = _halvings(zr)
    return duplicate_values(*eval_series(_CTX.pair, zr / (1 << k)), k)


def _frame_edge_points():
    rng = random.Random(405)
    radii = []
    for r in (K - NEAR_TOL, evaluator._FRAME_RADIUS):
        radii += [r - 1e-9, r + 1e-9, math.nextafter(r, 0.0), r, math.nextafter(r, 4.0)]
    pts = []
    for rep in CONSTS.pole_reps:
        toward = rep / abs(rep)
        # on the ray toward the pole, on the ray between two poles, and off both
        for d in (toward, -toward, toward * cmath.rect(1.0, 0.3), toward * cmath.rect(1.0, -1e-4)):
            pts += [r * d for r in radii]
        # inside the near-pole disc, and within POLE_TOL of the pole
        pts += [rep + cmath.rect(math.exp(rng.uniform(math.log(1e-11), math.log(NEAR_TOL))),
                                 rng.uniform(0, 2 * math.pi)) for _ in range(40)]
        pts += [rep + cmath.rect(rng.uniform(0, POLE_TOL), rng.uniform(0, 2 * math.pi)) for _ in range(10)]
        pts += [rep, rep + cmath.rect(NEAR_TOL, rng.uniform(0, 2 * math.pi))]
    pts += [z + 2 * W1 - W2 for z in pts[::7]]
    return pts


def test_frame_skipped_only_where_no_pole_is_near(monkeypatch):
    # every pole is K from 0, so below _FRAME_RADIUS (K - NEAR_TOL - 1e-6)
    # the frame could find no pole within NEAR_TOL; the kernel skips it there
    # and gives the always-framing kernel's bits on both sides of that
    # radius, of NEAR_TOL's circle and of POLE_TOL's
    framed = []
    frame = evaluator._nearest_pole_frame

    def recording(ctx, zr):
        framed.append(zr)
        return frame(ctx, zr)

    monkeypatch.setattr(evaluator, "_nearest_pole_frame", recording)
    assert evaluator._FRAME_RADIUS == K - NEAR_TOL - 1e-6
    paths = set()
    for z in _frame_edge_points():
        framed.clear()
        got, want = evaluator._pair(_CTX, z), _always_framed(z)
        assert repr(tuple(got)) == repr(want), z
        zr = reduce_to_fundamental(z, CONSTS).z_reduced
        assert framed == ([zr] if abs(zr) >= evaluator._FRAME_RADIUS else []), z
        d = min(abs(zr - rep) for rep in CONSTS.pole_reps)
        paths.add((bool(framed), "pole" if d <= POLE_TOL else "near" if d <= NEAR_TOL else "series"))
    assert paths == {(False, "series"), (True, "series"), (True, "near"), (True, "pole")}


def test_reduction_beyond_cell_raises():
    # from about |z| = 1e17 the double-precision reduction loses the argument
    for z in (1.7e308, 1.234567e17, complex(1e300, 1e300), complex(1.7e308, 1.7e308)):
        with pytest.raises(ValueError, match=r"2\*\*45"):
            sm_cm(z)


def test_max_argument_is_the_bound():
    # one ulp of 2**45 exceeds 1e-3 of the period; the bound itself is accepted
    big = evaluator.MAX_ARGUMENT
    assert big == 2.0 ** 45 and math.ulp(big) > 1e-3 * 3.0 * K > math.ulp(big / 2.0)
    for z in (complex(big, 0.0), complex(-big, big), complex(0.0, -big)):
        assert abs(reduce_to_fundamental(z).z_reduced) < 4.6
        sm_cm(z)
    for z in (math.nextafter(big, math.inf), complex(0.0, -math.nextafter(big, math.inf)),
              complex(math.inf, 0.0), complex(0.0, math.nan)):
        with pytest.raises(ValueError):
            reduce_to_fundamental(z)


#: Every public function and method that took a series order, with
#: arguments that are valid without one.
_REGION = render.Region(0j, 1.0, 1.0, 2, 2)
ORDERLESS = (
    (sm_cm, (0.3,)), (evaluator.sm, (0.3,)), (evaluator.cm, (0.3,)), (evaluator.sm_cm_values, (0.3,)),
    (evaluator.wp, (0.3,)), (inverse.sm_inverse, (0.3,)), (render.sample_grid, (_REGION, "sm")),
    (render.write_grid, (None, _REGION, "sm", "csv")), (dixon_constants, ()), (evaluator.compute_K_root, ()),
)


def test_no_entry_point_takes_an_order():
    # the series order is fixed: no entry point names one, and passing one
    # is a TypeError
    for fn, args in ORDERLESS:
        assert "order" not in inspect.signature(fn, follow_wrapped=False).parameters, fn
        with pytest.raises(TypeError):
            fn(*args, order=48)


#: The names that take an order for the benchmark, each accepting only 48.
PINS = (series.generate_series, constants.dixon_constants.__wrapped__, evaluator._context)


def test_non_int_order_refused():
    # a value equal to 48 that is not the int 48 is refused like any other
    for pin in PINS:
        for order in (48.0, "48", True, None, 48 + 0j):
            with pytest.raises(ValueError, match=re.escape(f"the series order is fixed at 48, got {order!r}")):
                pin(order)


@pytest.mark.parametrize("order", range(1, MAX_TRUNCATION + 1))
def test_every_order_usable(order):
    # every truncation from LOWEST_USABLE_ORDER on could stand in for the
    # one series: swapped into the kernel, it root-finds the tabulated K and
    # agrees with the library within 1e-13. The library itself takes no
    # other order, and the pins refuse every order but 48
    for pin in PINS:
        if order == series.DEFAULT_ORDER:
            pin(order)
        else:
            with pytest.raises(ValueError, match=f"the series order is fixed at 48, got {order}"):
                pin(order)
    if order < LOWEST_USABLE_ORDER:
        assert not truncation_usable(order)
        return
    assert truncation_usable(order)
    zs = (0.1, 0.45 + 0.2j, 1.0, -K + 0.03, 2.5 - 1.5j, 40.0 + 3.0j)
    want = [sm_cm(z) for z in zs]
    with kernel_with(truncation(order)):
        assert evaluator.compute_K_root().hex() == K.hex()
        for z, (s48, c48) in zip(zs, want):
            s, c = sm_cm(z)
            assert abs(s.value - s48.value) <= 1e-13 * max(1.0, abs(s48.value))
            assert abs(c.value - c48.value) <= 1e-13 * max(1.0, abs(c48.value))


# --- what benchmarks/run.py and benchmarks/tracer.py read -----------------------

def _tracer_module():
    path = ROOT / "benchmarks" / "tracer.py"
    spec = importlib.util.spec_from_file_location("bench_tracer", path)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


LIB = {
    "cli": cli,
    "constants": constants,
    "evaluator": evaluator,
    "identities": identities,
    "inverse": inverse,
    "render": render,
    "selftest": selftest,
    "series": series,
}


def test_traced_attributes_exist():
    for mod_name, attr, _ in _tracer_module().WRAPPED:
        assert callable(getattr(LIB[mod_name], attr)), (mod_name, attr)
    # the names benchmarks/ calls outside the tracer, with the arguments it
    # passes: run.py's ORDER and verify.py's DEFAULT_ORDER are 48
    assert series.DEFAULT_ORDER == 48
    ctx = evaluator._context(48)
    assert ctx.constants is dixon_constants() and ctx.pair is series.generate_series(48)
    fresh = constants.dixon_constants.__wrapped__(48)
    assert fresh == ctx.constants and fresh is not ctx.constants
    z = -K + 0.01 + W1 - 2 * W2
    zr = evaluator.reduce_to_fundamental(z, ctx.constants).z_reduced
    j, w = evaluator._nearest_pole_frame(ctx, zr)
    assert abs(w) <= evaluator.NEAR_TOL
    p = evaluator._near_pole_pair(ctx, j, w)
    assert repr((p.s, p.c)) == repr(tuple(v.value for v in sm_cm(z)))
    assert evaluator.POLE_TOL < evaluator.NEAR_TOL
    # each name that takes an order accepts only the one
    for pin in PINS:
        with pytest.raises(ValueError, match="the series order is fixed at 48, got 47"):
            pin(47)


def test_one_constants_record_per_order():
    # the public record, the evaluator, the selftest and the default
    # reduction share the one record built from the tabulated K; the
    # benchmark times a fresh build through __wrapped__
    code = (
        "from dixonian import constants, dixon_constants, evaluator, reduce_to_fundamental, run_selftest, sm\n"
        "sm(0.3); run_selftest(); reduce_to_fundamental(1.0)\n"
        "records = [dixon_constants(), evaluator._CTX.constants, evaluator._context(48).constants]\n"
        "assert all(r is constants.CONSTANTS for r in records)\n"
        "assert constants.CONSTANTS.K.hex() == '0x1.c4426fe852836p+0'\n"
        "fresh = dixon_constants.__wrapped__(48)\n"
        "assert fresh == constants.CONSTANTS and fresh is not constants.CONSTANTS\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_all_lists_every_public_name():
    import dixonian

    # dir() also lists the names loaded on first use, and getattr resolves
    # each, so every name of __all__ resolves
    public = {
        name
        for name in dir(dixonian)
        if not name.startswith("_") and not isinstance(getattr(dixonian, name), types.ModuleType)
    }
    assert sorted(dixonian.__all__) == sorted(public)
    assert len(dixonian.__all__) == len(set(dixonian.__all__))
    code = (
        "from dixonian import *\n"
        "import dixonian\n"
        "assert all(n in globals() for n in dixonian.__all__)\n"
    )
    proc = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


#: Modules that importing the package, a first sm_cm and the CLI's eval,
#: constants and invert must not load: importing them cost a fresh process
#: several times the library's own work up to its first value. fractions
#: (with decimal and numbers) serves only the exact coefficients, which
#: evaluation never reads. The CLI parses its flags, complex literals and
#: JSON itself, without argparse (which loads gettext, locale and shutil),
#: json, re or enum.
COLD_PATH_EXCLUDED = (
    "dataclasses", "typing", "inspect", "random", "dixonian.selftest", "fractions", "decimal", "numbers",
    "argparse", "json", "re", "enum", "gettext", "locale", "shutil",
)
#: Loaded on first use of one of their names (the quadrature with the
#: inverse, and the math extension module with either): never by the package
#: and sm, cm and wp, nor by the CLI's eval and constants.
LOADED_ON_FIRST_USE = ("dixonian.inverse", "dixonian.render", "dixonian.quadrature", "math")
#: Not loaded by the package and a first sm_cm, the benchmark's set-up, nor
#: by the CLI's eval and constants. ``__future__`` is imported by every
#: module that starts with ``from __future__ import annotations`` (the
#: inverse and the quadrature among them), so the modules of those paths
#: evaluate their annotations as written.
SETUP_EXCLUDED = ("functools", "collections", "__future__", *LOADED_ON_FIRST_USE)


def test_cold_path_imports():
    code = "\n".join((
        "import sys",
        "import dixonian",
        "dixonian.sm_cm(0.3)",
        f"loaded = [m for m in {SETUP_EXCLUDED + COLD_PATH_EXCLUDED!r} if m in sys.modules]",
        "assert not loaded, loaded",
        "from dixonian import cli",
        "for argv in (['eval', '--fn', 'sm', '--z', '0.3'], ['eval', '--fn', 'wp', '--z', '0.3+0.1i'],",
        "             ['constants']):",
        "    assert cli.main(argv) == 0, argv",
        f"loaded = [m for m in {SETUP_EXCLUDED + COLD_PATH_EXCLUDED!r} if m in sys.modules]",
        "assert not loaded, loaded",
        "assert cli.main(['invert', '--w', '0.5']) == 0",
        f"loaded = [m for m in {COLD_PATH_EXCLUDED!r} if m in sys.modules]",
        "assert not loaded, loaded",
        "assert 'dixonian.render' not in sys.modules",
        "dixonian.run_selftest",
        "assert 'dixonian.selftest' in sys.modules",
        "from dixonian import *",
        "import dixonian.render",
        "assert sample_grid is dixonian.render.sample_grid and sm_inverse is dixonian.inverse.sm_inverse",
        "assert all(name in globals() for name in dixonian.__all__)",
    ))
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    proc = subprocess.run([sys.executable, "-S", "-c", code], env=env, capture_output=True, text=True)
    assert proc.returncode == 0, proc.stderr


def test_sm_cm_calls_through_module_attributes(monkeypatch):
    # the traced benchmark divides by the number of reductions and series
    # evaluations per sm_cm and wp call, so each must go through the module
    calls = {"eval_series": 0, "reduce_to_fundamental": 0}

    def counting(module, name):
        fn = getattr(module, name)

        def wrapper(*args, **kwargs):
            calls[name] += 1
            return fn(*args, **kwargs)

        monkeypatch.setattr(module, name, wrapper)

    counting(series, "eval_series")
    counting(evaluator, "reduce_to_fundamental")
    for fn in (sm_cm, evaluator.wp):
        for z in (0.7 + 0.2j, -K + 0.01):
            calls.update(eval_series=0, reduce_to_fundamental=0)
            fn(z)
            assert calls == {"eval_series": 1, "reduce_to_fundamental": 1}, (fn, z)


def test_selftest_registry_hooks():
    # the benchmark times each check by swapping its fn with
    # dataclasses.replace, and names one per-layer metric after each
    calls = []

    def counted(check):
        def fn():
            calls.append(check.name)
            return 0.0

        return fn

    saved = list(selftest._CHECKS)
    try:
        selftest._CHECKS[:] = [dataclasses.replace(c, fn=counted(c)) for c in saved]
        results = selftest.run_selftest()
    finally:
        selftest._CHECKS[:] = saved
    assert calls == selftest.list_checks()
    assert [(r.name, r.tol) for r in results] == [(c.name, c.tol) for c in saved]
    per_layer = [m["name"] for m in json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer"]]
    timed = [name[len("selftest.check."):-len(".ms")] for name in per_layer if name.startswith("selftest.check.")]
    assert selftest.list_checks() == timed

