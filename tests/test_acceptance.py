"""Acceptance suite: one test per criterion, each printing a pass/fail line.

The criteria sample the selftest registry's facts over larger samples than
the selftest draws, and run its fixed checks. Run with
``pytest tests/test_acceptance.py -v -s`` to see the per-criterion lines as
they complete.
"""

import random
from fractions import Fraction

from dixonian import generate_series, run_selftest, sm_inverse
from dixonian.cli import main as cli_main
from dixonian.selftest import _cell_points, _periodicity
from conftest import ALL_SHIFTS, TOL, K, worst
from oracles import picard_coefficients


def report(num, name, residual, tol):
    ok = residual <= tol
    print(f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d} {name}: "
          f"worst residual {residual:.3e} vs tol {tol:.1e}")
    assert ok, f"criterion {num} {name}: {residual:.3e} > {tol:.1e}"


def report_checks(num, *names):
    """Run the named selftest checks, one line each."""
    results = run_selftest(names=list(names))
    assert len(results) == len(names)
    for r in results:
        report(num, r.name, r.residual, r.tol)


def report_fact(num, name, seed, count):
    """Sample the registry's fact ``name`` at ``count`` points."""
    report(num, f"{name} ({count} samples)", worst(name, seed, count), TOL[name])


def test_criterion_01_k_reproduction():
    report_checks(1, "k_value_root", "k_value_quadrature", "k_cross_agreement")


def test_criterion_02_cardinal_values():
    report_checks(2, "cardinal_values")


def test_criterion_03_quartic_root():
    # the quartic's unit-disc root is the cube of sm(-K/4): doubling -K/4
    # lands on -K/2 where sm^3 = -1, and the duplication formula turns that
    # into 1 + 10*x - 12*x^2 + 4*x^3 - 2*x^4 = 0 for x = sm(-K/4)^3
    report_checks(3, "quartic_root")


def test_criterion_04_cube_identity_and_ivp():
    report_fact(4, "cube_identity_cell", 104, 2000)
    report_fact(4, "ivp_derivatives", 104, 2000)


def test_criterion_05_periodicity_and_residues():
    pts = _cell_points(random.Random(105), 150)
    report(5, "periodicity (150 points x 25 shifts)",
           max(_periodicity(z, ALL_SHIFTS) for z in pts), TOL["periodicity"])
    report_checks(5, "zeros", "residues_sm", "residue_cm")


def test_criterion_06_symmetry_suite():
    for name, seed in (
        ("conjugation_symmetry", 1061),
        ("negation_symmetry", 1062),
        ("rotation_symmetry", 1063),
        ("reflection_identity", 1064),
        ("translation_2k", 1065),
    ):
        report_fact(6, name, seed, 500)


def test_criterion_07_boundary_geometry():
    report_checks(7, "triangle_boundary", "imaginary_axis", "hexagon_edge", "reality_rays")


def test_criterion_08_identity_layer():
    report_fact(8, "addition_formula", 1081, 500)
    report_fact(8, "duplication_consistency", 1082, 500)
    report_fact(8, "triplication_consistency", 1083, 500)
    report_fact(8, "weierstrass_bridge", 1084, 500)


def test_criterion_09_series_oracle():
    s_oracle, c_oracle = picard_coefficients(48)
    pair = generate_series(48)
    exact = list(pair.s_coeffs) == s_oracle and list(pair.c_coeffs) == c_oracle
    landmarks = pair.s_coeffs[4] == Fraction(-1, 6) and pair.s_coeffs[7] == Fraction(2, 63)
    report(9, "coefficients == independent oracle", 0.0 if (exact and landmarks) else 1.0, 0.0)


def test_criterion_10_inverse():
    report_fact(10, "inverse_roundtrip", 110, 300)
    report(10, "sm_inverse(1) = K", abs(sm_inverse(1.0).z - K), 1e-8)
    report_checks(10, "inverse_landmarks")


def test_criterion_11_grid_determinism(tmp_path):
    outs = [tmp_path / f"cell{i}.ppm" for i in range(2)]
    base = ["grid", "--fn", "sm", "--preset", "cell"]
    assert cli_main(base + ["--out", str(outs[0])]) == 0
    assert cli_main(base + ["--out", str(outs[1])]) == 0
    identical = outs[0].read_bytes() == outs[1].read_bytes()
    report(11, "byte-identical PPM across runs", 0.0 if identical else 1.0, 0.0)
