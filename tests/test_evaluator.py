"""Global evaluator: reduction, pipeline values, symmetries, boundary loci."""

import cmath
import copy
import math
import pickle
import random

import pytest

from dixonian import (
    DixonConstants,
    EllipticValue,
    FunctionPair,
    InverseResult,
    LatticeReduction,
    PoleError,
    Region,
    ValueGrid,
    WeierstrassValue,
    constants,
    evaluator,
    cm,
    reduce_to_fundamental,
    sm,
    sm_cm,
    sm_cm_values,
    wp,
)
from dixonian.selftest import _cell_points, _ivp_errors, _periodicity, _ray_points, _reality, _worst
from conftest import ALL_SHIFTS, CONSTS, GAMMA, K, TOL, W1, W2, assert_fact, values


# --- lattice reduction -----------------------------------------------------

def test_reduce_trivial():
    red = reduce_to_fundamental(0.1)
    assert (red.m, red.n) == (0, 0)
    assert red.z_reduced == 0.1


def test_reduce_one_period():
    red = reduce_to_fundamental(3.0 * K)
    assert (red.m, red.n) == (1, 0)
    assert abs(red.z_reduced) <= 1e-12


def test_reduce_shifted():
    red = reduce_to_fundamental(W2 + 0.2)
    assert (red.m, red.n) == (0, 1)
    assert abs(red.z_reduced - 0.2) <= 1e-12


def test_reduce_roundtrip_random():
    rng = random.Random(11)
    for _ in range(200):
        z = complex(rng.uniform(-40, 40), rng.uniform(-40, 40))
        red = reduce_to_fundamental(z)
        assert abs(red.z_reduced + red.m * W1 + red.n * W2 - z) <= 1e-9
        b = red.z_reduced.imag / W2.imag
        a = (red.z_reduced.real - b * W2.real) / W1.real
        assert abs(a) <= 0.5 + 1e-9
        assert abs(b) <= 0.5 + 1e-9


def test_reduce_reads_any_constants_record_alike():
    # the reduction reads the library's record's periods from parts taken at
    # import; a fresh record, read at the call, gives the same bits, signed
    # zeros included: those of z - (m*w1 + n*w2), for complex, float and int
    # arguments
    rng = random.Random(12)
    zs = [complex(rng.uniform(-40, 40), rng.uniform(-40, 40)) for _ in range(300)]
    zs += [cmath.rect(10.0 ** rng.uniform(-300, 13), rng.uniform(0, 2 * math.pi)) for _ in range(300)]
    zs += [complex(a, b) for a in (0.0, -0.0, 1.5, -1.5, 2.0 ** 45) for b in (0.0, -0.0, 2.5, -2.5, -2.0 ** 45)]
    zs += [W1, -W2, W1 + W2, 2.0 * W2 - 3.0 * W1, 0.5 * (W1 + W2)]
    fresh = constants.dixon_constants.__wrapped__(48)
    for z in zs + [0.3, -0.0, 7, -2]:
        for consts in (None, CONSTS, fresh):
            red = reduce_to_fundamental(z, consts)
            want = complex(z) - (red.m * W1 + red.n * W2)
            assert repr(red.z_reduced) == repr(want), (z, consts)
            assert type(red.z_reduced) is complex


def test_reduce_nonfinite():
    for bad in (complex(math.inf, 0), complex(0, math.nan)):
        with pytest.raises(ValueError):
            reduce_to_fundamental(bad)
        with pytest.raises(ValueError):
            sm_cm(bad)


# --- cardinal values and poles ----------------------------------------------

def test_origin():
    s, c = values(0.0)
    assert s == 0
    assert c == 1


def test_quartic_point():
    # sm(-K/4)**3 is the unit-disc root of 1 + 10x - 12x^2 + 4x^3 - 2x^4
    s, _ = values(-K / 4.0)
    sigma = s ** 3
    assert abs(sigma - (1.0 - math.sqrt(3.0 * (2.0 * math.sqrt(3.0) - 3.0))) / 2.0) <= 1e-12
    assert abs(1 + 10 * sigma - 12 * sigma ** 2 + 4 * sigma ** 3 - 2 * sigma ** 4) <= 1e-12


def test_pole_markers():
    for rep in CONSTS.pole_reps:
        sv, cv = sm_cm(rep)
        assert sv.is_pole and cv.is_pole
        assert sv.pole_rep == rep
    sv, cv = sm_cm(-K + 5e-13)
    assert sv.is_pole


def test_pole_error():
    with pytest.raises(PoleError):
        sm_cm_values(-K)


def test_near_pole_blowup():
    s, c = values(-K + 1e-9)
    assert abs(s) >= 1e8 and abs(c) >= 1e8


def test_near_path_matches_translation():
    # both sides of NEAR_TOL must agree with cm(-K + w) = 1/sm(w)
    for radius in (0.04, 0.06):
        for i in range(8):
            w = cmath.rect(radius, i * math.pi / 4.0 + 0.3)
            lhs = values(-K + w)[1]
            rhs = 1.0 / values(w)[0]
            assert abs(lhs - rhs) <= 1e-9


def test_elliptic_value_api():
    v = EllipticValue.finite(2.0 + 1.0j)
    assert not v.is_pole and v.value == 2.0 + 1.0j and v.pole_rep is None
    p = EllipticValue.pole(-K)
    assert p.is_pole and p.value is None and p.pole_rep == -K
    assert type(EllipticValue.finite(2).value) is complex and type(p.pole_rep) is complex


def test_elliptic_value_refuses_both_fields():
    # a finite value with a pole representative is neither finite nor a pole;
    # the class call, _make, _replace and unpickling all refuse it
    v, p = EllipticValue(1.0), EllipticValue(None, -K)
    # what unpickling calls with the pickled fields
    newobj, (cls, *_) = v.__reduce_ex__(2)[:2]
    for build in (lambda: EllipticValue(1.0, 5j), lambda: EllipticValue(value=1.0, pole_rep=-K),
                  lambda: EllipticValue._make((1.0, 5j)), lambda: v._replace(pole_rep=5j),
                  lambda: p._replace(value=1.0), lambda: newobj(cls, 1.0, 5j)):
        with pytest.raises(ValueError, match="not both"):
            build()
    assert v.value == 1.0 and not v.is_pole and p.is_pole


_REGION = dict(center=0j, width=1.0, height=2.0, nx=3, ny=1)
_REGION_REPR = "Region(center=0j, width=1.0, height=2.0, nx=3, ny=1)"

#: every value type, with keyword fields and the repr the frozen dataclasses
#: and NamedTuples they replace gave
VALUE_TYPES = (
    (EllipticValue, dict(value=0.5 + 0j, pole_rep=None), "EllipticValue(value=(0.5+0j), pole_rep=None)"),
    (
        LatticeReduction,
        dict(m=1, n=-2, z_reduced=0.3 + 0j),
        "LatticeReduction(m=1, n=-2, z_reduced=(0.3+0j))",
    ),
    (
        DixonConstants,
        dict(K=2.0, gamma=1j, periods=(3.0, 3j), pole_reps=(-2.0,), zero_reps=(0j,), g2=0.0, g3=0.5),
        "DixonConstants(K=2.0, gamma=1j, periods=(3.0, 3j), pole_reps=(-2.0,), zero_reps=(0j,), "
        "g2=0.0, g3=0.5)",
    ),
    (evaluator._Context, dict(constants="c", pair="p"), "_Context(constants='c', pair='p')"),
    (FunctionPair, dict(s=0.5 + 0j, c=1.0), "FunctionPair(s=(0.5+0j), c=1.0)"),
    (WeierstrassValue, dict(p=1j, p_prime=2.0), "WeierstrassValue(p=1j, p_prime=2.0)"),
    (InverseResult, dict(z=0.5 + 0j, residual=0.0), "InverseResult(z=(0.5+0j), residual=0.0)"),
    (Region, _REGION, _REGION_REPR),
    (
        ValueGrid,
        dict(region=Region(**_REGION), values=(EllipticValue(1.0),)),
        f"ValueGrid(region={_REGION_REPR}, values=(EllipticValue(value=1.0, pole_rep=None),))",
    ),
)


def test_value_types_immutable_and_compared_by_type():
    for cls, fields, text in VALUE_TYPES:
        obj, same, plain = cls(**fields), cls(*fields.values()), tuple(fields.values())
        assert repr(obj) == text
        assert obj == same and not obj != same
        assert hash(obj) == hash(same)
        # as with frozen dataclasses: no equality with a plain tuple
        assert obj != plain and not obj == plain and not plain == obj, text
        for name in (next(iter(fields)), "extra"):
            with pytest.raises(AttributeError):
                setattr(obj, name, 1)
        # pickling and copying rebuild through __getnewargs__
        twins = (pickle.loads(pickle.dumps(obj)), copy.copy(obj), copy.deepcopy(obj), cls._make(plain))
        for twin in twins:
            assert twin == obj and twin.__class__ is cls, text
        assert obj._replace(**fields) == obj
        with pytest.raises(ValueError, match="unexpected field names"):
            obj._replace(extra=1)
        with pytest.raises(TypeError):
            cls._make(plain[:-1])
    assert FunctionPair(1.0, 2.0)._replace(c=3.0) == FunctionPair(1.0, 3.0)
    # the errors of a function call with the same arguments
    for args, kwargs, message in (
        ((1, 2, 3), {}, "takes 2 positional arguments but 3 were given"),
        ((1,), {}, "missing required argument: 'c'"),
        ((1, 2), {"s": 3}, "got multiple values for argument 's'"),
        ((1, 2), {"q": 3}, "got an unexpected keyword argument 'q'"),
    ):
        with pytest.raises(TypeError, match=message):
            FunctionPair(*args, **kwargs)
    # equal fields, another type
    assert FunctionPair(1.0, 2.0) != WeierstrassValue(1.0, 2.0)
    # the kernel builds its values with tuple.__new__, past the class call
    v, r = sm_cm(0.3)[0], reduce_to_fundamental(0.3)
    assert repr(v) == f"EllipticValue(value={v.value!r}, pole_rep=None)"
    assert repr(r) == "LatticeReduction(m=0, n=0, z_reduced=(0.3+0j))"
    assert v == EllipticValue(v.value) and r == LatticeReduction(0, 0, 0.3 + 0j)


def test_projections():
    assert sm(0.4).value == sm_cm(0.4)[0].value
    assert cm(0.4).value == sm_cm(0.4)[1].value


def test_order_kwarg():
    # the series order is fixed: no evaluator entry point takes one
    for fn in (sm, cm, sm_cm, sm_cm_values, wp):
        fn(0.3)
        with pytest.raises(TypeError, match="order"):
            fn(0.3, order=48)


# --- symmetries and identities ----------------------------------------------

def test_periodicity_examples():
    assert abs(values(3.0 * K + 0.7)[0] - values(0.7)[0]) <= 1e-10
    assert abs(values(GAMMA * 0.4)[0] - GAMMA * values(0.4)[0]) <= 1e-10


def test_periodicity_random():
    pts = _cell_points(random.Random(21), 50)
    assert _worst(_periodicity(z, ALL_SHIFTS) for z in pts) <= TOL["periodicity"]


def test_conjugation():
    assert_fact("conjugation_symmetry", 22, 200)


def test_negation():
    assert_fact("negation_symmetry", 23, 200)


def test_rotation():
    assert_fact("rotation_symmetry", 24, 200)


def test_reflection():
    assert_fact("reflection_identity", 25, 200)


def test_translation_2k():
    assert_fact("translation_2k", 26, 200)


def test_derivatives_finite_difference():
    # absolute errors, where the pole margin keeps the derivatives moderate
    for z in _cell_points(random.Random(27), 200, pole_margin=0.15):
        assert _worst(err for err, _ in _ivp_errors(z)) <= 1e-6


# --- boundary geometry -------------------------------------------------------

def test_reality_rays():
    assert _worst(map(_reality, _ray_points(12))) <= TOL["reality_rays"]


# --- cube identity over the cell ---------------------------------------------

def test_cube_identity_cell():
    assert_fact("cube_identity_cell", 28, 500)


# --- Weierstrass evaluation ---------------------------------------------------

def test_wp_pole_at_lattice():
    assert wp(0.0).is_pole
    assert wp(0.0).pole_rep == 0
    assert wp(3.0 * K).is_pole


def test_wp_values():
    assert abs(wp(K).value - 1.0 / 3.0) <= 1e-12
    # finite at the sm poles: the limit of s/(3(1 - c)) is gamma**j / 3
    assert abs(wp(-K).value - 1.0 / 3.0) <= 1e-12
    assert abs(wp(-K * GAMMA).value - GAMMA / 3.0) <= 1e-12


def test_wp_rotation():
    z = 0.7 + 0.2j
    assert abs(wp(GAMMA * z).value - GAMMA * wp(z).value) <= 1e-11
