"""Judging the program's outputs against the reference and the README.

Accuracy rule (the README's numerical contract, made exact):

- a finite (sm, cm) pair passes when max(|ds|, |dc|) / max(1, |sm|, |cm|)
  <= TOL: absolute error away from poles, relative error near them;
- a wp value passes when |dp| / max(1, |p|) <= TOL;
- a pole marker passes when the exact double input lies within POLE_TOL of
  a pole (of sm for sm/cm, of wp for wp) and names the right pole class.

Every failure is attributed to a known fault or left unexplained:

- F1 (K carried as one double): replaying the program's own kernel on the
  exactly reduced, exactly framed argument passes;
- F2 (wp through s/(3(1 - cm))): the wp value fails while the (sm, cm)
  pair at the same point passes.
"""

from __future__ import annotations

import colorsys
import math
from dataclasses import dataclass, field

import mpmath
from mpmath import mp

from reference import DPS, Reference

TOL = 1e-12
POLE_TOL = 1e-12
#: cm^3 + sm^3 = 1, relative to max(1, |sm|^3, |cm|^3)
IDENTITY_TOL = 1e-12
#: |sm_ref(z) - w| for a returned preimage z (the program's default tol is 1e-12
#: measured by its own evaluator, whose error adds at most the same again)
INVERSE_RESIDUAL_TOL = 2e-12

# the README's colour map: hue = phase, lightness rising with log(1 + |v|)
# into [0.15, 0.95], poles white, |v| <= 1e-9 black
_L_MIN, _L_MAX = 0.15, 0.95
_ZERO_CLIP = 1e-9


@dataclass
class Tally:
    """Attempted and failed operations of one kind, with failures per cause."""

    attempted: int = 0
    failed: int = 0
    causes: dict[str, int] = field(default_factory=dict)
    examples: list[str] = field(default_factory=list)

    def record(self, ok: bool, cause: str = "", example: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            self.causes[cause] = self.causes.get(cause, 0) + 1
            if len(self.examples) < 5:
                self.examples.append(f"{cause}: {example}")


def pair_error(s, c, ref) -> float:
    if ref is None:
        return math.inf
    rs, rc = ref
    scale = max(1.0, float(abs(rs)), float(abs(rc)))
    with mp.workdps(DPS):
        return float(max(abs(s - rs), abs(c - rc))) / scale


def readme_colour(v) -> tuple[int, int, int]:
    """Pixel colour for value v (None at a pole) under the README's map."""
    if v is None:
        return 255, 255, 255
    mag = abs(v)
    if mag <= _ZERO_CLIP:
        return 0, 0, 0
    hue = (math.atan2(v.imag, v.real) / (2.0 * math.pi)) % 1.0
    x = math.log1p(mag)
    r, g, b = colorsys.hls_to_rgb(hue, _L_MIN + (_L_MAX - _L_MIN) * x / (1.0 + x), 1.0)
    return round(255.0 * r), round(255.0 * g), round(255.0 * b)


class Judge:
    """Accuracy verdicts and fault attribution for one process."""

    def __init__(self) -> None:
        from dixonian import dixon_constants

        self.ref = Reference()
        self._lib_consts = dixon_constants()

    # -- sm, cm ------------------------------------------------------------

    def pair_ok(self, z: complex, s, c, pole_rep=None) -> bool:
        """(s, c) are the program's values at z, None for a pole marker."""
        if s is None:
            return self._pole_ok(z, pole_rep)
        return pair_error(s, c, self.ref.sm_cm(z)) <= TOL

    def _pole_ok(self, z: complex, pole_rep) -> bool:
        j, d = self.ref.nearest_pole(z)
        return d <= POLE_TOL and (pole_rep is None or pole_rep == self._lib_consts.pole_reps[j])

    def replay_exact_framing(self, z: complex):
        """The program's kernel run on the exactly reduced and framed argument.

        Returns (s, c), or (None, None) for a pole. The reduction and the pole
        offset are computed in the reference precision and rounded once (the
        library's own framing, ``_nearest_pole_frame``, works from the double
        pole representatives that F1 is about); the path choice and
        everything after it are the program's own code.
        """
        from dixonian import evaluator as ev
        from dixonian.series import DEFAULT_ORDER

        _, _, zr = self.ref.reduce(z)
        r = self.ref
        with mp.workdps(DPS):
            offsets = [r.gamma ** (-j) * (zr - r.pole_reps[j]) for j in range(3)]
        j = min(range(3), key=lambda i: abs(offsets[i]))
        w = complex(offsets[j])
        if abs(w) <= ev.POLE_TOL:
            return None, None
        if abs(w) <= ev.NEAR_TOL:
            pair = ev._near_pole_pair(ev._context(DEFAULT_ORDER), j, w)
            return pair.s, pair.c
        sv, cv = ev.sm_cm(complex(zr))
        return sv.value, cv.value

    def pair_cause(self, z: complex) -> str:
        s, c = self.replay_exact_framing(z)
        if s is None:
            return "F1" if self._pole_ok(z, None) else "unexplained"
        return "F1" if pair_error(s, c, self.ref.sm_cm(z)) <= TOL else "unexplained"

    # -- wp ----------------------------------------------------------------

    def wp_ok(self, z: complex, p) -> bool:
        if p is None:
            return self.ref.lattice_distance(z) <= POLE_TOL
        ref = self.ref.wp(z)
        if ref is None:
            return False
        with mp.workdps(DPS):
            return float(abs(p - ref)) / max(1.0, float(abs(ref))) <= TOL

    def wp_cause(self, z: complex) -> str:
        from dixonian import sm_cm

        sv, cv = sm_cm(z)
        if self.pair_ok(z, sv.value, cv.value, sv.pole_rep):
            return "F2"
        return self.pair_cause(z)

    # -- inverse -------------------------------------------------------------

    def inverse_ok(self, w: complex, z: complex) -> bool:
        """Forward residual in the reference, and agreement with the principal
        integral to within what that residual allows (dz = dw / cm(z)^2)."""
        with mp.workdps(DPS):
            ww = mpmath.mpc(w.real, w.imag)
            if float(abs(self.ref.sm_at(mpmath.mpc(z.real, z.imag)) - ww)) > INVERSE_RESIDUAL_TOL:
                return False
            principal = self.ref.principal_inverse(w)
            cm_sq = abs(1 - ww**3) ** (mpmath.mpf(2) / 3)
            return float(abs(z - principal) * cm_sq) <= 2.0 * INVERSE_RESIDUAL_TOL

    # -- grid ----------------------------------------------------------------

    def sm_ok(self, z: complex, s, ref=False) -> bool:
        """sm alone (grid pixels, CLI output); ``ref`` may pass a precomputed
        reference pair."""
        if s is None:
            return self._pole_ok(z, None)
        if ref is False:
            ref = self.ref.sm_cm(z)
        if ref is None:
            return False
        with mp.workdps(DPS):
            return float(abs(s - ref[0])) / max(1.0, float(abs(ref[0]))) <= TOL

    def pixel_cause(self, z: complex, s, rgb: tuple[int, int, int]) -> str:
        """'' for a right pixel; otherwise the fault behind a wrong value, or
        'unexplained' for a colour off the README's map by more than 1."""
        ref = self.ref.sm_cm(z)
        if not self.sm_ok(z, s, ref):
            s_replayed, _ = self.replay_exact_framing(z)
            return "F1" if self.sm_ok(z, s_replayed, ref) else "unexplained"
        want = readme_colour(None if ref is None else complex(ref[0]))
        return "" if all(abs(a - b) <= 1 for a, b in zip(rgb, want)) else "unexplained"


def identity_ok(s, c) -> bool:
    """cm^3 + sm^3 = 1 for one grid row (None for a pole in both)."""
    if s is None or c is None:
        return s is None and c is None
    scale = max(1.0, abs(s) ** 3, abs(c) ** 3)
    return abs(s * s * s + c * c * c - 1.0) / scale <= IDENTITY_TOL


def parse_csv(text: str):
    """Rows (z, value or None) of a grid CSV; raises ValueError on a bad row."""
    lines = text.split("\n")
    if lines[0] != "re,im,s_re,s_im,pole" or lines[-1] != "":
        raise ValueError("bad CSV header or missing final newline")
    rows = []
    for line in lines[1:-1]:
        re_, im_, sre, sim, pole = line.split(",")
        z = complex(float(re_), float(im_))
        if pole == "1":
            if sre != "nan" or sim != "nan":
                raise ValueError(f"pole row with a value: {line}")
            rows.append((z, None))
        elif pole == "0":
            rows.append((z, complex(float(sre), float(sim))))
        else:
            raise ValueError(f"bad pole flag: {line}")
    return rows


def grid_axis(mid: float, span: float, count: int) -> list[float]:
    """Sample coordinates of a grid axis, endpoints included (README contract)."""
    if count == 1:
        return [mid]
    step = span / (count - 1)
    return [mid - span / 2.0 + i * step for i in range(count)]
