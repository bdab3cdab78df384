"""Independent high-precision reference for sm, cm, wp and the sm inverse.

Shares no code with the library. Everything runs in mpmath at ``DPS``
decimal digits:

- K = B(1/3, 1/3) / 3 (the Beta-function closed form, not a root search);
- the exact binary64 input is reduced modulo the lattice 3K, 3K*gamma;
- Taylor coefficients come from the defining recurrence
  (n+1) s[n+1] = sum c[k] c[n-k], (n+1) c[n+1] = -sum s[k] s[n-k],
  computed in mpmath floats;
- the reduced argument is halved until |y| <= HALVING_RADIUS, the series is
  summed there, and the duplication formula brings it back out.

At that radius the dropped series tail is below 1e-60, so the reference is
good to well over 40 digits except within about 1e-40 of a pole.
"""

from __future__ import annotations

import mpmath
from mpmath import mp

DPS = 50
HALVING_RADIUS = 0.25
SERIES_ORDER = 75


class Reference:
    """sm/cm/wp oracle at DPS digits; construct once, call many times."""

    def __init__(self) -> None:
        with mp.workdps(DPS):
            self.K = mpmath.beta(mpmath.mpf(1) / 3, mpmath.mpf(1) / 3) / 3
            self.gamma = mpmath.mpc(-0.5, mpmath.sqrt(3) / 2)
            self.w1 = 3 * self.K
            self.w2 = 3 * self.K * self.gamma
            g = self.gamma
            self.pole_reps = (-self.K, -self.K * g, -self.K * mpmath.conj(g))
            s = [mpmath.mpf(0)] * (SERIES_ORDER + 1)
            c = [mpmath.mpf(0)] * (SERIES_ORDER + 1)
            c[0] = mpmath.mpf(1)
            for n in range(SERIES_ORDER):
                cc = mpmath.fsum(c[k] * c[n - k] for k in range(n + 1))
                ss = mpmath.fsum(s[k] * s[n - k] for k in range(n + 1))
                s[n + 1] = cc / (n + 1)
                c[n + 1] = -ss / (n + 1)
            # sm(y) = y * P(y^3), cm(y) = Q(y^3)
            self._P = list(reversed(s[1::3]))
            self._Q = list(reversed(c[0::3]))
            lattice = [m * self.w1 + n * self.w2 for m in (-1, 0, 1) for n in (-1, 0, 1)]
            # nine copies of each class, in class order: index // 9 is the class
            self._pole_copies = [p + t for p in self.pole_reps for t in lattice]
            self._lattice = lattice

    def reduce(self, z):
        """(m, n, z - m*w1 - n*w2) for the exact value of z (a double or an
        mpmath number), nearest-integer m, n."""
        with mp.workdps(DPS):
            zz = mpmath.mpc(z.real, z.imag)
            b = zz.imag / self.w2.imag
            a = (zz.real - b * self.w2.real) / self.w1
            m, n = int(mpmath.nint(a)), int(mpmath.nint(b))
            return m, n, zz - m * self.w1 - n * self.w2

    def nearest_pole(self, z: complex) -> tuple[int, float]:
        """Class j of the pole of sm nearest to the exact double z (a copy of
        pole_reps[j]), and the distance to it."""
        _, _, zr = self.reduce(z)
        with mp.workdps(DPS):
            i, d = min(enumerate(abs(zr - p) for p in self._pole_copies), key=lambda t: t[1])
            return i // 9, float(d)

    def lattice_distance(self, z: complex) -> float:
        """Distance from z to the nearest lattice point (double pole of wp)."""
        _, _, zr = self.reduce(z)
        with mp.workdps(DPS):
            return float(min(abs(zr - t) for t in self._lattice))

    def _pair_reduced(self, zr):
        k = 0
        y = zr
        while abs(y) > HALVING_RADIUS:
            y /= 2
            k += 1
        u = y * y * y
        s = mpmath.mpc(0)
        for a in self._P:
            s = s * u + a
        c = mpmath.mpc(0)
        for a in self._Q:
            c = c * u + a
        s *= y
        for _ in range(k):
            s3, c3 = s * s * s, c * c * c
            den = c * (1 + s3)
            if den == 0:
                return None
            s, c = s * (1 + c3) / den, (c3 - s3) / den
        return s, c

    def sm_cm(self, z: complex):
        """(sm(z), cm(z)) as mpc, or None when z lands exactly on a pole."""
        _, _, zr = self.reduce(z)
        with mp.workdps(DPS):
            return self._pair_reduced(zr)

    def sm_at(self, z) -> "mpmath.mpc":
        """sm at a double or an mpmath point (used to verify inverses)."""
        _, _, zr = self.reduce(z)
        with mp.workdps(DPS):
            return self._pair_reduced(zr)[0]

    def wp(self, z: complex):
        """Weierstrass p = sm / (3 (1 - cm)), or None at a lattice point."""
        pair = self.sm_cm(z)
        with mp.workdps(DPS):
            if pair is None:
                # on a pole of sm: the limit of s/(3(1 - c)) is gamma**j / 3
                _, _, zr = self.reduce(z)
                j = min(range(3), key=lambda i: abs(zr - self.pole_reps[i]))
                return self.gamma**j / 3
            s, c = pair
            if c == 1:
                return None
            return s / (3 * (1 - c))

    def principal_inverse(self, w: complex):
        """w * integral_0^1 (1 - (w x)^3)^(-2/3) dx, the principal preimage of w.

        Summed term by term the integral is w * 2F1(1/3, 2/3; 4/3; w^3), which
        mpmath evaluates to full precision right up to the branch points.
        ``principal_inverse_quad`` computes the integral itself.
        """
        with mp.workdps(DPS):
            ww = mpmath.mpc(w.real, w.imag)
            third = mpmath.mpf(1) / 3
            return ww * mpmath.hyp2f1(third, 2 * third, 4 * third, ww**3)

    def principal_inverse_quad(self, w: complex):
        """The defining integral by tanh-sinh quadrature (slow).

        The integrand peaks at x = 1 when w is next to a branch point, so the
        interval is split at points that close in on 1 geometrically.
        """
        with mp.workdps(DPS):
            ww = mpmath.mpc(w.real, w.imag)
            nodes = [mpmath.mpf(0)] + [1 - mpmath.mpf(10) ** -e for e in range(1, 13)] + [mpmath.mpf(1)]
            return ww * mpmath.quad(lambda x: (1 - (ww * x) ** 3) ** (-mpmath.mpf(2) / 3), nodes)


def _self_check() -> int:
    """Cross-check the reference against facts it does not use."""
    import cmath
    import random

    ref = Reference()
    worst = 0.0
    with mp.workdps(DPS):
        # K is the first positive zero of cm, and sm(K) = 1
        s, c = ref._pair_reduced(ref.K)
        worst = max(worst, float(abs(c)), float(abs(s - 1)))
        # cm^3 + sm^3 = 1 and the closed-form inverse against the integral
        rng = random.Random(7)
        for _ in range(6):
            w = cmath.rect(rng.uniform(0.1, 1.0 - 1e-6), rng.uniform(0.0, 2.0 * cmath.pi))
            z = ref.principal_inverse(w)
            worst = max(worst, float(abs(z - ref.principal_inverse_quad(w))))
            worst = max(worst, float(abs(ref.sm_at(z) - mpmath.mpc(w.real, w.imag))))
            s, c = ref._pair_reduced(z)
            worst = max(worst, float(abs(s**3 + c**3 - 1)))
    print(f"reference self-check: worst residual {worst:.3e} (want < 1e-40)")
    return 0 if worst < 1e-40 else 1


if __name__ == "__main__":
    raise SystemExit(_self_check())
