"""Fundamental constants: K, gamma, the period lattice, poles and zeros.

K (the first positive zero of cm, 1.76663875...) is data: the double in
``_tables``, from which the one module-level record ``CONSTANTS`` is built
at import. Its derivations are checks, which never run on the way to a
value. ``evaluator.compute_K_root`` finds it by root-finding cm through the
evaluator's kernel, the one users call, and finds the tabulated double,
which the tests and the selftest verify. ``compute_K_quadrature`` computes
the defining singular integral over (0, 1) independently, and loads the
quadrature only when called.

The gamma frame: sm(gamma*z) = gamma*sm(z) and cm(gamma*z) = cm(z), so the
poles, zeros and branch points come in triples gamma**j * p, j = 0, 1, 2.
``GAMMA_POWERS[j]`` is the rotation of member j; every layer (the constants
record, the evaluator's pole framing and near-pole rescue, the inverse's
branch-point guess, the selftest) reads it from here, and rotates back by
its conjugate.
"""

from . import _tables, series
from ._record import record

#: gamma = exp(2*pi*i/3) = (-1 + i*sqrt(3))/2, the primitive cube root of unity.
#: Its imaginary part is the double math.sqrt(3.0) / 2.0 (0x1.bb67ae8584caap-1),
#: written out so that the package does not load the math extension module.
GAMMA = complex(-0.5, 0.8660254037844386)

#: (1, gamma, conj(gamma)) = gamma**j for j = 0, 1, 2; conj(gamma) = gamma**2
#: = gamma**-1, so ``GAMMA_POWERS[j].conjugate()`` is gamma**-j.
GAMMA_POWERS = (complex(1.0), GAMMA, GAMMA.conjugate())


class DixonConstants(record("DixonConstants", "K gamma periods pole_reps zero_reps g2 g3")):
    """Immutable record every other module reads.

    ``K`` is the first positive zero of cm and ``gamma`` is GAMMA.
    ``periods`` are 3K and 3K*gamma; they span the fundamental cell
    centered at 0. ``pole_reps`` (-K*gamma**j) and ``zero_reps`` are the
    representatives of the three pole and zero classes of sm inside that
    cell, in the order of GAMMA_POWERS. ``g2`` and ``g3`` are the invariants
    of the Weierstrass p function of the same lattice.
    """

    __slots__ = ()


def _k_integrand(sigma: float, one_minus_sigma: float) -> float:
    # (1 - sigma^3)^(-2/3), with the factor (1 - sigma) supplied exactly
    return (one_minus_sigma * (1.0 + sigma + sigma * sigma)) ** (-2.0 / 3.0)


def compute_K_quadrature() -> float:
    """K as the integral of (1 - sigma^3)^(-2/3) over (0, 1).

    The integrand has an algebraic singularity at sigma = 1; the tanh-sinh
    transformation absorbs it; successive refinements agree within 1e-11.
    Cross-check only; the tabulated K, which the root-finder reproduces, is
    the authoritative one.
    """
    from .quadrature import tanh_sinh

    return tanh_sinh(_k_integrand, tol=1e-11).real


def _build_constants(order: int = series.DEFAULT_ORDER) -> DixonConstants:
    """A new record from the tabulated K. ``order`` is there for
    ``benchmarks/run.py:231``, which passes ``series.DEFAULT_ORDER``; any
    other value raises ValueError."""
    series._pinned(order)
    K = _tables.K
    _, g, gbar = GAMMA_POWERS
    return DixonConstants(
        K=K,
        gamma=g,
        periods=(complex(3.0 * K, 0.0), 3.0 * K * g),
        pole_reps=(complex(-K, 0.0), -K * g, -K * gbar),
        # the class of -K + K*gbar is represented by K - K*g, one period over
        zero_reps=(complex(0.0), -K + K * g, K - K * g),
        g2=0.0,
        g3=1.0 / 27.0,
    )


#: The one constants record.
CONSTANTS = _build_constants()


def dixon_constants() -> DixonConstants:
    """``CONSTANTS``, the one record every layer reads."""
    return CONSTANTS


# a fresh build, past the shared record, as functools' wrappers expose the
# uncached function; the benchmark's per-layer timing calls it
dixon_constants.__wrapped__ = _build_constants
