"""Dixonian elliptic functions sm and cm over the complex plane.

sm and cm solve cm' = -sm^2, sm' = cm^2 with cm(0) = 1, sm(0) = 0, satisfy
cm^3 + sm^3 = 1, and extend to elliptic functions with periods 3K, 3K*gamma
and 3K*conj(gamma). This package evaluates them globally (exact-rational
series, lattice reduction, duplication), inverts sm, exposes the algebraic
identity layer including the Weierstrass bridge, and renders domain-colored
grids.

``import dixonian`` loads only what sm, cm and wp need: K comes from a
table, not a root-finding. The inverse (``sm_inverse``, ``InverseResult``),
the renderer (``Region``, ``ValueGrid``, ``sample_grid``, ``domain_color``,
``grid_to_csv``, ``write_grid``) and the selftest (``CheckResult``,
``list_checks``, ``run_selftest``) are loaded on first use of one of their
names, and the quadrature on first use of the inverse or of
``compute_K_quadrature``.
"""

from .constants import (
    GAMMA,
    DixonConstants,
    compute_K_quadrature,
    dixon_constants,
)
from .errors import (
    ConvergenceError,
    DegenerateDenominatorError,
    DixonError,
    PoleError,
)
from .evaluator import (
    EllipticValue,
    LatticeReduction,
    cm,
    compute_K_root,
    reduce_to_fundamental,
    sm,
    sm_cm,
    sm_cm_values,
    wp,
)
from .identities import (
    DENOM_TOL,
    FunctionPair,
    WeierstrassValue,
    add,
    duplicate,
    from_weierstrass,
    to_weierstrass,
    translate_2K,
    triplicate,
)
from .series import SeriesPair, eval_series, generate_series

__version__ = "0.1.0"

#: The names loaded on first use, by the submodule that defines them.
_LAZY = {
    **dict.fromkeys(("InverseResult", "sm_inverse"), "inverse"),
    **dict.fromkeys(("Region", "ValueGrid", "domain_color", "grid_to_csv", "sample_grid", "write_grid"), "render"),
    **dict.fromkeys(("CheckResult", "list_checks", "run_selftest"), "selftest"),
}

__all__ = [
    "GAMMA",
    "DENOM_TOL",
    "CheckResult",
    "ConvergenceError",
    "DegenerateDenominatorError",
    "DixonConstants",
    "DixonError",
    "EllipticValue",
    "FunctionPair",
    "InverseResult",
    "LatticeReduction",
    "PoleError",
    "Region",
    "SeriesPair",
    "ValueGrid",
    "WeierstrassValue",
    "add",
    "cm",
    "compute_K_quadrature",
    "compute_K_root",
    "dixon_constants",
    "domain_color",
    "duplicate",
    "eval_series",
    "from_weierstrass",
    "generate_series",
    "grid_to_csv",
    "list_checks",
    "reduce_to_fundamental",
    "run_selftest",
    "sample_grid",
    "sm",
    "sm_cm",
    "sm_cm_values",
    "sm_inverse",
    "to_weierstrass",
    "translate_2K",
    "triplicate",
    "wp",
    "write_grid",
]


def __getattr__(name: str):
    module = _LAZY.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    # __import__ with a from-list returns the submodule itself
    value = getattr(__import__(module, globals(), None, (name,), 1), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_LAZY})
