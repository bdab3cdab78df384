"""Command line front end.

Subcommands: eval, constants, invert, grid, selftest. Machine-readable JSON
goes to stdout (grid writes a PPM or CSV file instead); diagnostics go to
stderr. Exit status: 0 success, 1 failed checks or evaluation failure,
2 usage errors (an unwritable grid --out among them). Every subcommand but
selftest takes --order, the highest power of z the series keeps (default
48). Every accepted order, 27..64, shares one K and one series disc; any
other order is a usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import re
import sys

from . import render, series
from .constants import dixon_constants
from .errors import DixonError
from .evaluator import cm, sm, wp
from .inverse import sm_inverse

_NUMBER = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?"
_COMPLEX = re.compile(rf"^([-+]?{_NUMBER})(([-+]{_NUMBER})i)?$")

_TOL_RANGE = (1e-14, 1e-2)

_ORDER_HELP = f"series order, {series.MIN_ORDER}..{series.MAX_ORDER} (default {series.DEFAULT_ORDER})"


def parse_complex(text: str) -> complex:
    """Parse 'a', 'a+bi' or 'a-bi' with decimal or scientific reals."""
    m = _COMPLEX.match(text.strip())
    if m is None:
        raise argparse.ArgumentTypeError(f"not a complex literal: {text!r}")
    return complex(float(m.group(1)), float(m.group(3)) if m.group(3) else 0.0)


def _check_tol(tol: float) -> float:
    lo, hi = _TOL_RANGE
    if not lo <= tol <= hi:
        raise ValueError(f"tol must be in [{lo:g}, {hi:g}], got {tol:g}")
    return tol


def _cmd_eval(args) -> int:
    fn = {"sm": sm, "cm": cm, "wp": wp}[args.fn]
    v = fn(args.z, order=args.order)
    if v.is_pole:
        print(json.dumps({"re": None, "im": None, "pole": True}))
    else:
        print(json.dumps({"re": v.value.real, "im": v.value.imag, "pole": False}))
    return 0


def _cmd_constants(args) -> int:
    k = dixon_constants(args.order)
    print(
        json.dumps(
            {
                "K": k.K,
                "gamma": {"re": k.gamma.real, "im": k.gamma.imag},
                "periods": [{"re": p.real, "im": p.imag} for p in k.periods],
                "g2": k.g2,
                "g3": k.g3,
            }
        )
    )
    return 0


def _cmd_invert(args) -> int:
    result = sm_inverse(args.w, tol=_check_tol(args.tol), order=args.order)
    print(json.dumps({"re": result.z.real, "im": result.z.imag, "residual": result.residual}))
    return 0


def _cell_preset(order: int) -> dict:
    k = dixon_constants(order)
    return {
        "center": complex(0.0),
        "width": 4.5 * k.K,
        "height": 1.5 * math.sqrt(3.0) * k.K,
        "nx": 181,
        "ny": 61,
    }


def _cmd_grid(args) -> int:
    # an order outside 27..64 raises here, before --out is opened
    dixon_constants(args.order)
    preset = _cell_preset(args.order) if args.preset == "cell" else {}

    def pick(name):
        value = getattr(args, name)
        if value is not None:
            return value
        if name in preset:
            return preset[name]
        raise ValueError(f"--{name} is required unless --preset supplies it")

    region = render.Region(
        center=pick("center"),
        width=pick("width"),
        height=pick("height"),
        nx=pick("nx"),
        ny=pick("ny"),
    )
    ppm = args.format == "ppm"
    # open --out before the render, so that an unwritable path fails at once;
    # the order and the region corners are checked before this point, so a
    # grid that evaluation would refuse leaves an existing file as it was
    try:
        with open(args.out, "wb" if ppm else "w", encoding=None if ppm else "ascii") as fh:
            grid = render.sample_grid(region, args.fn, order=args.order)
            fh.write(render.domain_color(grid) if ppm else render.grid_to_csv(grid))
    except OSError as exc:
        raise ValueError(f"cannot write --out: {exc}") from exc
    return 0


def _cmd_selftest(args) -> int:
    from . import selftest

    if args.list:
        for name in selftest.list_checks():
            print(name)
        return 0
    results = selftest.run_selftest()
    width = max(len(r.name) for r in results)
    passed = 0
    for r in results:
        passed += r.passed
        status = "PASS" if r.passed else "FAIL"
        print(f"{status}  {r.name:<{width}}  residual={r.residual:.3e}  tol={r.tol:.1e}")
    print(f"{passed}/{len(results)} checks passed")
    return 0 if passed == len(results) else 1


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="dixonian",
        description="Dixonian elliptic functions sm and cm on the complex plane",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_eval = sub.add_parser("eval", help="evaluate sm, cm or wp at a point")
    p_eval.add_argument("--fn", choices=("sm", "cm", "wp"), required=True)
    p_eval.add_argument("--z", type=parse_complex, required=True, help="complex literal a, a+bi or a-bi")
    p_eval.add_argument("--order", type=int, default=series.DEFAULT_ORDER, help=_ORDER_HELP)
    p_eval.set_defaults(func=_cmd_eval)

    p_const = sub.add_parser("constants", help="print K, gamma, periods and invariants as JSON")
    p_const.add_argument("--order", type=int, default=series.DEFAULT_ORDER, help=_ORDER_HELP)
    p_const.set_defaults(func=_cmd_constants)

    p_inv = sub.add_parser("invert", help="principal preimage of sm")
    p_inv.add_argument("--w", type=parse_complex, required=True)
    p_inv.add_argument(
        "--tol",
        type=float,
        default=1e-10,
        help="target residual |sm(z) - w| (1e-14..1e-2); z is then accurate to about "
        "residual / |cm(z)|^2, which grows next to the branch points",
    )
    p_inv.add_argument("--order", type=int, default=series.DEFAULT_ORDER, help=_ORDER_HELP)
    p_inv.set_defaults(func=_cmd_invert)

    p_grid = sub.add_parser("grid", help="sample a rectangle and write a PPM or CSV file")
    p_grid.add_argument("--fn", choices=("sm", "cm", "wp"), required=True)
    p_grid.add_argument("--preset", choices=("cell",), help="frame the fundamental cell")
    p_grid.add_argument("--center", type=parse_complex)
    p_grid.add_argument("--width", type=float)
    p_grid.add_argument("--height", type=float)
    p_grid.add_argument("--nx", type=int)
    p_grid.add_argument("--ny", type=int)
    p_grid.add_argument("--out", required=True)
    p_grid.add_argument("--format", choices=("ppm", "csv"), default="ppm")
    p_grid.add_argument("--order", type=int, default=series.DEFAULT_ORDER, help=_ORDER_HELP)
    p_grid.set_defaults(func=_cmd_grid)

    p_self = sub.add_parser("selftest", help="run the built-in verification suite")
    p_self.add_argument("--list", action="store_true", help="list check names without running")
    p_self.set_defaults(func=_cmd_selftest)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DixonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
