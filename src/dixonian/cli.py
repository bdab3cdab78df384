"""Command line front end.

Subcommands: eval, constants, invert, grid, selftest. Machine-readable JSON
goes to stdout (grid writes a PPM or CSV file instead); diagnostics go to
stderr. Exit status: 0 success, 1 failed checks or evaluation failure,
2 usage errors (an unwritable grid --out among them). The inverse, the
renderer and the selftest are imported only by the subcommands that use
them.

A flag is ``--flag value`` or ``--flag=value``, spelled out in full. A flag
that takes a value always takes the next token, so a value may start with
``-`` (``--z -0.5+1i``); a repeated flag keeps its last value. ``-h`` or
``--help``, alone or after a subcommand, prints that level's help and exits
0. A usage error prints the usage line and ``dixonian <cmd>: error: <msg>``
to stderr and exits 2.

One table, ``_COMMANDS``, declares every subcommand and flag; ``_parse``
and ``_help`` both read it. ``parse_complex`` scans the complex literals and
``_json`` writes the printed records as ``json.dumps`` would. So a cold
``dixonian eval`` loads none of argparse (with gettext, locale and re),
json or re, which took a fresh process several times as long to import as
the library and its first value.
"""

import sys

from ._record import record
from .constants import GAMMA, dixon_constants
from .errors import DixonError
from .evaluator import cm, sm, wp

_TOL_RANGE = (1e-14, 1e-2)


def _is_real(text: str) -> bool:
    """Whether ``text`` is an unsigned real: ``d+[.d*]`` or ``.d+``, then
    optionally ``[eE][-+]?d+``, where ``d`` is any decimal digit
    (``str.isdecimal``, the characters a regular expression's ``\\d`` matches)."""
    mantissa, e, exponent = text.replace("E", "e").partition("e")
    if e and exponent[:1] in ("+", "-"):
        exponent = exponent[1:]
    return mantissa.replace(".", "", 1).isdecimal() and (not e or exponent.isdecimal())


def parse_complex(text: str) -> complex:
    """Parse 'a', 'a+bi' or 'a-bi' with decimal or scientific reals.

    Surrounding whitespace is ignored; any other text raises ``ValueError``.
    """
    s = text.strip()
    # the imaginary part starts at the last sign that follows no exponent mark
    i = len(s) - 1
    while i > 0 and not (s[i] in "+-" and s[i - 1] not in "eE"):
        i -= 1
    real, imag = (s[:i], s[i:]) if i > 0 else (s, "")
    if _is_real(real[1:] if real[:1] in ("+", "-") else real) and (
        not imag or imag[-1] == "i" and _is_real(imag[1:-1])
    ):
        return complex(float(real), float(imag[:-1]) if imag else 0.0)
    raise ValueError(f"not a complex literal: {text!r}")


#: the JSON spelling of every scalar whose repr is not already JSON
_JSON_WORDS = {"None": "null", "True": "true", "False": "false", "nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json(obj) -> str:
    """``obj`` as ``json.dumps(obj)`` writes it, for the records printed here:
    dicts with plain ASCII keys, lists and tuples, floats, ints, bools and
    None (no strings)."""
    if isinstance(obj, dict):
        return "{" + ", ".join(f'"{key}": {_json(value)}' for key, value in obj.items()) + "}"
    if isinstance(obj, (list, tuple)):
        return "[" + ", ".join(map(_json, obj)) + "]"
    text = repr(obj)
    return _JSON_WORDS.get(text, text)


def _check_tol(tol: float) -> float:
    lo, hi = _TOL_RANGE
    if not lo <= tol <= hi:
        raise ValueError(f"tol must be in [{lo:g}, {hi:g}], got {tol:g}")
    return tol


def _cmd_eval(args: dict) -> int:
    fn = {"sm": sm, "cm": cm, "wp": wp}[args["fn"]]
    v = fn(args["z"])
    if v.is_pole:
        print(_json({"re": None, "im": None, "pole": True}))
    else:
        print(_json({"re": v.value.real, "im": v.value.imag, "pole": False}))
    return 0


def _cmd_constants(args: dict) -> int:
    k = dixon_constants()
    print(
        _json(
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


def _cmd_invert(args: dict) -> int:
    from .inverse import sm_inverse

    w = args["w"]
    result = sm_inverse(w, tol=_check_tol(args["tol"]))
    r = result.residual
    if abs(w) >= 1.0:
        # one of the six points +-gamma**j, whose z is the closed form
        # gamma**j K or -gamma**j K / 2: the residual is only the rounding of
        # sm(z), which the cube root below would turn into an error of 1e-5
        z_err = 0.0
    else:
        # sm(z + d) - sm(z) = cm(z)**2 d + ..., and d**3 / 3 times gamma**j
        # at the branch point gamma**j, where cm vanishes: the error of z to
        # first order in the term that dominates. Next to a branch point the
        # rounding of sm(z) is a real error of z, and stays in
        cubic = (3.0 * r) ** (1.0 / 3.0)
        c2 = abs(cm(result.z).value) ** 2
        z_err = min(r / c2, cubic) if c2 else cubic
    print(_json({"re": result.z.real, "im": result.z.imag, "residual": r, "z_err": z_err}))
    return 0


def _cell_preset() -> dict:
    K = dixon_constants().K
    return {
        "center": complex(0.0),
        "width": 4.5 * K,
        # 1.5 * sqrt(3) * K to the bit, without the math module
        "height": 3.0 * GAMMA.imag * K,
        "nx": 181,
        "ny": 61,
    }


def _cmd_grid(args: dict) -> int:
    from . import render

    preset = _cell_preset() if args["preset"] == "cell" else {}

    def pick(name):
        value = args[name]
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
    ppm = args["format"] == "ppm"
    # open --out before the render, so that an unwritable path fails at once;
    # the region corners are checked before this point, so a grid that
    # evaluation would refuse leaves an existing file as it was.
    # Rows are written as they are sampled, so memory stays one row's worth;
    # newline="" makes the CSV bytes grid_to_csv's on every platform
    try:
        with open(args["out"], "wb") if ppm else open(args["out"], "w", encoding="ascii", newline="") as fh:
            render.write_grid(fh, region, args["fn"], args["format"])
    except OSError as exc:
        raise ValueError(f"cannot write --out: {exc}") from exc
    return 0


def _cmd_selftest(args: dict) -> int:
    from . import selftest

    if args["list"]:
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


class _Flag(record("_Flag", "name type choices required default help")):
    """One flag of a subcommand. ``type`` turns the flag's token into its
    value and raises ValueError on a bad one; a flag whose type is None takes
    no token and is True when given. The handler reads the value under the
    flag's name without its dashes."""

    __slots__ = ()


_FNS = ("sm", "cm", "wp")

#: Every subcommand: name -> (handler, help, flags)
_COMMANDS = {
    "eval": (_cmd_eval, "evaluate sm, cm or wp at a point", (
        _Flag("--fn", str, _FNS, True, None, "function to evaluate"),
        _Flag("--z", parse_complex, None, True, None, "complex literal a, a+bi or a-bi"),
    )),
    "constants": (_cmd_constants, "print K, gamma, periods and invariants as JSON", ()),
    "invert": (_cmd_invert, "principal preimage of sm", (
        _Flag("--w", parse_complex, None, True, None, "complex literal, |w| < 1 or one of +-gamma**j"),
        _Flag("--tol", float, None, False, 1e-10,
              "target residual |sm(z) - w| (1e-14..1e-2); z is then accurate to about "
              "residual / |cm(z)|^2, which grows next to the branch points and is printed as z_err"),
    )),
    "grid": (_cmd_grid, "sample a rectangle and write a PPM or CSV file", (
        _Flag("--fn", str, _FNS, True, None, "function to sample"),
        _Flag("--preset", str, ("cell",), False, None, "frame the fundamental cell"),
        _Flag("--center", parse_complex, None, False, None, "center of the rectangle, a complex literal"),
        _Flag("--width", float, None, False, None, "width of the rectangle"),
        _Flag("--height", float, None, False, None, "height of the rectangle"),
        _Flag("--nx", int, None, False, None, "pixels per row"),
        _Flag("--ny", int, None, False, None, "rows"),
        _Flag("--out", str, None, True, None, "file to write"),
        _Flag("--format", str, ("ppm", "csv"), False, "ppm", "domain-colored PPM or CSV rows (default ppm)"),
    )),
    "selftest": (_cmd_selftest, "run the built-in verification suite", (
        _Flag("--list", None, None, False, False, "list check names without running"),
    )),
}


def _invocation(flag: _Flag) -> str:
    """How a flag is written in usage and help: ``--fn {sm,cm,wp}``, ``--z Z``."""
    if flag.type is None:
        return flag.name
    return f"{flag.name} {{{','.join(flag.choices)}}}" if flag.choices else f"{flag.name} {flag.name[2:].upper()}"


def _usage(command) -> str:
    if command is None:
        return f"usage: dixonian [-h] {{{','.join(_COMMANDS)}}} ..."
    parts = [_invocation(flag) if flag.required else f"[{_invocation(flag)}]" for flag in _COMMANDS[command][2]]
    return " ".join(("usage: dixonian", command, "[-h]", *parts))


def _rows(rows) -> list:
    """One help line per (name, text) pair, the text from column 24."""
    return [f"  {name:<21} {text}" for name, text in rows]


def _help(command) -> None:
    """Print the help of ``command`` (None: the top level) and exit 0."""
    options = [("-h, --help", "show this help message and exit")]
    if command is None:
        lines = ["Dixonian elliptic functions sm and cm on the complex plane", "", "commands:",
                 *_rows((name, entry[1]) for name, entry in _COMMANDS.items()), "", "options:", *_rows(options),
                 "", "Run 'dixonian <command> -h' for a command's flags."]
    else:
        _, text, flags = _COMMANDS[command]
        lines = [text, "", "options:", *_rows(options + [(_invocation(flag), flag.help) for flag in flags])]
    print("\n".join([_usage(command), "", *lines]))
    raise SystemExit(0)


def _usage_error(command, message: str) -> None:
    """Print the usage and ``message`` to stderr as a usage error; exit 2."""
    prog = "dixonian" if command is None else f"dixonian {command}"
    sys.stderr.write(f"{_usage(command)}\n{prog}: error: {message}\n")
    raise SystemExit(2)


def _parse(argv: list) -> tuple:
    """The handler of a command line and its flag values, by ``_COMMANDS``."""
    if not argv:
        _usage_error(None, "the following arguments are required: command")
    command = argv[0]
    if command in ("-h", "--help"):
        _help(None)
    if command not in _COMMANDS:
        choices = ", ".join(map(repr, _COMMANDS))
        _usage_error(None, f"argument command: invalid choice: {command!r} (choose from {choices})")
    handler, _, flags = _COMMANDS[command]
    by_name = {flag.name: flag for flag in flags}
    args = {flag.name[2:]: flag.default for flag in flags}
    given, unrecognized = set(), []
    tokens = iter(argv[1:])
    for token in tokens:
        if token in ("-h", "--help"):
            _help(command)
        name, eq, text = token.partition("=")
        flag = by_name.get(name)
        if flag is None:
            unrecognized.append(token)
            continue
        given.add(name)
        if flag.type is None:
            if eq:
                _usage_error(command, f"argument {name}: ignored explicit argument {text!r}")
            args[name[2:]] = True
            continue
        if not eq:
            text = next(tokens, None)
            if text is None:
                _usage_error(command, f"argument {name}: expected one argument")
        try:
            value = flag.type(text)
        except ValueError as exc:
            reason = exc if flag.type is parse_complex else f"invalid {flag.type.__name__} value: {text!r}"
            _usage_error(command, f"argument {name}: {reason}")
        if flag.choices and value not in flag.choices:
            listed = ", ".join(map(repr, flag.choices))
            _usage_error(command, f"argument {name}: invalid choice: {value!r} (choose from {listed})")
        args[name[2:]] = value
    missing = [flag.name for flag in flags if flag.required and flag.name not in given]
    if missing:
        _usage_error(command, f"the following arguments are required: {', '.join(missing)}")
    if unrecognized:
        _usage_error(command, f"unrecognized arguments: {' '.join(unrecognized)}")
    return handler, args


def main(argv: list[str] | None = None) -> int:
    handler, args = _parse(sys.argv[1:] if argv is None else list(argv))
    try:
        return handler(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except DixonError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
