"""CLI surface: subcommands, literals, exit codes, files."""

import json
import os
import pathlib
import subprocess
import sys

import pytest

import dixonian
from dixonian import Region, cli, dixon_constants, render, sm_inverse
from dixonian.cli import main, parse_complex
from conftest import GAMMA, LOWEST_USABLE_ORDER, K, kernel_calls, kernel_pixels, kernel_with, truncation


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


# --- complex literals ---------------------------------------------------------

def test_parse_complex_forms():
    assert parse_complex("3") == 3.0
    assert parse_complex("-1.5") == -1.5
    assert parse_complex("0.5+0.25i") == complex(0.5, 0.25)
    assert parse_complex("1e-3-2.5e2i") == complex(1e-3, -250.0)
    assert parse_complex("+.5+.25i") == complex(0.5, 0.25)


def test_parse_complex_rejects():
    for bad in ("abc", "1+2j", "i", "2i", "1 + 2i", "1+i", "", "+", "1e", "1_0", "1+2ei", ". 5"):
        with pytest.raises(ValueError, match="not a complex literal"):
            parse_complex(bad)


def test_bad_literal_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--fn", "sm", "--z", "abc"])
    assert exc.value.code == 2
    assert "complex literal" in capsys.readouterr().err


def _flag(form, flag, value):
    return [flag, value] if form == "space" else [f"{flag}={value}"]


@pytest.mark.parametrize("form", ["space", "equals"])
@pytest.mark.parametrize("command", ["eval", "invert", "grid"])
def test_value_starting_with_minus(capsys, tmp_path, command, form):
    # a value flag takes the next token, whatever it starts with
    if command == "eval":
        code, out, _ = run_cli(capsys, "eval", "--fn", "sm", *_flag(form, "--z", "-0.5+1i"))
        v = dixonian.sm(complex(-0.5, 1.0)).value
        assert (code, json.loads(out)) == (0, {"re": v.real, "im": v.imag, "pole": False})
    elif command == "invert":
        code, out, _ = run_cli(capsys, "invert", *_flag(form, "--w", "-0.5+0.8i"))
        data = json.loads(out)
        assert code == 0 and complex(data["re"], data["im"]) == sm_inverse(complex(-0.5, 0.8)).z
    else:
        out = tmp_path / "g.csv"
        code, _, _ = run_cli(capsys, "grid", "--fn", "sm", *_flag(form, "--center", "-1+2i"), "--width", "1",
                             "--height", "1", "--nx", "3", "--ny", "2", "--format", "csv", "--out", str(out))
        grid = render.sample_grid(render.Region(complex(-1.0, 2.0), 1.0, 1.0, 3, 2), "sm")
        assert code == 0 and out.read_text() == render.grid_to_csv(grid)


# --- eval -----------------------------------------------------------------------

def test_eval_origin(capsys):
    code, out, _ = run_cli(capsys, "eval", "--fn", "sm", "--z", "0")
    assert code == 0
    assert json.loads(out) == {"re": 0.0, "im": 0.0, "pole": False}


def test_eval_at_k(capsys):
    code, out, _ = run_cli(capsys, "eval", "--fn", "sm", "--z", "1.76663875")
    assert code == 0
    data = json.loads(out)
    assert abs(data["re"] - 1.0) < 1e-7
    assert data["pole"] is False


def test_eval_cm_at_minus_half_k(capsys):
    code, out, _ = run_cli(capsys, "eval", "--fn", "cm", "--z", "-0.88331938")
    data = json.loads(out)
    assert code == 0
    assert abs(data["re"] - 1.2599210) < 1e-6


def test_eval_pole(capsys):
    code, out, _ = run_cli(capsys, "eval", "--fn", "sm", "--z", repr(-K))
    assert code == 0
    assert json.loads(out) == {"re": None, "im": None, "pole": True}


def test_eval_wp_pole_at_origin(capsys):
    code, out, _ = run_cli(capsys, "eval", "--fn", "wp", "--z", "0")
    assert json.loads(out)["pole"] is True


def test_eval_complex_argument(capsys):
    code, out, _ = run_cli(capsys, "eval", "--fn", "cm", "--z", "0.1+0.2i")
    assert code == 0
    assert json.loads(out)["im"] != 0.0


# --- constants --------------------------------------------------------------------

@pytest.mark.parametrize("z", ["1e300+1e300i", "1.7e308+1.7e308i", "1.234567e17"])
def test_eval_beyond_reduction_exits_2(capsys, z):
    code, out, err = run_cli(capsys, "eval", "--fn", "sm", "--z", z)
    assert code == 2 and out == ""
    assert err.startswith("error: ") and "2**45" in err


def test_constants_json(capsys):
    code, out, _ = run_cli(capsys, "constants")
    assert code == 0
    data = json.loads(out)
    assert abs(data["K"] - 1.76663875) < 1e-7
    assert abs(data["gamma"]["re"] + 0.5) < 1e-15
    assert abs(data["gamma"]["im"] - 0.8660254037844386) < 1e-15
    assert len(data["periods"]) == 2
    assert abs(data["periods"][0]["re"] - 3 * K) < 1e-12
    assert data["g2"] == 0.0
    assert abs(data["g3"] - 0.037037037) < 1e-9


# --- invert ------------------------------------------------------------------------

def test_invert_roundtrip(capsys):
    code, out, _ = run_cli(capsys, "invert", "--w", "0.5")
    assert code == 0
    data = json.loads(out)
    from dixonian import sm_cm_values

    s, _ = sm_cm_values(complex(data["re"], data["im"]))
    assert abs(s - 0.5) <= 1e-9
    assert data["residual"] <= 1e-10


def test_invert_unit(capsys):
    code, out, _ = run_cli(capsys, "invert", "--w", "1")
    assert abs(json.loads(out)["re"] - K) <= 1e-8


def test_invert_next_to_branch_point(capsys):
    code, out, _ = run_cli(capsys, "invert", "--w", "0.9999999999999", "--tol", "1e-14")
    assert code == 0
    data = json.loads(out)
    assert data["residual"] <= 1e-14
    y = (3.0 * (1.0 - 0.9999999999999)) ** (1.0 / 3.0)
    assert abs(complex(data["re"], data["im"]) - (K - y)) <= 0.1 * y


def test_invert_reports_error_of_z(capsys):
    from dixonian import sm_inverse

    w = 0.9999999
    code, out, _ = run_cli(capsys, "invert", "--w", str(w))
    assert code == 0
    data = json.loads(out)
    assert set(data) == {"re", "im", "residual", "z_err"}
    # the reflection z = K - u with sm(u) = (1 - w**3)**(1/3), a well
    # conditioned solve next to 0
    y = ((1.0 - w) * (1.0 + w + w * w)) ** (1.0 / 3.0)
    err = abs(complex(data["re"], data["im"]) - (K - sm_inverse(y, tol=1e-15).z))
    assert 1e-7 < err < 1e-5
    assert err / 2.0 <= data["z_err"] <= 2.0 * err
    # at the branch points 1 and gamma themselves cm(z) vanishes; z is the
    # closed form gamma**j K, and the residual's rounding implies no error
    for w in ("1", f"{GAMMA.real!r}+{GAMMA.imag!r}i"):
        data = json.loads(run_cli(capsys, "invert", f"--w={w}")[1])
        assert 0.0 < data["residual"] <= 4e-16
        assert data["z_err"] <= 1e-15, (w, data)
    # 1e-13 from gamma the same rounding is a real error of z: 4.04e-9
    # against a 50-digit w 2F1(1/3, 2/3; 4/3; w^3)
    w = GAMMA * (1.0 - 1e-13)
    data = json.loads(run_cli(capsys, "invert", f"--w={w.real!r}+{w.imag!r}i")[1])
    assert data["residual"] <= 4e-16
    assert 4.04e-9 <= data["z_err"] <= 1e-7
    assert json.loads(run_cli(capsys, "invert", "--w", "0")[1])["z_err"] == 0.0


def test_invert_domain_error(capsys):
    code, _, err = run_cli(capsys, "invert", "--w", "1.5")
    assert code == 2
    assert err


def test_invert_tol_range(capsys):
    code, _, err = run_cli(capsys, "invert", "--w", "0.5", "--tol", "1e-15")
    assert code == 2
    code, _, err = run_cli(capsys, "invert", "--w", "0.5", "--tol", "0.5")
    assert code == 2


# --- grid --------------------------------------------------------------------------

def test_grid_ppm_deterministic(tmp_path, capsys):
    out1, out2 = (tmp_path / f"g{i}.ppm" for i in range(2))
    base = ["grid", "--fn", "sm", "--center", "0.2+0.1i", "--width", "3", "--height", "2",
            "--nx", "24", "--ny", "18"]
    assert run_cli(capsys, *base, "--out", str(out1))[0] == 0
    assert run_cli(capsys, *base, "--out", str(out2))[0] == 0
    b1, b2 = out1.read_bytes(), out2.read_bytes()
    assert b1.startswith(b"P6\n24 18\n255\n")
    assert b1 == b2
    assert b1 == render.domain_color(render.sample_grid(Region(0.2 + 0.1j, 3.0, 2.0, 24, 18), "sm"))


def test_grid_csv(tmp_path, capsys):
    out = tmp_path / "g.csv"
    code, _, _ = run_cli(capsys, "grid", "--fn", "cm", "--center", "0", "--width", "1",
                         "--height", "1", "--nx", "4", "--ny", "3", "--format", "csv",
                         "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "re,im,s_re,s_im,pole"
    assert len(lines) == 1 + 12


def test_grid_csv_bytes_are_grid_to_csv_on_crlf_platforms(tmp_path, capsys, monkeypatch):
    # a text file opened with newline=None writes each "\n" as the
    # platform's line separator; this open does so as where it is "\r\n"
    def crlf_open(file, mode="r", *args, newline=None, **kwargs):
        if "b" not in mode and newline is None:
            newline = "\r\n"
        return open(file, mode, *args, newline=newline, **kwargs)

    monkeypatch.setattr(cli, "open", crlf_open, raising=False)
    out = tmp_path / "g.csv"
    code, _, _ = run_cli(capsys, "grid", "--fn", "cm", "--center", "0", "--width", "1",
                         "--height", "1", "--nx", "4", "--ny", "3", "--format", "csv",
                         "--out", str(out))
    assert code == 0
    grid = render.sample_grid(Region(0j, 1.0, 1.0, 4, 3), "cm")
    assert out.read_bytes() == render.grid_to_csv(grid).encode("ascii")


def test_grid_preset_cell(tmp_path, capsys):
    out = tmp_path / "cell.ppm"
    code, _, _ = run_cli(capsys, "grid", "--fn", "sm", "--preset", "cell", "--out", str(out))
    assert code == 0
    assert out.read_bytes().startswith(b"P6\n181 61\n255\n")


def test_grid_honours_order(tmp_path, capsys):
    # grid samples with the kernel's one series order: its pixels are sm's
    # (to the bit where the kernel ran on them), and the cell preset is
    # framed with its K
    from dixonian import sm

    out = tmp_path / "o.csv"
    code, calls = kernel_calls(run_cli, capsys, "grid", "--fn", "sm", "--center", "0.5+0.3i", "--width", "1",
                               "--height", "1", "--nx", "3", "--ny", "3", "--format", "csv", "--out", str(out))
    assert code[0] == 0
    region = Region(0.5 + 0.3j, 1.0, 1.0, 3, 3)
    ran = {j * 3 + i for i, j in kernel_pixels(region, calls)}
    for idx, line in enumerate(out.read_text().splitlines()[1:]):
        re_, im, s_re, s_im, pole = line.split(",")
        v = sm(complex(float(re_), float(im))).value
        assert pole == "0"
        if idx in ran:
            assert (s_re, s_im) == (f"{v.real:.17g}", f"{v.imag:.17g}")
        else:
            # the others are sums of a column pair and a row pair
            assert abs(complex(float(s_re), float(s_im)) - v) <= 2e-13 * max(1.0, abs(v))

    out = tmp_path / "cell.csv"
    assert run_cli(capsys, "grid", "--fn", "sm", "--preset", "cell", "--nx", "2", "--ny", "2",
                   "--format", "csv", "--out", str(out))[0] == 0
    first = out.read_text().splitlines()[1].split(",")
    assert float(first[0]) == -4.5 * dixon_constants().K / 2.0 == -4.5 * K / 2.0


def test_grid_missing_flags(capsys):
    code, _, err = run_cli(capsys, "grid", "--fn", "sm", "--out", "/tmp/x.ppm")
    assert code == 2
    assert "required" in err


def test_grid_unwritable_out(tmp_path, capsys):
    out = tmp_path / "missing" / "x.ppm"
    code, _, err = run_cli(capsys, "grid", "--fn", "sm", "--center", "0", "--width", "1",
                           "--height", "1", "--nx", "2", "--ny", "2", "--out", str(out))
    assert code == 2
    assert err.startswith("error: ") and str(out) in err
    assert "Traceback" not in err


def test_grid_unwritable_out_fails_before_render(tmp_path, capsys, monkeypatch):
    # neither the writer nor the kernel it samples with may run
    calls = []
    monkeypatch.setattr(render, "write_grid", lambda *a, **k: calls.append(a))
    monkeypatch.setattr(render, "_pair", lambda *a: calls.append(a))
    code, _, err = run_cli(capsys, "grid", "--fn", "sm", "--center", "0", "--width", "8",
                           "--height", "6", "--nx", "400", "--ny", "300",
                           "--out", str(tmp_path / "missing" / "x.ppm"))
    assert code == 2 and err.startswith("error: cannot write --out")
    assert calls == []


@pytest.mark.parametrize(
    "flag", [("--order", "48"), ("--order", "26"), ("--center", "1e14")], ids=["order", "low-order", "center"]
)
@pytest.mark.parametrize("existing", [b"P6\n1 1\n255\nabc", None], ids=["existing", "absent"])
def test_grid_refused_before_out_is_opened(tmp_path, capsys, flag, existing):
    # a flag grid does not take (the series order is fixed) or a region that
    # evaluation would refuse exits 2 and leaves --out as it was:
    # byte-identical if it existed, absent if it did not
    out = tmp_path / "keep.ppm"
    if existing is not None:
        out.write_bytes(existing)
    argv = {"--center": "0", "--width": "1", "--height": "1", "--nx": "4", "--ny": "3"}
    argv.update([flag])
    try:
        code, _, err = run_cli(capsys, "grid", "--fn", "sm", *(a for kv in argv.items() for a in kv),
                               "--out", str(out))
    except SystemExit as exc:
        code, err = exc.code, capsys.readouterr().err
    assert code == 2 and err.startswith("usage: dixonian grid [-h] " if flag[0] == "--order" else "error: ")
    if existing is None:
        assert not out.exists()
    else:
        assert out.read_bytes() == existing


# --- selftest -------------------------------------------------------------------------

def test_selftest_list(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--list")
    assert code == 0
    names = out.splitlines()
    assert "cardinal_values" in names
    assert len(names) >= 25


def test_selftest_passes(capsys):
    code, out, _ = run_cli(capsys, "selftest")
    assert code == 0
    assert "FAIL" not in out
    assert "checks passed" in out


def test_selftest_tol_is_usage_error(capsys):
    # the checks keep their own tolerances; the table prints each residual
    with pytest.raises(SystemExit) as exc:
        main(["selftest", "--tol", "1e-30"])
    assert exc.value.code == 2
    assert "unrecognized arguments: --tol" in capsys.readouterr().err


# --- the series order is fixed ----------------------------------------------------------

#: One valid command line of each subcommand that took --order.
ORDER_ARGV = (["eval", "--fn", "sm", "--z", "0.3"], ["constants"], ["invert", "--w", "0.5"],
              ["grid", "--fn", "sm", "--preset", "cell"])


def test_order_flag(tmp_path, capsys):
    # no subcommand takes --order; grid leaves an existing --out as it was
    out = tmp_path / "keep.ppm"
    out.write_bytes(b"P6\n1 1\n255\nabc")
    for argv in ORDER_ARGV:
        if argv[0] == "grid":
            argv = [*argv, "--out", str(out)]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--order", "48"])
        assert exc.value.code == 2, argv
        captured = capsys.readouterr()
        assert captured.out == ""
        usage = cli._usage(argv[0])
        assert captured.err == f"{usage}\ndixonian {argv[0]}: error: unrecognized arguments: --order 48\n"
    assert out.read_bytes() == b"P6\n1 1\n255\nabc"


def test_small_order_usable(tmp_path, capsys):
    # the CLI evaluates through the kernel's one series: with the smallest
    # usable truncation swapped in, eval agrees with the default within
    # 1e-13. No subcommand takes that order as a flag, and grid makes no
    # --out file when refused
    _, ref, _ = run_cli(capsys, "eval", "--fn", "sm", "--z", "0.45")
    with kernel_with(truncation(LOWEST_USABLE_ORDER)):
        code, out, _ = run_cli(capsys, "eval", "--fn", "sm", "--z", "0.45")
    assert code == 0 and out != ref
    assert abs(json.loads(out)["re"] - json.loads(ref)["re"]) <= 1e-13
    for argv in ORDER_ARGV:
        if argv[0] == "grid":
            argv = [*argv, "--out", str(tmp_path / "wp.ppm")]
        with pytest.raises(SystemExit) as exc:
            main([*argv, "--order", str(LOWEST_USABLE_ORDER)])
        assert exc.value.code == 2, argv
        assert "unrecognized arguments: --order 27" in capsys.readouterr().err
    assert not (tmp_path / "wp.ppm").exists()


def test_constants_help_text(capsys):
    # a subcommand without flags prints its usage without a trailing space
    with pytest.raises(SystemExit) as exc:
        main(["constants", "-h"])
    assert exc.value.code == 0
    assert capsys.readouterr() == (
        "usage: dixonian constants [-h]\n"
        "\n"
        "print K, gamma, periods and invariants as JSON\n"
        "\n"
        "options:\n"
        "  -h, --help            show this help message and exit\n",
        "",
    )


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "dixonian.cli", "eval", "--fn", "sm", "--z", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"re": 0.0, "im": 0.0, "pole": False}


#: the package's source directory, the one path a cold ``python -S`` child gets
SRC = pathlib.Path(__file__).resolve().parents[1] / "src"


def _cold_child(*argv):
    """A fresh ``python -S`` with only SRC on PYTHONPATH, run on ``argv``."""
    env = dict(os.environ, PYTHONPATH=str(SRC))
    return subprocess.run([sys.executable, "-S", *argv], env=env, capture_output=True, text=True)


#: one command line per subcommand, per help and per error, and the exit
#: status each has
COLD_ARGV = [
    (["eval", "--fn", "sm", "--z", "0.3"], 0),
    (["eval", "--fn", "sm", "--z", "-0.5+1i"], 0),
    (["--help"], 0),
    (["eval", "--help"], 0),
    (["eval", "--fn", "sm", "--z", "abc"], 2),
    (["eval", "--fn", "sm", "--z", "0.3", "--order", "48"], 2),
    (["constants"], 0),
    (["invert", "--w=-0.5+0.8660254037844386i"], 0),
    # main returns this status rather than raising SystemExit
    (["invert", "--w", "1.5"], 2),
    (["selftest", "--list"], 0),
    (["selftest"], 0),
]


@pytest.mark.parametrize("argv, status", COLD_ARGV, ids=[" ".join(a) for a, _ in COLD_ARGV])
def test_cold_entry_point(capsys, argv, status):
    # python -S -m dixonian.cli: runpy, the __main__ guard and the exit
    # status, with the output of main in this process
    proc = _cold_child("-m", "dixonian.cli", *argv)
    try:
        code = main(argv)
    except SystemExit as exc:
        code = exc.code
    out, err = capsys.readouterr()
    assert (proc.returncode, proc.stdout, proc.stderr) == (status, out, err)
    assert code == status


@pytest.mark.parametrize("fmt", ["ppm", "csv"])
def test_cold_entry_point_grid(tmp_path, fmt):
    # the file is read as bytes, so that a line-end translation shows
    out = tmp_path / f"cell.{fmt}"
    proc = _cold_child("-m", "dixonian.cli", "grid", "--fn", "sm", "--preset", "cell", "--nx", "40", "--ny", "30",
                       "--format", fmt, "--out", str(out))
    assert (proc.returncode, proc.stdout, proc.stderr) == (0, "", "")
    grid = render.sample_grid(Region(**dict(cli._cell_preset(), nx=40, ny=30)), "sm")
    want = render.domain_color(grid) if fmt == "ppm" else render.grid_to_csv(grid).encode("ascii")
    assert out.read_bytes() == want


#: a 1024x768 sm grid on the cell framing, streamed as CSV through the CLI
#: (65 MB of output) and sampled in memory, where it stores plain values;
#: each child prints its peak RSS in KiB
RSS_SCRIPTS = {
    "streamed-csv": "import os, resource, subprocess, sys; subprocess.run([sys.executable, '-S', '-m', 'dixonian.cli', "
                    "'grid', '--fn', 'sm', '--preset', 'cell', '--nx', '1024', '--ny', '768', '--format', 'csv', "
                    "'--out', os.devnull], check=True); print(resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss)",
    "in-memory-grid": "import resource; from dixonian import cli, render; render.sample_grid(render.Region("
                      "**dict(cli._cell_preset(), nx=1024, ny=768)), 'sm'); "
                      "print(resource.getrusage(resource.RUSAGE_SELF).ru_maxrss)",
}


@pytest.mark.skipif(sys.platform != "linux", reason="ru_maxrss is in KiB on Linux, in other units elsewhere")
@pytest.mark.parametrize("name", sorted(RSS_SCRIPTS))
def test_large_grid_peak_rss(name):
    proc = _cold_child("-c", RSS_SCRIPTS[name])
    assert proc.returncode == 0, proc.stderr
    mb = int(proc.stdout) / 1024
    assert mb <= 64, f"peak RSS {mb:.1f} MB"


# --- usage errors and help --------------------------------------------------------------

USAGE_ERRORS = [
    ([], "dixonian", "the following arguments are required: command"),
    (["frobnicate"], "dixonian",
     "argument command: invalid choice: 'frobnicate' (choose from 'eval', 'constants', 'invert', 'grid', 'selftest')"),
    (["--fn", "sm"], "dixonian",
     "argument command: invalid choice: '--fn' (choose from 'eval', 'constants', 'invert', 'grid', 'selftest')"),
    (["eval"], "dixonian eval", "the following arguments are required: --fn, --z"),
    (["eval", "--z", "0.3"], "dixonian eval", "the following arguments are required: --fn"),
    (["eval", "--fn", "tan", "--z", "0.3"], "dixonian eval",
     "argument --fn: invalid choice: 'tan' (choose from 'sm', 'cm', 'wp')"),
    (["eval", "--fn", "sm", "--z", "0.3", "--order", "4.5"], "dixonian eval", "unrecognized arguments: --order 4.5"),
    (["grid", "--fn", "sm", "--nx", "4.5", "--out", "x"], "dixonian grid",
     "argument --nx: invalid int value: '4.5'"),
    (["eval", "--fn", "sm", "--z"], "dixonian eval", "argument --z: expected one argument"),
    (["eval", "--fn", "sm", "--z", "abc"], "dixonian eval", "argument --z: not a complex literal: 'abc'"),
    (["eval", "--fn", "sm", "--z", "--fn"], "dixonian eval", "argument --z: not a complex literal: '--fn'"),
    # a flag the subcommand does not take, and an abbreviation of one it does
    (["eval", "--fn", "sm", "--z", "0.3", "--ord", "30"], "dixonian eval", "unrecognized arguments: --ord 30"),
    (["invert", "--w", "0.5", "--to", "1e-3"], "dixonian invert", "unrecognized arguments: --to 1e-3"),
    (["invert", "--w", "0.5", "--tol", "tiny"], "dixonian invert", "argument --tol: invalid float value: 'tiny'"),
    (["grid", "--fn", "sm", "--format", "png", "--out", "x"], "dixonian grid",
     "argument --format: invalid choice: 'png' (choose from 'ppm', 'csv')"),
    (["grid", "--fn", "sm", "--nx", "4", "--ny", "3"], "dixonian grid",
     "the following arguments are required: --out"),
    (["selftest", "--tol", "1e-30"], "dixonian selftest", "unrecognized arguments: --tol 1e-30"),
    (["selftest", "--list", "names"], "dixonian selftest", "unrecognized arguments: names"),
    (["selftest", "--list=yes"], "dixonian selftest", "argument --list: ignored explicit argument 'yes'"),
]


@pytest.mark.parametrize("argv, prog, message", USAGE_ERRORS, ids=[" ".join(c[0]) or "empty" for c in USAGE_ERRORS])
def test_usage_error(capsys, argv, prog, message):
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"usage: {prog} [-h] ")
    assert err.endswith(f"\n{prog}: error: {message}\n")


FLAGS = {
    "eval": ["--fn", "--z"],
    "constants": [],
    "invert": ["--w", "--tol"],
    "grid": ["--fn", "--preset", "--center", "--width", "--height", "--nx", "--ny", "--out", "--format"],
    "selftest": ["--list"],
}


@pytest.mark.parametrize("argv", [["-h"], ["--help"], *([c, "-h"] for c in FLAGS), *([c, "--help"] for c in FLAGS),
                                  ["eval", "--fn", "sm", "--help", "--z"]])
def test_help_exits_0(capsys, argv):
    # help wins over the flags around it, required ones missing included
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 0
    out, err = capsys.readouterr()
    assert err == ""
    command = argv[0] if argv[0] in FLAGS else None
    assert out.startswith(f"usage: dixonian {command or '[-h]'}")
    for word in FLAGS[command] if command else FLAGS:
        assert f"  {word} " in out, word
    assert "-h, --help" in out


def test_repeated_flag_keeps_last_value(capsys):
    _, ref, _ = run_cli(capsys, "eval", "--fn", "sm", "--z", "0.3")
    code, out, _ = run_cli(capsys, "eval", "--fn", "cm", "--z=9", "--z", "0.3", "--fn=sm")
    assert (code, out) == (0, ref)


def test_selftest_list_takes_no_value(capsys):
    code, out, _ = run_cli(capsys, "selftest", "--list", "--list")
    assert code == 0 and "cardinal_values" in out.splitlines()


# --- JSON output: byte for byte json.dumps -----------------------------------------------

def _literal(z):
    return f"{z.real!r}{z.imag:+.17g}i"


EVAL_POINTS = [
    0j, complex(-0.0, -0.0), complex(0.0, -0.0), complex(1e-320, -1e-320), complex(0.3, 0.1), complex(-1.25, 2.5),
    complex(-K, 0.0), K * GAMMA, -K * GAMMA ** 2 + 1e-11, complex(1e-9, 0.0), complex(3e11, -1e12),
    complex(-7.5e11, 6.25e11),
]


@pytest.mark.parametrize("fn", ["sm", "cm", "wp"])
def test_eval_output_is_json_dumps(capsys, fn):
    for z in EVAL_POINTS:
        v = getattr(dixonian, fn)(z)
        record = {"re": None, "im": None, "pole": True} if v.is_pole else {
            "re": v.value.real, "im": v.value.imag, "pole": False}
        assert run_cli(capsys, "eval", "--fn", fn, f"--z={_literal(z)}") == (0, json.dumps(record) + "\n", ""), z


def test_constants_output_is_json_dumps(capsys):
    k = dixon_constants()
    record = {"K": k.K, "gamma": {"re": k.gamma.real, "im": k.gamma.imag},
              "periods": [{"re": p.real, "im": p.imag} for p in k.periods], "g2": k.g2, "g3": k.g3}
    assert run_cli(capsys, "constants") == (0, json.dumps(record) + "\n", "")


def test_invert_output_is_json_dumps(capsys):
    targets = [0j, 0.5, complex(0.3, -0.2), complex(0.6, 0.7), complex(-0.05, 0.97), 0.9999999, -0.99999]
    targets += [s * GAMMA ** j for s in (1, -1) for j in range(3)]
    for w in targets:
        code, out, _ = run_cli(capsys, "invert", f"--w={_literal(complex(w))}")
        result = sm_inverse(w, tol=1e-10)
        record = {"re": result.z.real, "im": result.z.imag, "residual": result.residual,
                  "z_err": json.loads(out)["z_err"]}
        assert (code, out) == (0, json.dumps(record) + "\n"), w


@pytest.mark.parametrize("obj", [
    {"re": float("nan"), "im": float("inf"), "x": float("-inf")},
    {"re": -0.0, "im": 1e-320, "pole": False, "rep": None, "ok": True},
    {"K": 1.7666387502854497, "n": 0, "big": 10**20, "periods": [{"re": 5e-324}, {"im": -1.7976931348623157e308}],
     "pair": (1.5, -2), "empty": [], "none": {}},
])
def test_json_writer_matches_json_dumps(obj):
    assert cli._json(obj) == json.dumps(obj)
