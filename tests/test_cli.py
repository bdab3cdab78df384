"""CLI surface: subcommands, literals, exit codes, series order, files."""

import json
import subprocess
import sys

import pytest

from dixonian import render
from dixonian.cli import main, parse_complex
from conftest import GAMMA, K


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
    import argparse

    for bad in ("abc", "1+2j", "i", "2i", "1 + 2i", "1+i"):
        with pytest.raises(argparse.ArgumentTypeError):
            parse_complex(bad)


def test_bad_literal_exits_2(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["eval", "--fn", "sm", "--z", "abc"])
    assert exc.value.code == 2
    assert "complex literal" in capsys.readouterr().err


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


def test_grid_csv(tmp_path, capsys):
    out = tmp_path / "g.csv"
    code, _, _ = run_cli(capsys, "grid", "--fn", "cm", "--center", "0", "--width", "1",
                         "--height", "1", "--nx", "4", "--ny", "3", "--format", "csv",
                         "--out", str(out))
    assert code == 0
    lines = out.read_text().splitlines()
    assert lines[0] == "re,im,s_re,s_im,pole"
    assert len(lines) == 1 + 12


def test_grid_preset_cell(tmp_path, capsys):
    out = tmp_path / "cell.ppm"
    code, _, _ = run_cli(capsys, "grid", "--fn", "sm", "--preset", "cell", "--out", str(out))
    assert code == 0
    assert out.read_bytes().startswith(b"P6\n181 61\n255\n")


def test_grid_honours_order(tmp_path, capsys):
    from dixonian import dixon_constants, sm

    base = ["grid", "--fn", "sm", "--center", "0.5+0.3i", "--width", "1", "--height", "1",
            "--nx", "3", "--ny", "3", "--format", "csv"]
    out27, out48 = tmp_path / "o27.csv", tmp_path / "o48.csv"
    assert run_cli(capsys, *base, "--order", "27", "--out", str(out27))[0] == 0
    assert run_cli(capsys, *base, "--out", str(out48))[0] == 0
    text = out27.read_text()
    # order 27 differs from order 48 in the last bits of one of these pixels
    assert text != out48.read_text()
    for idx, line in enumerate(text.splitlines()[1:]):
        re_, im, s_re, s_im, pole = line.split(",")
        v = sm(complex(float(re_), float(im)), order=27).value
        assert pole == "0"
        if idx % 3 == 0:
            # each row's first pixel is the kernel's, to the bit
            assert (s_re, s_im) == (f"{v.real:.17g}", f"{v.imag:.17g}")
        else:
            # later pixels may step from their left neighbour
            assert abs(complex(float(s_re), float(s_im)) - v) <= 2e-13 * max(1.0, abs(v))

    # the cell preset is framed with the one K every accepted order shares
    out = tmp_path / "cell27.csv"
    assert run_cli(capsys, "grid", "--fn", "sm", "--preset", "cell", "--nx", "2", "--ny", "2",
                   "--format", "csv", "--order", "27", "--out", str(out))[0] == 0
    first = out.read_text().splitlines()[1].split(",")
    assert float(first[0]) == -4.5 * dixon_constants(27).K / 2.0 == -4.5 * dixon_constants().K / 2.0


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
    "flag", [("--order", "99"), ("--order", "26"), ("--center", "1e14")], ids=["order", "low-order", "center"]
)
@pytest.mark.parametrize("existing", [b"P6\n1 1\n255\nabc", None], ids=["existing", "absent"])
def test_grid_refused_before_out_is_opened(tmp_path, capsys, flag, existing):
    # an order or a region that evaluation would refuse exits 2 and leaves
    # --out as it was: byte-identical if it existed, absent if it did not
    out = tmp_path / "keep.ppm"
    if existing is not None:
        out.write_bytes(existing)
    argv = {"--center": "0", "--width": "1", "--height": "1", "--nx": "4", "--ny": "3"}
    argv.update([flag])
    code, _, err = run_cli(capsys, "grid", "--fn", "sm", *(a for kv in argv.items() for a in kv),
                           "--out", str(out))
    assert code == 2 and err.startswith("error: ")
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


# --- series order plumbing --------------------------------------------------------------

def test_order_flag(capsys):
    code, out, _ = run_cli(capsys, "eval", "--fn", "sm", "--z", "0.3", "--order", "32")
    assert code == 0
    assert abs(json.loads(out)["re"] - 0.29865690917573373) < 1e-12
    code, _, err = run_cli(capsys, "eval", "--fn", "sm", "--z", "0.3", "--order", "100")
    assert code == 2
    assert "series order must be in 27..64, got 100" in err


def test_small_order_usable(tmp_path, capsys):
    # the smallest accepted order evaluates on the same disc and K as the
    # default; each subcommand that takes --order refuses the order below
    code, out, _ = run_cli(capsys, "eval", "--fn", "sm", "--z", "0.45", "--order", "27")
    assert code == 0
    _, ref, _ = run_cli(capsys, "eval", "--fn", "sm", "--z", "0.45")
    assert abs(json.loads(out)["re"] - json.loads(ref)["re"]) <= 1e-13
    for argv in (("eval", "--fn", "sm", "--z", "0.45"), ("constants",), ("invert", "--w", "0.5"),
                 ("grid", "--fn", "wp", "--preset", "cell", "--out", str(tmp_path / "wp.ppm"))):
        code, out, err = run_cli(capsys, *argv, "--order", "26")
        assert (code, out) == (2, "") and "series order must be in 27..64, got 26" in err, argv
    assert not (tmp_path / "wp.ppm").exists()


def test_entry_point_subprocess():
    proc = subprocess.run(
        [sys.executable, "-m", "dixonian.cli", "eval", "--fn", "sm", "--z", "0"],
        capture_output=True, text=True,
    )
    assert proc.returncode == 0
    assert json.loads(proc.stdout) == {"re": 0.0, "im": 0.0, "pole": False}
