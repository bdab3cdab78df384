"""The repository's pytest configuration reports a failing property test.

pyproject.toml turns every warning into an error. A failing hypothesis test
must still end as an ordinary failure that shows its falsifying example, not
as an INTERNALERROR raised from a warning in the hypothesis plugin.
"""

import pathlib
import subprocess
import sys

import pytest

pytest.importorskip("hypothesis")

CONFIG = pathlib.Path(__file__).resolve().parent.parent / "pyproject.toml"

FAILING = '''
from hypothesis import given, strategies as st


@given(st.integers())
def test_fails(x):
    assert x < 10


def test_passes():
    pass
'''


def test_failing_property_test_reports_its_example(tmp_path):
    (tmp_path / "test_property.py").write_text(FAILING)
    proc = subprocess.run(
        [sys.executable, "-m", "pytest", "-p", "no:cacheprovider", "-c", str(CONFIG),
         "--rootdir", str(tmp_path), "test_property.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    out = proc.stdout + proc.stderr
    assert proc.returncode == 1, out
    assert "Falsifying example" in out and "INTERNALERROR" not in out, out
    assert "1 failed, 1 passed" in out, out
