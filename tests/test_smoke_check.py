"""The CI benchmark smoke's judge, ``.github/scripts/check_smoke.py``:
``benchmarks/run.py`` exits 0 whatever its checks find, so the judge reads
the JSON line each run ends with."""

import importlib.util
import json
import pathlib

import pytest

_PATH = pathlib.Path(__file__).resolve().parents[1] / ".github" / "scripts" / "check_smoke.py"
_spec = importlib.util.spec_from_file_location("check_smoke", _PATH)
check_smoke = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(check_smoke)


def _run(correct=True, attempted=50746 * 5, failed=0):
    line = json.dumps({"correct": correct, "attempted": attempted, "failed": failed, "metrics": {}})
    return f"problem-free log line\n{line}\n"


@pytest.mark.parametrize("workload, text, ok", [
    ("cell", _run(), True),
    ("cell", _run(failed=1), False),
    ("cell", _run(correct=False), False),
    ("wide", _run(failed=910 * 5), True),
    ("wide", _run(failed=910 * 5 + 1), False),
    ("wide", _run(failed=1113 * 5), False),
    ("wide", _run(correct=False, failed=0), False),
    ("wide", _run(correct="true"), False),
    ("cell", "", False),
    ("cell", "Traceback (most recent call last):\n", False),
    ("other", _run(), False),
])
def test_verdict(workload, text, ok):
    assert (check_smoke.verdict(workload, text) == "") is ok
