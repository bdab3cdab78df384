"""Judge one benchmark smoke run by the JSON line it ends with.

Usage: python3 .github/scripts/check_smoke.py WORKLOAD < run-output

``benchmarks/run.py`` exits 0 whatever its checks find, and ends its output
with one JSON line holding ``correct``, ``attempted`` and ``failed``. A run
fails here (exit 1) when that line is missing or not ``correct``, when a
``cell`` run fails any check, or when a ``wide`` run fails a larger share
than the known faults give (FOUND F1 and F2 in CHANGES.md): 910 of the
50746 checks of each round.
"""

import json
import sys

#: wide's failed checks per round, and its checks per round
WIDE_FAILED, WIDE_ATTEMPTED = 910, 50746


def verdict(workload: str, text: str) -> str:
    """'' for a run that passes; otherwise why it fails."""
    lines = [line for line in text.splitlines() if line.strip()]
    if not lines:
        return "no output"
    try:
        result = json.loads(lines[-1])
    except ValueError:
        return f"the last line is not JSON: {lines[-1][:200]}"
    if result.get("correct") is not True:
        return f"correct is {result.get('correct')!r}"
    failed, attempted = result["failed"], result["attempted"]
    if workload == "cell" and failed:
        return f"cell failed {failed} of {attempted} checks"
    if workload == "wide" and failed * WIDE_ATTEMPTED > WIDE_FAILED * attempted:
        return f"wide failed {failed} of {attempted} checks, above {WIDE_FAILED}/{WIDE_ATTEMPTED}"
    if workload not in ("cell", "wide"):
        return f"unknown workload {workload!r}"
    return ""


def main() -> int:
    text = sys.stdin.read()
    sys.stdout.write(text)
    why = verdict(sys.argv[1], text)
    if why:
        print(f"benchmark smoke failed: {why}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
