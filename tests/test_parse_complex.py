"""Property tests of the CLI's complex literal parser (skipped without hypothesis)."""

import argparse
import math

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from dixonian.cli import parse_complex

FINITE = st.floats(allow_nan=False, allow_infinity=False)

#: arbitrary text, and text over the literal's own alphabet, where most
#: near-misses of the grammar lie
TEXT = st.text() | st.text(alphabet="0123456789+-.eEij \t")


@given(FINITE, FINITE)
def test_literal_round_trips(re_, im):
    # the literal form the benchmark hands to `eval --z`; signed zeros and
    # subnormals included
    z = complex(re_, im)
    got = parse_complex(f"{z.real!r}{z.imag:+.17g}i")
    assert got == z
    assert math.copysign(1.0, got.real) == math.copysign(1.0, re_)
    assert math.copysign(1.0, got.imag) == math.copysign(1.0, im)


@given(TEXT)
def test_any_text_parses_or_is_a_usage_error(text):
    try:
        z = parse_complex(text)
    except argparse.ArgumentTypeError:
        return
    assert type(z) is complex
