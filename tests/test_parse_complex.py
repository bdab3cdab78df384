"""Property tests of the CLI's complex literal parser (skipped without hypothesis)."""

import math
import re
import sys

import pytest

pytest.importorskip("hypothesis")
from hypothesis import given, strategies as st

from dixonian.cli import parse_complex

FINITE = st.floats(allow_nan=False, allow_infinity=False)

#: arbitrary text, text over the literal's own alphabet, where most
#: near-misses of the grammar lie, and the same with non-ASCII decimal digits
TEXT = (
    st.text()
    | st.text(alphabet="0123456789+-.eEij \t")
    | st.text(alphabet="07٣１\U0001d7d8+-.eEi ")
)

#: The regular expression the literals were once parsed with, the reference
#: for the scanner: ``\d`` matches every Unicode decimal digit.
_NUMBER = r"(?:\d+(?:\.\d*)?|\.\d+)(?:[eE][-+]?\d+)?"
_COMPLEX = re.compile(rf"^([-+]?{_NUMBER})(([-+]{_NUMBER})i)?$")


def reference_parse(text: str) -> complex:
    m = _COMPLEX.match(text.strip())
    if m is None:
        raise ValueError(f"not a complex literal: {text!r}")
    return complex(float(m.group(1)), float(m.group(3)) if m.group(3) else 0.0)


def test_digits_are_what_the_regex_calls_digits():
    # the scanner's str.isdecimal and the reference's \d select the same
    # characters under whatever Unicode version the interpreter ships
    chars = [chr(c) for c in range(sys.maxunicode + 1)]
    decimal = [c for c in chars if c.isdecimal()]
    assert decimal == re.findall(r"\d", "".join(chars))
    assert parse_complex("٣.5+１i") == complex(3.5, 1.0)


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
    except ValueError:
        return
    assert type(z) is complex


@given(TEXT)
def test_scanner_accepts_what_the_regex_accepts(text):
    try:
        expected = reference_parse(text)
    except ValueError as exc:
        with pytest.raises(ValueError) as got:
            parse_complex(text)
        assert str(got.value) == str(exc)
        return
    # repr tells the signs of zero apart
    assert repr(parse_complex(text)) == repr(expected)


@given(FINITE, FINITE, st.sampled_from(["", " ", "\t\n"]))
def test_scanner_accepts_formatted_reals_as_the_regex_does(re_, im, pad):
    for text in (f"{re_!r}", f"{re_:+.3e}{im:+f}i", f"{re_:.0f}.{im:-e}i", f"{pad}{re_:g}{im:+.17g}i{pad}"):
        try:
            expected = reference_parse(text)
        except ValueError:
            with pytest.raises(ValueError):
                parse_complex(text)
            continue
        assert repr(parse_complex(text)) == repr(expected)
