from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopstar.fock import FockVector
from loopstar.modes import ModeIndex, MultiIndex
from loopstar.serialization import FockParseError, deserialize_fock, serialize_fock

M1 = ModeIndex(1, 2)
D2 = ModeIndex(2, -1, dual=True)


def sample_vector():
    return FockVector({
        MultiIndex(((M1, 2), (D2, 1))): Fraction(3, 4),
        MultiIndex.single(M1): Fraction(-2),
        MultiIndex(): Fraction(1, 7),
    })


def test_round_trip_rational():
    F = sample_vector()
    assert deserialize_fock(serialize_fock(F)) == F


def test_zero_serializes_empty():
    assert serialize_fock(FockVector.zero()) == b""
    assert deserialize_fock(b"").is_zero()


def test_comments_and_blank_lines_ignored():
    data = b"# leading comment\n\n0; ; 2/1\n# trailing\n"
    F = deserialize_fock(data)
    assert F == FockVector.unit().scale(2)


def test_canonical_order_is_stable():
    F = sample_vector()
    items = list(F.terms.items())
    reordered = FockVector(dict(reversed(items)))
    assert serialize_fock(reordered) == serialize_fock(F)


def test_declared_degree_must_match():
    with pytest.raises(FockParseError) as exc:
        deserialize_fock(b"2; (1,2,0)^1; 1/1\n")
    assert exc.value.line == 1


def test_duplicate_monomial_rejected():
    data = b"1; (1,2,0)^1; 1/1\n1; (1,2,0)^1; 2/1\n"
    with pytest.raises(FockParseError) as exc:
        deserialize_fock(data)
    assert exc.value.line == 2


def test_bad_coordinate_and_multiplicity():
    with pytest.raises(FockParseError):
        deserialize_fock(b"1; (0,2,0)^1; 1/1\n")
    with pytest.raises(FockParseError):
        deserialize_fock(b"1; (1,2,0)^0; 1/1\n")


def test_malformed_line_reports_position():
    with pytest.raises(FockParseError) as exc:
        deserialize_fock(b"0; ; 1/1\nnot a term line\n")
    assert exc.value.line == 2
    assert isinstance(exc.value.column, int)


def test_zero_denominator_is_located():
    for text, where in (("0; ; 1/0", (1, 5)), ("0; ; 1/1\n1; (1,2,0)^1; -3/0", (2, 14))):
        with pytest.raises(FockParseError) as exc:
            deserialize_fock(text)
        assert (exc.value.line, exc.value.column) == where


def test_rational_coefficients_are_bounded_text():
    # Fraction would read these, float too; exponents in particular build
    # 10**e exactly.  Plain decimals read exactly: -0.25 is -1/4, 0.1 is 1/10.
    for coeff in ("1e10000000", "1E5", "1e5", "0.1e-3", "inf", "nan", "1_000", "+1", ".5",
                  "9" * 4301):
        with pytest.raises(FockParseError) as exc:
            deserialize_fock(f"0; ; 1/1\n0; ; {coeff}")
        assert (exc.value.line, exc.value.column) == (2, 5)
    F = deserialize_fock("0; ; -0.25\n1; (1,2,0)^1; " + "9" * 4300 + "\n1; (2,0,0)^1; 0.1")
    assert F.terms[MultiIndex()] == Fraction(-1, 4)
    assert F.terms[MultiIndex.single(ModeIndex(2, 0))] == Fraction(1, 10)
    assert F.terms[MultiIndex.single(M1)] == 10 ** 4300 - 1


def test_invalid_utf8_is_located():
    with pytest.raises(FockParseError) as exc:
        deserialize_fock(b"0; ; 1/1\n1; (1,\xff2,0)^1; 1/1\n")
    assert (exc.value.line, exc.value.column) == (2, 6)


_small_int = st.integers(-3, 6).map(str) | st.sampled_from(["", "x", "1.5", "9" * 5000])
_factor = st.builds("({},{},{})^{}".format, _small_int, _small_int,
                    st.sampled_from(["0", "1", "2", "-"]), _small_int) | st.text(max_size=6)
_coefficient = (st.builds("{}/{}".format, st.integers(-9, 9), st.integers(-1, 4))
                | st.floats().map(repr) | st.sampled_from(["", "1", "-0", "1/-0", "nan", "1e5"])
                | st.sampled_from(["1e100000", "-2E+99999", "1.5e-100000", "inf", "-inf",
                                   "Infinity", "NaN", "1_000", "1_0/3", "+1/2", ".5", "1/2e5"])
                | st.text(max_size=6))
_term_line = st.builds(lambda deg, factors, coeff, sep: sep.join([deg, " ".join(factors), coeff]),
                       _small_int, st.lists(_factor, max_size=3), _coefficient,
                       st.sampled_from(["; ", ";", " ; ", ",", "; ;"]))
_stream = st.lists(_term_line | st.sampled_from(["", "# note", "  "]), max_size=5).map("\n".join)


@settings(derandomize=True, max_examples=250, deadline=None, database=None)
@given(_stream)
def test_fuzz_deserialize_rejects_with_location(text):
    # Structured near-miss streams either parse or raise a located
    # FockParseError; no other exception escapes.
    try:
        F = deserialize_fock(text)
    except FockParseError as exc:
        lines = text.splitlines()
        assert 1 <= exc.line <= len(lines)
        assert 0 <= exc.column <= len(lines[exc.line - 1])
    else:
        assert isinstance(F, FockVector)


@settings(derandomize=True, max_examples=100, deadline=None, database=None)
@given(st.binary(max_size=40))
def test_fuzz_deserialize_bytes_rejects_with_location(data):
    try:
        deserialize_fock(data)
    except FockParseError as exc:
        assert exc.line >= 1 and exc.column >= 0
