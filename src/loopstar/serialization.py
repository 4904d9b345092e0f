"""Canonical text serialization of Fock vectors.

One term per line, `degree; modes; coefficient`, where modes is a
space-separated list of `(coord,freq,dualflag)^mult` factors in canonical
sorted order and the coefficient is `numerator/denominator`.  A reader
also takes `[-]digits` and `[-]digits.digits`, each as its exact value
(`-0.25` is -1/4); any other token, such as `1e5`, `inf` or `nan`, is
refused with its line and column, since the exact layer has no float
mode.  Full-line `#` comments and blank lines are ignored.  Two equal
vectors always serialize to byte-identical UTF-8 streams, which is what
golden-file comparisons rely on.
"""

from __future__ import annotations

import re
from fractions import Fraction
from typing import Union

from .fock import MASK, FockVector
from .modes import ModeIndex, MultiIndex

# Longest digit run accepted in rational text: the interpreter's default
# integer-string limit, so every coefficient `serialize_fock` writes reads back.
MAX_RATIONAL_DIGITS = 4300
_RATIONAL_TEXT = re.compile(r"-?[0-9]{1,%d}(?:[./][0-9]{1,%d})?" % ((MAX_RATIONAL_DIGITS,) * 2))


def rational_from_text(text: str) -> Fraction:
    """Exact value of `[-]digits`, `[-]digits.digits` or `[-]digits/digits`.

    Digits are ASCII.  Anything else raises ValueError, as does a digit run
    longer than MAX_RATIONAL_DIGITS; a zero denominator raises ZeroDivisionError.
    `Fraction` alone also takes underscores, a leading "+" and exponents: the
    11 bytes "1e10000000" build a 33-million-bit numerator.
    """
    if not _RATIONAL_TEXT.fullmatch(text):
        raise ValueError(f"not a bounded rational: {text[:40]!r}")
    return Fraction(text)


# Integers are canonical ASCII text, as `serialize_fock` and `config_echo`
# write them: no sign on 0, no leading zero, "+" or "_", and at most
# MAX_RATIONAL_DIGITS digits.  A frequency, here and as an `alpha_spec` key,
# is signed; the degree, coordinate and multiplicity take no sign.
INTEGER_TEXT = r"0|-?[1-9][0-9]{0,%d}" % (MAX_RATIONAL_DIGITS - 1)
_NATURAL = r"0|[1-9][0-9]{0,%d}" % (MAX_RATIONAL_DIGITS - 1)
_NATURAL_RE = re.compile(_NATURAL)
_MODE_RE = re.compile(r"\((%s),(%s),([01])\)\^(%s)" % (_NATURAL, INTEGER_TEXT, _NATURAL))


class FockParseError(ValueError):
    """Malformed serialized vector; carries 1-based line and 0-based column."""

    def __init__(self, message: str, line: int, column: int = 0):
        super().__init__(f"line {line}, column {column}: {message}")
        self.line = line
        self.column = column


def serialize_fock(F: FockVector) -> bytes:
    """Canonical byte stream; the zero vector serializes to an empty stream."""
    lines = []
    for mu in sorted(F.terms, key=lambda m: m.sort_key()):
        c = F.terms[mu]
        modes = " ".join(f"({m.coord},{m.freq},{1 if m.dual else 0})^{mult}" for m, mult in mu)
        lines.append(f"{mu.degree}; {modes}; {c.numerator}/{c.denominator}")
    return ("\n".join(lines) + ("\n" if lines else "")).encode("utf-8")


def deserialize_fock(data: Union[bytes, str]) -> FockVector:
    """Parse a serialized vector; an empty stream is the zero vector."""
    if isinstance(data, bytes):
        try:
            data = data.decode("utf-8")
        except UnicodeDecodeError as exc:
            # Lines as the parser splits them; "$" keeps the last one when
            # the bad byte starts a line.
            lines = (data[:exc.start].decode("utf-8") + "$").splitlines()
            raise FockParseError("invalid UTF-8", len(lines), len(lines[-1]) - 1) from None
    terms: dict[MultiIndex, Fraction] = {}
    for lineno, raw in enumerate(data.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        fields = line.split(";")
        if len(fields) != 3:
            raise FockParseError(f"expected 'degree; modes; coefficient', got {len(fields)} fields",
                                 lineno)
        deg_txt, modes_txt, coeff_txt = (f.strip() for f in fields)
        if not _NATURAL_RE.fullmatch(deg_txt):
            raise FockParseError(f"bad degree {deg_txt[:40]!r}", lineno, raw.find(deg_txt))
        degree = int(deg_txt)
        entries = []
        for tok in modes_txt.split():
            m = _MODE_RE.fullmatch(tok)
            if not m:
                raise FockParseError(f"bad mode factor {tok[:40]!r}", lineno, raw.find(tok))
            coord, freq, mult = int(m.group(1)), int(m.group(2)), int(m.group(4))
            dual = m.group(3) == "1"
            if coord < 1:
                raise FockParseError(f"coordinate must be >= 1 in {tok!r}", lineno, raw.find(tok))
            if mult < 1:
                raise FockParseError(f"multiplicity must be >= 1 in {tok!r}", lineno, raw.find(tok))
            entries.append((ModeIndex(coord, freq, dual), mult))
        mu = MultiIndex(entries)
        if mu.degree != degree:
            raise FockParseError(f"declared degree {degree} != actual degree {mu.degree}", lineno)
        if degree > MASK:
            raise FockParseError(f"degree {degree} exceeds the packed limit {MASK}", lineno)
        if not coeff_txt:
            raise FockParseError("empty coefficient", lineno)
        try:
            value = rational_from_text(coeff_txt)
        except (ValueError, ZeroDivisionError):
            raise FockParseError(f"bad coefficient {coeff_txt[:40]!r}", lineno,
                                 raw.find(coeff_txt)) from None
        if mu in terms:
            raise FockParseError(f"duplicate monomial {mu!r}", lineno)
        terms[mu] = value
    return FockVector(terms)
