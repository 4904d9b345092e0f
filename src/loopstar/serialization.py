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

from .fock import FockVector, rational_from_text
from .modes import ModeIndex, MultiIndex

_MODE_RE = re.compile(r"^\((-?\d+),(-?\d+),([01])\)\^(\d+)$")


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
        try:
            degree = int(deg_txt)
        except ValueError:
            raise FockParseError(f"bad degree {deg_txt!r}", lineno, raw.find(deg_txt)) from None
        entries = []
        for tok in modes_txt.split():
            m = _MODE_RE.match(tok)
            if not m:
                raise FockParseError(f"bad mode factor {tok!r}", lineno, raw.find(tok))
            try:
                coord, freq, mult = int(m.group(1)), int(m.group(2)), int(m.group(4))
            except ValueError:      # beyond the interpreter's integer-string limit
                raise FockParseError(f"integer too long in {tok!r}", lineno, raw.find(tok)) from None
            dual = m.group(3) == "1"
            if coord < 1:
                raise FockParseError(f"coordinate must be >= 1 in {tok!r}", lineno, raw.find(tok))
            if mult < 1:
                raise FockParseError(f"multiplicity must be >= 1 in {tok!r}", lineno, raw.find(tok))
            entries.append((ModeIndex(coord, freq, dual), mult))
        mu = MultiIndex(entries)
        if mu.degree != degree:
            raise FockParseError(f"declared degree {degree} != actual degree {mu.degree}", lineno)
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
