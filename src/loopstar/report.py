"""Deterministic verification reports.

A report is a list of check records plus the config echo and version
stamps.  Its canonical JSON rendering (`json.dumps`, sorted keys) is a
pure function of the run configuration, on any machine:

- wall-clock timings and the Python and numpy versions are kept out of
  the canonical body and shown only in the text summary; the body's
  `versions` names only the loopstar version;
- a double is written as the shortest text that reads back to it, the
  same on every IEEE-754 platform, so a value on a `Precision` grid shows
  as that grid decimal (1e-12, not 9.9999999999999998e-13);
- every non-exact check declares the `Precision` of its float fields, a
  decimal grid far coarser than the last-bit drift that summation order
  in a different numpy build causes, and the body writes them rounded to
  it.  The residual is rounded up, toward failing, and the verdict is
  decided on the written value, so rounding never turns a FAIL into a
  PASS and each verdict can be recomputed from the bytes as
  `residual <= tolerance`.  The record itself keeps the measured values,
  which the text summary shows;
- a non-finite `residual` or `observed` (a check's worst value is inf once
  any of its values is NaN or infinite) is written as `null` and read
  back as inf, so it stays a FAIL.
"""

from __future__ import annotations

import json
import math
import platform
from dataclasses import dataclass, field
from decimal import ROUND_CEILING, Decimal
from enum import Enum
from pathlib import Path
from typing import Optional, Union

import numpy as np

from .config import ConfigError, _unique_keys

CONVENTION_NOTES = (
    "covariance kernel: positive-definite hyperbolic branch; the sign-flipped "
    "exponential coefficient pair is the rejected alternative convention",
    "perturbation and deformed-channel sums run over primal (coord, freq) pairs "
    "for every retained frequency, pairing dual slots explicitly",
    "transform expansion keeps the minus sign inside the generator, which makes "
    "the alternating-sign series display and the exponential definition coincide",
)


# Versions that enter the canonical body; the others are environment stamps.
CANONICAL_VERSIONS = ("loopstar",)


class Precision(Enum):
    """The decimal grid on which a non-exact check writes its float fields.

    STATISTIC keeps 8 significant digits, for Monte-Carlo, fitted and
    grid-searched statistics and truncated sums: far above the 1-100 ulp by
    which summation order moves them between numpy builds.  RESIDUAL writes multiples of one
    unit in the decade below the leading digit of the check's tolerance, for
    residuals of identities that hold to rounding: those sit far below the
    grid step, so their last-bit drift cannot reach the written value.  Both
    round up, toward +inf, which for a residual is toward failing.
    """

    STATISTIC = "statistic"
    RESIDUAL = "residual"

    def write(self, x: float, tolerance: float) -> float:
        """The smallest value on this grid that is >= x (non-finite x unchanged)."""
        x = float(x)
        if not math.isfinite(x):
            return x
        exact = Decimal(x)
        if self is Precision.STATISTIC:
            exponent = exact.adjusted() - 7
        else:
            exponent = Decimal(repr(tolerance)).adjusted() - 1
        exponent = max(exponent, exact.adjusted() - 16)   # a double holds no more digits
        step = Decimal(1).scaleb(exponent)
        up = exact.quantize(step, rounding=ROUND_CEILING)
        # up >= x and decimal-to-double rounding is monotone, so float(up) >= x.  The
        # grid value below x can still read back as x itself (a tolerance such as
        # 1e-10 lies just above its decimal); then x is on the grid already.
        return x if float(up - step) == x else float(up)


@dataclass
class CheckRecord:
    """One verified property: residual vs tolerance plus instance bookkeeping.

    `residual` and `observed` hold the measured values.  A non-exact check
    declares its `precision`: the canonical body then writes both rounded
    up to it (`written`); `passed` is set once, from the written residual.
    """

    suite: str
    check_id: str
    claim: str
    residual: float
    tolerance: float
    n_instances: int
    seed: int
    observed: float = 0.0       # headline quantity (slope, ratio, ...) when not the residual
    wall_time: float = 0.0      # text summary only; never in canonical bytes
    precision: Optional[Precision] = None
    passed: bool = field(init=False)

    def __post_init__(self):
        if self.precision is not None and not self.tolerance > 0:
            raise ValueError(f"{self.check_id}: a declared precision needs a positive "
                             f"tolerance, got {self.tolerance!r}")
        self.passed = self.written(self.residual) <= self.tolerance

    def written(self, x: float) -> float:
        """x as the canonical body writes it: rounded up to the declared precision."""
        return float(x) if self.precision is None else self.precision.write(x, self.tolerance)


@dataclass
class VerificationReport:
    """Check records, the config echo and the package versions of the run.

    `versions` holds loopstar, numpy and Python versions; only the names in
    CANONICAL_VERSIONS enter the canonical body, the rest are shown in the
    text summary.
    """

    records: list[CheckRecord] = field(default_factory=list)
    config: dict = field(default_factory=dict)
    versions: dict = field(default_factory=dict)
    notes: tuple = CONVENTION_NOTES

    @property
    def all_passed(self) -> bool:
        return all(r.passed for r in self.records)

    def total_time(self) -> float:
        return sum(r.wall_time for r in self.records)


def package_versions() -> dict:
    """loopstar, numpy and Python versions of this process.

    Only loopstar's is part of the canonical body; numpy and Python are
    environment stamps, written to the text summary alone.
    """
    from . import __version__
    return {"loopstar": __version__, "numpy": np.__version__,
            "python": platform.python_version()}


def canonical_json(value) -> str:
    """Deterministic JSON: sorted keys, shortest round-trip floats; non-finite raises ValueError."""
    return json.dumps(value, sort_keys=True, indent=2, ensure_ascii=False, allow_nan=False)


def _finite_or_null(x: float) -> Optional[float]:
    return x if math.isfinite(x) else None


def record_to_dict(record: CheckRecord) -> dict:
    return {
        "suite": record.suite,
        "check_id": record.check_id,
        "claim": record.claim,
        "residual": _finite_or_null(record.written(record.residual)),
        "tolerance": float(record.tolerance),
        "passed": record.passed,
        "n_instances": record.n_instances,
        "seed": record.seed,
        "observed": _finite_or_null(record.written(record.observed)),
    }


def report_to_dict(report: VerificationReport) -> dict:
    return {
        "records": [record_to_dict(r) for r in report.records],
        "config": report.config,
        "versions": {k: v for k, v in report.versions.items() if k in CANONICAL_VERSIONS},
        "notes": list(report.notes),
        "all_passed": report.all_passed,
    }


def _null_as_inf(x: Optional[float]) -> float:
    return math.inf if x is None else x


def report_from_dict(doc: dict) -> VerificationReport:
    """The report a canonical body describes, with every verdict recomputed.

    A record passes iff `residual <= tolerance`, a null residual reading as
    inf.  A body whose `passed` or `all_passed` says otherwise raises
    ValueError naming the check.
    """
    records = []
    for r in doc.get("records", []):
        rec = CheckRecord(suite=r["suite"], check_id=r["check_id"], claim=r["claim"],
                          residual=_null_as_inf(r["residual"]), tolerance=r["tolerance"],
                          n_instances=r["n_instances"], seed=r["seed"],
                          observed=_null_as_inf(r.get("observed", 0.0)))
        if r["passed"] is not rec.passed:
            raise ValueError(f"{rec.suite}/{rec.check_id}: passed is {r['passed']!r}, but "
                             f"residual {rec.residual!r} against tolerance {rec.tolerance!r} "
                             f"gives {rec.passed}")
        records.append(rec)
    report = VerificationReport(records=records, config=doc.get("config", {}),
                                versions=doc.get("versions", {}),
                                notes=tuple(doc.get("notes", ())))
    if doc.get("all_passed", report.all_passed) is not report.all_passed:
        raise ValueError(f"all_passed is {doc['all_passed']!r}, but the records give "
                         f"{report.all_passed}")
    return report


def text_summary(report: VerificationReport) -> str:
    lines = ["verification summary", "===================="]
    for r in report.records:
        verdict = "PASS" if r.passed else "FAIL"
        lines.append(f"[{verdict}] {r.suite}/{r.check_id}: residual {r.residual:.3e} "
                     f"(tol {r.tolerance:.1e}, n={r.n_instances}, {r.wall_time:.2f}s) - {r.claim}")
    n_pass = sum(r.passed for r in report.records)
    lines.append("")
    lines.append(f"{n_pass}/{len(report.records)} checks passed "
                 f"in {report.total_time():.1f}s total")
    if report.versions:
        lines.append("versions: " + ", ".join(f"{k} {v}"
                                              for k, v in sorted(report.versions.items())))
    for note in report.notes:
        lines.append(f"note: {note}")
    return "\n".join(lines) + "\n"


def summary_path(path: Union[str, Path]) -> Path:
    """Where the text summary of a report at `path` goes; ConfigError if that is `path` itself."""
    if Path(path).suffix == ".txt":
        raise ConfigError(f"report path {str(path)!r} ends in .txt, where its text summary goes")
    return Path(path).with_suffix(".txt")


def emit_report(report: VerificationReport, path: Union[str, Path]) -> Path:
    """Write canonical JSON at `path` and the text summary at `summary_path(path)`."""
    path, txt = Path(path), summary_path(path)
    path.parent.mkdir(parents=True, exist_ok=True)
    path.write_text(canonical_json(report_to_dict(report)) + "\n", encoding="utf-8")
    txt.write_text(text_summary(report), encoding="utf-8")
    return path


def load_report(path: Union[str, Path]) -> VerificationReport:
    """Read a canonical report; a key repeated in one object raises ConfigError."""
    doc = json.loads(Path(path).read_text(encoding="utf-8"), object_pairs_hook=_unique_keys)
    return report_from_dict(doc)
