"""Driving the verification suites from Python and reading the report.

The same machinery backs the `verify` command line tool.  Reports are
canonical: sorted keys, shortest round-trip floats, wall times and the Python
and numpy versions kept out of the serialized bytes, so two runs with one
config are byte-identical on any machine.
"""

import tempfile
from pathlib import Path

from loopstar import canonical_json, emit_report, load_report, run_suites
from loopstar.config import parse_config
from loopstar.report import report_to_dict, text_summary

cfg = parse_config({
    "d": 2, "K": 2, "N": 10, "R": 2,
    "suites": ["algebra", "poisson", "equivalence"],
    "mc": {"n_samples": 2000, "K_mc": 16, "n_grid": 1024},
})
report = run_suites(cfg)
print(text_summary(report))

with tempfile.TemporaryDirectory() as tmp:
    out = Path(tmp) / "report.json"
    emit_report(report, out)
    again = run_suites(cfg)
    same = out.read_bytes() == canonical_json(report_to_dict(again)).encode() + b"\n"
    print("rerun is byte-identical:", same)
    loaded = load_report(out)
    print("round-tripped records:", len(loaded.records), "all passed:", loaded.all_passed)
