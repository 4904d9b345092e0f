import json
import math
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from loopstar.config import (ConfigError, McConfig, RunConfig, config_echo,
                             load_config, parse_config, parse_rational)
from loopstar.report import (CheckRecord, Precision, VerificationReport, canonical_json,
                             emit_report, load_report, package_versions,
                             record_to_dict, report_from_dict, report_to_dict, text_summary)

REPO = Path(__file__).resolve().parents[1]


def minimal_doc(**overrides):
    doc = {"d": 2, "K": 3, "N": 6, "R": 2}
    doc.update(overrides)
    return doc


def test_parse_defaults():
    cfg = parse_config({})
    assert cfg == RunConfig()
    assert cfg.d == 2 and cfg.K == 3 and cfg.N == 6 and cfg.R == 4
    assert cfg.weight_c == Fraction(1)
    assert cfg.alpha_spec == "ksq"
    assert cfg.mc == McConfig()
    assert "equivalence" not in cfg.suites


def test_parse_rejects_unknown_keys():
    with pytest.raises(ConfigError, match="bogus"):
        parse_config(minimal_doc(bogus=1))
    with pytest.raises(ConfigError, match="mc.bogus"):
        parse_config(minimal_doc(mc={"bogus": 1}))
    with pytest.raises(ConfigError, match=r"config\.mc\.M: unknown field"):
        parse_config(minimal_doc(mc={"M": 512}))   # each check sets its own sample resolution


def test_parse_rejects_bools_and_bad_values():
    with pytest.raises(ConfigError):
        parse_config(minimal_doc(d=True))
    with pytest.raises(ConfigError):
        parse_config(minimal_doc(weight_c="0"))
    with pytest.raises(ConfigError):
        parse_config(minimal_doc(weight_c="-1/2"))
    with pytest.raises(ConfigError):
        parse_config(minimal_doc(mc={"seed": 2 ** 64}))
    with pytest.raises(ConfigError):
        parse_config(minimal_doc(suites=["algebra", "nope"]))


def test_parse_alpha_table():
    cfg = parse_config(minimal_doc(alpha_spec={"1": "1/2", "-2": "3"}))
    assert cfg.alpha_spec == {1: Fraction(1, 2), -2: Fraction(3)}
    with pytest.raises(ConfigError):
        parse_config(minimal_doc(alpha_spec={"7": "1"}))        # |k| beyond K
    with pytest.raises(ConfigError):
        parse_config(minimal_doc(alpha_spec="cubed"))


def test_alpha_table_keys_are_canonical_integer_text(tmp_path):
    # Each frequency has one spelling, the one config_echo writes back, so no
    # two keys can name one frequency and silently overwrite each other.
    for key in ("01", " 2", "+2", "1_0", "-0", "2 ", "", "x"):
        with pytest.raises(ConfigError, match=r"^config\.alpha_spec: frequency key"):
            parse_config(minimal_doc(alpha_spec={"1": "1/2", key: "3/4"}))
    cfg = parse_config(minimal_doc(alpha_spec={"0": "1", "-3": "3/4", "3": "1/2"}))
    assert parse_config(minimal_doc(alpha_spec=config_echo(cfg)["alpha_spec"])) == cfg
    twice = tmp_path / "twice.json"
    twice.write_text('{"K": 3, "alpha_spec": {"1": "1/2", "1": "3/4"}}')
    with pytest.raises(ConfigError, match=r"twice\.json: key '1' given twice"):
        load_config(twice)


def test_parse_equivalence_window_guard():
    with pytest.raises(ConfigError, match="N - 2R"):
        parse_config({"N": 6, "R": 4, "suites": ["equivalence"]})
    cfg = parse_config({"N": 10, "R": 2, "suites": ["equivalence"]})
    assert cfg.suites == ("equivalence",)


def test_parse_chaos_needs_K_within_K_mc():
    with pytest.raises(ConfigError, match=r"^config\.mc\.K_mc: chaos suite needs K_mc >= K=3"):
        parse_config({"K": 3, "mc": {"K_mc": 2}, "suites": ["chaos"]})
    with pytest.raises(ConfigError, match=r"mc\.K_mc"):
        parse_config({"K": 3, "mc": {"K_mc": 2}})            # the default suites run chaos
    assert parse_config({"K": 3, "mc": {"K_mc": 2}, "suites": ["algebra"]}).mc.K_mc == 2
    assert parse_config({"K": 3, "mc": {"K_mc": 3}, "suites": ["chaos"]}).K == 3


def test_parse_chaos_needs_a_grid_that_resolves_its_field():
    # The trapezoid rule pairs modes up to K with fields up to K_mc exactly
    # only on more than K_mc + K points.
    def chaos(n_grid, K_mc=64, suites=("chaos",)):
        return parse_config({"K": 3, "mc": {"K_mc": K_mc, "n_grid": n_grid},
                             "suites": list(suites)})
    with pytest.raises(ConfigError, match=r"^config\.mc\.n_grid: chaos suite needs "
                                          r"n_grid > K_mc \+ K = 67, got 67"):
        chaos(67)
    assert chaos(68).mc.n_grid == 68
    assert chaos(2, suites=["algebra"]).mc.n_grid == 2
    with pytest.raises(ConfigError, match=r"mc\.K_mc"):          # the cutoff is checked first
        chaos(2, K_mc=2)


_json = st.recursive(st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=5),
                     lambda inner: st.lists(inner, max_size=3)
                     | st.dictionaries(st.text(max_size=3), inner, max_size=3), max_leaves=6)
_rational_text = (st.builds("{}/{}".format, st.integers(-3, 5), st.integers(-1, 4))
                  | st.sampled_from(["1", "0.5", " 2 ", "-1/2", "a/b", "1/0", "", "9" * 5000])
                  | st.sampled_from(["1e100000", "2E-99999", "1.5e3", "inf", "-Infinity", "nan",
                                     "1_000", "3/4_0", "+1", ".5"]))
_field_values = {
    "d": st.integers(-1, 4), "K": st.integers(-1, 4), "N": st.integers(0, 12),
    "R": st.integers(0, 6), "weight_c": _rational_text | _json,
    "alpha_spec": st.sampled_from(["zero", "one", "ksq", "cubed"])
    | st.dictionaries(st.integers(-5, 5).map(str) | st.text(max_size=3),
                      _rational_text | _json, max_size=3) | _json,
    "mc": st.dictionaries(st.sampled_from(["n_samples", "seed", "K_mc", "n_grid", "M"]),
                          st.integers(-2, 2 ** 65) | _json, max_size=4) | _json,
    "suites": st.lists(st.sampled_from(["algebra", "equivalence", "moyal", "nope"]), max_size=3)
    | _json,
    "output_path": st.none() | st.text(max_size=4) | _json,
}
_config_doc = st.fixed_dictionaries({}, optional=_field_values) | _json


@settings(derandomize=True, max_examples=300, deadline=None, database=None)
@given(_config_doc)
def test_fuzz_parse_config_rejects_with_location(doc):
    # Any JSON value either parses or raises a ConfigError whose message
    # starts with the path of the offending field; nothing else escapes.
    try:
        cfg = parse_config(doc, where="doc")
    except ConfigError as exc:
        assert str(exc).startswith(("doc:", "doc."))
    else:
        assert isinstance(cfg, RunConfig)


def test_parse_rational_helper():
    assert parse_rational("3/4", "x") == Fraction(3, 4)
    assert parse_rational("-2", "x") == Fraction(-2)
    assert parse_rational("0.5", "x") == Fraction(1, 2)     # decimal text stays exact
    with pytest.raises(ConfigError):
        parse_rational("a/b", "x")
    with pytest.raises(ConfigError):
        parse_rational(1.5, "x")
    # Only [-]digits[.digits] or [-]digits/digits: Fraction would also read
    # these, and "1e10000000" alone takes seconds and megabytes to build.
    for text in ("1e10000000", "1E5", "inf", "nan", "1_000", "+1", ".5", "9" * 4301):
        with pytest.raises(ConfigError, match=r"^x: expected a rational"):
            parse_rational(text, "x")
    assert parse_rational(" 9" + "9" * 4299 + " ", "x") == 10 ** 4300 - 1


def test_load_config_errors(tmp_path):
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)
    good = tmp_path / "good.json"
    good.write_text(json.dumps(minimal_doc()))
    cfg = load_config(good)
    assert cfg.N == 6


def test_config_echo_is_plain_json():
    cfg = parse_config(minimal_doc(weight_c="5/3", alpha_spec={"0": "2"}))
    echo = config_echo(cfg)
    json.dumps(echo)                       # must not raise
    assert echo["weight_c"] == "5/3"
    assert echo["alpha_spec"] == {"0": "2/1"}


def sample_report():
    rec1 = CheckRecord(suite="s", check_id="a.b", claim="first", residual=0.0,
                       tolerance=0.0, n_instances=5, seed=1,
                       observed=0.25, wall_time=0.5)
    rec2 = CheckRecord(suite="s", check_id="c.d", claim="second", residual=2.0,
                       tolerance=1.0, n_instances=3, seed=1,
                       observed=2.0, wall_time=0.25)
    return VerificationReport(records=[rec1, rec2], config={"d": 2},
                              versions=package_versions())


def test_report_round_trip_and_wall_time_exclusion():
    report = sample_report()
    data = report_to_dict(report)
    assert not report.all_passed
    assert "wall_time" not in data["records"][0]
    back = report_from_dict(json.loads(canonical_json(data)))
    assert [r.check_id for r in back.records] == ["a.b", "c.d"]
    assert back.records[0].observed == 0.25
    assert back.records[1].passed is False


def test_report_from_dict_recomputes_each_verdict():
    doc = json.loads((REPO / "tests" / "golden" / "default_report.json").read_text())
    assert report_from_dict(doc).all_passed
    wick = next(r for r in doc["records"] if r["check_id"] == "wick.axioms")
    wick["residual"] = 5.0                    # the file still says passed: true
    with pytest.raises(ValueError, match="wick.axioms"):
        report_from_dict(doc)
    wick["passed"] = False                    # consistent record, stale all_passed
    with pytest.raises(ValueError, match="all_passed"):
        report_from_dict(doc)
    doc["all_passed"] = False
    assert not report_from_dict(doc).all_passed
    wick["residual"] = None                   # a null residual reads as inf: a FAIL
    assert not report_from_dict(doc).records[0].passed


def test_canonical_json_determinism():
    payload = {"b": [1.5, {"z": True, "a": 0.1}], "a": None, "c": "text"}
    one = canonical_json(payload)
    two = canonical_json({"c": "text", "a": None, "b": [1.5, {"a": 0.1, "z": True}]})
    assert one == two
    parsed = json.loads(one)
    assert parsed["b"][1]["a"] == 0.1


def test_canonical_json_writes_shortest_round_trip_floats():
    for x in (0.1, 1 / 3, 1e-12, 2.9999999999999996):
        assert float(json.loads(canonical_json(x))).hex() == x.hex()
    assert canonical_json([0.1, 1e-12]) == "[\n  0.1,\n  1e-12\n]"
    for x in (math.inf, -math.inf, math.nan):
        with pytest.raises(ValueError):
            canonical_json(x)


def test_text_summary_lines():
    text = text_summary(sample_report())
    assert "[PASS] s/a.b" in text
    assert "[FAIL] s/c.d" in text
    assert "1/2 checks passed" in text


def test_emit_and_load_report(tmp_path):
    report = sample_report()
    out = tmp_path / "report.json"
    emit_report(report, out)
    assert out.exists() and out.with_suffix(".txt").exists()
    again = load_report(out)
    assert [r.check_id for r in again.records] == ["a.b", "c.d"]
    # byte determinism of the canonical form
    emit_report(report, tmp_path / "second.json")
    assert out.read_bytes() == (tmp_path / "second.json").read_bytes()
    with pytest.raises(ValueError, match="other.txt"):      # it would be its own summary
        emit_report(report, tmp_path / "other.txt")
    assert not (tmp_path / "other.txt").exists()


def test_package_versions_keys():
    v = package_versions()
    assert set(v) >= {"loopstar", "numpy", "python"}


def rendered(residual, tolerance, precision, observed=None):
    rec = CheckRecord(suite="s", check_id="x", claim="c", residual=residual,
                      tolerance=tolerance, n_instances=1, seed=0, observed=residual if observed is None else observed,
                      precision=precision)
    return rec, canonical_json(record_to_dict(rec))


def test_declared_precision_absorbs_last_bit_drift():
    # Values of the same statistics from two numpy builds (2.2.6 and 2.4.6),
    # 1 to 100 ulp apart, and a rounding-level residual.
    drifted = [(1.2169339756956075, 1.2169339756956277, 3.0, Precision.STATISTIC),
               (2.4977613732001389, 2.497761373200138, 3.0, Precision.STATISTIC),
               (1.8201536312360014, 1.8201536312360018, 4.0, Precision.STATISTIC),
               (8.715250743307479e-15, 1.1e-14, 1e-12, Precision.RESIDUAL)]
    for a, b, tol, precision in drifted:
        base = rendered(a, tol, precision)[1]
        assert rendered(b, tol, precision)[1] == base
        for k in (-3, -1, 1, 3):
            assert rendered(a + k * math.ulp(a), tol, precision)[1] == base
    rec, text = rendered(1.2169339756956075, 3.0, Precision.STATISTIC, observed=-0.5)
    written = json.loads(text)
    assert written["residual"] == 1.216934 and written["observed"] == -0.5
    assert '"residual": 1.216934,' in text
    # The record keeps the measured value for the text summary.
    assert rec.residual == 1.2169339756956075
    assert "residual 1.217e+00" in text_summary(VerificationReport(records=[rec]))


def test_precision_rounds_toward_failing():
    for tol, precision in ((3.0, Precision.STATISTIC), (1e-12, Precision.RESIDUAL),
                           (1e-10, Precision.RESIDUAL)):
        just_above = math.nextafter(tol, math.inf)
        rec, text = rendered(just_above, tol, precision)
        assert not rec.passed and json.loads(text)["residual"] > tol
        assert '"passed": false' in text
        rec, text = rendered(tol, tol, precision)
        assert rec.passed and json.loads(text)["residual"] == tol
    # The verdict is taken on the written value even when the raw one passes.
    rec = CheckRecord(suite="s", check_id="x", claim="c", residual=2.9999999999,
                      tolerance=2.99999999995, n_instances=1, seed=0,
                      precision=Precision.STATISTIC)
    assert record_to_dict(rec)["residual"] == 3.0 and not rec.passed


def test_a_verdict_is_derived_not_given():
    with pytest.raises(TypeError):
        CheckRecord(suite="s", check_id="x", claim="c", residual=2.0, tolerance=1.0,
                    passed=True, n_instances=1, seed=0)


def test_golden_verdicts_recompute_from_the_bytes():
    path = REPO / "tests" / "golden" / "default_report.json"
    doc = json.loads(path.read_text())
    for rec in doc["records"]:
        assert rec["passed"] == (rec["residual"] <= rec["tolerance"]), rec["check_id"]
    # A report read back renders to the same bytes.
    assert canonical_json(report_to_dict(load_report(path))) + "\n" == path.read_text()


def test_load_report_rejects_a_repeated_key(tmp_path):
    """A second `all_passed` must not decide, silently, what a report says."""
    text = (REPO / "tests" / "golden" / "default_report.json").read_text()
    assert text.count('"all_passed": true') == 1
    doubled = tmp_path / "doubled.json"
    doubled.write_text(text.replace('"all_passed": true',
                                    '"all_passed": false,\n  "all_passed": true'))
    with pytest.raises(ConfigError, match="all_passed"):
        load_report(doubled)
