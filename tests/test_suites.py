import hashlib
import json
import math
import platform
from pathlib import Path

import numpy
import pytest

import loopstar
import loopstar.suites as suites
from loopstar.config import parse_config
from loopstar.report import canonical_json, report_to_dict, text_summary
from loopstar.suites import SUITE_RUNNERS, run_suites

REPO = Path(__file__).resolve().parents[1]

LIGHT_DOC = {
    "d": 2, "K": 2, "N": 10, "R": 2,
    "suites": ["algebra", "chaos", "gaussian", "poisson", "moyal", "equivalence"],
    "mc": {"n_samples": 1000, "K_mc": 16, "n_grid": 1024, "seed": 42},
}


@pytest.fixture(scope="module")
def light_report():
    """One run of the light config, shared by the tests that only read it."""
    return run_suites(parse_config(LIGHT_DOC))


def test_all_suites_pass_on_light_config(light_report):
    report = light_report
    assert report.all_passed
    suites_seen = {r.suite for r in report.records}
    assert suites_seen == set(LIGHT_DOC["suites"])
    ids = [(r.suite, r.check_id) for r in report.records]
    assert len(ids) == len(set(ids))
    for r in report.records:
        assert r.tolerance >= 0.0
        assert r.n_instances > 0
        assert r.wall_time >= 0.0
        assert r.claim
        # Exact checks (tolerance 0) count failures and declare no precision;
        # every other check declares the precision its floats are written at.
        assert (r.tolerance == 0.0) == (r.precision is None), r.check_id


def test_covariance_records_share_one_z_score_run(monkeypatch):
    """covariance.cross_coord reuses the z-scores computed for covariance.same_coord."""
    original, calls = suites.covariance_z_scores, []
    monkeypatch.setattr(suites, "covariance_z_scores",
                        lambda *args: calls.append(args) or original(*args))
    ids = [r.check_id for r in SUITE_RUNNERS["gaussian"](parse_config(LIGHT_DOC))]
    assert len(calls) == 1
    at = ids.index("covariance.same_coord")
    assert ids[at:at + 2] == ["covariance.same_coord", "covariance.cross_coord"]


def test_one_gaussian_run_draws_its_batch_once(monkeypatch):
    """The four batch checks share one draw per run, and no run reuses another's."""
    import loopstar.gaussian as gaussian
    cfg = parse_config({**LIGHT_DOC, "suites": ["gaussian"]})
    original, sizes = gaussian.sample_xi_batch, []

    def counted(seed, n_samples, K_mc, d):
        sizes.append(n_samples)
        return original(seed, n_samples, K_mc, d)

    # Both bindings: holder_moment_check draws through the gaussian module's.
    monkeypatch.setattr(suites, "sample_xi_batch", counted)
    monkeypatch.setattr(gaussian, "sample_xi_batch", counted)
    run_suites(cfg)
    assert sizes.count(cfg.mc.n_samples) == 1
    run_suites(cfg)
    assert sizes.count(cfg.mc.n_samples) == 2


def test_batch_checks_match_their_seed_path():
    seed, n_samples, K_mc, d = 5, 300, 8, 2
    xi = suites.sample_xi_batch(seed, n_samples, K_mc, d)
    for check in (suites.covariance_z_scores, suites.stationarity_z_score,
                  suites.holder_p1_z, suites.holder_bounded_ratio):
        assert check(seed, n_samples, K_mc, d, xi=xi) == check(seed, n_samples, K_mc, d), \
            check.__name__


@pytest.mark.filterwarnings("error")
def test_zero_variance_batch_fails_instead_of_raising():
    # A batch with no spread has standard error 0: every z-score is inf, so
    # each check FAILs without a ZeroDivisionError or a RuntimeWarning.
    xi = numpy.zeros((10, 1, 9))
    assert suites.covariance_z_scores(0, 10, 4, 1, xi)["worst_same"] == math.inf
    assert suites.stationarity_z_score(0, 10, 4, 1, xi)["worst"] == math.inf
    assert suites.holder_p1_z(0, 10, 4, 1, xi)["worst"] == math.inf


def test_report_embeds_config_echo(light_report):
    assert light_report.config["K"] == 2
    assert light_report.config["mc"]["n_samples"] == 1000
    assert light_report.config["suites"] == list(parse_config(LIGHT_DOC).suites)


def test_suite_registry_matches_config_names():
    from loopstar.config import SUITE_NAMES
    assert set(SUITE_RUNNERS) == set(SUITE_NAMES)


def test_default_config_report_matches_golden():
    """Full default-scale run reproduces the checked-in canonical report."""
    cfg = parse_config(json.loads((REPO / "configs" / "default.json").read_text()))
    report = run_suites(cfg)
    got = canonical_json(report_to_dict(report)).encode() + b"\n"
    golden = (REPO / "tests" / "golden" / "default_report.json").read_bytes()
    assert report.all_passed
    assert got == golden


def test_equivalence_config_report_matches_golden():
    """The equivalence suite of its shipped config reproduces its canonical report."""
    doc = json.loads((REPO / "configs" / "equivalence.json").read_text())
    report = run_suites(parse_config({**doc, "suites": ["equivalence"]}))
    got = canonical_json(report_to_dict(report)).encode() + b"\n"
    golden = (REPO / "tests" / "golden" / "equivalence_report.json").read_bytes()
    assert report.all_passed
    assert got == golden


# SHA-256 prefixes of the exact suites' canonical bodies at seeds other than
# the goldens' 42: a change that should leave every exact result alone must
# leave these unchanged too.
EXACT_BODY_HASHES = [
    ("default", ("algebra", "poisson", "moyal"), 7, "0c321415ef36599c"),
    ("default", ("algebra", "poisson", "moyal"), 3, "25f077ecd5c00a29"),
    ("equivalence", ("equivalence",), 7, "1eff7b80118fac87"),
    ("equivalence", ("equivalence",), 3, "ded0e772a8797527"),
]


# The same for the float suites of the default config: a refactor of the
# Monte-Carlo and residual checks must leave these bodies alone too.
FLOAT_BODY_HASHES = [
    ("default", ("chaos", "gaussian"), 7, "e1b1f55cc32560a2"),
    ("default", ("chaos", "gaussian"), 3, "8406cda0248f81af"),
]


def _body_hash(config, suite_names, seed):
    doc = json.loads((REPO / "configs" / f"{config}.json").read_text())
    cfg = parse_config({**doc, "suites": list(suite_names), "mc": {**doc["mc"], "seed": seed}})
    body = canonical_json(report_to_dict(run_suites(cfg)))
    return hashlib.sha256(body.encode()).hexdigest()[:16]


@pytest.mark.parametrize("config, suite_names, seed, prefix", EXACT_BODY_HASHES,
                         ids=[f"{c}-seed{s}" for c, _, s, _ in EXACT_BODY_HASHES])
def test_exact_suite_bodies_are_pinned(config, suite_names, seed, prefix):
    assert _body_hash(config, suite_names, seed) == prefix


@pytest.mark.parametrize("config, suite_names, seed, prefix", FLOAT_BODY_HASHES,
                         ids=[f"{c}-seed{s}" for c, _, s, _ in FLOAT_BODY_HASHES])
def test_float_suite_bodies_are_pinned(config, suite_names, seed, prefix):
    assert _body_hash(config, suite_names, seed) == prefix


def test_worst_is_inf_on_any_non_finite_value():
    assert suites._worst([]) == 0.0
    assert suites._worst([0.5, 2.0, 1.0]) == 2.0
    assert suites._worst([0.0, math.nan]) == math.inf
    assert suites._worst([-math.inf]) == math.inf


def test_quadrature_residual_counts_the_instances_it_runs(monkeypatch):
    """Three fields serve n // 3 instances each (at least one), and `n` says so."""
    original, calls = suites.random_fock, []
    monkeypatch.setattr(suites, "random_fock", lambda *a, **k: calls.append(1) or original(*a, **k))
    for n, ran in ((10, 9), (1, 3)):
        calls.clear()
        out = suites.chaos_quadrature_residual(42, n, 2, 2, K_mc=16, n_grid=512)
        assert out["n"] == ran == len(calls)


def test_norm_search_forms_each_product_once(monkeypatch):
    """The numerator of a continuity search does not depend on the grid point."""
    original, calls = suites.wick_product, []
    monkeypatch.setattr(suites, "wick_product", lambda F, G: calls.append(1) or original(F, G))
    out = suites.norm_submult_search(42, 50, 2, 3)
    assert out["found"] and (out["k0"], out["C0"]) != (1, 1.0)     # past the first grid point
    assert len(calls) == 50


def _keys(value):
    if isinstance(value, dict):
        return set(value).union(*(_keys(v) for v in value.values()))
    if isinstance(value, list):
        return set().union(*(_keys(v) for v in value))
    return set()


def test_canonical_body_is_independent_of_the_environment(light_report, monkeypatch):
    """Faked numpy and Python versions change the text summary, not one body byte."""
    here = canonical_json(report_to_dict(light_report))
    monkeypatch.setattr(numpy, "__version__", "0.0.fake")
    monkeypatch.setattr(platform, "python_version", lambda: "9.9.9")
    report = run_suites(parse_config(LIGHT_DOC))
    doc = report_to_dict(report)
    assert canonical_json(doc) == here
    assert doc["versions"] == {"loopstar": loopstar.__version__}
    assert not {"numpy", "python"} & _keys(doc)
    summary = text_summary(report)
    assert "numpy 0.0.fake" in summary and "python 9.9.9" in summary
