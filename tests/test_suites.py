import hashlib
import json
import math
import os
import platform
import threading
import time
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

    # Both bindings, so that a draw through either module is counted.
    monkeypatch.setattr(suites, "sample_xi_batch", counted)
    monkeypatch.setattr(gaussian, "sample_xi_batch", counted)
    run_suites(cfg)
    assert sizes.count(cfg.mc.n_samples) == 1
    run_suites(cfg)
    assert sizes.count(cfg.mc.n_samples) == 2


@pytest.mark.filterwarnings("error")
def test_zero_variance_batch_fails_instead_of_raising():
    # A batch with no spread has standard error 0: every z-score is inf, so
    # each check FAILs without a ZeroDivisionError or a RuntimeWarning.
    xi = numpy.zeros((10, 1, 9))
    assert suites.covariance_z_scores(xi)["worst_same"] == math.inf
    assert suites.stationarity_z_score(xi)["worst"] == math.inf
    assert suites.holder_p1_z(xi)["worst"] == math.inf


def test_monte_carlo_gates_catch_a_perturbed_batch():
    """Each covariance and p=1 moment gate FAILs a batch one defect away from the sampler's.

    A 1.05 amplitude scale moves every variance by about 10%.  Mixing 0.312
    of coordinate 1 into coordinate 2, scaled by 0.95 so its variance stays
    within 0.1% of 1, correlates the coordinates alone.  The gates pass the
    batch as drawn and catch each defect at three times their threshold.
    The stationarity gate reads a translation defect, which neither is.
    """
    checks = {check.id: check for check in suites.CHECKS["gaussian"]}

    def over_gate(check_id, xi):
        check = checks[check_id]
        return check.run(xi)[check.residual] / check.tolerance

    xi = suites.sample_xi_batch(42, 20000, 64, 2)
    mixed = xi.copy()
    mixed[:, 1] = 0.95 * xi[:, 1] + 0.312 * xi[:, 0]
    gates = ("covariance.same_coord", "covariance.cross_coord", "holder.p1")
    assert all(over_gate(gate, xi) <= 1.0 for gate in gates)
    assert over_gate("covariance.same_coord", 1.05 * xi) > 3.0
    assert over_gate("holder.p1", 1.05 * xi) > 3.0
    assert over_gate("covariance.cross_coord", mixed) > 3.0


def test_report_embeds_config_echo(light_report):
    assert light_report.config["K"] == 2
    assert light_report.config["mc"]["n_samples"] == 1000
    assert light_report.config["suites"] == list(parse_config(LIGHT_DOC).suites)


def test_suite_registry_matches_config_names():
    from loopstar.config import SUITE_NAMES
    assert set(SUITE_RUNNERS) == set(SUITE_NAMES)


def test_default_config_report_matches_golden():
    """Full default-scale run reproduces the checked-in canonical report.

    Regenerate it with `verify --config configs/default.json --out
    tests/golden/default_report.json` and delete the .txt summary written beside it.
    """
    cfg = parse_config(json.loads((REPO / "configs" / "default.json").read_text()))
    report = run_suites(cfg)
    got = canonical_json(report_to_dict(report)).encode() + b"\n"
    golden = (REPO / "tests" / "golden" / "default_report.json").read_bytes()
    assert report.all_passed
    assert got == golden


def test_equivalence_config_report_matches_golden():
    """The equivalence suite of its shipped config reproduces its canonical report.

    Regenerate it with `verify --config configs/equivalence.json --suite equivalence
    --out tests/golden/equivalence_report.json` and delete the .txt summary written
    beside it.
    """
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
    ("default", ("algebra", "poisson", "moyal"), 7, "1b7eda221f7fb350"),
    ("default", ("algebra", "poisson", "moyal"), 3, "135f83a6a7ec9883"),
    ("equivalence", ("equivalence",), 7, "9a49ee52ae97d4f6"),
    ("equivalence", ("equivalence",), 3, "f7905c5f545423c9"),
]


# The same for the float suites of the default config: a refactor of the
# Monte-Carlo and residual checks must leave these bodies alone too.
FLOAT_BODY_HASHES = [
    ("default", ("chaos", "gaussian"), 7, "b60b0cee66ddc235"),
    ("default", ("chaos", "gaussian"), 3, "415daa1f26812145"),
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


def _counting_forks(monkeypatch) -> list:
    """Patch `os.fork` to note each call; returns the list of notes."""
    fork, forks = os.fork, []
    monkeypatch.setattr(os, "fork", lambda: forks.append(1) or fork())
    return forks


def _assert_no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def test_forked_bodies_are_byte_identical_at_every_process_count(monkeypatch):
    """The exact suites fork one worker per extra process and write the same body at 1, 2, 3."""
    cfg = parse_config({**LIGHT_DOC, "suites": list(suites.FORKED_SUITES)})
    bodies = []
    for processes in (1, 2, 3):
        forks = _counting_forks(monkeypatch)
        bodies.append(canonical_json(report_to_dict(run_suites(cfg, processes))))
        _assert_no_child_left()
        assert len(forks) == sum(min(processes, len(suites._groups(suites.CHECKS[name]))) - 1
                                 for name in cfg.suites)
    assert bodies[1] == bodies[0] and bodies[2] == bodies[0]


def test_one_process_unless_asked_and_for_the_float_suites(monkeypatch):
    """No fork by default, nor for gaussian and chaos, whatever is asked."""
    forks = _counting_forks(monkeypatch)
    run_suites(parse_config({**LIGHT_DOC, "suites": ["moyal"]}))
    run_suites(parse_config({**LIGHT_DOC, "suites": ["gaussian", "chaos"]}), 3)
    assert forks == []


def test_another_live_thread_keeps_the_checks_in_this_process(monkeypatch):
    """A child forked while another thread holds a lock could deadlock on it."""
    forks = _counting_forks(monkeypatch)
    release = threading.Event()
    waiter = threading.Thread(target=release.wait)
    waiter.start()
    try:
        records = suites.run_checks("moyal", parse_config(LIGHT_DOC), 2)
    finally:
        release.set()
        waiter.join()
    assert forks == [] and len(records) == len(suites.CHECKS["moyal"])


def _raising_table(monkeypatch, failing: dict, slow: int = -1):
    """Replace the moyal table by three trivial checks; entry k raises `failing[k]`.

    Run on two processes, entries 0 and 2 run in this process and entry 1 in
    a forked child.  Entry `slow` sleeps far longer than any test may take.
    """
    def run(k):
        def check(cfg, seed):
            if k in failing:
                raise failing[k]
            if k == slow:
                time.sleep(60)
            return {"failures": 0, "n": 1}
        return check

    monkeypatch.setitem(suites.CHECKS, "moyal",
                        tuple(suites.Check(f"c{k}", "trivial", run(k)) for k in range(3)))


@pytest.mark.parametrize("failing", [[0], [1], [1, 2], [0, 1]],
                         ids=["in-parent", "in-child", "child-first", "parent-first"])
def test_check_exception_reaches_caller_after_every_child_is_reaped(monkeypatch, failing):
    """The first raising entry in table order wins, wherever each one ran."""
    _raising_table(monkeypatch, {k: ValueError(f"boom {k}") for k in failing})
    with pytest.raises(ValueError, match=f"boom {failing[0]}") as caught:
        suites.run_checks("moyal", parse_config(LIGHT_DOC), 2)
    _assert_no_child_left()
    if failing[0] == 1:        # the child's traceback text rides along as the cause
        cause = str(caught.value.__cause__)
        assert "check moyal/c1 raised in forked worker" in cause and "Traceback" in cause


class _TwoArgError(Exception):
    """Pickles, but cannot load: unpickling calls it with its one message argument."""

    def __init__(self, what, why):
        super().__init__(f"{what}: {why}")


def _local_error():
    class Local(Exception):     # a class local to a function cannot be pickled
        pass
    return Local("not picklable")


@pytest.mark.parametrize("raised", [_local_error(), _TwoArgError("loads", "fails")],
                         ids=["no-dump", "no-load"])
def test_unpicklable_child_exception_arrives_named_with_its_traceback(monkeypatch, raised):
    _raising_table(monkeypatch, {1: raised})
    with pytest.raises(RuntimeError, match="check moyal/c1 raised in forked worker") as caught:
        suites.run_checks("moyal", parse_config(LIGHT_DOC), 2)
    _assert_no_child_left()
    assert f"{type(raised).__name__}: {raised}" in str(caught.value)


def test_keyboard_interrupt_kills_and_reaps_the_children(monkeypatch):
    _raising_table(monkeypatch, {0: KeyboardInterrupt()}, slow=1)
    t0 = time.perf_counter()
    with pytest.raises(KeyboardInterrupt):
        suites.run_checks("moyal", parse_config(LIGHT_DOC), 2)
    _assert_no_child_left()
    assert time.perf_counter() - t0 < 30         # the sleeping child was killed
