import ast
import hashlib
import json
import math
import platform
from fractions import Fraction
from pathlib import Path

import numpy
import pytest

import loopstar
import loopstar.suites as suites
from loopstar.config import parse_config
from loopstar.gaussian import (THREADED_DRAW_FLOOR, basis_matrix, batch_shape, increment_variance,
                               sample_xi_batch, spectral_green_sum)
from loopstar.report import Precision, canonical_json, report_to_dict, text_summary
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


def test_every_gate_states_how_its_record_passes(light_report):
    """An exact gate counts `failures` against 0 and writes them as they are; a
    rounding gate reads `residual` and a statistic gate its own field, each at
    its precision against a positive tolerance, which the record carries."""
    cfg = parse_config(LIGHT_DOC)
    records = {(r.suite, r.check_id): r for r in light_report.records}
    kinds = []
    for suite, table in suites.CHECKS.items():
        for check in table:
            gate = check.gate
            tolerance = gate.tolerance(cfg) if callable(gate.tolerance) else gate.tolerance
            if isinstance(gate, suites.Exact):
                assert (gate.field, tolerance, gate.precision) == ("failures", 0.0, None)
            elif isinstance(gate, suites.Rounding):
                assert gate.field == "residual" and gate.precision is Precision.RESIDUAL
                assert tolerance > 0, check.id
            else:
                assert isinstance(gate, suites.Statistic), check.id
                assert gate.precision is Precision.STATISTIC and tolerance > 0, check.id
            record = records[suite, check.id]
            assert (record.tolerance, record.precision) == (tolerance, gate.precision)
            kinds.append(type(gate).__name__)
    assert [kinds.count(k) for k in ("Exact", "Rounding", "Statistic")] == [23, 10, 11]
    # The one tolerance that the config sets: 2d for the bounded Hölder ratios.
    holder = next(c for c in suites.CHECKS["gaussian"] if c.id == "holder.bounded")
    assert holder.gate.tolerance(cfg) == 2.0 * LIGHT_DOC["d"]


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
    xi = numpy.zeros((1, 9, 10))
    assert suites.covariance_z_scores(xi)["worst_same"] == math.inf
    assert suites.stationarity_z_score(xi)["worst"] == math.inf
    assert suites.holder_p1_z(xi)["worst"] == math.inf


def _covariance_per_statistic(xi):
    """`covariance_z_scores` one statistic at a time, on strided columns of the point values."""
    points = numpy.array([0.0, 0.11, 0.23, 0.37, 0.52, 0.68, 0.81, 0.94])
    n_samples, d, K_mc = batch_shape(xi)
    vals = numpy.tensordot(xi, basis_matrix(K_mc, points), axes=([1], [0]))    # (d, n, P)
    same, cross = [], []
    pair_a, pair_b = numpy.triu_indices(len(points))
    truths = spectral_green_sum(points[pair_a], points[pair_b], K_mc)
    for a, b, truth in zip(pair_a, pair_b, truths):
        for i in range(d):
            prod = vals[i, :, a] * vals[i, :, b]
            same.append(suites._z(numpy.mean(prod) - truth,
                                  numpy.std(prod, ddof=1) / math.sqrt(n_samples)))
        if d >= 2:
            prod = vals[0, :, a] * vals[1, :, b]
            cross.append(suites._z(numpy.mean(prod),
                                   numpy.std(prod, ddof=1) / math.sqrt(n_samples)))
    return {"worst_same": suites._worst(same), "worst_cross": suites._worst(cross),
            "n": len(same) + len(cross)}


@pytest.mark.parametrize("seed", [42, 3, 1000])
@pytest.mark.parametrize("d", [1, 2])
def test_covariance_rows_equal_the_per_statistic_loop(seed, d):
    xi = sample_xi_batch(seed, 2000, 8, d)
    assert suites.covariance_z_scores(xi) == _covariance_per_statistic(xi)


def test_monte_carlo_gates_catch_a_perturbed_batch():
    """Each covariance and p=1 moment gate FAILs a batch one defect away from the sampler's.

    A 1.05 amplitude scale moves every variance by about 10%.  Mixing 0.312
    of coordinate 1 into coordinate 2, scaled by 0.95 so its variance stays
    within 0.1% of 1, correlates the coordinates alone.  The gates pass the
    batch as drawn and catch each defect at three times their threshold.  A
    1.05 variance scale, half the amplitude defect, is caught too, at about
    twice the threshold.  The stationarity gate reads a translation defect,
    which none of these is.
    """
    checks = {check.id: check for check in suites.CHECKS["gaussian"]}

    def over_gate(check_id, xi):
        gate = checks[check_id].gate
        return checks[check_id].run(xi)[gate.field] / gate.tolerance

    xi = suites.sample_xi_batch(42, 20000, 64, 2)
    mixed = xi.copy()
    mixed[1] = 0.95 * xi[1] + 0.312 * xi[0]
    gates = ("covariance.same_coord", "covariance.cross_coord", "holder.p1")
    assert all(over_gate(gate, xi) <= 1.0 for gate in gates)
    assert over_gate("covariance.same_coord", 1.05 * xi) > 3.0
    assert over_gate("holder.p1", 1.05 * xi) > 3.0
    assert over_gate("covariance.same_coord", math.sqrt(1.05) * xi) > 1.0
    assert over_gate("holder.p1", math.sqrt(1.05) * xi) > 1.0
    assert over_gate("covariance.cross_coord", mixed) > 3.0


def _holder_per_pair(xi, pairs):
    """`holder_moment_check` as one product per pair, the route it replaced."""
    n_samples, d, K_mc = batch_shape(xi)
    s_pts = numpy.array([s for s, _ in pairs])
    t_pts = numpy.array([t for _, t in pairs])
    E_s, E_t = basis_matrix(K_mc, s_pts), basis_matrix(K_mc, t_pts)
    variances = increment_variance(s_pts, t_pts, K_mc)
    rows = []
    for j, (s, t) in enumerate(pairs):
        gap = abs(t - s)
        incr = (E_t[:, j] - E_s[:, j]) @ xi                 # (d, n)
        power = numpy.sum(incr * incr, axis=0)
        rows.append({"ratio": float(numpy.mean(power)) / gap,
                     "stderr": float(numpy.std(power, ddof=1)) / math.sqrt(n_samples) / gap,
                     "analytic": float(variances[j]) * d / gap})
    return {"rows": rows, "max_ratio": max(row["ratio"] for row in rows)}


def _stationarity_per_pair(xi):
    """`stationarity_z_score` as one tensordot over both coordinates per base pair."""
    n_samples, _, K_mc = batch_shape(xi)
    zs = []
    for s, t in [(0.05, 0.25), (0.1, 0.45), (0.3, 0.62)]:
        E = basis_matrix(K_mc, numpy.array([s, t, (s + 0.31) % 1.0, (t + 0.31) % 1.0]))
        vals = numpy.tensordot(xi, E, axes=([1], [0]))      # (d, n, 4)
        p1 = vals[0, :, 0] * vals[0, :, 1]
        p2 = vals[0, :, 2] * vals[0, :, 3]
        se = math.sqrt(numpy.var(p1, ddof=1) / n_samples + numpy.var(p2, ddof=1) / n_samples)
        zs.append(suites._z(float(numpy.mean(p1) - numpy.mean(p2)), se))
    return suites._worst(zs)


@pytest.mark.parametrize("seed", [42, 3, 7, 1000, 1001])
def test_one_product_statistics_write_the_per_pair_values(monkeypatch, seed):
    """The Hölder and stationarity statistics, formed in one product, write what
    one product per pair writes: their routes differ by rounding only."""
    write = Precision.STATISTIC.write
    xi = sample_xi_batch(seed, 20000, 64, 2)
    new = (suites.holder_p1_z(xi), suites.holder_bounded_ratio(xi),
           suites.stationarity_z_score(xi)["worst"])
    monkeypatch.setattr(suites, "holder_moment_check", _holder_per_pair)
    old = (suites.holder_p1_z(xi), suites.holder_bounded_ratio(xi), _stationarity_per_pair(xi))
    pairs = [(new[0]["worst"], old[0]["worst"]), (new[0]["max_ratio"], old[0]["max_ratio"]),
             (new[1]["max_ratio"], old[1]["max_ratio"]), (new[2], old[2])]
    for got, want in pairs:
        assert got == pytest.approx(want, rel=1e-12)
        assert write(got, 3.0) == write(want, 3.0)


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
    ("default", ("algebra", "poisson", "moyal"), 7, "6b72fb1505d356d9"),
    ("default", ("algebra", "poisson", "moyal"), 3, "4645c789943896e9"),
    ("equivalence", ("equivalence",), 7, "55fba29a31fadba7"),
    ("equivalence", ("equivalence",), 3, "905d174d0edcc644"),
]


# The same for the float suites of the default config: a refactor of the
# Monte-Carlo and residual checks must leave these bodies alone too.  The
# last two leave the shipped point: one coordinate, and three coordinates
# drawn on the threaded floor.  Each entry's last item sets d and n_samples.
FLOAT_BODY_HASHES = [
    ("default", ("chaos", "gaussian"), 7, "36ffb7a7d40710be", ()),
    ("default", ("chaos", "gaussian"), 3, "fde5f98e9e32f7ff", ()),
    ("default", ("chaos", "gaussian"), 7, "f23096e2ca2a47fd", (1, 5000)),
    ("default", ("chaos", "gaussian"), 3, "bb1c8da941b19783", (3, THREADED_DRAW_FLOOR)),
]


def _body_hash(config, suite_names, seed, shape=()):
    doc = json.loads((REPO / "configs" / f"{config}.json").read_text())
    doc = {**doc, "suites": list(suite_names), "mc": {**doc["mc"], "seed": seed}}
    if shape:
        doc["d"], doc["mc"]["n_samples"] = shape
    cfg = parse_config(doc)
    body = canonical_json(report_to_dict(run_suites(cfg)))
    return hashlib.sha256(body.encode()).hexdigest()[:16]


@pytest.mark.parametrize("config, suite_names, seed, prefix", EXACT_BODY_HASHES,
                         ids=[f"{c}-seed{s}" for c, _, s, _ in EXACT_BODY_HASHES])
def test_exact_suite_bodies_are_pinned(config, suite_names, seed, prefix):
    assert _body_hash(config, suite_names, seed) == prefix


@pytest.mark.parametrize("config, suite_names, seed, prefix, shape", FLOAT_BODY_HASHES,
                         ids=[f"{c}-seed{s}" + ("-d{}-n{}".format(*shape) if shape else "")
                              for c, _, s, _, shape in FLOAT_BODY_HASHES])
def test_float_suite_bodies_are_pinned(config, suite_names, seed, prefix, shape):
    assert _body_hash(config, suite_names, seed, shape) == prefix


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


_KSQ = suites.DiagonalOperatorA.family("ksq", 2, 3)


@pytest.mark.parametrize("search, args, product, n", [
    ("norm_submult_search", (2, 3), "wick_product", 50),
    ("bracket_bound_search", (suites.SymplecticForm(2, 3, 1),), "poisson_bracket", 25),
    ("generator_bound_search", (_KSQ,), "apply_T1", 15),
    ("perturbation_bound_search", (_KSQ,), "apply_EA", 15),
], ids=["norm.submultiplicative", "bracket.bounded", "transform.bounded", "perturbation.bounded"])
def test_every_search_forms_each_product_once(monkeypatch, search, args, product, n):
    """Each of the four searches forms its product once per instance.

    Each product is scaled past every grid point's bound, so the search walks
    the whole grid and still forms it only n times.
    """
    original, calls = getattr(suites, product), []
    monkeypatch.setattr(suites, product,
                        lambda *a: calls.append(1) or original(*a).scale(10 ** 24))
    out = getattr(suites, search)(42, n, *args)
    assert not out["found"] and out["n"] == n
    assert len(calls) == n


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


def _raising_table(monkeypatch, failing: dict) -> list:
    """Replace the moyal table by three trivial checks; entry k raises `failing[k]`.

    Returns the list that each entry appends its index to when it runs.
    """
    ran = []

    def run(k):
        def check(cfg, seed):
            ran.append(k)
            if k in failing:
                raise failing[k]
            return {"failures": 0, "n": 1}
        return check

    monkeypatch.setitem(suites.CHECKS, "moyal",
                        tuple(suites.Check(f"c{k}", "trivial", run(k)) for k in range(3)))
    return ran


@pytest.mark.parametrize("failing", [[0, 1], [1, 2]], ids=["first-raises", "later-raises"])
def test_first_raising_check_ends_the_suite_unwrapped(monkeypatch, failing):
    """The first raising entry's own exception ends the suite, unwrapped.

    Either the first entry raises, or a later one raises after an earlier
    one passed; no entry after the raising one runs.
    """
    errors = {k: ValueError(f"boom {k}") for k in failing}
    ran = _raising_table(monkeypatch, errors)
    with pytest.raises(ValueError) as caught:
        suites.run_checks("moyal", parse_config(LIGHT_DOC))
    assert caught.value is errors[failing[0]] and caught.value.__cause__ is None
    assert ran == list(range(failing[0] + 1))       # no entry after it ran


def test_only_the_instance_loop_opens_a_stream():
    """Every seeded check draws through `_instances`, so each record is rebuilt
    from its (seed, label) stream by one loop."""
    tree = ast.parse((REPO / "src" / "loopstar" / "suites.py").read_text(encoding="utf-8"))

    def uses(node):
        return [n for n in ast.walk(node)
                if (isinstance(n, ast.Name) and n.id == "instance_rng")
                or (isinstance(n, ast.Attribute) and n.attr == "instance_rng")]
    users = [fn.name for fn in ast.walk(tree) if isinstance(fn, ast.FunctionDef) for _ in uses(fn)]
    assert users == ["_instances"] and len(uses(tree)) == 1


def test_suites_and_report_fit_their_line_budget():
    """`suites.py` and `report.py` together stay within ROADMAP's 1338 lines."""
    lines = sum(len((REPO / "src" / "loopstar" / name).read_text(encoding="utf-8").splitlines())
                for name in ("suites.py", "report.py"))
    assert lines <= 1338


def test_a_search_that_finds_no_constant_fails(monkeypatch):
    """No grid point bounds the numerator: `found` is False, the residual 2.0,
    `max_ratio` the least ratio on the grid, and the record a FAIL."""
    with monkeypatch.context() as m:        # a fake draw, product and norm bound
        m.setattr(suites, "connes_norm_upper", lambda x, k0, C0: 100.0 if x == "FG" else k0 * C0)
        out = suites._continuity_search(42, "fake", 1, lambda rng: ("F",), lambda F: "FG",
                                        suites._SCALES)
    assert out == {"found": False, "k0": -1, "C0": 0.0, "max_ratio": 100.0 / (5 * 8.0),
                   "residual": 2.0, "n": 1}
    generator = suites.apply_T1
    monkeypatch.setattr(suites, "apply_T1", lambda F, A: generator(F, A).scale(10 ** 24))
    record = next(r for r in suites.run_checks("equivalence", parse_config(LIGHT_DOC))
                  if r.check_id == "transform.bounded")
    assert not record.passed and record.residual == 2.0 and record.observed > 1.0


def test_equivalence_suite_runs_on_an_alpha_table():
    """An `alpha_spec` table reaches the suite through `DiagonalOperatorA.from_table`."""
    table = {"0": "1", "-1": "3/4", "1": "1/2", "2": "-2"}
    cfg = parse_config({**LIGHT_DOC, "alpha_spec": table, "suites": ["equivalence"]})
    A = suites.resolve_alpha(cfg)
    assert A.alpha == {0: 1, -1: Fraction(3, 4), 1: Fraction(1, 2), 2: -2}
    records = suites.run_checks("equivalence", cfg)
    assert len(records) == len(suites.CHECKS["equivalence"])
    assert all(r.passed for r in records), [r.check_id for r in records if not r.passed]
