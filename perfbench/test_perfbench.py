"""Tests of the benchmark itself.

Run from the repository root with `python -m pytest perfbench`.  They take
about 15 s: each workload is traced twice.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from layers import MODULES, Tracer, public_functions, tracing  # noqa: E402

run.import_loopstar()

SEED = 11


def traced(workload: str, wrapped=MODULES):
    tracer = Tracer()
    cfg = run.workload_config(workload, SEED)
    with tracing(tracer, wrapped):
        seconds, result, _ = run.verdict(cfg)
    return seconds, tracer, result


@pytest.fixture(scope="module", params=sorted(run.WORKLOADS))
def two_traces(request):
    return request.param, traced(request.param), traced(request.param)


def test_exact_counts_repeat(two_traces):
    _, (_, first, _), (_, second, _) = two_traces
    assert run.exact_counts(first) == run.exact_counts(second)
    assert first.counts["fock.wick_product.term_pairs"] >= first.stats["fock.wick_product"][0]


def test_tracing_keeps_the_verdict(two_traces):
    workload, (_, _, first), (_, _, second) = two_traces
    check = run.workload_check(workload)
    check.add(SEED, first)
    check.add(SEED, second)
    assert check.correct, check.problems


def test_dominant_layer_as_predicted(two_traces):
    workload, (_, tracer, _), _ = two_traces
    by_module = tracer.module_self()
    share = {m: s / sum(by_module.values()) for m, s in by_module.items()}
    if workload == "exact-large":
        assert share["fock"] >= 0.5
    elif workload == "mc-field":
        assert share["gaussian"] >= 0.5
        assert share.get("fock", 0.0) < 0.05
    else:
        assert share["poisson"] + share["fock"] > 0.5


def test_every_binding_is_wrapped():
    # suites, poisson, equivalence and chaos bind fock functions with
    # `from .fock import ...`; an unwrapped binding would hide its calls.
    import importlib
    namespaces = [importlib.import_module(f"loopstar.{m}") for m in MODULES]
    originals = {id(fn): f"{m}.{name}" for m, ns in zip(MODULES, namespaces)
                 for name, fn in public_functions(ns)}
    assert "fock.wick_product" in originals.values()
    with tracing(Tracer()):
        left = [f"{ns.__name__}.{attr}" for ns in namespaces
                for attr, obj in vars(ns).items() if id(obj) in originals]
    assert left == []


def test_check_rows_sum_to_the_verdict():
    seconds, tracer, result = traced("mc-field", ("suites",))
    ids = [cid for row in tracer.checks for cid in row["check_ids"]]
    assert ids == [f"{r.check_id}" for r in result.records]
    assert abs(sum(row["s"] for row in tracer.checks) / seconds - 1.0) < 0.05
    shared = [row for row in tracer.checks if "covariance.same_coord" in row["check_ids"]]
    assert shared[0]["check_ids"] == ["covariance.same_coord", "covariance.cross_coord"]
    assert shared[0]["calls"] == ["suites.covariance_z_scores"]


def test_tracing_restores_the_package():
    import loopstar.fock as fock
    import loopstar.suites as suites
    before = (suites.wick_product, fock.FockVector.__add__, suites.CheckRecord,
              dict(suites.SUITE_RUNNERS))
    with tracing(Tracer()):
        assert suites.wick_product is not before[0]
    assert (suites.wick_product, fock.FockVector.__add__, suites.CheckRecord,
            dict(suites.SUITE_RUNNERS)) == before


def report(residual, passed, exact_failures=0):
    from loopstar.report import CheckRecord, VerificationReport
    return VerificationReport(records=[
        CheckRecord("algebra", "a", "claim", float(exact_failures), 0.0, exact_failures == 0,
                    1, 0),
        CheckRecord("algebra", "b", "claim", residual, 1.0, passed, 1, 0)])


def test_output_check_counts_deviations_and_fails():
    check = run.OutputCheck(["algebra/a", "algebra/b"], ["algebra/a"])
    check.add(7, report(0.5, True))
    check.add(7, report(0.5, True))
    check.add(8, report(2.0, False))
    assert (check.correct, check.attempted, check.failed, check.failed_or_fail) == (True, 6, 0, 1)
    assert check.failing == {8: ["algebra/b"]}
    check.add(7, report(2.0, False))
    assert (check.correct, check.attempted, check.failed, check.failed_or_fail) == (False, 8, 1, 2)
    check.crash(9)
    assert (check.attempted, check.failed) == (10, 3)


def test_a_wrong_exact_answer_is_failed_even_when_it_repeats():
    # A faster but wrong algebra makes an exact check FAIL at every seed, and
    # every repeat of it is byte-identical to the first.
    check = run.OutputCheck(["algebra/a", "algebra/b"], ["algebra/a"])
    check.add(7, report(0.5, True, exact_failures=3))
    check.add(7, report(0.5, True, exact_failures=3))
    assert (check.correct, check.failed, check.failed_or_fail) == (False, 2, 2)
    assert check.failing == {7: ["algebra/a"]}


def test_every_workload_names_its_exact_checks():
    for spec in run.WORKLOADS.values():
        ids = {c for ids in spec["checks"].values() for c in ids}
        assert spec["exact"] and set(spec["exact"]) <= ids


def test_untraced_runs_cycle_a_fixed_seed_list():
    seeds = [run.mc_seed(5, j) for j in range(3 * run.SEEDS_PER_RUN)]
    assert seeds[0] == 5
    assert len(set(seeds)) == run.SEEDS_PER_RUN
    assert seeds[:run.SEEDS_PER_RUN] == seeds[run.SEEDS_PER_RUN:2 * run.SEEDS_PER_RUN]
    plain = [{"mc_seed": 1, "s": 1.0}, {"mc_seed": 2, "s": 4.0}, {"mc_seed": 1, "s": 3.0}]
    assert run.seed_medians(plain) == {1: 2.0, 2: 4.0}


def test_speed_probe_keeps_collections_out():
    import gc
    from calibrate import SpeedProbe
    calls = []

    def watch(phase, info):
        calls.append(phase)

    probe = SpeedProbe()
    threshold = gc.get_threshold()
    gc.set_threshold(1)          # any allocation would otherwise start a collection
    gc.callbacks.append(watch)
    try:
        for _ in range(20):
            probe._tick(None, None)
    finally:
        gc.callbacks.remove(watch)
        gc.set_threshold(*threshold)
    assert calls == [] and gc.isenabled()


def test_tail_has_ten_samples_beyond():
    assert run.tail([float(i) for i in range(1, 41)]) == {
        "value": 30.0, "percentile": 75.0, "n": 40, "beyond": 10}
    assert run.tail([3.0, 1.0, 2.0])["value"] == 3.0


def test_benchmark_json_matches_the_printed_metrics():
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
    assert [(m["name"], m["unit"], m["better"]) for m in spec["per_layer"]] == \
        [tuple(m) for m in run.PER_LAYER]
    assert [(m["name"], m["unit"]) for m in spec["end_to_end"]] == list(run.END_TO_END)


def test_refuses_a_directory_without_the_package(tmp_path):
    shutil.copytree(HERE, tmp_path / HERE.name,
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run([sys.executable, f"{HERE.name}/run.py", "--workload", "exact-small",
                           "--seed", "1", "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert "correct" not in proc.stdout
