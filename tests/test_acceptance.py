"""Acceptance gate: every headline guarantee at its stated scale and budget.

Each criterion is one test that prints a single [PASS]/[FAIL] line with the
measured residual and wall time (written through the capture so it always
reaches the terminal), then asserts both the bound and the time budget.
"""

import json
import time
from fractions import Fraction

import pytest

import loopstar.suites as suites
from loopstar.cli import main as cli_main
from loopstar.equivalence import DiagonalOperatorA
from loopstar.rand import instance_rng, random_fock
from loopstar.report import CheckRecord
from loopstar.serialization import deserialize_fock, serialize_fock
from loopstar.suites import (chaos_quadrature_residual, chaos_spectral_residual,
                             covariance_z_scores, derivation_failures,
                             gateaux_slope_deviation, holder_p1_z,
                             intertwining_failures, kernel_constant_residuals,
                             kernel_spectral_residual, moyal_assoc_failures,
                             poisson_axiom_failures, power_law_failures,
                             product_formula_failures, quadrature_convergence,
                             wick_axiom_failures)

SEED = 42


def announce(capsys, num, ok, detail):
    line = f"[{'PASS' if ok else 'FAIL'}] criterion {num:02d}: {detail}"
    with capsys.disabled():
        print(line)
    assert ok, line


def test_criterion_01_product_axioms_exact(capsys):
    t0 = time.perf_counter()
    out = wick_axiom_failures(SEED, 200, d=2, K=3)
    dt = time.perf_counter() - t0
    ok = out["failures"] == 0 and dt <= 10.0
    announce(capsys, 1, ok,
             f"product commutativity/associativity exact on {out['n']} triples, "
             f"deg<=5, d=2, K=3 ({out['failures']} failures, {dt:.1f}s <= 10s)")


def test_criterion_02_derivation_exact(capsys):
    t0 = time.perf_counter()
    out = derivation_failures(SEED, 200, d=2, K=3)
    dt = time.perf_counter() - t0
    ok = out["failures"] == 0 and dt <= 5.0
    announce(capsys, 2, ok,
             f"contraction derivation law exact on {out['n']} instances "
             f"({out['failures']} failures, {dt:.1f}s <= 5s)")


def test_criterion_03_chaos_factorization(capsys):
    t0 = time.perf_counter()
    spec = chaos_spectral_residual(SEED, 100, d=2, K=3)
    quad = chaos_quadrature_residual(SEED, 30, d=2, K=3, K_mc=64, n_grid=4096)
    conv = quadrature_convergence(SEED, d=2, K=3)
    dt = time.perf_counter() - t0
    fine = [n for n, res in zip(conv["grids"], conv["resolved"]) if res]
    # Both sides of the claim, and hence its order-2 drop, are exercised.
    both_sides = 0 < len(fine) < len(conv["grids"])
    ok = (spec["residual"] <= 1e-12 and quad["residual"] <= 1e-6
          and conv["violations"] == 0 and both_sides and dt <= 60.0)
    announce(capsys, 3, ok,
             f"chaos factorization: spectral {spec['residual']:.2e} <= 1e-12 on 100, "
             f"quadrature {quad['residual']:.2e} <= 1e-6 at n_grid=4096, "
             f"trapezoid error over {conv['grids']} is "
             f"[{', '.join(f'{e:.2g}' for e in conv['errors'])}] eps: within "
             f"{conv['bound']:g} eps exactly on the resolving grids {fine} "
             f"({dt:.1f}s <= 60s)")


def test_criterion_04_gateaux_slope(capsys):
    t0 = time.perf_counter()
    out = gateaux_slope_deviation(SEED, 50, d=2, K=3)
    dt = time.perf_counter() - t0
    ok = out["deviation"] <= 0.1 and dt <= 30.0
    announce(capsys, 4, ok,
             f"finite-difference error slope 2.0 +- 0.1 over eps in "
             f"{{1e-2,1e-3,1e-4}} on {out['n']} instances "
             f"(max deviation {out['deviation']:.3f}, {dt:.1f}s <= 30s)")


def test_criterion_05_bracket_axioms(capsys):
    t0 = time.perf_counter()
    out = poisson_axiom_failures(SEED, 100, d=2, K=3)
    dt = time.perf_counter() - t0
    ok = out["failures"] == 0 and out["nonzero"] >= 20 and dt <= 30.0
    announce(capsys, 5, ok,
             f"bracket antisymmetry/Leibniz/Jacobi exact on {out['n']} triples, "
             f"deg<=3 ({out['failures']} failures, {out['nonzero']} nontrivial, "
             f"{dt:.1f}s <= 30s)")


def test_criterion_06_star_product(capsys):
    t0 = time.perf_counter()
    laws = power_law_failures(SEED, 50, d=2, K=3)
    assoc = moyal_assoc_failures(SEED, 50, d=2, K=3, R=4)
    dt = time.perf_counter() - t0
    ok = laws["failures"] == 0 and assoc["failures"] == 0 and dt <= 120.0
    announce(capsys, 6, ok,
             f"star-product: order-0 is the product, antisymmetrized order-1 is "
             f"twice the bracket, associativity exact to r<=4 on {assoc['n']} "
             f"triples deg<=3 ({laws['failures'] + assoc['failures']} failures, "
             f"{dt:.1f}s <= 120s)")


def test_criterion_07_gaussian_field(capsys):
    t0 = time.perf_counter()
    const = kernel_constant_residuals(SEED)
    spec = kernel_spectral_residual(SEED)
    cov = covariance_z_scores(SEED, 20000, K_mc=64, d=2)
    hol = holder_p1_z(SEED, 20000, K_mc=64, d=2)
    dt = time.perf_counter() - t0
    worst_z = max(cov["worst_same"], cov["worst_cross"], hol["worst"])
    ok = (const["residual"] <= 1e-14 and spec["residual"] <= 1e-4
          and worst_z <= 3.0 and dt <= 120.0)
    announce(capsys, 7, ok,
             f"field statistics: kernel coefficients exact ({const['residual']:.1e}), "
             f"closed form vs 200-frequency sum {spec['residual']:.2e} <= 1e-4 on "
             f"separations in [0.05,0.5], covariance and p=1 increment moments "
             f"within 3 SE at 20000 samples (worst z {worst_z:.2f}, {dt:.1f}s <= 120s)")


def test_criterion_08_intertwining(capsys):
    t0 = time.perf_counter()
    failures = 0
    total = 0
    for family in ("zero", "one", "ksq"):
        A = DiagonalOperatorA.family(family, 3)
        for R, n_each in ((2, 8), (3, 7)):
            for kind in ("poly", "exp"):
                out = intertwining_failures(SEED, n_each, A, d=2, K=3, N=10, R=R, kind=kind)
                failures += out["failures"]
                total += out["n"]
    dt = time.perf_counter() - t0
    ok = failures == 0 and dt <= 300.0
    announce(capsys, 8, ok,
             f"equivalence transform intertwines the deformed and flat products "
             f"exactly at N=10 with R=2 (window 6) and R=3 (window 4), polynomials "
             f"and capped exponentials, {total // 3} instances per coefficient "
             f"family ({failures} failures, {dt:.1f}s <= 300s)")


def test_criterion_09_exponential_product_formula(capsys):
    t0 = time.perf_counter()
    out = product_formula_failures(SEED, 21, N=8, R=3)
    dt = time.perf_counter() - t0
    ok = out["failures"] == 0 and dt <= 60.0
    announce(capsys, 9, ok,
             f"closed product formula for capped exponentials exact at d=1, K=2, "
             f"N=8, R=3 on {out['n']} instances across all coefficient families "
             f"({out['failures']} failures, {dt:.1f}s <= 60s)")


def test_criterion_10_reporting_and_cli(capsys, tmp_path, monkeypatch):
    t0 = time.perf_counter()
    cfg_path = tmp_path / "config.json"
    cfg_path.write_text(json.dumps({
        "d": 2, "K": 2, "N": 6, "R": 2, "suites": ["algebra"],
        "mc": {"n_samples": 500, "K_mc": 16}}))
    out1, out2 = tmp_path / "r1.json", tmp_path / "r2.json"
    code0a = cli_main(["--config", str(cfg_path), "--out", str(out1)])
    code0b = cli_main(["--config", str(cfg_path), "--out", str(out2)])
    byte_identical = out1.read_bytes() == out2.read_bytes()

    rng = instance_rng(SEED, "acceptance-serialize")
    round_trips = all(
        deserialize_fock(serialize_fock(F)) == F
        for F in (random_fock(rng, 2, 3, 4, n_terms=5, dual_fraction=0.4) for _ in range(25)))

    code2 = cli_main(["--config", str(tmp_path / "missing.json")])

    def failing_runner(cfg):
        return [CheckRecord(suite="algebra", check_id="forced.failure", claim="forced",
                            residual=1.0, tolerance=0.0, passed=False,
                            n_instances=1, seed=0)]
    monkeypatch.setitem(suites.SUITE_RUNNERS, "algebra", failing_runner)
    code1 = cli_main(["--config", str(cfg_path)])
    capsys.readouterr()

    dt = time.perf_counter() - t0
    ok = (code0a == 0 and code0b == 0 and byte_identical and round_trips
          and code1 == 1 and code2 == 2 and dt <= 5.0)
    announce(capsys, 10, ok,
             f"reports byte-identical across reruns, serialization round-trips, "
             f"CLI exits 0/1/2 = {code0a}/{code1}/{code2} ({dt:.1f}s <= 5s)")
