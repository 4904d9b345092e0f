"""Benchmark of the `verify` path: time to a verdict, per workload.

One iteration is what `verify` does after loading its config: run the suite
runners (`loopstar.suites.run_suites`), render the canonical JSON body and
the text summary.  The load is a closed loop: one process, one caller, no
threads; the next iteration starts when the previous verdict is rendered.

    python3 perfbench/run.py --workload exact-small --seed 7 --seconds 25 --trace 0

`--trace 0` prints the end-to-end metrics; `--trace 1` alternates iterations
under the per-check clock with fully traced ones and prints the per-layer
metrics (see README.md).  An untraced run cycles a fixed list of
`SEEDS_PER_RUN` values of `mc.seed` derived from `--seed`, so a faster and a
slower commit time the same inputs; a traced run keeps `mc.seed = seed` so
that its counts repeat.  Iteration times are in reference seconds (see
calibrate.py), with the wall seconds kept in the record; set-up times are
wall seconds with numpy's import counted at a nominal time (calibrate.py).
The last line of standard output is one JSON object with the
keys `correct`, `attempted`, `failed` and `metrics`; the full
record, with the SHA-256 of every body and the per-check times, is written
under `perfbench/out/`.  Run from the root of a loopstar checkout: the
package is imported from its `src/` directory, never from an installed copy.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import importlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = HERE / "out"

# Each workload is a shipped config restricted to some of its suites; the
# benchmark seed becomes `mc.seed`.  README.md says why these three.  `exact`
# names the checks whose residual counts failures of an exact identity: any
# FAIL of one is a wrong answer.  The other checks are float tolerances,
# grid searches or Monte-Carlo gates, which can FAIL on correct code at some
# seeds (ROADMAP item 5).
WORKLOADS = {
    "exact-large": {
        "config": "configs/equivalence.json",
        "checks": {"equivalence": (
            "cochain.displays", "star.normal_one_sided", "star.zero_is_moyal",
            "star.associative", "transform.basics", "intertwine.poly", "intertwine.exp",
            "product.formula", "transform.bounded", "perturbation.bounded")},
        "exact": ("cochain.displays", "star.normal_one_sided", "star.zero_is_moyal",
                  "star.associative", "transform.basics", "intertwine.poly", "intertwine.exp",
                  "product.formula"),
    },
    "exact-small": {
        "config": "configs/default.json",
        "checks": {
            "algebra": ("wick.axioms", "wick.grading", "annihilate.derivation", "series.ring",
                        "norm.monotone", "norm.submultiplicative", "serialize.roundtrip",
                        "exp.taylor"),
            "poisson": ("bracket.axioms", "bracket.pairs", "bracket.chaos_compat",
                        "bracket.bounded"),
            "moyal": ("power.laws", "star.associative", "star.series")},
        "exact": ("wick.axioms", "wick.grading", "annihilate.derivation", "series.ring",
                  "norm.monotone", "serialize.roundtrip", "bracket.axioms", "bracket.pairs",
                  "power.laws", "star.associative", "star.series"),
    },
    "mc-field": {
        "config": "configs/default.json",
        "checks": {
            "gaussian": ("kernel.constants", "kernel.spectral", "kernel.stationary",
                         "sampler.deterministic", "covariance.same_coord",
                         "covariance.cross_coord", "covariance.stationary", "covariance.psd",
                         "holder.p1", "holder.bounded", "loop_eval.consistent"),
            "chaos": ("factorization.spectral", "pairing.recovery", "factorization.quadrature",
                      "quadrature.order", "gateaux.slope", "gateaux.linear",
                      "injectivity.probe", "normal.convergence")},
        "exact": ("sampler.deterministic",),
    },
}

# Fixed here rather than read from loopstar, so that the metric names in
# BENCHMARK.json cannot follow a change to the program.
SUITES = ("algebra", "chaos", "gaussian", "poisson", "moyal", "equivalence")

# Fresh interpreters started per run to time import + load_config.
SETUP_SAMPLES = 11

# Values of `mc.seed` an untraced run cycles.  A run ends at the deadline,
# but not before one pass over them, so every commit times the same inputs.
# On exact-large the pass (about 12 x 3.5 s) outlasts the window: its cost
# varies with the seed, and more seeds per run steady its mean.
SEEDS_PER_RUN = 12

# (name, unit) of the end-to-end metrics gated in BENCHMARK.json; each is
# also a key of the result record.  README.md says why `verdict_s_tail`,
# `peak_rss_mb` and `check_fail_ratio` are printed but not gated.
END_TO_END = (("verdict_s", "s"), ("setup_s", "s"))

# (name, unit, better) of every per-layer metric, in BENCHMARK.json order.
PER_LAYER = (
    [("fock.wick_product.calls", "count", "lower"),
     ("fock.wick_product.self_s", "s", "lower"),
     ("fock.wick_product.term_pairs", "count", "lower"),
     ("fock.wick_product.terms_out", "count", "lower"),
     ("fock.wick_product.pairs_per_s", "1/s", "higher")]
    + [(f"fock.{fn}.{stat}", unit, "lower")
       for fn in ("contract_channels", "add", "annihilate", "wick_exponential")
       for stat, unit in (("calls", "count"), ("self_s", "s"))]
    + [(f"poisson.{fn}.{stat}", unit, "lower")
       for fn in ("poisson_power", "poisson_bracket")
       for stat, unit in (("calls", "count"), ("self_s", "s"))]
    + [(f"poisson.{fn}.self_s", "s", "lower") for fn in ("moyal_star", "star_series")]
    + [(f"equivalence.{fn}.self_s", "s", "lower")
       for fn in ("star_A", "cAr", "apply_T", "exp_product_formula_rhs")]
    + [("equivalence.apply_T1.calls", "count", "lower"),
       ("equivalence.apply_T1.self_s", "s", "lower"),
       ("gaussian.sample_xi_batch.calls", "count", "lower"),
       ("gaussian.sample_xi_batch.self_s", "s", "lower"),
       ("gaussian.sample_xi_batch.draws", "count", "lower")]
    + [(f"gaussian.{fn}.self_s", "s", "lower")
       for fn in ("basis_matrix", "spectral_green_sum", "holder_moment_check", "sample_loop")]
    + [(f"chaos.{fn}.{stat}", unit, "lower")
       for fn in ("chaos_eval_spectral", "chaos_eval_quadrature")
       for stat, unit in (("calls", "count"), ("self_s", "s"))]
    + [("norms.connes_norm_upper.calls", "count", "lower"),
       ("norms.connes_norm_upper.self_s", "s", "lower"),
       ("rand.random_fock.self_s", "s", "lower"),
       ("report.canonical_json.self_s", "s", "lower"),
       ("report.text_summary.self_s", "s", "lower"),
       ("report.bytes", "bytes", "lower")]
    + [(f"suites.run_{suite}.s", "s", "lower") for suite in SUITES]
    + [("config.load_config.s", "s", "lower")]
    + [(f"{module}.self_share", "ratio", "lower")
       for module in ("fock", "poisson", "equivalence", "gaussian", "chaos", "norms",
                      "rand", "modes", "report", "suites")]
    + [("trace.overhead_ratio", "ratio", "lower"),
       ("checks.sum_over_verdict", "ratio", "higher"),
       ("checks.fail_ratio", "ratio", "lower")]
)

SETUP_CHILD = """\
import sys, time
t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import loopstar
t1 = time.perf_counter()
loopstar.load_config(sys.argv[2])
t2 = time.perf_counter()
print(t2 - t0, t2 - t1, loopstar.__file__)
"""


class BenchError(RuntimeError):
    """The checkout cannot be benchmarked (missing sources or configs)."""


def import_loopstar():
    """Import loopstar from this checkout's src/, refusing any other copy."""
    if not (SRC / "loopstar" / "__init__.py").is_file():
        raise BenchError(f"no loopstar sources under {SRC}; run from a loopstar checkout")
    sys.path.insert(0, str(SRC))
    loopstar = importlib.import_module("loopstar")
    if Path(loopstar.__file__).resolve().parent != (SRC / "loopstar").resolve():
        raise BenchError(f"imported loopstar from {loopstar.__file__}, not from {SRC}")
    return loopstar


def workload_config(name: str, seed: int):
    """The shipped config of `name`, restricted to its suites, with `mc.seed = seed`."""
    from loopstar.config import load_config
    spec = WORKLOADS[name]
    path = ROOT / spec["config"]
    if not path.is_file():
        raise BenchError(f"workload {name} needs {path}")
    cfg = load_config(path)
    return dataclasses.replace(cfg, suites=tuple(spec["checks"]),
                               mc=dataclasses.replace(cfg.mc, seed=seed))


def verdict(cfg):
    """One `verify` iteration: suites, canonical body, text summary; timed."""
    suites = sys.modules["loopstar.suites"]
    report = sys.modules["loopstar.report"]
    t0 = time.perf_counter()
    result = suites.run_suites(cfg)
    body = report.canonical_json(report.report_to_dict(result)) + "\n"
    report.text_summary(result)
    seconds = time.perf_counter() - t0
    return seconds, result, body


class OutputCheck:
    """Checks every iteration's check ids and its body against the first at its seed.

    The body is compared without its `versions` field, which is derived from
    the environment rather than from the computation.  A record has `failed`
    when it differs from the first record at its seed, is missing, comes
    from an iteration that raised, or is an `exact` check that says FAIL:
    the program did not reproduce its output or computed a wrong answer.
    A FAIL of any other check is a gate that correct code can miss at some
    seeds; it counts in `check_fail_ratio` together with the failed records,
    and like every FAIL its id is listed per seed.
    """

    def __init__(self, expected: list[str], exact: list[str] = ()):
        self.expected = sorted(expected)
        self.exact = set(exact)
        self.first: dict[int, list[dict]] = {}      # mc.seed -> record dicts
        self.digests: dict[int, str] = {}           # mc.seed -> body SHA-256
        self.failing: dict[int, list[str]] = {}     # mc.seed -> ids that said FAIL
        self.attempted = 0
        self.failed = 0
        self.failed_or_fail = 0
        self.problems: list[str] = []

    def add(self, mc_seed: int, result) -> None:
        from loopstar.report import canonical_json, report_to_dict
        doc = report_to_dict(result)
        doc.pop("versions")
        digest = hashlib.sha256(canonical_json(doc).encode("utf-8")).hexdigest()
        ids = [f"{r.suite}/{r.check_id}" for r in result.records]
        missing = len(set(self.expected) - set(ids))
        if sorted(ids) != self.expected:
            self.problems.append(f"mc.seed {mc_seed}: check ids differ from the workload's")
        records = doc["records"]
        first = self.first.setdefault(mc_seed, records)
        deviating = set()
        if self.digests.setdefault(mc_seed, digest) != digest:
            self.problems.append(f"mc.seed {mc_seed}: body differs from the first at this seed")
            deviating = {i for i, rec in enumerate(records) if i >= len(first) or rec != first[i]}
        fails = {i for i, r in enumerate(result.records) if not r.passed}
        if fails:
            self.failing[mc_seed] = sorted(ids[i] for i in fails)
        wrong = {i for i in fails if ids[i] in self.exact}
        if wrong:
            self.problems.append(f"mc.seed {mc_seed}: exact check FAIL: "
                                 + ", ".join(sorted(ids[i] for i in wrong)))
        self.attempted += len(ids) + missing
        self.failed += len(deviating | wrong) + missing
        self.failed_or_fail += len(deviating | fails) + missing

    def crash(self, mc_seed: int) -> None:
        self.problems.append(f"mc.seed {mc_seed}: iteration raised")
        self.attempted += len(self.expected)
        self.failed += len(self.expected)
        self.failed_or_fail += len(self.expected)

    @property
    def correct(self) -> bool:
        return bool(self.digests) and not self.problems


def workload_check(name: str) -> OutputCheck:
    """An `OutputCheck` expecting the check ids of workload `name`."""
    spec = WORKLOADS[name]
    ids = [f"{suite}/{c}" for suite, checks in spec["checks"].items() for c in checks]
    return OutputCheck(ids, [i for i in ids if i.partition("/")[2] in spec["exact"]])


def measure_setup(config_path: Path) -> tuple[float, float, float]:
    """Wall seconds to import loopstar and load the config in a fresh interpreter.

    Returns the total, its load_config part, and the numpy import that
    calibrates it (calibrate.py), timed in the next fresh interpreter.
    """
    from calibrate import import_reference_seconds
    proc = subprocess.run([sys.executable, "-c", SETUP_CHILD, str(SRC), str(config_path)],
                          capture_output=True, text=True, timeout=60, check=True)
    total, load, origin = proc.stdout.split()
    if Path(origin).resolve().parent != (SRC / "loopstar").resolve():
        raise BenchError(f"set-up child imported loopstar from {origin}")
    return float(total), float(load), import_reference_seconds()


def tail(samples: list[float]) -> dict:
    """Highest percentile with at least ten samples beyond it (the maximum below 11)."""
    ordered = sorted(samples)
    n = len(ordered)
    rank = n - 10 if n > 10 else n
    return {"value": ordered[rank - 1], "percentile": 100.0 * rank / n, "n": n,
            "beyond": n - rank}


def environment() -> dict:
    import numpy
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    commit = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "--git-dir", str(ROOT / ".git"), "rev-parse", "HEAD"],
                                  capture_output=True, text=True, timeout=30)
            commit = proc.stdout.strip() or None
        except (OSError, subprocess.SubprocessError):
            pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "numpy": numpy.__version__, "commit": commit}


def layer_metrics(traced: list, clocked: list, setup_load_s: list[float],
                  report_bytes: int) -> dict[str, float]:
    """Per-layer values: counts from one traced iteration, times as medians.

    `traced` and `clocked` are the iterations with full tracing and with the
    per-check clock only.  Function times are wall seconds inside the traced
    iterations; ratios compare reference seconds.
    """
    med = statistics.median
    tracers = [it["tracer"] for it in traced]
    first = tracers[0]
    shares = []
    for t in tracers:
        by_module = t.module_self()
        total = sum(by_module.values())
        shares.append({module: s / total for module, s in by_module.items()})

    def stat(tracers, name, index):
        return [t.stats.get(name, (0, 0.0, 0.0))[index] for t in tracers]

    values: dict[str, float] = {}
    for metric, _, _ in PER_LAYER:
        head, _, kind = metric.rpartition(".")
        if kind == "calls":
            values[metric] = first.stats.get(head, (0,))[0]
        elif kind == "self_s":
            values[metric] = med(stat(tracers, head, 2))
        elif kind in ("term_pairs", "terms_out", "draws"):
            values[metric] = first.counts.get(metric, 0)
        elif kind == "self_share":
            values[metric] = med([share.get(head, 0.0) for share in shares])
    pairs = first.counts.get("fock.wick_product.term_pairs", 0)
    values["fock.wick_product.pairs_per_s"] = med(
        [pairs / s if s > 0 else 0.0 for s in stat(tracers, "fock.wick_product", 2)])
    values["report.bytes"] = report_bytes
    clocks = [it["tracer"] for it in clocked]
    for suite in SUITES:
        values[f"suites.run_{suite}.s"] = med(stat(clocks, f"suites.run_{suite}", 1))
    values["config.load_config.s"] = med(setup_load_s)
    values["trace.overhead_ratio"] = (med([it["s"] for it in traced])
                                      / med([it["s"] for it in clocked]))
    values["checks.sum_over_verdict"] = med(
        [sum(row["s"] for row in it["tracer"].checks) / it["wall_s"] for it in clocked])
    return values


def exact_counts(tracer) -> dict[str, int]:
    counts = {f"{name}.calls": st[0] for name, st in tracer.stats.items()}
    counts.update(tracer.counts)
    return counts


def check_rows(clocked: list) -> list[dict]:
    """Per-check rows of the clocked iterations, each time the median over them."""
    rows = [dict(row) for row in clocked[0]["tracer"].checks]
    for i, row in enumerate(rows):
        row["s"] = statistics.median(it["tracer"].checks[i]["s"] for it in clocked)
    return rows


def mc_seed(seed: int, j: int) -> int:
    """`mc.seed` of iteration j of an untraced run; j = 0 is the run's own seed."""
    return (seed + (j % SEEDS_PER_RUN) * 2 ** 32) % 2 ** 64


def seed_medians(plain: list, key: str = "s") -> dict[int, float]:
    """Median time per `mc.seed` over the untraced iterations at that seed."""
    by_seed: dict[int, list[float]] = {}
    for it in plain:
        by_seed.setdefault(it["mc_seed"], []).append(it[key])
    return {k: statistics.median(v) for k, v in by_seed.items()}


def run(workload: str, seed: int, seconds: float, trace: bool) -> dict:
    """Measure one workload for `seconds`; returns the full result record.

    Without `trace` every timed iteration runs the unmodified package, at
    the seeds of `mc_seed` in turn; the run ends at the deadline, but not
    before one pass over the seeds.  With `trace`, iterations at `mc.seed =
    seed` alternate between the per-check clock (suite-level hooks only;
    these give the verdict samples) and full tracing.
    """
    from calibrate import IMPORT_NOMINAL_S, SpeedProbe
    from layers import MODULES, Tracer, tracing

    spec = WORKLOADS[workload]
    base = workload_config(workload, seed)
    check = workload_check(workload)
    setup: list[tuple[float, float, float]] = []

    def one(j: int, wrapped):
        """One checked iteration at seed j; `wrapped` is None or the traced modules."""
        cfg = dataclasses.replace(base, mc=dataclasses.replace(base.mc, seed=mc_seed(seed, j)))
        tracer = Tracer()
        try:
            with SpeedProbe() as probe:
                if wrapped is None:
                    wall, result, body = verdict(cfg)
                else:
                    with tracing(tracer, wrapped):
                        wall, result, body = verdict(cfg)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            check.crash(cfg.mc.seed)
            return None
        check.add(cfg.mc.seed, result)
        return {"s": probe.adjust(wall), "wall_s": wall, "tracer": tracer,
                "bytes": len(body.encode("utf-8")), "mc_seed": cfg.mc.seed}

    warm = one(0, None)          # fills caches; checked, not timed
    plain, clocked, traced = [], [], []
    # Set-up samples are spread over the window so that they see the same
    # machine conditions as the iterations.
    start = time.perf_counter()
    deadline = start + seconds
    while warm is not None and (time.perf_counter() < deadline
                                or not trace and len(plain) < SEEDS_PER_RUN):
        while len(setup) < SETUP_SAMPLES * min(1.0, (time.perf_counter() - start) / seconds):
            setup.append(measure_setup(ROOT / spec["config"]))
        if not trace:
            out = one(len(plain), None)
            runs = plain
        elif len(traced) < len(clocked):
            out, runs = one(0, MODULES), traced
        else:
            out, runs = one(0, ("suites",)), clocked
        if out is None:
            break
        runs.append(out)
    while len(setup) < SETUP_SAMPLES:
        setup.append(measure_setup(ROOT / spec["config"]))

    samples = [it["s"] for it in (clocked if trace else plain)]
    if trace:
        if not traced:
            check.problems.append("no traced iteration completed")
        elif any(exact_counts(it["tracer"]) != exact_counts(traced[0]["tracer"])
                 for it in traced[1:]):
            check.problems.append("exact counts differ between traced iterations")

    record = {
        "workload": workload, "seed": seed, "seconds": seconds, "trace": trace,
        "config": spec["config"], "suites": list(spec["checks"]),
        "environment": environment(),
        "correct": check.correct, "attempted": check.attempted, "failed": check.failed,
        "check_fail_ratio": check.failed_or_fail / check.attempted if check.attempted else None,
        "problems": check.problems,
        "failing_checks": {str(k): v for k, v in check.failing.items()},
        "body_sha256": {str(k): v for k, v in check.digests.items()},
        "first_verdict_wall_s": warm["wall_s"] if warm else None,
        "verdict_samples_s": samples,
        "verdict_seed_medians_s": {str(k): v for k, v in seed_medians(plain).items()},
        "verdict_samples_wall_s": [it["wall_s"] for it in (clocked if trace else plain)],
        "setup_samples_wall_s": [total for total, _, _ in setup],
        "setup_import_reference_s": [ref for _, _, ref in setup],
        "setup_wall_s": statistics.median(total for total, _, _ in setup),
        # Each sample with the numpy import timed next to it replaced by its
        # nominal time (calibrate.py).
        "setup_s": IMPORT_NOMINAL_S + statistics.median(total - ref for total, _, ref in setup),
        "peak_rss_mb": peak_rss_mb(),
    }
    if samples and (trace or len(plain) >= SEEDS_PER_RUN):
        # Untraced: the mean over the fixed seeds of each seed's median, so
        # that heavy seeds weigh in as they do in the pass's total time.
        if trace:
            record["verdict_s"] = statistics.median(samples)
            record["verdict_wall_s"] = statistics.median(record["verdict_samples_wall_s"])
        else:
            record["verdict_s"] = statistics.fmean(seed_medians(plain).values())
            record["verdict_wall_s"] = statistics.fmean(seed_medians(plain, "wall_s").values())
        record["verdict_s_tail"] = tail(samples)
    if trace and traced:
        first = traced[0]["tracer"]
        record["traced_samples_s"] = [it["s"] for it in traced]
        record["layers"] = layer_metrics(traced, clocked, [load for _, load, _ in setup],
                                         warm["bytes"])
        record["layers"]["checks.fail_ratio"] = record["check_fail_ratio"]
        record["functions"] = {name: {"calls": c, "total_s": tot, "self_s": own}
                               for name, (c, tot, own) in sorted(first.stats.items())}
        record["counts"] = dict(sorted(first.counts.items()))
        record["checks"] = check_rows(clocked)
    return record


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / 1e6


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not 0 <= args.seed < 2 ** 64:
        parser.error("--seed must be an unsigned 64-bit value")
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    try:
        import_loopstar()
        record = run(args.workload, args.seed, args.seconds, bool(args.trace))
    except (BenchError, OSError, subprocess.SubprocessError) as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 2
    if "verdict_s" not in record:
        print("perfbench: no iteration completed: " + "; ".join(record["problems"]),
              file=sys.stderr)
        return 1

    OUT.mkdir(exist_ok=True)
    out_path = OUT / f"{args.workload}-seed{args.seed}-trace{args.trace}.json"
    out_path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    from calibrate import IMPORT_NOMINAL_S
    tail_s = record["verdict_s_tail"]
    failing = "; ".join(f"mc.seed {k}: {', '.join(v)}" for k, v in record["failing_checks"].items())
    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
          f"{tail_s['n']} timed iterations  record {out_path.relative_to(ROOT)}")
    over = "median over iterations" if args.trace else f"mean of {SEEDS_PER_RUN} seed medians"
    print(f"  verdict_s         {record['verdict_s']:.4f} s  {over}, reference seconds "
          f"({record['verdict_wall_s']:.4f} wall s)")
    print(f"  verdict_s_tail    {tail_s['value']:.4f} s  p{tail_s['percentile']:.0f} of "
          f"{tail_s['n']} samples, {tail_s['beyond']} beyond")
    print(f"  setup_s           {record['setup_s']:.4f} s  median of {SETUP_SAMPLES} fresh "
          f"interpreters, numpy import at {IMPORT_NOMINAL_S} s "
          f"({record['setup_wall_s']:.4f} wall s)")
    print(f"  peak_rss_mb       {record['peak_rss_mb']:.1f} MB")
    print(f"  check_fail_ratio  {record['check_fail_ratio']:.4f}  of {record['attempted']} records "
          f"({record['failed']} not reproduced or wrong; FAIL at {failing or 'no seed'})")
    if record["problems"]:
        print(f"  problems          {'; '.join(record['problems'])}")

    if args.trace:
        metrics = {name: {"value": record["layers"][name], "unit": unit}
                   for name, unit, _ in PER_LAYER}
    else:
        metrics = {name: {"value": record[name], "unit": unit} for name, unit in END_TO_END}
    print(json.dumps({"correct": record["correct"], "attempted": record["attempted"],
                      "failed": record["failed"], "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
