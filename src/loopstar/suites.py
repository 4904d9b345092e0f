"""Verification suites: every checked property, one record per check.

Each check lives in a standalone seed-explicit function returning plain
numbers, so the acceptance tests can rerun any of them at their own
instance counts; each suite's `CHECKS` table fixes the counts and
`run_checks` makes the records.

Seeded checks walk their instances through one loop, `_instances`, which
returns `instance(rng, i)` for i < n on the check's (seed, label) stream.
An exact check sums what its instances return, the identities each breaks
(`_count_failures`); a float check folds its values with `_worst`
(`_worst_residual`), which is inf once any value is NaN or infinite, so a
broken evaluation FAILs instead of vanishing.  No check opens a stream of
its own.  Operand pairs and triples at the default term count are drawn
by `_operands`, and the four continuity searches share one body,
`_continuity_search`, over a draw and a product.  Paired identities always
go through two structurally different routes (engine vs direct expansion,
spectral vs quadrature, closed form vs eigen-sum), never through the same
code twice.
"""

from __future__ import annotations

import functools
import math
import time
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations_with_replacement
from typing import Any, Callable, Iterable, Optional, Sequence, Union

import numpy as np

from .chaos import (chaos_eval_spectral, fd_matches_annihilation, injectivity_probe,
                    normal_convergence_check, quadrature_map)
from .config import RunConfig, config_echo
from .equivalence import (DiagonalOperatorA, apply_EA, apply_T, apply_T1, cA1, cAr,
                          exp_product_formula_rhs, star_A)
from .fock import (Channel, FockVector, HbarSeries, _star_orders, annihilate,
                   annihilate_general, wick_exponential, wick_product)
from .gaussian import (GREEN_ALPHA, GREEN_BETA, basis_matrix, batch_shape, green_diagonal,
                       green_exponential_form, green_kernel, holder_moment_check, loop_eval,
                       sample_loop, sample_xi_batch, spectral_green_sum, uniform_grid)
from .modes import LAMBDA, ModeIndex, MultiIndex, mode_range
from .norms import connes_norm_upper
from .poisson import SymplecticForm, moyal_star, poisson_bracket, poisson_power, star_series
from .rand import instance_rng, random_fock, random_fraction, random_gamma, random_mode, random_xi
from .report import CheckRecord, Precision, VerificationReport, package_versions
from .serialization import deserialize_fock, serialize_fock


@dataclass(frozen=True)
class Exact:
    """An exact count: the result's `failures`, passing at 0 and written as it is."""

    field, tolerance, precision = "failures", 0.0, None


@dataclass(frozen=True)
class Rounding:
    """The `residual` of an identity that holds to rounding, at most `tolerance`."""

    tolerance: float
    field, precision = "residual", Precision.RESIDUAL


@dataclass(frozen=True)
class Statistic:
    """A Monte-Carlo, fitted or searched `field` at most `tolerance`, or `tolerance(cfg)`."""

    field: str
    tolerance: Union[float, Callable[[RunConfig], float]]
    precision = Precision.STATISTIC


@dataclass(frozen=True)
class Check:
    """One entry of a suite's check table.

    `run(cfg, seed)` returns a dict with the instance count `n` and the
    field its `gate` reads; `claim` is a `str.format` template over it, and
    `observed` names its headline field if that is not the gate's.  An entry
    whose `run` is the previous entry's reuses that result.  A `batch` entry
    runs as `run(xi)` on the Monte-Carlo batch that `run_checks` draws once
    per call, sample_xi_batch(seed, cfg.mc.n_samples, cfg.mc.K_mc, cfg.d).
    """

    id: str
    claim: str
    run: Callable[..., dict]
    gate: Union[Exact, Rounding, Statistic] = Exact()
    observed: Optional[str] = None
    batch: bool = False


CHECKS: dict[str, tuple[Check, ...]] = {}      # suite -> its entries, in report order


def resolve_form(cfg: RunConfig) -> SymplecticForm:
    return SymplecticForm(cfg.d, cfg.K, cfg.weight_c)


def resolve_alpha(cfg: RunConfig) -> DiagonalOperatorA:
    if isinstance(cfg.alpha_spec, str):
        return DiagonalOperatorA.family(cfg.alpha_spec, cfg.d, cfg.K)
    return DiagonalOperatorA.from_table(cfg.alpha_spec, cfg.d, cfg.K)


# Multiple of eps * max(1, |value|) within which a quadrature grid that
# resolves its integrand must reproduce the spectral evaluation.
QUADRATURE_EPS_BOUND = 1e3


def _rel(a: float, b: float) -> float:
    """Relative difference with an absolute floor at scale 1."""
    return abs(a - b) / max(1.0, abs(a), abs(b))


def _fit_loglog_slope(xs, ys) -> float:
    xs = np.log(np.asarray(xs, dtype=float))
    ys = np.log(np.maximum(np.asarray(ys, dtype=float), 1e-16))
    return float(np.polyfit(xs, ys, 1)[0])


def _instances(seed: int, label: str, n: int,
               instance: Callable[[np.random.Generator, int], Any]) -> list:
    """The one instance loop of the seeded checks: `instance(rng, i)` for i < n.

    Opens the (seed, label) stream once; each instance draws its operands
    from it, so instance i sees the draws left by instances 0..i-1.
    """
    rng = instance_rng(seed, label)
    return [instance(rng, i) for i in range(n)]


def _worst(values: Iterable[float]) -> float:
    """The one fold for a worst value: the largest of 0.0 and `values`.

    Any NaN or infinite value makes it inf, so the check FAILs: a plain
    `max(0.0, nan)` is 0.0, and would pass a broken evaluation.
    """
    values = [float(v) for v in values]
    return max([0.0, *values]) if all(map(math.isfinite, values)) else math.inf


def _z(diff: float, se: float) -> float:
    """The one z-score of the Monte-Carlo checks: |diff| / se, inf if se is not positive.

    A zero-variance batch then FAILs its check instead of dividing by zero.
    """
    return abs(diff) / se if se > 0 else math.inf


def _count_failures(seed: int, label: str, n: int,
                    instance: Callable[[np.random.Generator, int], int]) -> dict:
    """An exact check: the identities its n instances break, summed."""
    return {"failures": sum(_instances(seed, label, n, instance)), "n": n}


def _worst_residual(seed: int, label: str, n: int,
                    instance: Callable[[np.random.Generator, int], float]) -> dict:
    """A float check: the worst value its n instances return."""
    return {"residual": _worst(_instances(seed, label, n, instance)), "n": n}


def _operands(rng: np.random.Generator, d: int, K: int, degree: int, dual: float = 0.0,
              count: int = 2) -> tuple[FockVector, ...]:
    """The one operand draw: `count` vectors of `random_fock`'s default term count, in order."""
    return tuple(random_fock(rng, d, K, degree, dual_fraction=dual) for _ in range(count))


# C0 values of the continuity-constant grid; the norm search walks the first three.
_SCALES = (1.0, 2.0, 4.0, 8.0)
# The gate of every grid search: the residual of `_continuity_search` at most 1.
_SEARCH = Statistic("residual", 1.0)


def _continuity_search(seed: int, label: str, n: int,
                       draw: Callable[[np.random.Generator], tuple],
                       product: Callable[..., FockVector], scales) -> dict:
    """First grid point (k0, C0), k0 = 1..5 and C0 in `scales`, with ratio <= 1.

    Each of the n instances draws its operands with `draw(rng)`.  The ratio
    at a point is the largest U(product(*ops), 1, 1.0) / prod U(x, k0, C0)
    over x in ops, U = `connes_norm_upper`; the numerator does not depend on
    the point, so it is formed once per instance, after every draw: forming
    each product between two draws ran about 10% slower on a 2-vCPU Xeon.
    `residual`, which the gate reads, is `max_ratio` at the point found;
    with none found it is 2.0 and `max_ratio` is the least ratio on the grid.
    """
    drawn = _instances(seed, label, n, lambda rng, i: draw(rng))
    numerators = [connes_norm_upper(product(*ops), 1, 1.0) for ops in drawn]
    least = math.inf
    for k0 in range(1, 6):
        for C0 in scales:
            r = _worst(num / math.prod(connes_norm_upper(x, k0, C0) for x in ops)
                       for ops, num in zip(drawn, numerators))
            if r <= 1.0:
                return {"found": True, "k0": k0, "C0": C0, "max_ratio": r, "residual": r, "n": n}
            least = min(least, r)
    return {"found": False, "k0": -1, "C0": 0.0, "max_ratio": least, "residual": 2.0, "n": n}


# ---------------------------------------------------------------- algebra


def wick_axiom_failures(seed: int, n_triples: int, d: int, K: int) -> dict:
    """Commutativity and associativity of the product, exact."""
    def instance(rng, i):
        F, G, H = _operands(rng, d, K, 5, 0.3, count=3)
        return (wick_product(F, G) != wick_product(G, F)) \
            + (wick_product(wick_product(F, G), H) != wick_product(F, wick_product(G, H)))
    return _count_failures(seed, "wick-axioms", n_triples, instance)


def degree_grading_failures(seed: int, n_pairs: int, d: int, K: int) -> dict:
    """Product terms against a brute-force union oracle with degree tags."""
    def instance(rng, i):
        F, G = _operands(rng, d, K, 5, 0.3)
        brute: dict[MultiIndex, Fraction] = {}
        broken = 0
        for mu, a in F.terms.items():
            for nu, b in G.terms.items():
                key = MultiIndex(tuple(mu) + tuple(nu))   # validating constructor, not the merge path
                broken += key.degree != mu.degree + nu.degree
                brute[key] = brute.get(key, Fraction(0)) + a * b
        return broken + (FockVector(brute) != wick_product(F, G))
    return _count_failures(seed, "wick-grading", n_pairs, instance)


def derivation_failures(seed: int, n_instances: int, d: int, K: int) -> dict:
    """Contraction is a derivation of the product; contractions commute."""
    def instance(rng, i):
        F, G = _operands(rng, d, K, 5, 0.3)
        h = random_gamma(rng, d, K, 2, dual=False)
        lhs = annihilate_general(h, wick_product(F, G))
        rhs = wick_product(annihilate_general(h, F), G) + wick_product(F, annihilate_general(h, G))
        m1 = random_mode(rng, d, K, 0.3)
        m2 = random_mode(rng, d, K, 0.3)
        return (lhs != rhs) + (annihilate(m1, annihilate(m2, F)) != annihilate(m2, annihilate(m1, F)))
    return _count_failures(seed, "derivation", n_instances, instance)


def series_ring_failures(seed: int, n_instances: int, d: int, K: int, R: int) -> dict:
    """Associativity and distributivity of the series product mod the truncation."""
    def instance(rng, i):
        S, T, U = (HbarSeries([random_fock(rng, d, K, 2, n_terms=2, dual_fraction=0.3)
                               for _ in range(R + 1)]) for _ in range(3))
        return (S.wick_mul(T).wick_mul(U) != S.wick_mul(T.wick_mul(U))) \
            + ((S + T).wick_mul(U) != S.wick_mul(U) + T.wick_mul(U))
    return _count_failures(seed, "series-ring", n_instances, instance)


def norm_monotone_failures(seed: int, n_instances: int, d: int, K: int) -> dict:
    """Vacuum normalization and monotonicity of the norm bound in C and k."""
    def instance(rng, i):
        F = random_fock(rng, d, K, 4, dual_fraction=0.3)
        c1, c2 = sorted(float(x) for x in rng.uniform(0.1, 4.0, size=2))
        k1, k2 = sorted(int(x) for x in rng.integers(0, 5, size=2))
        return (connes_norm_upper(F, 2, c1) > connes_norm_upper(F, 2, c2) + 1e-12) \
            + (connes_norm_upper(F, k1, 1.0) > connes_norm_upper(F, k2, 1.0) + 1e-12)
    r = _count_failures(seed, "norm-monotone", n_instances, instance)
    r["failures"] += connes_norm_upper(FockVector.unit(), 3, 0.5) != 1.0
    return r


def norm_submult_search(seed: int, n_pairs: int, d: int, K: int) -> dict:
    """Smallest grid (k0, C0) making the product bound submultiplicative."""
    return _continuity_search(seed, "norm-submult", n_pairs,
                              lambda rng: _operands(rng, d, K, 4, 0.3), wick_product, _SCALES[:3])


def serialization_roundtrip_failures(seed: int, n_instances: int, d: int, K: int) -> dict:
    """Round trips and byte-identical canonicalization under term reordering."""
    def instance(rng, i):
        F = random_fock(rng, d, K, 4, n_terms=5, dual_fraction=0.3)
        data = serialize_fock(F)
        items = list(F.terms.items())
        rng.shuffle(items)
        return (deserialize_fock(data) != F) + (serialize_fock(FockVector(dict(items))) != data)
    r = _count_failures(seed, "serialize", n_instances, instance)
    r["failures"] += not deserialize_fock(b"").is_zero()
    return r


def exp_taylor_residual(seed: int, n_instances: int, d: int, K: int, N: int) -> dict:
    """Chaos of the capped exponential against the scalar Taylor partial sum."""
    def instance(rng, i):
        gamma = random_gamma(rng, d, K, 2, dual=False)
        phi = wick_exponential(gamma, N)
        xi = random_xi(rng, d, K)
        x = sum(float(c) * xi[m] for m, c in gamma.items())
        partial = sum(x ** n / math.factorial(n) for n in range(N + 1))
        return _rel(chaos_eval_spectral(phi, xi), partial)
    return _worst_residual(seed, "exp-taylor", n_instances, instance)


CHECKS["algebra"] = (
    Check("wick.axioms", "product commutativity and associativity, exact over random triples",
          lambda cfg, seed: wick_axiom_failures(seed, 60, cfg.d, cfg.K)),
    Check("wick.grading", "product terms match a brute-force union oracle with additive degrees",
          lambda cfg, seed: degree_grading_failures(seed, 40, cfg.d, cfg.K)),
    Check("annihilate.derivation", "contraction is a derivation and contractions commute, exact",
          lambda cfg, seed: derivation_failures(seed, 60, cfg.d, cfg.K)),
    Check("series.ring", "series product associativity and distributivity mod truncation, exact",
          lambda cfg, seed: series_ring_failures(seed, 12, cfg.d, cfg.K, min(cfg.R, 3))),
    Check("norm.monotone", "norm bound is 1 on the unit and monotone in C and k",
          lambda cfg, seed: norm_monotone_failures(seed, 40, cfg.d, cfg.K)),
    Check("norm.submultiplicative", "norm bound of a product is below the factor bounds at "
          "grid-searched constants (k0={k0}, C0={C0:g})",
          lambda cfg, seed: norm_submult_search(seed, 50, cfg.d, cfg.K), _SEARCH, "max_ratio"),
    Check("serialize.roundtrip", "serialization round-trips and is canonical under reordering",
          lambda cfg, seed: serialization_roundtrip_failures(seed, 40, cfg.d, cfg.K)),
    Check("exp.taylor", "chaos of the capped exponential equals the scalar Taylor partial sum",
          lambda cfg, seed: exp_taylor_residual(seed, 30, cfg.d, cfg.K, cfg.N), Rounding(1e-12)),
)


# ------------------------------------------------------------------ chaos


def chaos_spectral_residual(seed: int, n_instances: int, d: int, K: int) -> dict:
    """Evaluation is multiplicative: chaos(:F.G:) vs product of evaluations."""
    def instance(rng, i):
        F, G = _operands(rng, d, K, 4)
        xi = random_xi(rng, d, K)
        lhs = chaos_eval_spectral(wick_product(F, G), xi)
        return _rel(lhs, chaos_eval_spectral(F, xi) * chaos_eval_spectral(G, xi))
    return _worst_residual(seed, "chaos-spectral", n_instances, instance)


def chaos_quadrature_residual(seed: int, n_instances: int, d: int, K: int,
                              K_mc: int, n_grid: int) -> dict:
    """Quadrature evaluator against the spectral one on three sampled fields.

    Each field pairs its modes once and serves max(1, n_instances // 3)
    instances, and `n` counts the instances run.
    """
    samples = [sample_loop(seed + j, K_mc, n_grid, d) for j in range(3)]
    maps = [(quadrature_map(sample, K), sample.xi_map(K)) for sample in samples]
    per = max(1, n_instances // 3)

    def instance(rng, i):
        F = random_fock(rng, d, K, 4)
        quad, xi = maps[i // per]
        return _rel(chaos_eval_spectral(F, quad), chaos_eval_spectral(F, xi))
    return _worst_residual(seed, "chaos-quadrature", 3 * per, instance)


def pairing_recovery_residual(seed: int, d: int, K: int, K_mc: int, n_grid: int) -> dict:
    """Quadrature pairing of each basis mode recovers its stored coefficient."""
    samples = [sample_loop(seed + 17 + i, K_mc, n_grid, d) for i in range(3)]
    maps = [(quadrature_map(sample, K), sample.xi_map(K)) for sample in samples]
    gaps = [abs(quad[mode] - xi[mode]) for quad, xi in maps for mode in quad]
    return {"residual": _worst(gaps), "n": len(gaps)}


def quadrature_convergence(seed: int, d: int, K: int) -> dict:
    """Trapezoid quadrature is exact once the grid resolves the integrand.

    Five instances run on the grids 256, 512, 1024 and 2048, all read from
    one field drawn on the finest of them through `LoopSample.coarse`, and
    each grid's quadrature map is built once.  Each slot integrates the
    field (frequencies up to K_mc = 600) against a mode profile
    (frequencies up to K), so the integrand carries frequencies up to
    K_mc + K, and the n-point trapezoid rule integrates it exactly iff
    n > K_mc + K (Trefethen & Weideman, SIAM Review 2014).  The field
    deliberately carries content above the coarse grids' resolution.  On a
    resolving grid every instance must match the spectral evaluation within
    QUADRATURE_EPS_BOUND * eps * max(1, |value|); on any other grid some
    instance must show aliasing error above that.  Going from a non-resolving
    grid c to a resolving grid f must also drop the worst error at least by
    (c/f)^2, so the claim is never weaker than second-order convergence.
    `failures` counts the grids that break their side of the claim plus
    the (c, f) pairs that break the drop; `errors` is each grid's worst
    error in units of eps * max(1, |value|), and `within` counts the grids
    whose error is at most the bound.
    """
    K_mc, grids, n_instances = 600, (256, 512, 1024, 2048), 5
    sample = sample_loop(seed + 23, K_mc, max(grids), d)
    xi = sample.xi_map(K)
    maps = [quadrature_map(sample.coarse(n), K) for n in grids]
    eps = float(np.finfo(float).eps)

    def instance(rng, i):
        F = random_fock(rng, d, K, 3)
        value = chaos_eval_spectral(F, xi)
        return [abs(chaos_eval_spectral(F, quad) - value)
                / (eps * max(1.0, abs(value))) for quad in maps]
    rows = _instances(seed, "chaos-convergence-instances", n_instances, instance)
    errors = [_worst(row[g] for row in rows) for g in range(len(grids))]
    resolved = [n > K_mc + K for n in grids]
    failures = sum((e <= QUADRATURE_EPS_BOUND) != res for e, res in zip(errors, resolved))
    failures += sum(ef > ec * (c / f) ** 2
                    for c, ec, rc in zip(grids, errors, resolved) if not rc
                    for f, ef, rf in zip(grids, errors, resolved) if rf)
    return {"failures": failures, "errors": errors, "grids": list(grids),
            "grid_list": "/".join(map(str, grids)), "resolved": resolved,
            "within": sum(e <= QUADRATURE_EPS_BOUND for e in errors),
            "bound": QUADRATURE_EPS_BOUND, "n": n_instances}


def gateaux_slope_deviation(seed: int, n_instances: int, d: int, K: int, K_mc: int) -> dict:
    """Central-difference error decays at order 2 toward the contraction chaos."""
    eps_list = (1e-2, 1e-3, 1e-4)
    xi = sample_loop(seed + 31, K_mc, 256, d).xi_map(K)

    def instance(rng, i):
        for _attempt in range(10):
            h_mode = random_mode(rng, d, K)
            F = random_fock(rng, d, K, 4)
            # Force a cubic in the probe direction so the eps^2 term cannot vanish.
            F = F + FockVector({MultiIndex(((h_mode, 3),)): random_fraction(rng)})
            h = {h_mode: 1.0, random_mode(rng, d, K): float(rng.uniform(-1, 1))}
            errs = [fd_matches_annihilation(F, xi, h, eps) for eps in eps_list]
            if errs[0] >= 1e-5:
                break
        return abs(_fit_loglog_slope(eps_list, errs) - 2.0)
    return {"deviation": _worst(_instances(seed, "gateaux", n_instances, instance)),
            "n": n_instances}


def fd_linear_residual(seed: int, d: int, K: int, K_mc: int) -> dict:
    """On degree <= 1 vectors the central difference is exact."""
    xi = sample_loop(seed + 37, K_mc, 256, d).xi_map(K)

    def instance(rng, i):
        mode = random_mode(rng, d, K)
        F = FockVector({MultiIndex(((mode, 1),)): random_fraction(rng), MultiIndex(): Fraction(1)})
        return fd_matches_annihilation(F, xi, {mode: 1.0}, 1e-3)
    return _worst_residual(seed, "gateaux-linear", 20, instance)


def injectivity_stats(seed: int, n_instances: int, d: int, K: int) -> dict:
    """The identity-test probe never calls a random nonzero vector zero."""
    def instance(rng, i):
        return injectivity_probe(random_fock(rng, d, K, 4, n_terms=int(rng.integers(1, 6))),
                                 seed + i)
    r = _count_failures(seed, "injectivity", n_instances, instance)
    r["failures"] += not injectivity_probe(FockVector.zero(), seed)
    return r


def normal_convergence_failures(seed: int, d: int, K_mc: int) -> dict:
    """Per-degree chaos contributions of a sampled field stay under a q = 1/2 envelope."""
    sample = sample_loop(seed + 41, K_mc, 512, d)
    nc = normal_convergence_check(sample)
    return {"failures": 0 if nc["ok"] else 1, "ratio_q": nc["ratio_q"], "n": len(nc["rows"])}


CHECKS["chaos"] = (
    Check("factorization.spectral", "spectral chaos of a product equals the product of chaoses",
          lambda cfg, seed: chaos_spectral_residual(seed, 100, cfg.d, cfg.K), Rounding(1e-12)),
    Check("pairing.recovery", "quadrature pairing of each mode recovers its stored coefficient",
          lambda cfg, seed: pairing_recovery_residual(seed, cfg.d, cfg.K, cfg.mc.K_mc,
                                                      cfg.mc.n_grid), Rounding(1e-8)),
    Check("factorization.quadrature", "quadrature evaluation (one trapezoid pairing per mode, "
          "multiplied out) matches the spectral one",
          lambda cfg, seed: chaos_quadrature_residual(seed, 30, cfg.d, cfg.K, cfg.mc.K_mc,
                                                      cfg.mc.n_grid), Rounding(1e-6)),
    Check("quadrature.order", "trapezoid rule on grids {grid_list} matches the spectral value "
          "within {bound:g} eps where the grid resolves the integrand, shows aliasing error "
          "above that where it does not, and drops the error at least by (n_coarse/n_fine)^2 "
          "from each non-resolving to each resolving grid",
          lambda cfg, seed: quadrature_convergence(seed, cfg.d, cfg.K), observed="within"),
    Check("gateaux.slope", "finite-difference error slope toward the contraction chaos is 2 +- 0.1",
          lambda cfg, seed: gateaux_slope_deviation(seed, 15, cfg.d, cfg.K, cfg.mc.K_mc),
          Statistic("deviation", 0.1)),
    Check("gateaux.linear", "central difference is exact on degree <= 1 vectors",
          lambda cfg, seed: fd_linear_residual(seed, cfg.d, cfg.K, cfg.mc.K_mc), Rounding(1e-9)),
    Check("injectivity.probe", "identity-test probe accepts the zero vector and no random "
          "nonzero one", lambda cfg, seed: injectivity_stats(seed, 40, cfg.d, cfg.K)),
    Check("normal.convergence", "per-degree contributions and tail respect the geometric envelope",
          lambda cfg, seed: normal_convergence_failures(seed, cfg.d, cfg.mc.K_mc),
          observed="ratio_q"),
)


# --------------------------------------------------------------- gaussian


def kernel_constant_residuals(seed: int) -> dict:
    """Closed-form kernel constants and shape identities, at 25 random points."""
    # Independently rearranged forms of the same magnitudes.
    alpha_ref = math.e / (2.0 * (math.e - 1.0))
    beta_ref = math.exp(-1.0) / (2.0 * (1.0 - math.exp(-1.0)))
    diag_ref = 0.5 / math.tanh(0.5)

    def instance(rng, i):
        s, x = (float(v) for v in rng.uniform(0.0, 1.0, size=2))
        return _worst((abs(green_kernel(s, s) - diag_ref),
                       abs(green_exponential_form(x) - green_kernel(x, 0.0))))
    gaps = [abs(GREEN_ALPHA - alpha_ref), abs(GREEN_BETA - beta_ref),
            abs(green_diagonal() - diag_ref), *_instances(seed, "kernel-constants", 25, instance)]
    return {"residual": _worst(gaps), "n": 25}


def kernel_spectral_residual(seed: int) -> dict:
    """Closed form vs the 200-frequency eigenfunction sum at 25 off-diagonal pairs."""
    def instance(rng, i):
        s = float(rng.uniform(0.0, 1.0))
        t = (s + float(rng.uniform(0.05, 0.5))) % 1.0
        return abs(green_kernel(s, t) - spectral_green_sum(s, t, 200))
    return _worst_residual(seed, "kernel-spectral", 25, instance)


def kernel_stationarity_residual(seed: int) -> dict:
    """Kernel depends only on circle distance: translation invariance, 25 triples."""
    def instance(rng, i):
        s, t, u = (float(x) for x in rng.uniform(0.0, 1.0, size=3))
        return _worst((abs(green_kernel(s, t) - green_kernel((s + u) % 1.0, (t + u) % 1.0)),
                       abs(green_kernel(s, t) - green_kernel(t, s))))
    return _worst_residual(seed, "kernel-stationarity", 25, instance)


def sampler_determinism_failures(seed: int, d: int) -> dict:
    """Bit-identical resampling, seed sensitivity, batch prefix consistency (K_mc = 16)."""
    a = sample_loop(seed, 16, 64, d)
    b = sample_loop(seed, 16, 64, d)
    c = sample_loop(seed + 1, 16, 64, d)
    big = sample_xi_batch(seed, 20, 16, d)
    small = sample_xi_batch(seed, 5, 16, d)
    broken = (not (np.array_equal(a.xi, b.xi) and np.array_equal(a.values, b.values)),
              np.array_equal(a.xi, c.xi),
              not np.array_equal(big[:, :, :5], small),
              not np.array_equal(big[:, :, 0], a.xi))
    return {"failures": sum(broken), "n": len(broken)}


def covariance_z_scores(xi: np.ndarray) -> dict:
    """MC covariance against the truncated spectral truth, in standard errors.

    `xi`, here and in the other Monte-Carlo checks, is a drawn batch
    `sample_xi_batch(seed, n_samples, K_mc, d)`; its shape gives n_samples,
    d and K_mc.
    """
    points = np.array([0.0, 0.11, 0.23, 0.37, 0.52, 0.68, 0.81, 0.94])
    n_samples, d, K_mc = batch_shape(xi)
    P = len(points)
    # Row c * P + a: coordinate c + 1 at point a, one contiguous row of n values.
    rows = (basis_matrix(K_mc, points).T @ xi).reshape(d * P, n_samples)
    pair_a, pair_b = np.triu_indices(P)               # every a <= b, row by row
    truths = spectral_green_sum(points[pair_a], points[pair_b], K_mc)

    def z_scores(a, b, truth):
        prod = rows[a] * rows[b]
        se = prod.std(axis=1, ddof=1) / math.sqrt(n_samples)
        return [_z(diff, s) for diff, s in zip(prod.mean(axis=1) - truth, se)]
    # Each pair (a, b) at every coordinate, then coordinate 1 at a against 2 at b.
    shift = np.arange(d) * P
    same = z_scores((pair_a[:, None] + shift).ravel(), (pair_b[:, None] + shift).ravel(),
                    np.repeat(truths, d))
    cross = z_scores(pair_a, pair_b + P, 0.0) if d >= 2 else []
    return {"worst_same": _worst(same), "worst_cross": _worst(cross),
            "n": len(same) + len(cross)}


def stationarity_z_score(xi: np.ndarray) -> dict:
    """Empirical covariance at translated pairs agrees within joint MC error."""
    base_pairs = [(0.05, 0.25), (0.1, 0.45), (0.3, 0.62)]
    shift = 0.31
    n_samples, _, K_mc = batch_shape(xi)
    points = [p for s, t in base_pairs for p in (s, t, (s + shift) % 1.0, (t + shift) % 1.0)]
    # Coordinate 0 only, the one read, at all 12 points in one product.
    vals = basis_matrix(K_mc, np.array(points)).T @ xi[0]
    zs = []
    for j in range(0, len(points), 4):
        p1 = vals[j] * vals[j + 1]
        p2 = vals[j + 2] * vals[j + 3]
        se = math.sqrt(np.var(p1, ddof=1) / n_samples + np.var(p2, ddof=1) / n_samples)
        zs.append(_z(float(np.mean(p1) - np.mean(p2)), se))
    return {"worst": _worst(zs), "n": len(base_pairs)}


def covariance_psd_min_eig(K_mc: int) -> dict:
    """Smallest eigenvalue of the spectral covariance matrix on the 64-point grid.

    `n` is the number of grid points; the residual is how far the eigenvalue
    falls below 0.
    """
    E = basis_matrix(K_mc, uniform_grid(64))
    cov = E.T @ E
    min_eig = float(np.min(np.linalg.eigvalsh(cov)))
    return {"residual": _worst([-min_eig]), "min_eig": min_eig, "n": len(cov)}


def holder_p1_z(xi: np.ndarray) -> dict:
    """p = 1 increment-moment ratios against the Gaussian closed form."""
    pairs = [(0.1, 0.2), (0.15, 0.4), (0.3, 0.75), (0.02, 0.5), (0.6, 0.72)]
    table = holder_moment_check(xi, pairs)
    worst = _worst(_z(row["ratio"] - row["analytic"], row["stderr"]) for row in table["rows"])
    return {"worst": worst, "n": len(pairs), "max_ratio": table["max_ratio"]}


def holder_bounded_ratio(xi: np.ndarray) -> dict:
    """Ratios stay bounded, below 2d, on a dyadic separation sweep down to small gaps."""
    pairs = [(0.2, 0.2 + 2.0 ** (-j)) for j in range(1, 8)]
    table = holder_moment_check(xi, pairs)
    return {"max_ratio": table["max_ratio"], "n": len(pairs)}


def loop_eval_consistency(seed: int, d: int) -> dict:
    """Grid hits return stored values; off-grid points match the spectral dot.

    The field has K_mc = 32 on a 128-point grid.
    """
    sample = sample_loop(seed + 3, 32, 128, d)

    def instance(rng, i):
        s = float(rng.uniform(0.0, 1.0))
        direct = sample.xi @ basis_matrix(32, np.array([s]))[:, 0]
        return np.max(np.abs(loop_eval(sample, s) - direct))
    gaps = [np.max(np.abs(loop_eval(sample, j / 128) - sample.values[j]))
            for j in (0, 1, 64, 127)] + _instances(seed, "loop-eval", 10, instance)
    return {"residual": _worst(gaps), "n": len(gaps)}


def _covariance(xi: np.ndarray) -> dict:
    # One object for both covariance entries, so `run_checks` reuses the result.
    # It and the `lambda xi:` entries look their check up when called, so that a
    # tracer replacing the module attribute (perfbench/layers.py) sees the call.
    return covariance_z_scores(xi)


CHECKS["gaussian"] = (
    Check("kernel.constants", "exponential coefficients and constant diagonal match rearranged "
          "closed forms", lambda cfg, seed: kernel_constant_residuals(seed), Rounding(1e-14)),
    Check("kernel.spectral", "closed-form kernel matches the 200-frequency eigenfunction sum",
          lambda cfg, seed: kernel_spectral_residual(seed), Statistic("residual", 1e-4)),
    Check("kernel.stationary", "kernel is symmetric and translation invariant on the circle",
          lambda cfg, seed: kernel_stationarity_residual(seed), Rounding(1e-14)),
    Check("sampler.deterministic", "same seed reproduces bits; seeds differ; batch prefixes agree",
          lambda cfg, seed: sampler_determinism_failures(seed, cfg.d)),
    Check("covariance.same_coord", "MC covariance within 3 standard errors of the spectral truth",
          _covariance, Statistic("worst_same", 3.0), batch=True),
    Check("covariance.cross_coord", "cross-coordinate covariance vanishes within 3 standard errors",
          _covariance, Statistic("worst_cross", 3.0), batch=True),
    Check("covariance.stationary", "translated pairs share their covariance within joint MC error",
          lambda xi: stationarity_z_score(xi), Statistic("worst", 3.0), batch=True),
    Check("covariance.psd", "grid covariance matrix has no eigenvalue below -1e-10",
          lambda cfg, seed: covariance_psd_min_eig(cfg.mc.K_mc), Rounding(1e-10), "min_eig"),
    Check("holder.p1", "p=1 increment-moment ratios match the Gaussian closed form within 3 SE",
          lambda xi: holder_p1_z(xi), Statistic("worst", 3.0), "max_ratio", batch=True),
    Check("holder.bounded", "increment-moment ratios stay bounded down dyadic separations",
          lambda xi: holder_bounded_ratio(xi), Statistic("max_ratio", lambda cfg: 2.0 * cfg.d),
          batch=True),
    Check("loop_eval.consistent", "grid hits come from storage and off-grid matches the spectral "
          "dot", lambda cfg, seed: loop_eval_consistency(seed, cfg.d), Rounding(1e-12)),
)


# ---------------------------------------------------------------- poisson


def poisson_axiom_failures(seed: int, n_triples: int, form: SymplecticForm) -> dict:
    """Antisymmetry, Leibniz and Jacobi, exact; counts nontrivial brackets.

    Fewer than n_triples // 5 nontrivial brackets counts as one more failure.
    """
    def instance(rng, i):      # (identities broken, whether {F, G} is nonzero)
        F, G, H = _operands(rng, form.d, form.K, 3, 0.5, count=3)
        fg = poisson_bracket(F, G, form)
        lhs = poisson_bracket(F, wick_product(G, H), form)
        rhs = wick_product(fg, H) + wick_product(G, poisson_bracket(F, H, form))
        jac = poisson_bracket(F, poisson_bracket(G, H, form), form) \
            + poisson_bracket(G, poisson_bracket(H, F, form), form) \
            + poisson_bracket(H, fg, form)
        return (not poisson_bracket(F, F, form).is_zero()) \
            + (not (fg + poisson_bracket(G, F, form)).is_zero()) \
            + (lhs != rhs) + (not jac.is_zero()), not fg.is_zero()
    results = _instances(seed, "poisson-axioms", n_triples, instance)
    nonzero = sum(nontrivial for _, nontrivial in results)
    return {"failures": sum(broken for broken, _ in results) + (nonzero < n_triples // 5),
            "nonzero": nonzero, "n": n_triples}


def bracket_pair_example_failures(form: SymplecticForm) -> dict:
    """Degree-1 pairs: bracket is minus the weight on matched primal/dual pairs."""
    modes = mode_range(form.d, form.K)

    def one(mode):
        return FockVector({MultiIndex.single(mode): Fraction(1)})
    failures = sum((poisson_bracket(one(m), one(m.as_dual), form)
                    != FockVector({MultiIndex(): -(form.weight_c * m.freq * m.freq + 1)}))
                   + (m.freq != 0 and not poisson_bracket(
                       one(m), one(ModeIndex(m.coord, -m.freq, dual=True)), form).is_zero())
                   for m in modes)
    return {"failures": failures, "n": len(modes)}


def _poly_partial_eval(terms: list, mode: ModeIndex, xi: dict) -> float:
    # Independent differentiation route: works on exponent maps directly,
    # never through the contraction machinery.  `terms` holds (mu, float c).
    total = 0.0
    for mu, c in terms:
        m = mu.multiplicity(mode)
        if not m:
            continue
        prod = c * m * xi[mode] ** (m - 1)
        for other, mult in mu:
            if other != mode:
                prod *= xi[other] ** mult
        total += prod
    return total


def chaos_compatibility_residual(seed: int, n_instances: int, d: int, K: int) -> dict:
    """Chaos of the bracket equals the classical bracket of evaluation polynomials.

    The curvature weight is the double 4 pi^2 read as the exact rational it
    is, so the bracket is one exact engine call and only its chaos rounds.
    It is paired against direct differentiation of the evaluation
    polynomials in floats.
    """
    form = SymplecticForm(d, K, Fraction(LAMBDA))
    # The oracle's (weight, mode on F, mode on G) per channel of the form.
    pairings = [(float(w), mode_f, mode_g) for mode_f, mode_g, w in form.channels]

    def instance(rng, i):
        F, G = _operands(rng, d, K, 3, 0.5)
        xi = random_xi(rng, d, K, include_dual=True)
        lhs = chaos_eval_spectral(poisson_bracket(F, G, form), xi)
        f_terms = [(mu, float(c)) for mu, c in F.terms.items()]
        g_terms = [(mu, float(c)) for mu, c in G.terms.items()]
        rhs = 0.0
        for w, mode_f, mode_g in pairings:
            rhs += w * _poly_partial_eval(f_terms, mode_f, xi) \
                * _poly_partial_eval(g_terms, mode_g, xi)
        return _rel(lhs, rhs)
    return _worst_residual(seed, "chaos-compat", n_instances, instance)


def bracket_bound_search(seed: int, n_pairs: int, form: SymplecticForm) -> dict:
    """Grid-searched continuity constants for the bracket under the norm bound."""
    return _continuity_search(seed, "bracket-bound", n_pairs,
                              lambda rng: _operands(rng, form.d, form.K, 3, 0.5),
                              lambda F, G: poisson_bracket(F, G, form), _SCALES)


CHECKS["poisson"] = (
    Check("bracket.axioms", "antisymmetry, Leibniz and Jacobi exact (and most brackets nontrivial)",
          lambda cfg, seed: poisson_axiom_failures(seed, 100, resolve_form(cfg)),
          observed="nonzero"),
    Check("bracket.pairs",
          "matched primal/dual degree-1 pairs bracket to minus the frequency weight",
          lambda cfg, seed: bracket_pair_example_failures(resolve_form(cfg))),
    Check("bracket.chaos_compat", "chaos of the bracket equals the classical bracket of evaluation "
          "polynomials (float weight 4 pi^2)",
          lambda cfg, seed: chaos_compatibility_residual(seed, 30, cfg.d, cfg.K), Rounding(1e-10)),
    Check("bracket.bounded", "bracket norm bound below the factor bounds at grid-searched "
          "constants (k3={k0}, C3={C0:g})",
          lambda cfg, seed: bracket_bound_search(seed, 25, resolve_form(cfg)), _SEARCH,
          "max_ratio"),
)


# ------------------------------------------------------------------ moyal


def power_law_failures(seed: int, n_instances: int, form: SymplecticForm) -> dict:
    """Contraction powers: wick at r=0, antisymmetrized r=1, depth and degrees."""
    def instance(rng, i):
        F, G = _operands(rng, form.d, form.K, 3, 0.5)
        anti = poisson_power(1, F, G, form) - poisson_power(1, G, F, form)
        return (poisson_power(0, F, G, form) != wick_product(F, G)) \
            + (anti != poisson_bracket(F, G, form).scale(2)) \
            + (not poisson_power(min(F.degree(), G.degree()) + 1, F, G, form).is_zero())
    r = _count_failures(seed, "power-laws", n_instances, instance)
    mu = MultiIndex(((ModeIndex(1, 1), 2), (ModeIndex(1, 1, dual=True), 1)))
    nu = MultiIndex(((ModeIndex(1, 1, dual=True), 2), (ModeIndex(1, 1), 1)))
    P = poisson_power(2, FockVector({mu: Fraction(1)}), FockVector({nu: Fraction(1)}), form)
    r["failures"] += any(key.degree != mu.degree + nu.degree - 4 for key in P.terms)
    return r


def star_assoc_failures(seed: int, label: str, n_triples: int, channels: Sequence[Channel],
                        d: int, K: int, R: int) -> dict:
    """Coefficientwise associativity of the truncated star-product of a channel table.

    Each vector is extended to a series, so every product is `star_series`;
    on such series it is the star-product itself (`star.series` pins that
    for the Moyal table).  `label` names the instance stream.
    """
    def instance(rng, i):
        F, G, H = (HbarSeries.from_vector(X, R) for X in _operands(rng, d, K, 3, 0.5, count=3))
        return star_series(star_series(F, G, channels), H, channels) \
            != star_series(F, star_series(G, H, channels), channels)
    return _count_failures(seed, label, n_triples, instance)


def star_series_failures(seed: int, n_instances: int, form: SymplecticForm, R: int) -> dict:
    """Series product reduces to the star on concentrated series; associativity."""
    d, K = form.d, form.K
    channels = form.channels

    def instance(rng, i):
        F, G = _operands(rng, d, K, 3, 0.5)
        FG = star_series(HbarSeries.from_vector(F, R), HbarSeries.from_vector(G, R), channels)
        S, T, U = (HbarSeries([random_fock(rng, d, K, 2, n_terms=2, dual_fraction=0.5)
                               for _ in range(R + 1)]) for _ in range(3))
        return (FG != moyal_star(F, G, form, R)) \
            + (star_series(star_series(S, T, channels), U, channels)
               != star_series(S, star_series(T, U, channels), channels))
    r = _count_failures(seed, "star-series", n_instances, instance)
    unit = HbarSeries.from_vector(FockVector.unit(), R)
    r["failures"] += star_series(unit, unit, channels) != unit
    return r


CHECKS["moyal"] = (
    Check("power.laws", "r=0 power is the product, antisymmetrized r=1 is twice the bracket, "
          "depth and degree bookkeeping hold",
          lambda cfg, seed: power_law_failures(seed, 40, resolve_form(cfg))),
    Check("star.associative", "star-product associativity, coefficientwise and exact, random "
          "triples",
          lambda cfg, seed: star_assoc_failures(seed, "moyal-assoc", 12,
                                                resolve_form(cfg).channels, cfg.d, cfg.K, cfg.R)),
    Check("star.series", "series product has the unit, reduces to the star, and stays associative",
          lambda cfg, seed: star_series_failures(seed, 8, resolve_form(cfg), min(cfg.R, 3))),
)


# ------------------------------------------------------------ equivalence


def ea_cochain_failures(seed: int, n_instances: int, A: DiagonalOperatorA) -> dict:
    """Symmetry of the perturbation and equality of the two cochain expansions."""
    d, K = A.d, A.K
    unit = SymplecticForm.unit_pairing(d, K)
    zero_A = DiagonalOperatorA.family("zero", d, K)

    def instance(rng, i):
        F, G = _operands(rng, d, K, 3, 0.5)
        return (apply_EA(F, G, A) != apply_EA(G, F, A)) \
            + (not apply_EA(F, G, zero_A).is_zero()) \
            + (cA1(F, G, zero_A) != poisson_bracket(F, G, unit)) \
            + (cA1(F, G, A) != cAr(1, F, G, A)) \
            + (not cAr(min(F.degree(), G.degree()) + 1, F, G, A).is_zero())
    return _count_failures(seed, "ea-cochain", n_instances, instance)


def _one_sided_contraction(F: FockVector, G: FockVector, r: int, primal) -> FockVector:
    """The one-sided r-fold contraction of F against G, by brute force over mode multisets."""
    direct = FockVector.zero()
    for combo in combinations_with_replacement(primal, r):
        counts: dict[ModeIndex, int] = {}
        for m in combo:
            counts[m] = counts.get(m, 0) + 1
        mult = math.factorial(r)
        aF, aG = F, G
        for m, cnt in counts.items():
            mult //= math.factorial(cnt)
            for _ in range(cnt):
                aF = annihilate(m, aF)
                aG = annihilate(m.as_dual, aG)
        if aF.is_zero() or aG.is_zero():
            continue
        direct = direct + wick_product(aF, aG).scale(Fraction(mult * 2 ** r))
    return direct


def normal_one_sided_failures(seed: int, n_instances: int, d: int, K: int) -> dict:
    """At alpha = 1 the deformed contraction is purely one-sided: direct oracle."""
    one_A = DiagonalOperatorA.family("one", d, K)
    primal = mode_range(d, K)

    def instance(rng, i):
        F, G = _operands(rng, d, K, 3, 0.5)
        return sum(cAr(r, F, G, one_A) != _one_sided_contraction(F, G, r, primal)
                   for r in (1, 2))
    return _count_failures(seed, "normal-onesided", n_instances, instance)


def zero_is_moyal_failures(seed: int, n_instances: int, d: int, K: int, R: int) -> dict:
    """The alpha = 0 member coincides with the unit-pairing star-product."""
    unit = SymplecticForm.unit_pairing(d, K)
    zero_A = DiagonalOperatorA.family("zero", d, K)

    def instance(rng, i):
        F, G = _operands(rng, d, K, 3, 0.5)
        return star_A(F, G, zero_A, R) != moyal_star(F, G, unit, R)
    return _count_failures(seed, "zero-moyal", n_instances, instance)


def transform_basics_failures(seed: int, n_instances: int, A: DiagonalOperatorA,
                              R: int) -> dict:
    """Identity at alpha = 0, contraction depth, exact formal inverse."""
    d, K = A.d, A.K
    zero_A = DiagonalOperatorA.family("zero", d, K)

    def instance(rng, i):
        FS = HbarSeries([random_fock(rng, d, K, 3, n_terms=3, dual_fraction=0.5)
                         for _ in range(R + 1)])
        low = random_fock(rng, d, K, 1, n_terms=2, dual_fraction=0.5)
        return (apply_T(FS, zero_A) != FS) + (not apply_T1(low, A).is_zero()) \
            + (apply_T(apply_T(FS, A), A.negated()) != FS)
    return _count_failures(seed, "transform-basics", n_instances, instance)


def _poly_pair(rng, d, K, N, window) -> tuple[FockVector, FockVector]:
    return tuple(random_fock(rng, d, K, min(N, window + 2), n_terms=3,
                             dual_fraction=0.5).truncate(N) for _ in range(2))


def _exp_pair(rng, d, K, N) -> tuple[FockVector, FockVector]:
    return tuple(wick_exponential({**random_gamma(rng, d, K, 1, dual=False),
                                   **random_gamma(rng, d, K, 1, dual=True)}, N) for _ in range(2))


def intertwining_failures(seed: int, n_instances: int, A: DiagonalOperatorA,
                          N: int, R: int, kind: str) -> dict:
    """Transform of a deformed product vs unit-star of transformed factors.

    Both sides are compared coefficientwise up to the truncation order, on
    the degree window N - 2R inside which degree capping cannot leak.
    The factors and their transforms have degree at most N; the right
    side's star-product is formed at cap window, which is exact there: a
    cap is the quotient map of the capped algebra and each Wick product
    adds degrees, so the pairs it skips build only monomials above the
    window.
    On the left side `apply_T` acts after the product, and each generator
    power lowers degree by exactly 2.  Star order a reaches order r of the
    left side only through power b = r - a <= R - a, so its window terms
    come from its terms of degree at most window + 2(R - a) = N - 2a;
    order a is formed at that cap, which is exact there for the same
    reason as on the right side.
    """
    if kind not in ("poly", "exp"):
        raise ValueError(f"unknown operand kind {kind!r}; known: 'poly', 'exp'")
    window = N - 2 * R
    if window < 0:
        raise ValueError(f"need N - 2R >= 0, got N={N}, R={R}")
    d, K = A.d, A.K
    unit = SymplecticForm.unit_pairing(d, K)
    caps = [N - 2 * a for a in range(R + 1)]

    def instance(rng, i):
        F, G = _exp_pair(rng, d, K, N) if kind == "exp" else _poly_pair(rng, d, K, N, window)
        lhs = apply_T(HbarSeries(_star_orders(F, G, A.channels, caps)), A)
        TF = apply_T(HbarSeries.from_vector(F, R), A)
        TG = apply_T(HbarSeries.from_vector(G, R), A)
        rhs = star_series(TF, TG, unit.channels, max_degree=window)
        return lhs.truncate_degree(window) != rhs.truncate_degree(window)
    r = _count_failures(seed, f"intertwine-{kind}-{A.name}", n_instances, instance)
    return {**r, "window": window}


def product_formula_failures(seed: int, n_instances: int, N: int = 8, R: int = 3) -> dict:
    """Deformed product of two capped exponentials vs the closed formula, at d=1, K=2.

    Cycles through the three named operator families; compared on the
    N - 2R window at every truncation order.  The exponentials are built
    at cap N and both sides are formed at cap window: every Wick product
    adds degrees, so the cap drops only pairs whose monomials lie above
    the window, and each side's window terms are exactly those at cap N.
    """
    window = N - 2 * R
    if window < 0:
        raise ValueError(f"need N - 2R >= 0, got N={N}, R={R}")
    d, K = 1, 2

    def instance(rng, i):
        A = DiagonalOperatorA.family(("zero", "one", "ksq")[i % 3], d, K)
        g1, g2 = ({**random_gamma(rng, d, K, int(rng.integers(1, 3)), dual=False),
                   **random_gamma(rng, d, K, int(rng.integers(1, 3)), dual=True)}
                  for _ in range(2))
        lhs = star_A(wick_exponential(g1, N), wick_exponential(g2, N), A, R, max_degree=window)
        rhs = exp_product_formula_rhs(g1, g2, A, R, window)
        return lhs.truncate_degree(window) != rhs.truncate_degree(window)
    r = _count_failures(seed, "product-formula", n_instances, instance)
    return {**r, "window": window}


def generator_bound_search(seed: int, n_instances: int, A: DiagonalOperatorA) -> dict:
    """Continuity constants for the transform generator."""
    return _continuity_search(seed, "bound-t1", n_instances,
                              lambda rng: _operands(rng, A.d, A.K, 4, 0.5, count=1),
                              lambda F: apply_T1(F, A), _SCALES)


def perturbation_bound_search(seed: int, n_instances: int, A: DiagonalOperatorA) -> dict:
    """Continuity constants for the perturbation."""
    return _continuity_search(seed, "bound-ea", n_instances,
                              lambda rng: _operands(rng, A.d, A.K, 3, 0.5),
                              lambda F, G: apply_EA(F, G, A), _SCALES)


CHECKS["equivalence"] = (
    Check("cochain.displays", "perturbation is symmetric; both first-cochain expansions agree",
          lambda cfg, seed: ea_cochain_failures(seed, 25, resolve_alpha(cfg))),
    Check("star.normal_one_sided", "alpha=1 contraction equals the brute-force one-sided sum",
          lambda cfg, seed: normal_one_sided_failures(seed, 10, cfg.d, cfg.K)),
    Check("star.zero_is_moyal", "alpha=0 deformed star equals the unit-pairing star-product",
          lambda cfg, seed: zero_is_moyal_failures(seed, 10, cfg.d, cfg.K, min(cfg.R, 3))),
    Check("star.associative", "deformed star associativity via its series extension, exact",
          lambda cfg, seed: star_assoc_failures(seed, "starA-assoc", 8,
                                                resolve_alpha(cfg).channels, cfg.d, cfg.K,
                                                min(cfg.R, 3))),
    Check("transform.basics", "transform is identity at alpha=0, depth-2, and formally "
          "invertible",
          lambda cfg, seed: transform_basics_failures(seed, 10, resolve_alpha(cfg),
                                                      min(cfg.R, 3))),
    Check("intertwine.poly", "transform of a deformed product equals unit-star of transforms "
          "(random polynomials)",
          lambda cfg, seed: intertwining_failures(seed, 12, resolve_alpha(cfg), cfg.N, cfg.R,
                                                  kind="poly"), observed="window"),
    Check("intertwine.exp", "transform of a deformed product equals unit-star of transforms "
          "(capped exponentials)",
          lambda cfg, seed: intertwining_failures(seed, 12, resolve_alpha(cfg), cfg.N, cfg.R,
                                                  kind="exp"), observed="window"),
    Check("product.formula", "deformed product of capped exponentials matches the closed formula "
          "(d=1, K=2)", lambda cfg, seed: product_formula_failures(seed, 12), observed="window"),
    Check("transform.bounded", "generator norm bound below the input bound at grid-searched "
          "constants (k1={k0}, C1={C0:g})",
          lambda cfg, seed: generator_bound_search(seed, 15, resolve_alpha(cfg)), _SEARCH,
          "max_ratio"),
    Check("perturbation.bounded", "perturbation norm bound below the factor bounds at "
          "grid-searched constants (k1={k0}, C1={C0:g})",
          lambda cfg, seed: perturbation_bound_search(seed, 15, resolve_alpha(cfg)), _SEARCH,
          "max_ratio"),
)


# ------------------------------------------------------------------ runner


def run_checks(suite: str, cfg: RunConfig) -> list[CheckRecord]:
    """Run one suite's table: each entry is timed and becomes one record.

    The Monte-Carlo batch is drawn inside the first `batch` entry's time and
    lives only as long as this call.
    """
    seed, records, previous = cfg.mc.seed, [], None
    batch = functools.cache(lambda: sample_xi_batch(seed, cfg.mc.n_samples, cfg.mc.K_mc, cfg.d))
    for check in CHECKS[suite]:
        t0 = time.perf_counter()
        if check.run is not previous:
            args = (batch(),) if check.batch else (cfg, seed)
            previous, result = check.run, check.run(*args)
        gate = check.gate
        tolerance = gate.tolerance(cfg) if callable(gate.tolerance) else gate.tolerance
        records.append(CheckRecord(
            suite=suite, check_id=check.id, claim=check.claim.format(**result),
            residual=float(result[gate.field]), tolerance=tolerance, n_instances=result["n"],
            seed=seed, observed=float(result[check.observed or gate.field]),
            wall_time=time.perf_counter() - t0, precision=gate.precision))
    return records


SUITE_RUNNERS = {suite: functools.partial(run_checks, suite) for suite in CHECKS}


def run_suites(cfg: RunConfig) -> VerificationReport:
    """Execute the configured suites, one record per check.

    A check that does not hold becomes a FAIL record; a zero-variance
    Monte-Carlo batch is one (its z-scores are inf).  An exception raised
    inside a check is not caught and ends the run.
    """
    records = []
    for name in cfg.suites:
        records.extend(SUITE_RUNNERS[name](cfg))
    return VerificationReport(records=records, config=config_echo(cfg),
                              versions=package_versions())
