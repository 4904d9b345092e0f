"""Truncated symmetric Fock algebra over loop space, with its deformation
quantizations and a verification harness that checks every structural
identity either exactly over the rationals or by seeded Monte Carlo."""

from .chaos import chaos_eval_spectral, gateaux_derivative_fd, injectivity_probe
from .config import ConfigError, McConfig, RunConfig, load_config, parse_config
from .equivalence import (DiagonalOperatorA, apply_EA, apply_T, apply_T1, cA1, cAr,
                          exp_product_formula_rhs, star_A)
from .fock import (FockVector, HbarSeries, annihilate, annihilate_general, wick_exponential,
                   wick_product)
from .gaussian import (LoopSample, green_exponential_form, green_kernel, holder_moment_check,
                       loop_eval, sample_loop, sample_xi_batch, spectral_green_sum)
from .modes import LAMBDA, ModeIndex, MultiIndex, VACUUM, h_weight, mode_profile
from .norms import connes_norm_upper
from .poisson import SymplecticForm, moyal_star, poisson_bracket, poisson_power, star_series
from .report import CheckRecord, VerificationReport, canonical_json, emit_report, load_report
from .serialization import FockParseError, deserialize_fock, serialize_fock
from .suites import SUITE_RUNNERS, run_suites

__version__ = "0.1.0"

__all__ = [
    "CheckRecord", "ConfigError", "DiagonalOperatorA", "FockParseError",
    "FockVector", "HbarSeries", "LAMBDA", "LoopSample", "McConfig",
    "ModeIndex", "MultiIndex", "RunConfig", "SUITE_RUNNERS", "SymplecticForm",
    "VACUUM", "VerificationReport",
    "annihilate", "annihilate_general", "apply_EA", "apply_T", "apply_T1",
    "cA1", "cAr", "canonical_json",
    "chaos_eval_spectral", "connes_norm_upper",
    "deserialize_fock", "emit_report", "exp_product_formula_rhs",
    "gateaux_derivative_fd", "green_exponential_form", "green_kernel",
    "h_weight", "holder_moment_check",
    "injectivity_probe", "load_config", "load_report", "loop_eval",
    "mode_profile", "moyal_star", "parse_config",
    "poisson_bracket", "poisson_power", "run_suites", "sample_loop",
    "sample_xi_batch", "serialize_fock", "spectral_green_sum", "star_A",
    "star_series", "wick_exponential", "wick_product",
]
