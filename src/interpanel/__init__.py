"""Interaction-effect estimation for fixed-T linear panels.

Two estimators of how the effect of X on Y varies with observables: the
one-step pooled interaction regression (ITE) and the two-step estimator
that first recovers unit-specific slopes and then projects them on the
time-invariant interaction variables (CITE). Ships with a
correlated-random-coefficient simulator, large-n moment oracles, and a
Monte Carlo harness.
"""

from .data import (CiteBlocks, Dims, DerivedRegressors, IteBlocks,
                   PanelDataset, ValidationReport,
                   add_intercept_h, build_regressors, drop_failing_units,
                   load_csv, make_dataset, subset_units, validate, write_csv)
from .dgp import (DgpConfig, PlimTargets, SimulatedTruth, load_dgp_config,
                  plim_targets, simulate)
from .estimators import (CiteResult, cite_delta, cite_kappa, cite_theta,
                         first_stage_se, fit_cite, ite, mean_effect)
from .harness import (ExperimentConfig, MonteCarloReport, convergence_table,
                      evaluate_contracts, load_experiment_config,
                      run_experiment)
from .inference import (SeResult, bootstrap_cite, cite_kappa_se,
                        cite_theta_se, cluster_robust_se, ite_se)
from .linalg import LeastSquaresFit, RankDeficient, solve_ols

__version__ = "0.1.0"

__all__ = [
    "CiteBlocks", "CiteResult", "DerivedRegressors", "DgpConfig", "Dims",
    "ExperimentConfig", "IteBlocks", "LeastSquaresFit",
    "MonteCarloReport", "PanelDataset", "PlimTargets", "RankDeficient",
    "SeResult", "SimulatedTruth", "ValidationReport", "add_intercept_h",
    "bootstrap_cite", "build_regressors", "cite_delta", "cite_kappa",
    "cite_kappa_se", "cite_theta", "cite_theta_se", "cluster_robust_se",
    "convergence_table", "drop_failing_units", "evaluate_contracts",
    "first_stage_se", "fit_cite", "ite", "ite_se", "load_csv",
    "load_dgp_config", "load_experiment_config", "make_dataset",
    "mean_effect", "plim_targets", "run_experiment", "simulate", "solve_ols",
    "subset_units", "validate", "write_csv",
]
