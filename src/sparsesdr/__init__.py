"""Sparse sufficient dimension reduction with split-and-conquer screening."""

__version__ = "0.1.0"

from .admm import PenaltyParams, solve_step_a  # noqa: F401
from .dataset import (PredictorMatrix, Phenotype, SyntheticSpec,  # noqa: F401
                      center, load_predictors, load_phenotype,
                      make_phenotype, simulate)
from .evaluation import (MetricBundle, chi2_rank, cross_validate,  # noqa: F401
                         fit_classifier, knn_predict, metrics, predict)
from .optimal_scoring import (DirectionSet, SolverConfig, fit,  # noqa: F401
                              init_theta, theta_step)
from .scoring import ScoringDesign, build_design  # noqa: F401
from .screening import (ScreeningPlan, SelectionReport, Stage,  # noqa: F401
                        run_plan)
