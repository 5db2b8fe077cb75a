"""Doubly robust post-imputation inference for matrices with missing outcomes."""

__version__ = "0.1.0"

from .data_model import (
    Dataset,
    MethodKind,
    PeptideInference,
    SkipRecord,
    filter_by_rate,
    load_dataset,
    observation_rate,
    write_dataset,
    write_results,
)
from .dr_inference import (
    ColumnInference,
    InferenceConfig,
    OlsFit,
    PseudoOutcome,
    infer_all,
    infer_columns,
    ols_sandwich,
    pseudo_outcomes,
)
from .imputers import (
    ImputedMatrix,
    ImputerConfig,
    impute,
    impute_knn,
    impute_lowdim,
    impute_soft,
    load_external_nu,
)
from .multiple_testing import SelectionResult, adjust, bh_qvalues, mirror_rate, select
from .propensity import PropensityColumns, PropensityFit, fit_logistic, fit_logistic_columns
from .sim_bench import (
    BenchResult,
    SimConfig,
    SimTruth,
    gen_dataset,
    run_benchmark,
    toy_power_experiment,
)

__all__ = [
    "BenchResult",
    "ColumnInference",
    "Dataset",
    "ImputedMatrix",
    "ImputerConfig",
    "InferenceConfig",
    "MethodKind",
    "OlsFit",
    "PeptideInference",
    "PropensityColumns",
    "PropensityFit",
    "PseudoOutcome",
    "SelectionResult",
    "SimConfig",
    "SimTruth",
    "SkipRecord",
    "adjust",
    "bh_qvalues",
    "filter_by_rate",
    "fit_logistic",
    "fit_logistic_columns",
    "gen_dataset",
    "impute",
    "impute_knn",
    "impute_lowdim",
    "impute_soft",
    "infer_all",
    "infer_columns",
    "load_dataset",
    "load_external_nu",
    "mirror_rate",
    "observation_rate",
    "ols_sandwich",
    "pseudo_outcomes",
    "run_benchmark",
    "select",
    "toy_power_experiment",
    "write_dataset",
    "write_results",
]
