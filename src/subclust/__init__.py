"""Subspace clustering toolkit.

Four self-expressive coefficient solvers (lsr, smr, lrrsc, ssc), four
affinity constructions (sm, ssm, svdm, ipm), spectral clustering with the
optimal-matching accuracy metric, and a seeded benchmark harness that runs
the full solver x affinity grid.
"""

from .affinity import (
    AFFINITIES,
    AffinityConfig,
    AffinityMatrix,
    build_affinity,
    build_ipm,
    build_sm,
    build_ssm,
    build_svdm,
    top_k_per_column,
)
from .data import (
    DataMatrix,
    Dataset,
    LabelVector,
    SyntheticSpec,
    generate_synthetic,
    load_dataset,
    normalize_columns,
    pca_project,
    prepare_dataset,
    save_dataset,
)
from .errors import ConfigError, DataError, NumericalError, SubclustError
from .harness import (
    DatasetFiles,
    ExperimentConfig,
    ExperimentResult,
    GridResult,
    PresetTable,
    emit_table,
    load_experiment_config,
    parse_experiment_config,
    run_experiment,
    run_grid,
    trial_seed,
)
from .solvers import (
    SOLVERS,
    CoefficientMatrix,
    SolverConfig,
    SolverReport,
    build_knn_laplacian,
    default_solver_config,
    singular_value_threshold,
    soft_threshold,
    solve,
    solve_lrrsc,
    solve_lsr,
    solve_smr,
    solve_ssc,
)
from .spectral import (
    cluster,
    clustering_accuracy,
    kmeans,
    spectral_embed,
)

__version__ = "0.1.0"
