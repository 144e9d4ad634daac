"""AdaGram: full-matrix adaptive gradient optimization via low-rank
inverse-factor updates, with baselines and a GLM benchmark harness."""

from .bench import (
    ExperimentConfig,
    GridResult,
    RunRecord,
    grid_search,
    run_experiment,
    run_invariant_suite,
)
from .data import (
    CorrelationKind,
    CorrelationSpec,
    Dataset,
    SyntheticSpec,
    generate_synthetic,
    load_libsvm,
    parse_libsvm,
)
from .glm import Batch, GlmModel, Link
from .lowrank import (
    LowRankFactors,
    RankOneIncrement,
    orthogonal_factorization,
    projector_splitting_step,
    zero_factors,
)
from .optim import OptimizerConfig, OptimizerKind, ParamState, make_optimizer
from .precond import (
    ExactPQState,
    IntegratorState,
    IntegratorVariant,
    alpha_of,
    apply_inverse,
    beta_of,
    preconditioned_direction,
    update_exact,
    update_integrator,
)

__version__ = "0.1.0"
