"""Solver and simulation lab for ensembles of random-feature GLMs.

Solves the self-consistent equations for the asymptotic overlap statistics
of K ridge-regularized generalized linear learners trained on correlated
random features, evaluates the derived observables (test error and its
bias/fluctuation split, disagreement probability, confidence densities), and
cross-validates against finite-size empirical risk minimization.

The ERM lab's names resolve through the module `__getattr__`, which imports
`rfensemble.erm_lab` (and with it `hashlib`) at the first lookup of one of
them: `import rfensemble` and the theory commands load neither.
"""

from .channels import (
    ChannelSpec,
    ConjugateParams,
    OrderParams,
    channel_update,
    channel_update_hinge_closed_form,
    prox_hinge,
    prox_logistic,
    teacher_dz0,
    teacher_z0,
    training_loss,
)
from .errors import (
    ConfigError,
    ConvergenceError,
    DomainError,
    NumericalError,
    ResourceError,
    RfensembleError,
)
from .observables import (
    EnsembleCovariance,
    classification_error_avg,
    classification_error_bar,
    confidence_density,
    disagreement_probability,
    ensemble_test_error,
    generic_gen_error,
    majority_vote_error,
    mse_test_error,
)
from .priors import (
    FeatureEnsemble,
    kernel_channel_update,
    kernel_prior_update,
    prior_update_spectral,
    sample_feature_ensemble,
)
from .quadrature import QuadratureRule, expect_2d_correlated, gauss_hermite_rule
from .solver import (
    FixedPoint,
    ModelConfig,
    SolveOptions,
    solve_fixed_point,
    solve_kernel_limit,
    warm_options,
)
from .spectrum import (
    ActivationCoeffs,
    SpectralModel,
    activation_coeffs,
    mp_spectral_model,
    spectral_integral,
)

__version__ = "0.1.0"

# the names `__getattr__` takes from rfensemble.erm_lab
_LAB_NAMES = frozenset((
    "ExperimentResult",
    "Overlaps",
    "SyntheticDataset",
    "empirical_overlaps",
    "featurize",
    "generate_dataset",
    "run_experiment",
    "square_test_error_erf",
    "train_logistic",
    "train_ridge",
))


def __getattr__(name):
    """An ERM lab name, importing rfensemble.erm_lab on the first lookup (PEP 562)."""
    if name in _LAB_NAMES:
        from . import erm_lab

        return getattr(erm_lab, name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")

__all__ = [
    "ActivationCoeffs",
    "ChannelSpec",
    "ConfigError",
    "ConjugateParams",
    "ConvergenceError",
    "DomainError",
    "EnsembleCovariance",
    "ExperimentResult",
    "FeatureEnsemble",
    "FixedPoint",
    "ModelConfig",
    "NumericalError",
    "OrderParams",
    "Overlaps",
    "QuadratureRule",
    "ResourceError",
    "RfensembleError",
    "SolveOptions",
    "SpectralModel",
    "SyntheticDataset",
    "activation_coeffs",
    "channel_update",
    "channel_update_hinge_closed_form",
    "classification_error_avg",
    "classification_error_bar",
    "confidence_density",
    "disagreement_probability",
    "empirical_overlaps",
    "ensemble_test_error",
    "expect_2d_correlated",
    "featurize",
    "gauss_hermite_rule",
    "generate_dataset",
    "generic_gen_error",
    "kernel_channel_update",
    "kernel_prior_update",
    "majority_vote_error",
    "mp_spectral_model",
    "mse_test_error",
    "prior_update_spectral",
    "prox_hinge",
    "prox_logistic",
    "run_experiment",
    "sample_feature_ensemble",
    "solve_fixed_point",
    "solve_kernel_limit",
    "spectral_integral",
    "square_test_error_erf",
    "teacher_dz0",
    "teacher_z0",
    "train_logistic",
    "train_ridge",
    "training_loss",
    "warm_options",
]
