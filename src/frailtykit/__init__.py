"""Bivariate competing-risks models with discrete frailty.

Two related failure times, each ending in one of several causes, are tied
together by a latent positive factor (the frailty) that multiplies the
cause-specific hazards.  Conditional on the frailty the two lifetimes are
independent, so every joint quantity reduces to an atom-weighted product of
one-dimensional integrals; the package exploits that throughout.

Modules:

* :mod:`frailtykit.hazards` -- parametric hazard families sharing the shape
  ``a(gamma, alpha) * t**(gamma - 1) * b(t)``.
* :mod:`frailtykit.frailty` -- finite discrete mixing distributions in four
  sharing layouts, with their Laplace-style transform.
* :mod:`frailtykit.model` -- the model object plus survival and
  sub-distribution evaluation via adaptive quadrature.
* :mod:`frailtykit.simulate` -- exact inverse-transform simulation of
  right-censored pair data.
* :mod:`frailtykit.identifiability` -- numerical separation probes and
  parameter recovery.
* :mod:`frailtykit.cli` -- the ``frailtykit`` command.
"""

from .hazards import (
    Family,
    FamilyValidation,
    HazardDecomposition,
    HazardSpec,
    cumulative_hazard,
    decomposition,
    hazard_rate,
    hazard_spec_from_dict,
    hazard_spec_to_dict,
    inverse_cumulative_hazard,
    validate_family,
)
from .frailty import (
    DiscreteFrailty,
    FrailtyKind,
    FrailtyStructure,
    canonicalize,
    coordinate_means,
    expand_to_pair,
    frailty_close,
    frailty_from_dict,
    frailty_to_dict,
    lst,
    marginal,
    normalize_to_unit_mean,
    sample,
    structure_from_dict,
    structure_to_dict,
    tilted_mean,
)
from .model import (
    DEFAULT_QUADRATURE,
    ModelSpec,
    QuadratureConfig,
    conditional_hazard,
    conditional_sub_distribution,
    conditional_survival,
    joint_sub_density,
    joint_sub_density_grid,
    joint_sub_distribution,
    joint_sub_distribution_grid,
    joint_survival,
    marginal_sub_density,
    marginal_sub_distribution,
    marginal_survival,
    model_from_dict,
    model_to_dict,
    sub_distribution_table,
    survival_load_vector,
    time_horizon,
)
from .simulate import (
    BivariateObservation,
    ObservationColumns,
    SimConfig,
    dkw_bandwidth,
    read_dataset_csv,
    simulate_dataset,
    simulate_pair,
    simulate_table,
    write_dataset_csv,
)
from .identifiability import (
    SEPARATION_THRESHOLD,
    FitResult,
    ProbeGrid,
    ProbeReport,
    RecoveryResult,
    Verdict,
    default_probe_grid,
    fit_mle,
    limit_identity_check,
    lst_sequence_test,
    probe_models,
    recover_from_model,
    recover_parameters,
    scale_confounding_transform,
    sub_distribution_distance,
)

__version__ = "0.1.0"

__all__ = [
    "Family",
    "FamilyValidation",
    "HazardDecomposition",
    "HazardSpec",
    "cumulative_hazard",
    "decomposition",
    "hazard_rate",
    "hazard_spec_from_dict",
    "hazard_spec_to_dict",
    "inverse_cumulative_hazard",
    "validate_family",
    "DiscreteFrailty",
    "FrailtyKind",
    "FrailtyStructure",
    "canonicalize",
    "coordinate_means",
    "expand_to_pair",
    "frailty_close",
    "frailty_from_dict",
    "frailty_to_dict",
    "lst",
    "marginal",
    "normalize_to_unit_mean",
    "sample",
    "structure_from_dict",
    "structure_to_dict",
    "tilted_mean",
    "DEFAULT_QUADRATURE",
    "ModelSpec",
    "QuadratureConfig",
    "conditional_hazard",
    "conditional_sub_distribution",
    "conditional_survival",
    "joint_sub_density",
    "joint_sub_density_grid",
    "joint_sub_distribution",
    "joint_sub_distribution_grid",
    "joint_survival",
    "marginal_sub_density",
    "marginal_sub_distribution",
    "marginal_survival",
    "model_from_dict",
    "model_to_dict",
    "sub_distribution_table",
    "survival_load_vector",
    "time_horizon",
    "BivariateObservation",
    "ObservationColumns",
    "SimConfig",
    "dkw_bandwidth",
    "read_dataset_csv",
    "simulate_dataset",
    "simulate_pair",
    "simulate_table",
    "write_dataset_csv",
    "SEPARATION_THRESHOLD",
    "FitResult",
    "ProbeGrid",
    "ProbeReport",
    "RecoveryResult",
    "Verdict",
    "default_probe_grid",
    "fit_mle",
    "limit_identity_check",
    "lst_sequence_test",
    "probe_models",
    "recover_from_model",
    "recover_parameters",
    "scale_confounding_transform",
    "sub_distribution_distance",
    "__version__",
]
