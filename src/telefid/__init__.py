"""Teleportation fidelity of coherent states with Gaussian and
non-Gaussian entangled resources over noisy channels, in the
characteristic-function description."""

from .errors import (DegeneracyError, NumericalError, ParameterError,
                     PhaseSpecializationError, QuadratureError,
                     TelefidError)
from .fidelity import (AlphabetPrior, FidelityReport, average_fidelity,
                       classical_benchmark, fidelity_closed,
                       fidelity_gaussian_oracle, fidelity_quadrature)
from .optimize import (OptimizationResult, affinity, one_shot_fidelity,
                       optimize_beta_independent, optimize_gain_average,
                       r_max)
from .phase_space import (FAMILIES, CoherentInput, PhasePoint, ResourceSpec,
                          TwoModePhasePoint, bogoliubov_args,
                          chi_input_coherent, chi_resource,
                          coherent_displacement_overlap,
                          fock_displacement_element, laguerre)
from .protocol import (BellOutcome, GainSetting, GaussianOutput, NoiseParams,
                       chi_bell_conditioned, chi_out, chi_out_ideal,
                       chi_out_via_measurement_average, displace_chi,
                       gamma_cov, gaussian_pipeline, outcome_distribution,
                       propagate_lossy)
from .cli_sweep import (CSV_HEADER, SweepSpec, emit_csv, main, parse_cli,
                        run_figure_preset)

__version__ = "0.1.0"

__all__ = [
    "AlphabetPrior", "BellOutcome", "CSV_HEADER", "CoherentInput",
    "DegeneracyError", "FAMILIES", "FidelityReport", "GainSetting",
    "GaussianOutput", "NoiseParams", "NumericalError",
    "OptimizationResult", "ParameterError", "PhasePoint",
    "PhaseSpecializationError", "QuadratureError", "ResourceSpec",
    "SweepSpec", "TelefidError", "TwoModePhasePoint", "affinity",
    "average_fidelity", "bogoliubov_args", "chi_bell_conditioned",
    "chi_input_coherent", "chi_out", "chi_out_ideal",
    "chi_out_via_measurement_average", "chi_resource",
    "classical_benchmark", "coherent_displacement_overlap", "displace_chi",
    "emit_csv", "fidelity_closed", "fidelity_gaussian_oracle",
    "fidelity_quadrature", "fock_displacement_element", "gamma_cov",
    "gaussian_pipeline", "laguerre", "main", "one_shot_fidelity",
    "optimize_beta_independent", "optimize_gain_average",
    "outcome_distribution", "parse_cli", "propagate_lossy", "r_max",
    "run_figure_preset",
]
