"""Generalized Pauli channels: construction, capacity bounds, dynamics.

Importing the package loads none of its modules: each export is imported
from the module that defines it when it is first used, so a program pays
only for the layers it runs.
"""

import importlib
import logging

__version__ = "0.1.0"

# silent by default: without a handler, Python's last-resort handler would
# print the package's warnings to stderr
logging.getLogger(__name__).addHandler(logging.NullHandler())

# every export, once, under the module that defines it
_EXPORTS = {
    "capacity": ("BatchBounds", "CapacityBounds", "ZetaComponents", "bounds_batch",
                 "capacity_bounds", "capacity_from_fidelity", "holevo_lower_bound",
                 "holevo_lower_via_classical", "holevo_upper_bound",
                 "holevo_upper_bound_weyl", "pauli_classical_capacity",
                 "zeta_components_p_form", "zeta_vector"),
    "channels": ("EigenvalueVector", "GeneralizedPauliChannel", "WeylChannel", "apply",
                 "canonical_mub", "choi_blocks", "choi_matrix", "classical_map_t",
                 "eigenvalues_from_probabilities", "fujiwara_algoet_margin",
                 "gpc_to_weyl", "is_completely_positive", "kraus_probability_multiset",
                 "kraus_terms", "probabilities_from_eigenvalues", "require_cp",
                 "superoperator", "tensor", "weyl_kraus_terms"),
    "dynamics": ("PauliTrajectory", "RateSpec", "capacity_trajectory",
                 "eigenvalue_trajectory", "non_p_divisible_capacity_witness",
                 "ode_eigenvalue_oracle", "p_divisibility_check"),
    "errors": ("InvalidDistributionError", "NotCompletelyPositiveError",
               "UnsupportedDimensionError"),
    "mub": ("MubSet", "build_mubs", "check_weyl_correspondence", "prime_power",
            "unitary_u", "verify_mub", "weyl_labels"),
    "oracle": ("SearchConfig", "SearchResult", "cp_oracle_choi", "holevo_estimate",
               "search_output_entropy"),
    "selfcheck": ("run_formula_suite",),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = sorted(_MODULE_OF)


def __getattr__(name):
    # PEP 562: called only for a name not bound yet; binds the export
    if name not in _MODULE_OF:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{_MODULE_OF[name]}", __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
