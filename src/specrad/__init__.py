"""Certified numerics for power-norm limits and spectral radius bounds.

Submultiplicative sequence prefixes, a generic normed-algebra engine
(power norms, Gelfand-style radius upper bounds, Neumann-series and
perturbation inverses, resolvents), and three concrete instances: dense
complex matrices, the Wiener algebra of summable Laurent coefficients,
and the weighted shift operator.
"""

from .algebra import (
    Algebra,
    invert_near,
    neumann_inverse,
    power_norms,
    resolvent,
    spectral_radius_upper,
    telescope_check,
)
from .errors import BudgetExceeded, NotConvergent, Singular, Unsupported
from .fekete import (
    PrefixSequence,
    binomial_convolve,
    check_submultiplicative,
    geometric_sequence,
    limit_bracket,
    max_sum_bound,
    poly_sequence,
    root_report,
    subadd_sequence,
)
from .matrix import (
    GridSpec,
    MatrixAlgebra,
    SpectrumGrid,
    direct_inverse,
    eigen_oracle,
    oracle_radius,
    spectral_mapping_check,
    spectrum_scan,
)
from .reports import RootReport
from .shift import (
    FiniteVector,
    WeightedShift,
    apply_power,
    harmonic_weights,
    op_norm_empirical,
    power_norm_formula,
    shift_limit_experiment,
)
from .wiener import (
    SupEstimate,
    WienerAlgebra,
    evaluate,
    l1_norm,
    multiply,
    sup_norm,
    wiener_inverse,
    wiener_spectral_radius,
)

__version__ = "0.1.0"

__all__ = [
    "Algebra",
    "BudgetExceeded",
    "FiniteVector",
    "GridSpec",
    "MatrixAlgebra",
    "NotConvergent",
    "PrefixSequence",
    "RootReport",
    "Singular",
    "SpectrumGrid",
    "SupEstimate",
    "Unsupported",
    "WeightedShift",
    "WienerAlgebra",
    "apply_power",
    "binomial_convolve",
    "check_submultiplicative",
    "direct_inverse",
    "eigen_oracle",
    "evaluate",
    "geometric_sequence",
    "harmonic_weights",
    "invert_near",
    "l1_norm",
    "limit_bracket",
    "max_sum_bound",
    "multiply",
    "neumann_inverse",
    "op_norm_empirical",
    "oracle_radius",
    "poly_sequence",
    "power_norm_formula",
    "power_norms",
    "resolvent",
    "root_report",
    "shift_limit_experiment",
    "spectral_mapping_check",
    "spectral_radius_upper",
    "spectrum_scan",
    "subadd_sequence",
    "sup_norm",
    "telescope_check",
    "wiener_inverse",
    "wiener_spectral_radius",
]
