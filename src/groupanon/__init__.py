"""Group anonymity for tabular microdata.

Protects how a sensitive group is *distributed* across categories (for
example, an occupation across regions) rather than individual records: the
share-per-category "concentration signal" is decomposed with an orthogonal
wavelet filter bank, its low-frequency approximation is reshaped by choosing
new synthesis coefficients, and the microfile is rewritten to realize the
new shares while the signal mean is preserved exactly and all detail
coefficients survive up to one common scale factor.
"""

from .errors import (
    ConfigError,
    GroupAnonError,
    InfeasibleTargetsError,
    MicrofileError,
    PlanError,
    RewriteError,
    SignalError,
)
from .microdata import (
    AttributeSpec,
    ConcentrationSignal,
    Microfile,
    concentration_signal,
    load_microfile,
    new_quantities,
    rewrite_microfile,
    write_microfile,
)
from .redistribution import (
    RedistributionPlan,
    ShiftScaleRecord,
    fixed_border_indices,
    format_plot_data,
    local_extrema,
    make_coefficients,
    redistribute,
    verify_outcome,
)
from .wavelets import (
    DecompositionResult,
    ExtensionMeta,
    WaveletFilterPair,
    analyze,
    analyze_once,
    as_signal,
    db2_filter,
    extend_to_even,
    filter_by_name,
    haar_filter,
    max_level,
    reconstruct,
    synth_approx,
    synth_detail,
)
from .matrices import (
    ReconstructionMatrix,
    apply_matrix,
    build_detail_synthesis_matrix,
    build_reconstruction_matrix,
)

__version__ = "0.1.0"

__all__ = [
    "AttributeSpec",
    "ConcentrationSignal",
    "ConfigError",
    "DecompositionResult",
    "ExtensionMeta",
    "GroupAnonError",
    "InfeasibleTargetsError",
    "Microfile",
    "MicrofileError",
    "PlanError",
    "ReconstructionMatrix",
    "RedistributionPlan",
    "RewriteError",
    "ShiftScaleRecord",
    "SignalError",
    "WaveletFilterPair",
    "analyze",
    "analyze_once",
    "apply_matrix",
    "as_signal",
    "build_detail_synthesis_matrix",
    "build_reconstruction_matrix",
    "concentration_signal",
    "db2_filter",
    "extend_to_even",
    "filter_by_name",
    "fixed_border_indices",
    "format_plot_data",
    "haar_filter",
    "load_microfile",
    "local_extrema",
    "make_coefficients",
    "max_level",
    "new_quantities",
    "reconstruct",
    "redistribute",
    "rewrite_microfile",
    "synth_approx",
    "synth_detail",
    "verify_outcome",
    "write_microfile",
]
