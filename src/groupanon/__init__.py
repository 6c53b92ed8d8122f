"""Group anonymity for tabular microdata.

Protects how a sensitive group is *distributed* across categories (for
example, an occupation across regions) rather than individual records: the
share-per-category "concentration signal" is decomposed with an orthogonal
wavelet filter bank, its low-frequency approximation is reshaped by choosing
new synthesis coefficients, and the microfile is rewritten to realize the
new shares while the signal mean is preserved exactly and all detail
coefficients survive up to one common scale factor.
"""

from .errors import ConfigError, GroupAnonError
from .microdata import (
    AttributeSpec,
    Microfile,
    concentration_signal,
    load_microfile,
    new_quantities,
    rewrite_microfile,
    write_microfile,
)
from .redistribution import (
    RedistributionPlan,
    format_plot_data,
    redistribute,
    verify_outcome,
)
from .wavelets import analyze, db2_filter, extend_to_even, filter_by_name

__version__ = "0.1.0"

# The names the README and the command line use; everything else is
# imported from its module.
__all__ = [
    "AttributeSpec",
    "ConfigError",
    "GroupAnonError",
    "Microfile",
    "RedistributionPlan",
    "analyze",
    "concentration_signal",
    "db2_filter",
    "extend_to_even",
    "filter_by_name",
    "format_plot_data",
    "load_microfile",
    "new_quantities",
    "redistribute",
    "rewrite_microfile",
    "verify_outcome",
    "write_microfile",
]
