"""Model-guided search (the automated DSE route).

See :mod:`repro.core.search.multifidelity` for the algorithm and
:mod:`repro.core.search.lowfi` for the analytic-model scoring tier.
"""

from .lowfi import LowFidelityScorer
from .multifidelity import (
    SearchResult,
    SearchRung,
    multifidelity_search,
    promote,
)

__all__ = [
    "LowFidelityScorer",
    "SearchResult",
    "SearchRung",
    "multifidelity_search",
    "promote",
]
