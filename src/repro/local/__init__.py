"""LOCAL-model subroutines: the Barenboim–Elkin peeling and degree+1 list coloring."""

from repro.local.list_coloring import (
    ListColoringResult,
    greedy_list_coloring,
    random_list_coloring,
    validate_lists,
)
from repro.local.peeling import (
    PeelingResult,
    barenboim_elkin_peeling,
    peeling_layers_reference,
    peeling_threshold,
)

__all__ = [
    "ListColoringResult",
    "PeelingResult",
    "barenboim_elkin_peeling",
    "greedy_list_coloring",
    "peeling_layers_reference",
    "peeling_threshold",
    "random_list_coloring",
    "validate_lists",
]
