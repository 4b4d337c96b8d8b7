"""stargrid: exact landmark placement on hub-and-spoke grid networks.

The double-star grid (one hub, m row relays, n column relays, m*n leaf
cells) admits a closed-form metric dimension and a linear-time minimum
landmark construction; this package provides both, an auxiliary-graph
audit of landmark structure, a brute-force oracle for small instances,
and a hop-count localization demo.

Only the localization demo and the oracle use numpy.  Their names, and the
``localize`` and ``oracle`` modules themselves, are imported on first
access (PEP 562), so ``import stargrid`` and the CLI commands that use
neither load no numpy.
"""

import importlib

from .auxgraph import (
    ComponentReport,
    aux_graph_to_dot,
    build_aux_graph,
    classify_components,
    structural_audit,
)
from .builder import build_basis, dimension, regime_of, tiling_plan
from .errors import BudgetError, InputError
from .grid import (
    HUB,
    Cell,
    Col,
    GridGraph,
    Hub,
    Row,
    parse_vertex,
    vertex_name,
)
from .resolve import (
    ResolvingSet,
    Verdict,
    is_resolving,
    metric_code,
    parse_landmark_lines,
)

__version__ = "0.1.0"

__all__ = [
    "BudgetError",
    "Cell",
    "CodeTable",
    "Col",
    "ComponentReport",
    "DecodeResult",
    "DEFAULT_BUDGET",
    "GridGraph",
    "HUB",
    "Hub",
    "InputError",
    "NoiseModel",
    "ResolvingSet",
    "Row",
    "SearchBudget",
    "Verdict",
    "aux_graph_to_dot",
    "bfs_distances",
    "brute_force_adjacency_dimension",
    "brute_force_dimension",
    "build_aux_graph",
    "build_basis",
    "classify_components",
    "code_table",
    "decode",
    "decode_batch",
    "dimension",
    "enumerate_minimum_bases",
    "exists_hub_free_basis",
    "is_resolving",
    "iter_minimum_bases",
    "metric_code",
    "parse_landmark_lines",
    "parse_vertex",
    "regime_of",
    "simulate",
    "structural_audit",
    "tiling_plan",
    "vertex_name",
]

# The public names of the two numpy modules, by module.
_LAZY = {
    "localize": (
        "CodeTable",
        "DecodeResult",
        "NoiseModel",
        "code_table",
        "decode",
        "decode_batch",
        "simulate",
    ),
    "oracle": (
        "DEFAULT_BUDGET",
        "SearchBudget",
        "bfs_distances",
        "brute_force_adjacency_dimension",
        "brute_force_dimension",
        "enumerate_minimum_bases",
        "exists_hub_free_basis",
        "iter_minimum_bases",
    ),
}
_HOME = {name: module for module, names in _LAZY.items() for name in names}


def __getattr__(name: str):
    """Import a numpy module, or one of its names, on first access.  A name
    is then bound in this module, so later reads do not come here."""
    if name in _LAZY:
        return importlib.import_module(f"{__name__}.{name}")
    if name not in _HOME:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f"{__name__}.{_HOME[name]}"), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(globals().keys() | _LAZY.keys() | _HOME.keys())
