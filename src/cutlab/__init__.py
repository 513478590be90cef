"""Deterministic cut-query algorithm laboratory."""

# `import cutlab` loads isolating too, the one algorithm module that no other
# algorithm imports, so a tool that wraps functions by module name (as
# cutbench/tracer.py does, through sys.modules) finds every one of them.
from . import isolating  # noqa: F401
from .config import DESK, PAPER, Params, get_profile
from .oracle import (
    AugmentedView,
    BaseView,
    ContractedView,
    ContractViolation,
    CutCache,
    Flow,
    GraphFormatError,
    GraphInstance,
    InducedView,
    QueryInputError,
    QueryLedger,
)

__version__ = "0.1.0"

__all__ = [
    "AugmentedView",
    "BaseView",
    "ContractedView",
    "ContractViolation",
    "CutCache",
    "DESK",
    "Flow",
    "GraphFormatError",
    "GraphInstance",
    "InducedView",
    "PAPER",
    "Params",
    "QueryInputError",
    "QueryLedger",
    "get_profile",
]
