"""Healer strategies: the Forgiving Tree and the baselines it outperforms."""

from .base import Healer, edge_delta_report
from .forgiving import ForgivingTreeHealer
from .naive import (
    BinaryTreeHealer,
    DegreeCappedSurrogateHealer,
    LineHealer,
    NoRepairHealer,
    SurrogateHealer,
    healer_catalog,
)

def __getattr__(name):
    # Lazy re-export: fgraph.healer itself imports baselines.base, so a
    # module-level import here would cycle when repro.fgraph loads first.
    if name == "ForgivingGraphHealer":
        from ..fgraph.healer import ForgivingGraphHealer

        return ForgivingGraphHealer
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


__all__ = [
    "BinaryTreeHealer",
    "DegreeCappedSurrogateHealer",
    "ForgivingGraphHealer",
    "ForgivingTreeHealer",
    "Healer",
    "LineHealer",
    "NoRepairHealer",
    "SurrogateHealer",
    "edge_delta_report",
    "healer_catalog",
]
