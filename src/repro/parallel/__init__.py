"""The LogP machine cost model behind the sim engine, and the
distributed quotient-graph edge coloring."""

from .costmodel import MachineModel, DEFAULT_MACHINE, payload_nbytes
from .coloring import (
    greedy_edge_coloring,
    distributed_edge_coloring,
    distributed_edge_coloring_spmd,
    coloring_to_matchings,
    verify_edge_coloring,
)

__all__ = [
    "MachineModel",
    "DEFAULT_MACHINE",
    "payload_nbytes",
    "greedy_edge_coloring",
    "distributed_edge_coloring",
    "distributed_edge_coloring_spmd",
    "coloring_to_matchings",
    "verify_edge_coloring",
]
