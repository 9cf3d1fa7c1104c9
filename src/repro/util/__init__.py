"""Dependency-free utilities: hashing, max-flow, miss curves, tables."""

from repro.util.curves import (
    CurveTable,
    Lookahead,
    MissCurve,
    geometric_capacities,
)
from repro.util.hashing import (
    bucket,
    bucket_array,
    mix64,
    mix64_array,
    weighted_bucket,
    weighted_bucket_array,
)
from repro.util.maxflow import FlowNetwork, solve_bipartite_assignment
from repro.util.tables import format_value, geomean, render_table

__all__ = [
    "CurveTable",
    "Lookahead",
    "MissCurve",
    "geometric_capacities",
    "bucket",
    "bucket_array",
    "mix64",
    "mix64_array",
    "weighted_bucket",
    "weighted_bucket_array",
    "FlowNetwork",
    "solve_bipartite_assignment",
    "format_value",
    "geomean",
    "render_table",
]
