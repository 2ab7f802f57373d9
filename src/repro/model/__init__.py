"""Analytic cost models (Hockney) used by the paper's Section 5.2.1 analysis."""

from repro.model.hockney import (
    HockneyParams,
    chain_pipeline_time,
    point_to_point_time,
    predict_adapt_bcast,
    tree_pipeline_time,
)

__all__ = [
    "HockneyParams",
    "point_to_point_time",
    "chain_pipeline_time",
    "tree_pipeline_time",
    "predict_adapt_bcast",
]
