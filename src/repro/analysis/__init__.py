"""Experiment cells, paper reference data, tables.

Experiments are *described* in :mod:`repro.exp.registry` and *run* with
:func:`repro.exp.run_experiment`; this package holds what they are made
of."""

from .experiments import (
    barneshut_cell,
    barneshut_scaling_cell,
    fig2_cell,
    fig9_rows_from_cells,
    fig10_rows_from_cells,
    handopt_cell,
    remapping_cell,
    workload_cell,
)
from .tables import PAPER, format_table, ratio

__all__ = [
    "workload_cell",
    "fig2_cell",
    "handopt_cell",
    "barneshut_cell",
    "barneshut_scaling_cell",
    "remapping_cell",
    "fig9_rows_from_cells",
    "fig10_rows_from_cells",
    "PAPER",
    "format_table",
    "ratio",
]
