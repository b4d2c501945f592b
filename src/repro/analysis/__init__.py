"""Reporting and analysis: tables, ASCII figures, convergence analytics."""

from .reporting import ascii_plot, format_series, format_table
from .convergence import (
    convergence_rate,
    detect_plateau,
    estimate_extreme_eigenvalues,
    iterations_to_tolerance,
)

__all__ = [
    "ascii_plot",
    "format_series",
    "format_table",
    "convergence_rate",
    "detect_plateau",
    "estimate_extreme_eigenvalues",
    "iterations_to_tolerance",
]
