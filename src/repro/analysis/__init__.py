"""Result presentation: figure series, text tables and ASCII plots."""

from .plots import ascii_plot
from .series import FigureSeries
from .tables import comparison_table, render_table

__all__ = [
    "FigureSeries",
    "ascii_plot",
    "render_table",
    "comparison_table",
]
