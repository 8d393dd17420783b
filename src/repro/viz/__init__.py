"""Terminal visualization and series export (no plotting stack required)."""

from repro.viz.ascii_plot import bar_chart, line_plot
from repro.viz.export import save_series_csv
from repro.viz.table import format_table

__all__ = [
    "line_plot",
    "bar_chart",
    "format_table",
    "save_series_csv",
]
