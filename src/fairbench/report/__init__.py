"""Metric tables and sweep plots."""

from .svg import render_sweep_svg, write_sweep_svg
from .tables import STAGE1_HEADER, stage1_rows, write_stage1_csv, write_summary_json, write_sweep_csv

__all__ = [
    "STAGE1_HEADER",
    "render_sweep_svg",
    "stage1_rows",
    "write_stage1_csv",
    "write_summary_json",
    "write_sweep_csv",
    "write_sweep_svg",
]
