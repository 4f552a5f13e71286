"""Experiment drivers regenerating the paper's tables and figures.

Callers reach the drivers through the stable facade
(:mod:`repro.api`: ``run_table("table1", arch=..., bound=...)``) or
import them from their modules (``repro.harness.table1.run_table1``
and so on).
"""

from .ablation import AblationResult
from .export import export_suite
from .figure7 import Figure7Result
from .pipeline import CheckPipeline, hardware_for, model_for, run_job
from .figures import FiguresResult, run_figures
from .rtl_bug import RTLBugResult, run_rtl_bug
from .table1 import Table1Result, Table1Row
from .table2 import Table2Result, Table2Row

__all__ = [
    "AblationResult",
    "CheckPipeline",
    "hardware_for",
    "model_for",
    "run_job",
    "Figure7Result",
    "export_suite",
    "FiguresResult",
    "RTLBugResult",
    "Table1Result",
    "Table1Row",
    "Table2Result",
    "Table2Row",
    "run_figures",
    "run_rtl_bug",
]
