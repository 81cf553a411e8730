"""Streaming provenance tracking for quantity flows in temporal interaction networks."""

from .alerts import Alert, alert_scan
from .core import (
    ELEMENT_POLICIES,
    PROPORTIONAL_POLICIES,
    REST_LABEL,
    UNKNOWN,
    UNKNOWN_LABEL,
    ConfigError,
    Interaction,
    NoProvEngine,
    Policy,
    RejectedRecord,
    TinError,
    VertexTable,
    generated_totals,
    parse_stream,
    sort_check,
)
from .engines import build_engine
from .gentime import GenTimeEngine
from .oracle import Oracle
from .paths import PathStore
from .proportional import ProportionalSparseEngine, densify
from .receipt import ReceiptEngine
from .report import RunReport, build_report
from .scalable import BudgetSpec, ScopeMap
from .synth import synth_stream, write_stream

__version__ = "0.1.0"

__all__ = [
    "Alert",
    "alert_scan",
    "BudgetSpec",
    "build_engine",
    "build_report",
    "ConfigError",
    "densify",
    "ELEMENT_POLICIES",
    "GenTimeEngine",
    "generated_totals",
    "Interaction",
    "NoProvEngine",
    "Oracle",
    "parse_stream",
    "PathStore",
    "Policy",
    "PROPORTIONAL_POLICIES",
    "ProportionalSparseEngine",
    "ReceiptEngine",
    "RejectedRecord",
    "REST_LABEL",
    "RunReport",
    "ScopeMap",
    "sort_check",
    "synth_stream",
    "TinError",
    "UNKNOWN",
    "UNKNOWN_LABEL",
    "VertexTable",
    "write_stream",
]
