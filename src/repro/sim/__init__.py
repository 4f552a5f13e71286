"""Simulated hardware: the substitution layer for the paper's machines."""

from .oracle import OracleHardware, TSOHardware
from .random_runner import RandomisedRunner, SamplingResult
from .runner import Hardware, SuiteResult, run_suite
from .tso import FinalState, TSOMachine

__all__ = [
    "RandomisedRunner",
    "SamplingResult",
    "FinalState",
    "Hardware",
    "OracleHardware",
    "SuiteResult",
    "TSOHardware",
    "TSOMachine",
    "run_suite",
]
