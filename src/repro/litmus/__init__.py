"""Litmus tests: programs, conversion, candidates, rendering (§2.2, §3.2)."""

from .candidates import (
    Candidate,
    Witness,
    allowed,
    candidate_executions,
    find_witness,
)
from .convert import LitmusTest, execution_to_litmus
from .diagram import edge_summary, to_dot
from .format import LitmusFormatError, parse_litmus, write_litmus
from .postcondition import (
    MemEquals,
    Postcondition,
    RegEquals,
    TxnsSucceeded,
)
from .program import (
    AbortUnless,
    Fence,
    Instruction,
    Load,
    LoadLinked,
    Program,
    Rmw,
    Store,
    StoreConditional,
    TxBegin,
    TxEnd,
)
from .render import ARCHES, render

__all__ = [
    "ARCHES",
    "LitmusFormatError",
    "edge_summary",
    "parse_litmus",
    "to_dot",
    "write_litmus",
    "AbortUnless",
    "Candidate",
    "Fence",
    "Instruction",
    "LitmusTest",
    "Load",
    "LoadLinked",
    "MemEquals",
    "Postcondition",
    "Program",
    "RegEquals",
    "Rmw",
    "Store",
    "StoreConditional",
    "TxBegin",
    "TxEnd",
    "TxnsSucceeded",
    "Witness",
    "allowed",
    "candidate_executions",
    "execution_to_litmus",
    "find_witness",
    "render",
]
