"""Relational algebra over finite event sets (§2.1 of the paper)."""

from .algebra import inter_thread, intra_thread, stronglift, weaklift
from .relation import Pair, Relation

__all__ = [
    "Pair",
    "Relation",
    "inter_thread",
    "intra_thread",
    "stronglift",
    "weaklift",
]
