"""Normalized ``REPRO_*`` environment variables.

Every knob the harness reads from the environment goes through
:func:`env_str` / :func:`env_int`, under one consistent naming
scheme:

====================== =======================================
name                   meaning
====================== =======================================
``REPRO_WORKERS``      pipeline fan-out width
``REPRO_SEED``         fuzz / random-runner campaign seed
``REPRO_CACHE``        default store directory (``repro.api``)
``REPRO_PROFILE``      enable the IR plan profiler
====================== =======================================
"""

from __future__ import annotations

import os


def env_str(name: str, default: str | None = None) -> str | None:
    """The value of variable ``name``, or ``default`` when unset."""
    return os.environ.get(name, default)


def env_int(name: str, default: int) -> int:
    value = env_str(name)
    return int(value) if value else default

