"""Shared crash-cell experiment for executor/service crash tests.

A sweep cell whose runner SIGKILLs its own worker process cannot live
in a fixture: the registry rejects duplicate names, and both
``test_exp_framework.py`` and ``test_service.py`` need the same
experiment.  :func:`ensure_crash_experiment` registers it exactly once
per process and is safe to call from every test that wants a cell able
to take a worker down (workers inherit the registration through the
fork start method).
"""

from __future__ import annotations

import os
import signal

from repro.experiments import registry

CRASH_NAME = "test-crash-cell"


def _crash_cell(crash=False, value=1, seed=0):
    if crash:
        os.kill(os.getpid(), signal.SIGKILL)
    return [{"value": value, "seed": seed}]


def ensure_crash_experiment() -> str:
    """Register the crash experiment if this process hasn't yet."""
    try:
        registry.get_spec(CRASH_NAME)
    except KeyError:
        registry.register(
            CRASH_NAME, "test-only: optionally kills its worker"
        )(_crash_cell)
    return CRASH_NAME
