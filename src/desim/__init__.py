"""Process-oriented discrete event simulation kernel with shared resources.

The core loop lives in :mod:`desim.kernel`; generator-based processes in
:mod:`desim.process`; renewable resources and consumable containers in
:mod:`desim.resources`. :mod:`desim.scenarios` builds the dining-philosopher
party variants and the service counter on top, :mod:`desim.stats` adds the
seeded replication and sweep harness, and :mod:`desim.cli` the command line.
"""

from .kernel import (
    NORMAL,
    URGENT,
    Condition,
    Environment,
    Event,
    KernelError,
    LifecycleError,
    RunOutcome,
    UnhandledFailureError,
    all_of,
    any_of,
)
from .process import Interrupted, Process, spawn
from .resources import Container, ContainerGet, ContainerPut, Request, Resource
from .rng import Rng

__all__ = [
    "NORMAL",
    "URGENT",
    "Condition",
    "Environment",
    "Event",
    "KernelError",
    "LifecycleError",
    "RunOutcome",
    "UnhandledFailureError",
    "all_of",
    "any_of",
    "Interrupted",
    "Process",
    "spawn",
    "Container",
    "ContainerGet",
    "ContainerPut",
    "Request",
    "Resource",
    "Rng",
]

__version__ = "0.1.0"
