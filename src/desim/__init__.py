"""Process-oriented discrete event simulation kernel with shared resources.

The core loop lives in :mod:`desim.kernel`; generator-based processes in
:mod:`desim.process`; renewable resources and consumable containers in
:mod:`desim.resources`. :mod:`desim.scenarios` builds the dining-philosopher
party variants and the service counter on top, :mod:`desim.stats` adds the
seeded replication and sweep harness, and :mod:`desim.cli` the command line.
"""

from . import kernel, process, resources, rng
from .kernel import *
from .process import *
from .resources import *
from .rng import *

__all__ = kernel.__all__ + process.__all__ + resources.__all__ + rng.__all__

__version__ = "0.1.0"
