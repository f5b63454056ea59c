"""Distributed subgraph-enumeration engines: RADS and the four baselines."""

from repro import _lazy
from repro.engines.base import EnumerationEngine, RunResult
from repro.engines.single import SingleMachineEngine
from repro.engines.psgl import PSgLEngine
from repro.engines.twintwig import TwinTwigEngine
from repro.engines.seed import SEEDEngine
from repro.engines.crystal import CliqueIndex, CrystalEngine
from repro.engines.multiway import MultiwayJoinEngine, compute_shares
from repro.engines.replication import ReplicationEngine

__all__ = [
    "EnumerationEngine",
    "RunResult",
    "SingleMachineEngine",
    "PSgLEngine",
    "TwinTwigEngine",
    "SEEDEngine",
    "CrystalEngine",
    "CliqueIndex",
    "MultiwayJoinEngine",
    "ReplicationEngine",
    "compute_shares",
    "RADSEngine",
]

# RADSEngine lives in repro.core, which itself imports engines.base;
# resolving it lazily keeps the import graph acyclic.
__getattr__, __dir__ = _lazy(__name__, {"RADSEngine": ("repro.core.rads", "RADSEngine")})
