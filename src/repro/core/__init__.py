"""RADS: the paper's primary contribution.

Submodules map one-to-one onto the paper's sections:

- :mod:`repro.core.sme` — single-machine enumeration split (Sec. 3.1).
- :mod:`repro.core.embedding_trie` — compact intermediate results (Sec. 5).
- :mod:`repro.core.cache` — foreign-vertex cache.
- :mod:`repro.core.region` — region groups and memory estimation (Sec. 6).
- :mod:`repro.core.rmeef` — the R-Meef expand / verify & filter rounds
  (Sec. 3.2, Appendix B), with the edge verification index of Def. 5.
- :mod:`repro.core.rads` — engine orchestration, asynchrony and
  checkR/shareR work stealing.
"""

from repro.core.cache import ForeignVertexCache
from repro.core.region import RegionGrouper
from repro.core.sme import SingleMachineSplit
from repro.core.rads import RADSEngine

__all__ = [
    "ForeignVertexCache",
    "RegionGrouper",
    "SingleMachineSplit",
    "RADSEngine",
]
