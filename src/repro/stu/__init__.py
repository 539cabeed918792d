"""The System Translation Unit (STU).

The STU is the off-node trusted hardware of the paper (sitting in the
first router a node connects to, "similar in spirit to the Gen-Z
ZMMU").  Its duties differ by architecture:

* **I-FAM** — caches full ``{node page -> FAM page + ACM}`` mappings
  and walks the system page table on misses (Figure 8a).
* **DeACT** — only verifies: the freed cache space holds access-control
  metadata, organized contiguously (**DeACT-W**, Figure 8b) or as
  independent sub-way pairs (**DeACT-N**, Figure 8c); it still walks
  the system page table on behalf of the node's FAM translator when
  the node misses its in-DRAM translation cache.

:mod:`repro.stu.organizations` implements the three cache layouts with
their exact capacity arithmetic (52 spare bits per way, 44-bit sub-way
tags, ACM-width-dependent packing for the Figure 14 sweep);
:mod:`repro.stu.stu` implements the unit itself with its timing.
"""

from repro.stu.organizations import (
    DeactNAcmCache,
    DeactWAcmCache,
    IFamStuCache,
)
from repro.stu.stu import Stu, VerificationResult

__all__ = [
    "IFamStuCache",
    "DeactWAcmCache",
    "DeactNAcmCache",
    "Stu",
    "VerificationResult",
]
