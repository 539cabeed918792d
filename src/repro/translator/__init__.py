"""The node-side FAM translator (Section III-C, Figures 6 and 7).

DeACT moves system-level translation *into* the node: a FAM-translator
unit in the memory controller consults a large FAM translation cache
resident in local DRAM (1 MB, four-way, four 104-bit entries per 64 B
row) and rewrites node physical addresses into FAM addresses before
they leave the node.  Because the node is untrusted, these cached
translations are *unverified* — the STU still checks access control on
every FAM access.

* :mod:`repro.translator.translation_cache` — the in-DRAM cache
  contents and geometry.
* :mod:`repro.translator.outstanding` — the outstanding-mapping list
  that converts FAM-addressed responses back to node addresses.
* :mod:`repro.translator.fam_translator` — the unit itself with its
  DRAM-access timing.
"""

from repro.translator.fam_translator import FamTranslator
from repro.translator.outstanding import OutstandingMappingList
from repro.translator.translation_cache import TranslationCache

__all__ = [
    "TranslationCache",
    "OutstandingMappingList",
    "FamTranslator",
]
