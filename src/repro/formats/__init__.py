"""Sparse tensor formats used with indirect Einsums (Section 4 of the paper).

Fixed-length formats (COO, ELL, GroupCOO, BlockCOO, BlockGroupCOO) can be
expressed directly as indirect Einsums; variable-length formats (CSR, BCSR)
are provided for the baselines and for conversion, and explain *why* they
cannot be expressed (their loop bounds depend on data values).
"""

from repro.formats.base import SparseFormat
from repro.formats.coo import COO
from repro.formats.csr import CSR
from repro.formats.ell import ELL
from repro.formats.bcsr import BCSR
from repro.formats.blockcoo import BlockCOO
from repro.formats.groupcoo import GroupCOO
from repro.formats.blockgroupcoo import BlockGroupCOO
from repro.formats.group_size import (
    GroupSizeModel,
    exact_indirect_access_count,
    optimal_group_size,
    relaxed_indirect_access_count,
    select_group_size,
)
from repro.formats.blocking import dense_to_blocks, nonzero_blocks

#: Every format class by its lower-case name — the one table that the
#: operand codec, ``sparse_einsum(format=...)`` and the replay traces
#: resolve a format name with.
FORMATS: dict[str, type[SparseFormat]] = {
    cls.__name__.lower(): cls
    for cls in (COO, CSR, ELL, BCSR, BlockCOO, GroupCOO, BlockGroupCOO)
}

__all__ = [
    "FORMATS",
    "SparseFormat",
    "COO",
    "CSR",
    "ELL",
    "BCSR",
    "BlockCOO",
    "GroupCOO",
    "BlockGroupCOO",
    "GroupSizeModel",
    "exact_indirect_access_count",
    "relaxed_indirect_access_count",
    "optimal_group_size",
    "select_group_size",
    "dense_to_blocks",
    "nonzero_blocks",
]
