"""Bandwidth-optimal single-erasure repair of full-length Reed-Solomon codes.

The code lives over F = GF(q^t) evaluated on every field element; each
helper node ships base-field traces instead of full symbols.  Cyclotomic
coset analysis identifies a d-dimensional space of usable check vectors,
letting the repair skip d of the n - 1 helpers entirely while staying
exact.
"""

from .cosets import (Coset, CosetCollection, FilteredCosets, enumerate_cosets,
                     filter_cosets, repair_space_dim)
from .field import FieldTower, construct_field
from .oracle import (VERIFICATION_FIELDS, brute_dim, brute_repair_check,
                     rank_over_base)
from .repair import (BandwidthReport, BandwidthRow, RepairPlan, bandwidth_table,
                     build_plan, gw_finish, gw_max_k, plan_from_dict,
                     plan_to_dict, recover_missing_traces, repair_at,
                     repair_pipeline)
from .rs import (Codeword, classical_repair, encode, erase, erase_zero,
                 position_point)

__version__ = "0.1.0"

__all__ = [
    "BandwidthReport", "BandwidthRow", "Codeword", "Coset", "CosetCollection",
    "FieldTower", "FilteredCosets", "RepairPlan", "VERIFICATION_FIELDS",
    "bandwidth_table", "brute_dim", "brute_repair_check", "build_plan",
    "classical_repair", "construct_field", "encode", "enumerate_cosets",
    "erase", "erase_zero", "filter_cosets", "gw_finish", "gw_max_k",
    "plan_from_dict", "plan_to_dict", "rank_over_base",
    "recover_missing_traces", "repair_at", "repair_pipeline",
    "repair_space_dim", "position_point",
]
