"""Bandwidth-optimal single-erasure repair of full-length Reed-Solomon codes.

The code lives over F = GF(q^t) evaluated on every field element; each
helper node ships base-field traces instead of full symbols.  Cyclotomic
coset analysis identifies a d-dimensional space of usable check vectors,
letting the repair skip d of the n - 1 helpers entirely while staying
exact.
"""

from .cosets import (Coset, CosetCollection, FilteredCosets, enumerate_cosets,
                     filter_cosets)
from .field import FieldTower, construct_field
from .oracle import (VERIFICATION_FIELDS, brute_dim, brute_repair_check,
                     rank_over_base)
from .repair import (BandwidthReport, BandwidthRow, RepairPlan, bandwidth_table,
                     build_plan, combine, gw_max_k, plan_from_dict, plan_to_dict,
                     repair_at, repair_pipeline)
from .rs import Codeword, encode, erase, position_point

__version__ = "0.1.0"

__all__ = [
    "BandwidthReport", "BandwidthRow", "Codeword", "Coset", "CosetCollection",
    "FieldTower", "FilteredCosets", "RepairPlan", "VERIFICATION_FIELDS",
    "bandwidth_table", "brute_dim", "brute_repair_check", "build_plan", "combine",
    "construct_field", "encode", "enumerate_cosets", "erase", "filter_cosets",
    "gw_max_k", "plan_from_dict", "plan_to_dict", "position_point",
    "rank_over_base", "repair_at", "repair_pipeline",
]
