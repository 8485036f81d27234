"""The names the package exports: a change to the public surface is a change here."""

from __future__ import annotations

import tracerepair

PUBLIC = [
    "BandwidthReport", "BandwidthRow", "Codeword", "Coset", "CosetCollection",
    "FieldTower", "FilteredCosets", "RepairPlan", "VERIFICATION_FIELDS",
    "bandwidth_table", "brute_dim", "brute_repair_check", "build_plan", "combine",
    "construct_field", "encode", "enumerate_cosets", "erase", "filter_cosets",
    "gw_max_k", "plan_from_dict", "plan_to_dict", "position_point",
    "rank_over_base", "repair_at", "repair_pipeline",
]


def test_all_is_the_sorted_public_surface() -> None:
    assert len(PUBLIC) == 26 and PUBLIC == sorted(PUBLIC)
    assert tracerepair.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(tracerepair, name) is not None, name
