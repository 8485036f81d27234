"""The names the package exports: a change to the public surface is a change here."""

from __future__ import annotations

import dataclasses

import tracerepair
from tracerepair import FieldTower

PUBLIC = [
    "BandwidthReport", "BandwidthRow", "Codeword", "Coset", "CosetCollection",
    "FieldTower", "FilteredCosets", "RepairPlan", "VERIFICATION_FIELDS",
    "bandwidth_table", "brute_dim", "brute_repair_check", "build_plan", "combine",
    "construct_field", "encode", "enumerate_cosets", "erase", "filter_cosets",
    "gw_max_k", "plan_from_dict", "plan_to_dict", "position_point",
    "rank_over_base", "repair_at", "repair_pipeline",
]

# FieldTower's public callables: its checked arithmetic, nothing unchecked
TOWER_METHODS = [
    "add", "div", "exp", "frobenius", "in_base_field", "inv", "log", "mul",
    "neg", "pow", "sub", "trace",
]


def test_all_is_the_sorted_public_surface() -> None:
    assert len(PUBLIC) == 26 and PUBLIC == sorted(PUBLIC)
    assert tracerepair.__all__ == PUBLIC
    for name in PUBLIC:
        assert getattr(tracerepair, name) is not None, name


def test_tower_methods_are_its_checked_arithmetic() -> None:
    """An unchecked kernel that turned public would show up here."""
    assert len(TOWER_METHODS) == 12 and TOWER_METHODS == sorted(TOWER_METHODS)
    public = sorted(name for name in dir(FieldTower)
                    if not name.startswith("_") and callable(getattr(FieldTower, name)))
    assert public == TOWER_METHODS


def test_coset_records_take_only_what_they_derive_from() -> None:
    """Every other field is computed from these, so a settable copy shows up here."""
    def init_fields(cls):
        return tuple(f.name for f in dataclasses.fields(cls) if f.init)

    assert init_fields(tracerepair.CosetCollection) == ("q", "t")
    assert init_fields(tracerepair.FilteredCosets) == ("collection", "k")
    assert init_fields(tracerepair.RepairPlan) == ("ctx", "cosets", "r")
