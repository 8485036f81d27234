"""Property test: encode, erase one position, repair_at, compare."""

from __future__ import annotations

from functools import cache

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from tracerepair.cosets import enumerate_cosets, filter_cosets
from tracerepair.field import construct_field
from tracerepair.oracle import VERIFICATION_FIELDS
from tracerepair.repair import build_plan, gw_max_k, repair_at
from tracerepair.rs import encode, erase

TOWERS = VERIFICATION_FIELDS + ((3, 1, 5),)

@cache
def _field(tower):
    return construct_field(*tower)


# Hypothesis replays and shrinks draws, so the same plan is asked for often.
@cache
def _plan(tower, k, r):
    ctx = _field(tower)
    return build_plan(ctx, filter_cosets(enumerate_cosets(ctx.q, ctx.t), k), r)


@st.composite
def _repairs(draw, tower):
    ctx = _field(tower)
    k = draw(st.integers(1, gw_max_k(ctx)))
    plan = _plan(tower, k, draw(st.integers(0, ctx.order - 2)))
    coeffs = tuple(draw(st.lists(st.integers(0, ctx.order - 1), min_size=k, max_size=k)))
    # the point 0 is the helper x0 + a of x0 = -a: pick a among the helpers
    helper_at_zero = st.sampled_from(plan.helper_exps).map(
        lambda e: ctx.log(ctx.neg(ctx.exp(e))) + 1)
    position = draw(st.one_of(st.just(0), helper_at_zero,
                              st.integers(0, ctx.order - 1)))
    return ctx, plan, coeffs, position


@pytest.mark.parametrize("tower", TOWERS)
@settings(max_examples=30)
@given(data=st.data())
def test_repair_at_round_trip(tower, data) -> None:
    ctx, plan, coeffs, position = data.draw(_repairs(tower))
    cw = encode(ctx, coeffs)
    got, report = repair_at(ctx, plan.k, plan.r, erase(cw, position), position, plan)
    assert got == cw.values[position]
    assert report.b_symbols == ctx.order - 1 - plan.dim
