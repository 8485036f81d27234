from __future__ import annotations

import pytest
from hypothesis import settings

from tracerepair.field import construct_field

# Property tests draw from a fixed seed and have no per-example deadline,
# so a slow or busy host neither fails them nor changes what they draw.
settings.register_profile("deterministic", derandomize=True, deadline=None,
                          database=None)
settings.load_profile("deterministic")


@pytest.fixture(scope="session")
def gf4():
    return construct_field(2, 1, 2)


@pytest.fixture(scope="session")
def gf9():
    return construct_field(3, 1, 2)


@pytest.fixture(scope="session")
def gf8():
    return construct_field(2, 1, 3)


@pytest.fixture(scope="session")
def gf16_over_gf4():
    return construct_field(2, 2, 2)


@pytest.fixture(scope="session")
def gf16_over_gf2():
    return construct_field(2, 1, 4)


@pytest.fixture(scope="session")
def gf25():
    return construct_field(5, 1, 2)


@pytest.fixture(scope="session")
def gf64_over_gf8():
    return construct_field(2, 3, 2)


def _trace_logs(ctx, traces):
    """Traces as the repair's sums take them: log v, or 2 (order - 1) for 0."""
    return [ctx.log(v) if v else 2 * (ctx.order - 1) for v in traces]


@pytest.fixture(scope="session")
def trace_logs():
    return _trace_logs
