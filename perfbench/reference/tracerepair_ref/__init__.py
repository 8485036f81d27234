"""A frozen copy of tracerepair, the benchmark's reference implementation.

The modules here are the package's ``field``, ``linalg``, ``cosets``,
``rs`` and ``repair`` as they stood when the benchmark was written,
unchanged; ``oracle`` and ``cli`` are left out.  The benchmark runs each
op on the package under test and on this copy side by side and reports
the ratio of their times: both sides feel the same drift in the host's
speed, so the ratio stays put where a raw time does not.  Do not edit
these files: every later version of the package is measured against
them.
"""

from .cosets import enumerate_cosets, filter_cosets
from .field import construct_field
from .repair import build_plan, gw_max_k, repair_at
from .rs import encode, erase

__all__ = ["build_plan", "construct_field", "encode", "enumerate_cosets", "erase",
           "filter_cosets", "gw_max_k", "repair_at"]
