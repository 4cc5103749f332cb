"""Optional dependencies, loaded on first use.

numpy only speeds up the batched circuit passes and the dpdb table
kernel; every other path — parsing, planning, the closed forms, the
trail search — runs on the standard library.  Importing it at module
load would put ~0.1 s and ~13 MB on every ``repro`` process, so the
modules that can use it ask :func:`numpy_or_none` at call time instead.
"""

from __future__ import annotations

from functools import cache
from typing import Any

from repro.obs import span as _span


@cache
def numpy_or_none() -> Any:
    """The ``numpy`` module, imported on the first call, or ``None`` when
    it is not installed (callers then take their exact scalar path).

    The one-time import runs inside a ``numpy.import`` span, so traces
    and metrics show its cost as its own row; later calls hit the cache.
    """
    with _span("numpy.import"):
        try:
            import numpy
        except ImportError:
            return None
    return numpy
