"""Scalar views of the simulator's batch functions, for unit tests.

The simulator evaluates each launch-time term on a
:class:`~repro.simulator.workload.WorkloadBatch` (the ``*_batch``
functions of :mod:`repro.simulator.executor` and
:mod:`repro.simulator.memory`).  A unit test that probes one term on one
hand-built profile calls it through :func:`one_row`, which wraps each
profile (and occupancy) argument in a one-row batch and unwraps the
answer.
"""

from __future__ import annotations

import numpy as np

from repro.simulator.memory import MemoryCost
from repro.simulator.occupancy import LIMITERS, OccupancyBatch, OccupancyResult
from repro.simulator.workload import WorkloadBatch, WorkloadProfile


def _as_row(arg):
    if isinstance(arg, WorkloadProfile):
        return WorkloadBatch.from_profiles([arg])
    if isinstance(arg, OccupancyResult):
        return OccupancyBatch(
            workgroups_per_cu=np.array([arg.workgroups_per_cu]),
            active_threads_per_cu=np.array([arg.active_threads_per_cu]),
            occupancy=np.array([arg.occupancy]),
            limiter=np.array([LIMITERS.index(arg.limiter)]),
        )
    return arg


def one_row(batch_fn):
    """``batch_fn`` taking a profile (and occupancy) and returning a float,
    or a :class:`MemoryCost` of floats."""

    def scalar(*args):
        out = batch_fn(*(_as_row(a) for a in args))
        if isinstance(out, MemoryCost):
            return out.row(0)
        return float(out[0])

    return scalar
