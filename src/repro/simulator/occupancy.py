"""Occupancy: how many work-groups a compute unit can keep resident.

GPUs hide memory latency by switching between resident work-groups; how many
fit is limited by the per-CU thread budget, work-group slots, local-memory
capacity and the register file.  Low occupancy means memory time cannot be
overlapped with compute — the single biggest reason work-group shape and
per-thread work interact with everything else, and why a learned model beats
one-at-a-time parameter search.

The rules are evaluated on a
:class:`~repro.simulator.workload.WorkloadBatch`, one entry per
configuration (:func:`compute_occupancy_batch`); :func:`compute_occupancy`
is a one-row view of it.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.simulator.device import DeviceSpec
from repro.simulator.workload import WorkloadBatch, WorkloadProfile


@dataclass(frozen=True)
class OccupancyResult:
    """Occupancy of one launch on one device.

    Attributes
    ----------
    workgroups_per_cu:
        Resident work-groups per compute unit (0 means the work-group does
        not fit at all — a launch failure).
    active_threads_per_cu:
        Resident work-items per compute unit.
    occupancy:
        ``active_threads_per_cu / max_threads_per_cu`` in [0, 1].
    limiter:
        Which resource bound first: ``"threads"``, ``"slots"``,
        ``"local_mem"`` or ``"registers"``.
    """

    workgroups_per_cu: int
    active_threads_per_cu: int
    occupancy: float
    limiter: str


#: The resources that can bound residency, in name order.  The limiter is
#: the first of them with the lowest limit.
LIMITERS = ("local_mem", "registers", "slots", "threads")


@dataclass(frozen=True)
class OccupancyBatch:
    """Array-shaped :class:`OccupancyResult`: one entry per configuration,
    with ``limiter`` holding positions in :data:`LIMITERS`."""

    workgroups_per_cu: np.ndarray
    active_threads_per_cu: np.ndarray
    occupancy: np.ndarray
    limiter: np.ndarray

    def row(self, i: int) -> OccupancyResult:
        """Configuration ``i`` as an :class:`OccupancyResult` of Python
        ints, a float and the limiter's name."""
        return OccupancyResult(
            workgroups_per_cu=int(self.workgroups_per_cu[i]),
            active_threads_per_cu=int(self.active_threads_per_cu[i]),
            occupancy=float(self.occupancy[i]),
            limiter=LIMITERS[int(self.limiter[i])],
        )


def effective_registers_per_thread(workload, device: DeviceSpec):
    """Register demand after the compiler clamps to the per-thread ceiling.

    Demand above the ceiling spills (handled as extra memory traffic by the
    executor), it does not raise the per-thread allocation further.
    ``workload`` is a :class:`WorkloadBatch` (one entry per configuration)
    or a single :class:`WorkloadProfile`.
    """
    return np.minimum(workload.registers_per_thread, device.max_registers_per_thread)


def compute_occupancy_batch(batch: WorkloadBatch, device: DeviceSpec) -> OccupancyBatch:
    """Resident work-groups per CU and the limiting resource, per
    configuration of a workload batch.

    Each resource in :data:`LIMITERS` gives a limit on resident
    work-groups; a resource a configuration does not consume (no local
    memory, zero registers) gives none.  The lowest limit binds, and a tie
    goes to the first resource in name order.
    """
    wg_threads = batch.workgroup_threads

    no_limit = np.iinfo(np.int64).max
    lm = batch.local_mem_per_wg_bytes
    regs_per_wg = effective_registers_per_thread(batch, device) * wg_threads
    # One row per configuration, one column per resource in LIMITERS order;
    # argmin keeps the first of equal minima.
    limits = np.stack(
        [
            np.where(
                lm > 0, device.local_mem_per_cu_bytes // np.maximum(lm, 1), no_limit
            ),
            np.where(
                regs_per_wg > 0,
                device.registers_per_cu // np.maximum(regs_per_wg, 1),
                no_limit,
            ),
            np.full_like(wg_threads, device.max_workgroups_per_cu),
            device.max_threads_per_cu // wg_threads,
        ],
        axis=1,
    )
    limiter = np.argmin(limits, axis=1)
    wgs = np.maximum(0, limits[np.arange(len(limiter)), limiter])

    # Never let more work-groups be "resident" than exist in the launch.
    wgs_in_launch = batch.num_workgroups
    cu_share = np.maximum(
        1, (wgs_in_launch + device.compute_units - 1) // device.compute_units
    )
    wgs_effective = np.minimum(wgs, cu_share)

    active = wgs_effective * wg_threads
    occ = np.minimum(1.0, active / device.max_threads_per_cu)
    return OccupancyBatch(
        workgroups_per_cu=wgs_effective,
        active_threads_per_cu=active,
        occupancy=occ,
        limiter=limiter,
    )


def compute_occupancy(profile: WorkloadProfile, device: DeviceSpec) -> OccupancyResult:
    """Resident work-groups per CU and the limiting resource of one launch:
    a one-row view of :func:`compute_occupancy_batch` (batch many
    configurations instead of looping over this)."""
    batch = WorkloadBatch.from_profiles([profile])
    return compute_occupancy_batch(batch, device).row(0)
