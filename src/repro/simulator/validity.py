"""Invalid-configuration rules.

Some points of the tuning space cannot run at all (§5.2 of the paper):
the work-group exceeds the device limit, the local-memory tile does not fit,
or the register file cannot hold even one work-group.  The paper
distinguishes failures detectable *statically* (before compiling, when the
device is known) from those found only by *attempting to compile and run* —
our runtime mirrors that split: ``build``-stage failures raise
:class:`~repro.runtime.errors.BuildError`, ``launch``-stage failures raise
:class:`~repro.runtime.errors.LaunchError`, and both cost wall-clock time in
the tuner's budget accounting.

The rules are evaluated on a
:class:`~repro.simulator.workload.WorkloadBatch`, one entry per
configuration (:func:`validate_batch`); :func:`validate` is a one-row view
of it that adds the reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Optional

import numpy as np

from repro.simulator.device import DeviceSpec
from repro.simulator.occupancy import OccupancyBatch, compute_occupancy_batch
from repro.simulator.workload import WorkloadBatch, WorkloadProfile

#: Stage at which a failure surfaces.
STAGE_BUILD = "build"
STAGE_LAUNCH = "launch"

#: Integer stage codes used by :func:`validate_batch`.
STAGE_OK_CODE = 0
STAGE_BUILD_CODE = 1
STAGE_LAUNCH_CODE = 2


class InvalidConfig(Exception):
    """A configuration that cannot execute on the target device."""

    def __init__(self, stage: str, reason: str):
        super().__init__(f"[{stage}] {reason}")
        self.stage = stage
        self.reason = reason


@dataclass(frozen=True)
class ValidationResult:
    """Outcome of checking one profile against one device."""

    valid: bool
    stage: str = ""
    reason: str = ""

    def __bool__(self) -> bool:
        return self.valid

    def raise_if_invalid(self) -> None:
        if not self.valid:
            raise InvalidConfig(self.stage, self.reason)


VALID = ValidationResult(True)


#: The static rules in check order (a configuration fails at the first it
#: breaks), and the stage code each rule's failure surfaces at.
_RULE_OK, _RULE_WORKGROUP, _RULE_LOCAL_MEM, _RULE_REGISTERS = range(4)
_STAGE_CODE_OF_RULE = np.array(
    [STAGE_OK_CODE, STAGE_BUILD_CODE, STAGE_BUILD_CODE, STAGE_LAUNCH_CODE],
    dtype=np.int8,
)


def _broken_rules(
    batch: WorkloadBatch, device: DeviceSpec, occ: OccupancyBatch
) -> np.ndarray:
    """The first rule each configuration breaks (``_RULE_OK`` if none)."""
    return np.select(
        [
            batch.workgroup_threads > device.max_workgroup_size,
            batch.local_mem_per_wg_bytes > device.local_mem_per_cu_bytes,
            occ.workgroups_per_cu < 1,
        ],
        [_RULE_WORKGROUP, _RULE_LOCAL_MEM, _RULE_REGISTERS],
        default=_RULE_OK,
    )


def validate_batch(
    batch: WorkloadBatch,
    device: DeviceSpec,
    occ: Optional[OccupancyBatch] = None,
) -> np.ndarray:
    """Check whether launches can execute on ``device``: per-config
    integer stage codes.

    Build-stage failures (knowable from the kernel source + device caps):

    * work-group larger than ``max_workgroup_size``;
    * static local-memory allocation larger than the per-CU scratchpad.

    Launch-stage failures (depend on compiler register allocation):

    * not even one work-group's registers fit in the register file.

    Returns an ``int8`` array with :data:`STAGE_OK_CODE` (0) for runnable
    configurations, :data:`STAGE_BUILD_CODE` (1) for build-stage failures
    and :data:`STAGE_LAUNCH_CODE` (2) for launch-stage failures.  The
    rules are checked in the order above, so build failures take
    precedence.

    ``occ`` is the batch's :func:`compute_occupancy_batch`, when the
    caller already has it (the launch pipeline needs it too).
    """
    if occ is None:
        occ = compute_occupancy_batch(batch, device)
    return _STAGE_CODE_OF_RULE[_broken_rules(batch, device, occ)]


def validate_row(
    batch: WorkloadBatch,
    device: DeviceSpec,
    i: int = 0,
    occ: Optional[OccupancyBatch] = None,
) -> ValidationResult:
    """Configuration ``i`` of ``batch`` checked by :func:`validate_batch`'s
    rules, with the failing stage and a reason naming the broken limit
    (``occ`` as there)."""
    if occ is None:
        occ = compute_occupancy_batch(batch, device)
    rule = int(_broken_rules(batch, device, occ)[i])
    if rule == _RULE_OK:
        return VALID
    wx, wy = int(batch.wx[i]), int(batch.wy[i])
    if rule == _RULE_WORKGROUP:
        return ValidationResult(
            False,
            STAGE_BUILD,
            f"work-group {wx}x{wy} = "
            f"{wx * wy} exceeds device limit {device.max_workgroup_size}",
        )
    if rule == _RULE_LOCAL_MEM:
        return ValidationResult(
            False,
            STAGE_BUILD,
            f"local memory {int(batch.local_mem_per_wg_bytes[i])} B/work-group "
            f"exceeds device limit {device.local_mem_per_cu_bytes} B",
        )
    return ValidationResult(
        False,
        STAGE_LAUNCH,
        f"register demand ({int(batch.registers_per_thread[i])}/thread x "
        f"{wx * wy} threads) exceeds register file "
        f"({device.registers_per_cu}/CU); limiter={occ.row(i).limiter}",
    )


def validate(profile: WorkloadProfile, device: DeviceSpec) -> ValidationResult:
    """Check whether one launch can execute on ``device``: a one-row view
    of :func:`validate_batch` with the stage and reason
    (:func:`validate_row`).  Batch many configurations instead of looping
    over this."""
    return validate_row(WorkloadBatch.from_profiles([profile]), device)
