"""Structural OpenCL device performance simulator.

This package stands in for the paper's physical testbed (Intel i7 3770,
Nvidia K40, AMD Radeon HD 7970, plus Nvidia C2070/GTX980).  The auto-tuner
only ever observes a black-box mapping ``configuration -> (time | invalid)``;
what the reproduction needs from that mapping is its *structure*, not its
absolute values:

* optima that differ across devices (so re-tuning matters, Fig. 1);
* multiplicative interactions between parameters (so one-at-a-time search
  fails and a learned model is needed);
* invalid subspaces from resource limits (work-group size, local memory,
  registers), with fewer invalid configurations on the CPU;
* CPU/GPU asymmetries: emulated image memory on the CPU, lock-step SIMD and
  occupancy-driven latency hiding on GPUs, unreliable driver loop unrolling
  on AMD;
* heteroscedastic measurement noise, smaller on the CPU.

The model is a roofline-with-occupancy executor (:mod:`.executor`) fed by a
per-kernel workload characterization (:class:`.workload.WorkloadProfile`):
compute time and memory time are computed per wave of work-groups, overlapped
according to achieved occupancy, plus launch/scheduling overheads.  A
deterministic per-configuration "micro-architectural jitter" term (a stable
hash, :mod:`.hashing`) makes the target function hard-but-learnable, giving
the ANN a realistic error floor.
"""

#: Version stamp of the timing model.  Bump whenever a change to the
#: simulator alters the ``configuration -> (time | invalid)`` mapping for
#: any device: persisted ground-truth tables (the experiments' oracle
#: store) are keyed on it and recomputed on mismatch instead of serving
#: stale times.
SIMULATOR_VERSION = 1

from repro.simulator.device import DeviceSpec
from repro.simulator.devices import (
    AMD_HD7970,
    DEVICES,
    INTEL_I7_3770,
    NVIDIA_C2070,
    NVIDIA_GTX980,
    NVIDIA_K40,
    get_device,
)
from repro.simulator.drift import (
    DRIFT_PROFILES,
    DriftModel,
    DriftProfile,
    get_drift_profile,
    make_drift,
)
from repro.simulator.faults import (
    FAULT_PROFILES,
    FaultInjector,
    FaultProfile,
    get_fault_profile,
)
from repro.simulator.executor import (
    BatchExecution,
    execute_batch,
    simulate_kernel_time,
)
from repro.simulator.noise import MeasurementModel
from repro.simulator.validity import (
    InvalidConfig,
    ValidationResult,
    validate,
    validate_batch,
)
from repro.simulator.workload import WorkloadBatch, WorkloadProfile

__all__ = [
    "SIMULATOR_VERSION",
    "FaultProfile",
    "FaultInjector",
    "FAULT_PROFILES",
    "get_fault_profile",
    "DriftProfile",
    "DriftModel",
    "DRIFT_PROFILES",
    "get_drift_profile",
    "make_drift",
    "DeviceSpec",
    "DEVICES",
    "INTEL_I7_3770",
    "NVIDIA_K40",
    "AMD_HD7970",
    "NVIDIA_C2070",
    "NVIDIA_GTX980",
    "get_device",
    "simulate_kernel_time",
    "execute_batch",
    "BatchExecution",
    "MeasurementModel",
    "InvalidConfig",
    "ValidationResult",
    "validate",
    "validate_batch",
    "WorkloadProfile",
    "WorkloadBatch",
]
