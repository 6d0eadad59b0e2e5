"""OpenCL-flavoured host API over the performance simulator.

This is the layer a pyopencl-based tuner would talk to, with the same
life-cycle and the same failure modes:

    platform = Platform()
    device = platform.devices()[0]           # or Device(NVIDIA_K40)
    ctx = Context(device, seed=42)
    program = Program(ctx, kernel_spec, config)
    kernel = program.build()                  # may raise BuildError
    event = kernel.enqueue()                  # may raise LaunchError
    event.wait()
    print(event.duration_s)                   # noisy profiled time

Every build and run — including the *failed* ones for invalid
configurations — is charged to the context's :class:`CostLedger`, which is
how the §6 cost accounting ("gathering the data takes about 30 minutes")
is reproduced.
"""

from __future__ import annotations

from typing import List, Mapping, Optional

import numpy as np

from repro.kernels.base import KernelSpec
from repro.obs import NULL_TRACER
from repro.runtime.errors import (
    BuildError,
    DeviceResetError,
    LaunchError,
    TimeoutError,
    TransientError,
)
from repro.simulator.device import DeviceSpec
from repro.simulator.drift import make_drift
from repro.simulator.faults import HANG, RESET, TRANSIENT, make_injector
from repro.simulator.devices import DEVICES
from repro.simulator.executor import ExecutionBreakdown, execute
from repro.simulator.noise import (
    FAILED_BUILD_COST_S,
    FAILED_LAUNCH_COST_S,
    CostLedger,
    MeasurementModel,
    compile_time,
)
from repro.simulator.validity import STAGE_BUILD, ValidationResult, validate
from repro.simulator.workload import WorkloadProfile


class Device:
    """A device handle wrapping an architecture spec."""

    def __init__(self, spec: DeviceSpec):
        self.spec = spec

    @property
    def name(self) -> str:
        return self.spec.name

    def __repr__(self) -> str:
        return f"Device({self.spec.name!r})"


class Platform:
    """The simulated platform: exposes the paper's device catalog."""

    name = "repro OpenCL performance-model platform"
    vendor = "repro"

    def devices(self) -> List[Device]:
        return [Device(spec) for spec in DEVICES.values()]

    def device(self, key: str) -> Device:
        from repro.simulator.devices import get_device

        return Device(get_device(key))


class Context:
    """Execution context: one device, a seeded noise source, a cost ledger,
    an (optional) tracer the pipeline components report into, and an
    (optional) fault injector modelling a flaky rig.

    ``faults`` accepts a :class:`~repro.simulator.faults.FaultProfile`, a
    ready :class:`~repro.simulator.faults.FaultInjector`, a named profile
    string (``"flaky-gpu"``), or None.  Fault decisions are drawn from
    their own keyed hash stream — never from this context's RNG — so a
    fault-free run is bit-identical with or without the argument.

    ``drift`` accepts a :class:`~repro.simulator.drift.DriftProfile`, a
    ready :class:`~repro.simulator.drift.DriftModel`, a named schedule
    string (``"thermal-throttle"``), or None.  Drift factors multiply
    true times at the launch surface and are likewise drawn from a keyed
    hash — a drift-free run (``None`` or ``"none"``) is bit-identical
    with or without the argument.
    """

    def __init__(
        self,
        device: Device | DeviceSpec,
        seed: Optional[int] = None,
        tracer=None,
        faults=None,
        drift=None,
    ):
        if isinstance(device, DeviceSpec):
            device = Device(device)
        self.device = device
        self.rng = np.random.default_rng(seed)
        self.measurement = MeasurementModel(device.spec, self.rng)
        self.ledger = CostLedger()
        self.faults = make_injector(faults)
        self.drift = make_drift(drift)
        self.tracer = tracer if tracer is not None else NULL_TRACER
        if self.tracer.ledger is None:
            # Spans record this context's cost deltas; an explicitly
            # pre-bound ledger (multi-context tracing) is left alone.
            self.tracer.bind_ledger(self.ledger)

    def __repr__(self) -> str:
        return f"Context({self.device.name!r})"


class Event:
    """Completed-launch handle carrying profiling information."""

    def __init__(self, duration_s: float, breakdown: ExecutionBreakdown):
        self._duration_s = duration_s
        self.breakdown = breakdown

    def wait(self) -> "Event":
        """No-op (launches complete synchronously in the simulator); kept
        for call-site parity with real event objects."""
        return self

    @property
    def duration_s(self) -> float:
        """Measured (noisy) kernel duration in seconds."""
        return self._duration_s

    @property
    def duration_ms(self) -> float:
        return self._duration_s * 1e3

    @property
    def true_duration_s(self) -> float:
        """The simulator's noise-free time (not observable on real
        hardware; exposed for evaluation code)."""
        return self.breakdown.total_time


class Kernel:
    """A built kernel, ready to enqueue.

    ``validation`` is the check :meth:`Program.build` ran on ``profile``
    for the context's device; neither ever changes, so every launch
    reuses it.
    """

    def __init__(
        self,
        context: Context,
        spec: KernelSpec,
        config: Mapping,
        profile: WorkloadProfile,
        validation: ValidationResult,
    ):
        self.context = context
        self.spec = spec
        self.config = config
        self.profile = profile
        self.validation = validation

    def _fault_key(self) -> tuple:
        return (self.spec.name, self.spec.config_tuple(self.config))

    def enqueue(self, timeout_s: Optional[float] = None) -> Event:
        """Launch once and return the profiled event.

        Parameters
        ----------
        timeout_s:
            Watchdog budget for this launch.  Only consulted when a fault
            injector hangs the kernel: the hang burns
            ``min(timeout_s, hang_duration_s)`` simulated seconds before
            :class:`TimeoutError` is raised.  None means the driver's own
            watchdog (the profile's full hang duration) applies.

        Raises
        ------
        LaunchError
            For dynamically invalid configurations (register pressure);
            the failure's wall-clock cost is charged to the ledger.
        TransientError / DeviceResetError / TimeoutError
            Injected run-specific failures (only with a fault profile
            attached); each charges its wall-clock cost to the ledger
            *before* any measurement-noise draw, so the noise stream is
            untouched by faults.
        """
        ctx = self.context
        device = ctx.device.spec
        check = self.validation
        if not check.valid:
            # Build-stage problems never reach here (Program.build raised),
            # so any failure at this point is a launch failure.
            ctx.ledger.failed_s += FAILED_LAUNCH_COST_S
            raise LaunchError(check.reason)
        if ctx.faults is not None:
            decision = ctx.faults.at_launch(self._fault_key())
            if decision == RESET:
                ctx.ledger.failed_s += ctx.faults.profile.reset_cost_s
                raise DeviceResetError()
            if decision == HANG:
                waited = ctx.faults.profile.hang_duration_s
                if timeout_s is not None:
                    waited = min(waited, timeout_s)
                ctx.ledger.failed_s += waited
                raise TimeoutError("kernel hung", waited)
            if decision == TRANSIENT:
                ctx.ledger.failed_s += FAILED_LAUNCH_COST_S
                raise TransientError("spurious launch failure", stage="launch")
        breakdown = execute(
            self.profile,
            device,
            jitter_key=(self.spec.name, self.spec.config_tuple(self.config)),
        )
        true_s = breakdown.total_time
        if ctx.drift is not None:
            # The machine as it is *right now*: the drift factor scales the
            # launch's true time at the current drift-clock instant.  The
            # event's breakdown keeps the undrifted base (evaluation code
            # needs the stable ground truth; drift is a property of when
            # you measured, not of the configuration).
            true_s *= ctx.drift.factor(
                ctx.drift.time_of(ctx.ledger),
                self.spec.name,
                self.spec.config_tuple(self.config),
            )
        measured = ctx.measurement.observe(true_s)
        ctx.ledger.run_s += measured
        return Event(measured, breakdown)

    def enqueue_many(self, repeats: int) -> List[Event]:
        """Launch ``repeats`` times (independent noise draws)."""
        return [self.enqueue() for _ in range(repeats)]


class Program:
    """One kernel variant: a (benchmark, configuration) pair to compile."""

    def __init__(self, context: Context, spec: KernelSpec, config: Mapping):
        self.context = context
        self.spec = spec
        self.config = config
        self._kernel: Optional[Kernel] = None

    def build(self) -> Kernel:
        """Compile the variant; returns the kernel or raises BuildError.

        Compile time (base + growth with unroll factor) is charged to the
        ledger, as is the error path for statically invalid configurations.
        """
        ctx = self.context
        device = ctx.device.spec
        profile = self.spec.workload(self.config, device)
        check = validate(profile, device)
        if not check.valid and check.stage == STAGE_BUILD:
            ctx.ledger.failed_s += FAILED_BUILD_COST_S
            raise BuildError(check.reason)
        if ctx.faults is not None:
            key = (self.spec.name, self.spec.config_tuple(self.config))
            if ctx.faults.at_build(key) == TRANSIENT:
                # A deterministic failure takes precedence (checked above);
                # this one is the driver hiccuping on a valid variant.
                ctx.ledger.failed_s += FAILED_BUILD_COST_S
                raise TransientError("spurious build failure", stage="build")
        ctx.ledger.compile_s += compile_time(device, self.spec.unroll_of(self.config))
        self._kernel = Kernel(ctx, self.spec, self.config, profile, check)
        return self._kernel

    @property
    def kernel(self) -> Kernel:
        if self._kernel is None:
            raise RuntimeError("program not built; call build() first")
        return self._kernel
