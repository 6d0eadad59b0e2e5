"""Common machinery for the parameterized benchmarks.

A :class:`KernelSpec` is what the runtime and the auto-tuner program
against: it owns the parameter space and can, for any configuration,
produce a workload profile for the simulator and execute a functionally
equivalent NumPy implementation.
"""

from __future__ import annotations

import abc
import math
from typing import List, Mapping, Optional, Sequence

import numpy as np

from repro.params import Configuration, ParameterSpace
from repro.simulator.device import DeviceSpec
from repro.simulator.hashing import unit_uniform
from repro.simulator.workload import WorkloadBatch, WorkloadProfile


def resolve_unroll(
    requested: int,
    device: DeviceSpec,
    uses_driver_pragma: bool,
    key: tuple,
) -> int:
    """Unroll factor actually achieved on ``device``.

    Manual (macro) unrolling — raycasting in the paper — always takes
    effect.  Driver-pragma unrolling — convolution and stereo — is honoured
    with probability-like ``driver_unroll_reliability``, decided
    *deterministically* per (device, kernel, config) so the quirk is part of
    the true time.  The paper blames exactly this mechanism for the AMD
    accuracy gap (§7).
    """
    if requested < 1:
        raise ValueError("unroll factor must be >= 1")
    if requested == 1 or not uses_driver_pragma:
        return requested
    honoured = unit_uniform(device.name, "driver-unroll", *key)
    if honoured < device.driver_unroll_reliability:
        return requested
    return 1


def padded_threads(pixels: int, per_thread: int, wg: int) -> int:
    """Launched work-items along one axis.

    ``ceil(pixels / per_thread)`` threads are needed; OpenCL requires the
    global size to be a multiple of the work-group size, so the launch is
    padded up — the padding threads exit immediately but still occupy SIMD
    lanes and scheduler slots (this is why absurd shapes like 128 pixels per
    thread with 128-wide work-groups are *slow* rather than invalid).
    """
    needed = math.ceil(pixels / per_thread)
    return math.ceil(needed / wg) * wg


class KernelSpec(abc.ABC):
    """One parameterized benchmark.

    Subclasses define the paper's parameter space and the two views of a
    configuration: timing (``workload``) and semantics (``run``).

    Parameters
    ----------
    problem:
        Problem-size object (kernel-specific dataclass).  Defaults to the
        paper's sizes; tests pass small ones.  The *timing* model always
        reflects the problem the spec was built with.
    """

    #: Benchmark name as in Table 1.
    name: str = ""

    def __init__(self, problem=None):
        self.problem = problem if problem is not None else self.paper_problem()
        self._space = self._build_space()

    # -- to implement -------------------------------------------------------

    @classmethod
    @abc.abstractmethod
    def paper_problem(cls):
        """The problem size used in the paper (Table 1)."""

    @abc.abstractmethod
    def _build_space(self) -> ParameterSpace:
        """Construct the Table 2 parameter space."""

    @abc.abstractmethod
    def workload(self, config: Mapping, device: DeviceSpec) -> WorkloadProfile:
        """Workload profile of ``config`` on ``device`` (for the simulator)."""

    @abc.abstractmethod
    def make_inputs(self, rng: np.random.Generator) -> dict:
        """Random input arrays for the functional implementation."""

    @abc.abstractmethod
    def reference(self, inputs: dict) -> np.ndarray:
        """Ground-truth output, computed the obvious way."""

    @abc.abstractmethod
    def run(self, config: Mapping, inputs: dict) -> np.ndarray:
        """Config-dependent functional implementation.

        Must return the same values as :meth:`reference` for every valid
        configuration — the candidates differ in *how*, not *what*.
        """

    # -- provided ------------------------------------------------------------

    @property
    def space(self) -> ParameterSpace:
        """The tuning-parameter space (Table 2)."""
        return self._space

    def config_tuple(self, config: Mapping) -> tuple:
        """Stable identity of a configuration for hashing/jitter."""
        if isinstance(config, Configuration):
            return config.as_tuple()
        return tuple(config[n] for n in self._space.names)

    def unroll_of(self, config: Mapping) -> int:
        """Requested unroll factor of a configuration (1 when the benchmark
        has no unroll parameter); used by the compile-time model."""
        return 1

    def config_tuples(self, indices: Sequence[int]) -> List[tuple]:
        """Config value-tuples of many flat indices (Python ints, so the
        jitter hashes keyed on them match the scalar path bit for bit)."""
        return self._space.tuples_of(indices)

    def workload_batch(
        self,
        indices: Sequence[int],
        device: DeviceSpec,
        config_tuples: Optional[Sequence[tuple]] = None,
    ) -> WorkloadBatch:
        """Workload profiles of many configurations as one column batch.

        The base implementation loops over :meth:`workload` and stacks the
        scalar profiles (raycasting and stereo use it).  A benchmark may
        build the batch from decoded parameter columns instead and make
        :meth:`workload` a one-row view of it
        (:meth:`~repro.simulator.workload.WorkloadBatch.row`); convolution
        does, and the batch-engine tests hold its columns to the
        per-configuration formulas kept in ``tests/scalar_simulator.py``
        bit for bit.  Callers with many configurations call this rather
        than loop over :meth:`workload`.  ``config_tuples`` lets callers
        share the decoded tuples with the executor's jitter pass instead
        of decoding twice.
        """
        profiles = [self.workload(self._space[int(i)], device) for i in indices]
        return WorkloadBatch.from_profiles(profiles)

    def __repr__(self) -> str:
        return f"{type(self).__name__}(space={self._space.size}, problem={self.problem})"
