"""The batch measurement engine's core contract: vectorized == scalar.

``Measurer.measure_batch`` (and the batch simulator path under it) must be
*bit-identical* to the scalar per-config loop over the runtime facade kept
as the reference in ``tests/serial_reference.py`` — same valid/invalid
split, same measured values, same cost-ledger totals, same RNG stream
consumption, same cache and DB contents.  Everything downstream (search
baselines, the tuner, campaigns, the oracle) relies on this equivalence,
so it is pinned here across all three kernels, CPU and GPU devices,
duplicates, cache hits and DB hits.
"""

import dataclasses

import numpy as np
import pytest

from repro.core.measure import Measurer
from repro.core.results import MeasurementDB
from repro.kernels import ConvolutionKernel, RaycastingKernel, StereoKernel
from repro.runtime import Context
from repro.simulator import (
    AMD_HD7970,
    INTEL_I7_3770,
    NVIDIA_K40,
    execute_batch,
    validate_batch,
)
from repro.simulator.executor import KernelExecutor
from repro.simulator.workload import WorkloadBatch
from tests.serial_reference import SerialReference

CASES = [
    ("convolution", ConvolutionKernel, NVIDIA_K40, 3),
    ("convolution-amd", ConvolutionKernel, AMD_HD7970, 3),
    ("raycasting", RaycastingKernel, INTEL_I7_3770, 1),
    ("stereo", StereoKernel, NVIDIA_K40, 5),
]

_SPECS = {}


def make_spec(cls):
    if cls not in _SPECS:
        _SPECS[cls] = cls()
    return _SPECS[cls]


def scalar_reference(measurer, indices):
    """Loop ``measurer.measure`` (a :class:`SerialReference`, so the scalar
    path over the runtime facade), collecting the same shape measure_batch
    returns."""
    ok_i, ok_t, bad = [], [], []
    for i in indices:
        t = measurer.measure(int(i))
        if t is None:
            bad.append(int(i))
        else:
            ok_i.append(int(i))
            ok_t.append(t)
    return (
        np.asarray(ok_i, dtype=np.int64),
        np.asarray(ok_t, dtype=np.float64),
        np.asarray(bad, dtype=np.int64),
    )


def ledger_of(ctx):
    return (ctx.ledger.compile_s, ctx.ledger.run_s, ctx.ledger.failed_s)


def mixed_indices(spec, rng, n=300):
    """Random indices with intra-batch duplicates mixed in."""
    base = rng.integers(0, spec.space.size, size=n)
    dups = rng.choice(base, size=n // 5)
    out = np.concatenate([base, dups])
    rng.shuffle(out)
    return out


@pytest.mark.parametrize("name,cls,device,repeats", CASES)
class TestBatchEqualsScalar:
    def test_bitwise_identical_measurements(self, name, cls, device, repeats):
        spec = make_spec(cls)
        indices = mixed_indices(spec, np.random.default_rng(hash(name) % 2**31))
        ctx_a, ctx_b = Context(device, seed=7), Context(device, seed=7)
        ma = SerialReference(ctx_a, spec, repeats=repeats)
        mb = Measurer(ctx_b, spec, repeats=repeats)

        oks, times, bads = scalar_reference(ma, indices)
        ms = mb.measure_batch(indices)

        assert np.array_equal(oks, ms.indices)
        assert np.array_equal(times, ms.times_s)
        assert np.array_equal(bads, ms.invalid_indices)
        assert ledger_of(ctx_a) == ledger_of(ctx_b)
        assert ma._cache == mb._cache
        # both paths consumed the same number of noise draws
        assert ctx_a.rng.standard_normal() == ctx_b.rng.standard_normal()

    def test_re_measuring_cached_batch_matches(self, name, cls, device, repeats):
        spec = make_spec(cls)
        rng = np.random.default_rng(3)
        indices = spec.space.sample_indices(120, rng)
        ctx_a, ctx_b = Context(device, seed=11), Context(device, seed=11)
        ma = SerialReference(ctx_a, spec, repeats=repeats)
        mb = Measurer(ctx_b, spec, repeats=repeats)
        for i in indices[:60]:  # pre-populate the caches identically
            ma.measure(i)
            mb.measure(i)

        oks, times, bads = scalar_reference(ma, indices)
        ms = mb.measure_batch(indices)

        assert np.array_equal(oks, ms.indices)
        assert np.array_equal(times, ms.times_s)
        assert np.array_equal(bads, ms.invalid_indices)
        assert ledger_of(ctx_a) == ledger_of(ctx_b)

    def test_db_hits_match_scalar(self, name, cls, device, repeats):
        spec = make_spec(cls)
        rng = np.random.default_rng(5)
        indices = mixed_indices(spec, rng, n=150)
        seeded = {int(i): 0.001 * (k + 1) for k, i in enumerate(indices[:20])}
        seeded[int(indices[25])] = None  # a known-invalid entry
        dbs = [MeasurementDB(), MeasurementDB()]
        for db in dbs:
            db.put_many(spec.name, device.name, seeded)

        ctx_a, ctx_b = Context(device, seed=23), Context(device, seed=23)
        ma = SerialReference(ctx_a, spec, repeats=repeats, db=dbs[0])
        mb = Measurer(ctx_b, spec, repeats=repeats, db=dbs[1])

        oks, times, bads = scalar_reference(ma, indices)
        ms = mb.measure_batch(indices)

        assert np.array_equal(oks, ms.indices)
        assert np.array_equal(times, ms.times_s)
        assert np.array_equal(bads, ms.invalid_indices)
        assert ledger_of(ctx_a) == ledger_of(ctx_b)
        assert dbs[0].table(spec.name, device.name) == dbs[1].table(
            spec.name, device.name
        )


class TestBatchSimulatorPath:
    @pytest.mark.parametrize("name,cls,device,repeats", CASES)
    def test_workload_batch_matches_scalar_profiles(
        self, name, cls, device, repeats
    ):
        spec = make_spec(cls)
        rng = np.random.default_rng(17)
        indices = spec.space.sample_indices(200, rng)
        wb = spec.workload_batch(indices, device)
        ref = WorkloadBatch.from_profiles(
            [spec.workload(spec.space[int(i)], device) for i in indices]
        )
        for f in dataclasses.fields(WorkloadBatch):
            a, b = getattr(wb, f.name), getattr(ref, f.name)
            if isinstance(a, np.ndarray):
                assert np.array_equal(a, b), f"column {f.name} differs"
            else:
                assert a == b, f"field {f.name} differs"

    @pytest.mark.parametrize("name,cls,device,repeats", CASES)
    def test_execute_batch_matches_scalar_executor(
        self, name, cls, device, repeats
    ):
        spec = make_spec(cls)
        rng = np.random.default_rng(29)
        indices = spec.space.sample_indices(200, rng)
        tuples = spec.config_tuples(indices)
        wb = spec.workload_batch(indices, device, config_tuples=tuples)
        be = execute_batch(wb, device, kernel_name=spec.name, config_tuples=tuples)
        stages = validate_batch(wb, device)
        assert np.array_equal(be.stages, stages)
        executor = KernelExecutor(device, spec.name)
        for p, i in enumerate(indices):
            profile = spec.workload(spec.space[int(i)], device)
            if stages[p] != 0:
                assert np.isnan(be.times[p])
                continue
            assert be.times[p] == executor.time(profile, tuples[p])

    def test_sigma_zero_device_consumes_no_probe_draws(self):
        spec = make_spec(ConvolutionKernel)
        quiet = dataclasses.replace(NVIDIA_K40, timing_noise_sigma=0.0)
        indices = mixed_indices(spec, np.random.default_rng(31), n=100)
        ctx_a, ctx_b = Context(quiet, seed=13), Context(quiet, seed=13)
        ma, mb = Measurer(ctx_a, spec), Measurer(ctx_b, spec)
        oks, times, bads = scalar_reference(ma, indices)
        ms = mb.measure_batch(indices)
        assert np.array_equal(times, ms.times_s)
        assert ledger_of(ctx_a) == ledger_of(ctx_b)
        assert ctx_a.rng.standard_normal() == ctx_b.rng.standard_normal()

    def test_empty_batch(self):
        spec = make_spec(ConvolutionKernel)
        ctx = Context(NVIDIA_K40, seed=1)
        before = ledger_of(ctx)
        ms = Measurer(ctx, spec).measure_batch([])
        assert ms.n_valid == 0 and ms.n_invalid == 0
        assert ledger_of(ctx) == before


class TestEngineStats:
    def test_counters_partition_requests(self):
        spec = make_spec(ConvolutionKernel)
        ctx = Context(NVIDIA_K40, seed=2)
        db = MeasurementDB()
        db.put(spec.name, NVIDIA_K40.name, 0, 1e-3)
        m = Measurer(ctx, spec, db=db)
        rng = np.random.default_rng(0)
        indices = np.concatenate(
            [[0], spec.space.sample_indices(50, rng)]
        )
        m.measure_batch(indices)
        m.measure_batch(indices)  # second pass: everything served from db
        s = m.stats
        assert s.n_requested == 2 * len(indices)
        assert s.n_simulated + s.n_cache_hits + s.n_db_hits == s.n_requested
        assert s.n_db_hits >= len(indices) + 1
        assert 0.0 < s.cache_hit_rate <= 1.0
        assert s.configs_per_sec > 0

    def test_merge_adds_counters(self):
        from repro.core.measure import EngineStats

        a = EngineStats(n_requested=5, n_simulated=3, elapsed_s=1.0)
        b = EngineStats(n_requested=7, n_db_hits=7, elapsed_s=0.5)
        c = a.merge(b)
        assert c.n_requested == 12 and c.n_simulated == 3 and c.n_db_hits == 7
        assert c.elapsed_s == 1.5
