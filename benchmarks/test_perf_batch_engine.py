"""Microbenchmark of the vectorized batch measurement engine.

Pins the acceptance criterion of the batch engine: on a 10K-configuration
convolution sweep, ``Measurer.measure_batch`` must be at least 5x faster
than the scalar per-config ``measure()`` loop over the runtime facade
(the reference kept in ``tests/serial_reference.py``) *and* produce
bit-identical results for the same seed.  Also times the engine's
throughput on its own for the benchmark log, and the durable-cache replay
path (everything served from the MeasurementDB, no simulation at all).
"""

import time

import numpy as np
import pytest

from repro.core.measure import Measurer
from repro.core.results import MeasurementDB
from repro.core.search import exhaustive_search
from repro.kernels import ConvolutionKernel
from repro.runtime import Context
from repro.simulator import NVIDIA_K40
from tests.serial_reference import SerialReference

from conftest import emit

N_SWEEP = 10_000


@pytest.fixture(scope="module")
def conv():
    return ConvolutionKernel()


@pytest.fixture(scope="module")
def sweep_indices(conv):
    return conv.space.sample_indices(N_SWEEP, np.random.default_rng(42))


def test_batch_engine_speedup_and_bit_identity(conv, sweep_indices):
    """measure_batch >= 5x faster than the scalar loop, same results."""
    ctx_scalar = Context(NVIDIA_K40, seed=7)
    ctx_batch = Context(NVIDIA_K40, seed=7)
    m_scalar = SerialReference(ctx_scalar, conv, repeats=3)
    m_batch = Measurer(ctx_batch, conv, repeats=3)

    t0 = time.perf_counter()
    scalar_values = [m_scalar.measure(int(i)) for i in sweep_indices]
    t_scalar = time.perf_counter() - t0

    t0 = time.perf_counter()
    ms = m_batch.measure_batch(sweep_indices)
    t_batch = time.perf_counter() - t0

    # Bit-identical outcomes first — speed without equivalence is worthless.
    ok = np.asarray([v is not None for v in scalar_values])
    assert np.array_equal(np.asarray(sweep_indices)[ok], ms.indices)
    assert np.array_equal(
        np.asarray([v for v in scalar_values if v is not None]), ms.times_s
    )
    assert ctx_scalar.ledger.total_s == ctx_batch.ledger.total_s

    speedup = t_scalar / t_batch
    emit(
        f"batch engine, {N_SWEEP} convolution configs on the K40:\n"
        f"  scalar loop : {t_scalar:8.3f} s "
        f"({N_SWEEP / t_scalar:10,.0f} configs/s)\n"
        f"  batch engine: {t_batch:8.3f} s "
        f"({N_SWEEP / t_batch:10,.0f} configs/s)\n"
        f"  speedup     : {speedup:8.1f}x"
    )
    assert speedup >= 5.0, f"batch engine only {speedup:.1f}x faster"


def test_perf_measure_batch_throughput(benchmark, conv, sweep_indices):
    def run():
        m = Measurer(Context(NVIDIA_K40, seed=7), conv, repeats=3)
        return m.measure_batch(sweep_indices)

    ms = benchmark(run)
    assert ms.n_valid + ms.n_invalid == N_SWEEP


def test_perf_db_replay_throughput(benchmark, conv, sweep_indices, tmp_path):
    """Replaying a persisted sweep touches no simulator code at all."""
    path = tmp_path / "sweep.json"
    db = MeasurementDB(path)
    m = Measurer(Context(NVIDIA_K40, seed=7), conv, repeats=3)
    exhaustive_search(m, db=db, indices=sweep_indices, chunk_size=4096)

    def replay():
        m2 = Measurer(
            Context(NVIDIA_K40, seed=7), conv, repeats=3, db=MeasurementDB(path)
        )
        return m2.measure_batch(sweep_indices)

    ms = benchmark(replay)
    assert ms.n_valid + ms.n_invalid == N_SWEEP
    emit(
        f"db replay of {N_SWEEP} configs: cache hit rate 100%, "
        f"file size {path.stat().st_size / 1024:.0f} KiB"
    )
