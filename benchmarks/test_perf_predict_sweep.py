"""Microbenchmark + acceptance gate of the prediction-sweep engine.

Pins the sweep engine's contract on a >= 500K-configuration sweep
(raycasting: 655,360 configs):

* the sweep, compile included, is >= 4x faster in a single process than
  the ensemble's GEMM forward pass — encode, then
  ``EnsembleMLPRegressor.predict``, then ``exp``, in chunks of 2^14
  (:func:`gemm_forward`, what ``predict_indices_reference`` ran before
  it shared the sweep's digit tables);
* its predictions match ``PerformanceModel.predict_indices_reference``
  to <= 1e-9 relative.

The fig. 11 anchor check (the tuned model's top-M equals the exact
selection over the GEMM forward pass) lives in ``tests/test_sweep.py``.

Each run also appends a trajectory point (configs/sec, speedup, peak
RSS) to ``benchmarks/BENCH_sweep.json`` so regressions show up as a
series, not just a pass/fail bit.
"""

import json
import resource
import subprocess
import time
from pathlib import Path

import numpy as np
import pytest

from repro.core.model import PerformanceModel
from repro.core.sweep import select_top_m
from repro.experiments.oracle import TrueTimeOracle
from repro.kernels import RaycastingKernel
from repro.simulator import NVIDIA_K40

from conftest import emit

ARTIFACT = Path(__file__).parent / "BENCH_sweep.json"

#: Acceptance gates (ISSUE: fused sweep engine).
MIN_SPEEDUP = 4.0
MAX_REL_ERR = 1e-9
MIN_SPACE = 500_000


@pytest.fixture(scope="module")
def ray_model():
    """A fitted model over the 655K-config raycasting space."""
    spec = RaycastingKernel()
    assert spec.space.size >= MIN_SPACE
    oracle = TrueTimeOracle(spec, NVIDIA_K40)
    rng = np.random.default_rng(21)
    idx = spec.space.sample_indices(800, rng)
    t = oracle.measure(idx, rng)
    ok = ~np.isnan(t)
    model = PerformanceModel(spec.space, seed=21).fit(idx[ok], t[ok])
    return spec, model


def gemm_forward(model, indices, chunk=1 << 14):
    """Encode, ``EnsembleMLPRegressor.predict`` (two float32 GEMMs and
    the per-member epilogue), ``exp``: the whole-space prediction as
    the ensemble itself computes it, in chunks of 2^14."""
    out = np.empty(indices.shape[0], dtype=np.float64)
    for start in range(0, indices.shape[0], chunk):
        part = indices[start : start + chunk]
        out[start : start + part.shape[0]] = np.exp(
            model._model.predict(model.encoder.encode_indices(part))
        )
    return out


def _append_trajectory(point: dict) -> None:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            capture_output=True, text=True, cwd=Path(__file__).parent,
            timeout=10,
        ).stdout.strip() or "unknown"
    except Exception:
        rev = "unknown"
    point = {"git_rev": rev, **point}
    history = []
    if ARTIFACT.exists():
        try:
            history = json.loads(ARTIFACT.read_text())
        except (json.JSONDecodeError, OSError):
            history = []
    history.append(point)
    ARTIFACT.write_text(json.dumps(history, indent=2) + "\n")


def test_sweep_speedup_and_parity(ray_model):
    """The headline gate: >= 4x the GEMM forward pass single-process,
    <= 1e-9 relative to the reference path."""
    spec, model = ray_model
    n = spec.space.size
    all_idx = np.arange(n, dtype=np.int64)

    t0 = time.perf_counter()
    gemm_forward(model, all_idx)
    t_ref = time.perf_counter() - t0
    ref = model.predict_indices_reference(all_idx)

    # Fresh model object so the sweeper compiles inside the timed region
    # exactly once, as it would for a tuner's single post-fit sweep.
    swept = PerformanceModel(spec.space, seed=21)
    swept._model = model._model
    t0 = time.perf_counter()
    pred = swept.predict_all()
    t_sweep = time.perf_counter() - t0

    rel = float(np.max(np.abs(pred - ref) / np.abs(ref)))
    speedup = t_ref / t_sweep
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

    emit(
        f"prediction sweep, {n:,} raycasting configs (K40 model):\n"
        f"  GEMM forward pass  : {t_ref:8.3f} s "
        f"({n / t_ref:12,.0f} configs/s)\n"
        f"  sweeper            : {t_sweep:8.3f} s "
        f"({n / t_sweep:12,.0f} configs/s)\n"
        f"  speedup            : {speedup:8.2f}x\n"
        f"  max relative error : {rel:.3e}\n"
        f"  peak RSS           : {peak_rss_mb:8.0f} MB"
    )
    _append_trajectory(
        {
            "bench": "sweep_speedup_and_parity",
            "space": spec.name,
            "n_configs": int(n),
            "reference_s": round(t_ref, 4),
            "sweep_s": round(t_sweep, 4),
            "configs_per_sec": round(n / t_sweep),
            "baseline_configs_per_sec": round(n / t_ref),
            "speedup": round(speedup, 2),
            "max_rel_err": rel,
            "peak_rss_mb": round(peak_rss_mb),
        }
    )
    assert rel <= MAX_REL_ERR, f"sweep off by {rel:.2e} relative"
    assert speedup >= MIN_SPEEDUP, f"sweeper only {speedup:.2f}x faster"


def test_streaming_top_m_matches_full_selection(ray_model):
    """Streaming top-M over 655K configs == selection over the full
    prediction array, element for element."""
    spec, model = ray_model
    pred = model.predict_all()
    _, want = select_top_m(pred, np.arange(spec.space.size, dtype=np.int64), 300)
    got = model.top_m(300)
    np.testing.assert_array_equal(got, want)


def test_perf_sweep_throughput(benchmark, ray_model):
    """The sweeper alone (compile + whole-space top-M) for the benchmark
    table."""
    spec, model = ray_model

    def run():
        m = PerformanceModel(spec.space, seed=21)
        m._model = model._model
        return m.top_m(300)

    top = benchmark(run)
    assert top.shape == (300,)
