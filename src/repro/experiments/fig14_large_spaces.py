"""Figure 14: tuning the large spaces (raycasting, stereo).

Exhaustive ground truth is out of reach (655K / 2.36M configurations;
"time constraints prevented us", §6), so the paper compares the tuner's
pick (N=3000 stage-one samples, M=300 stage-two candidates — 0.5% / 0.1%
of the spaces) against the best of 50K *random* measured configurations.
Values near (occasionally below) 1.0 mean the tuner matches a 17x-larger
random-search budget; stereo on the GPUs is reported *missing* because the
model predicted almost only invalid configurations there.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.model import PerformanceModel
from repro.experiments.oracle_store import OracleProvider
from repro.experiments.presets import get_preset
from repro.experiments.reporting import header, table
from repro.experiments.scheduler import Unit, run_units
from repro.kernels import get_benchmark
from repro.simulator.devices import DEVICES, MAIN_DEVICES

BENCHMARKS = ("raycasting", "stereo")


def tune_large_space(
    benchmark: str,
    device_key: str,
    n_train: int,
    m_candidates: int,
    random_budget: int,
    seed: int = 0,
    oracles: Optional[OracleProvider] = None,
) -> Dict:
    provider = oracles if oracles is not None else OracleProvider()
    spec = get_benchmark(benchmark)
    oracle = provider.oracle(spec, DEVICES[device_key])
    rng = np.random.default_rng(seed)

    # Stage one + model.
    train_idx = spec.space.sample_indices(n_train, rng)
    measured = oracle.measure(train_idx, rng)
    ok = ~np.isnan(measured)
    result: Dict = {
        "benchmark": benchmark,
        "device": device_key,
        "n_train": n_train,
        "m": m_candidates,
        "random_budget": random_budget,
        "train_invalid_fraction": float(np.isnan(measured).mean()),
    }
    if ok.sum() < 11:
        result.update(slowdown=float("nan"), failed=True, reason="too few valid samples")
        return result
    model = PerformanceModel(spec.space, seed=seed)
    model.fit(train_idx[ok], measured[ok])

    # Stage two: one fused streaming sweep of the whole space.
    top = model.top_m(m_candidates)
    stage2 = oracle.measure(top, rng)
    stage2_invalid = int(np.isnan(stage2).sum())
    result["stage2_invalid"] = stage2_invalid
    if np.all(np.isnan(stage2)):
        # The paper's stereo-on-GPU outcome: no prediction at all.
        result.update(slowdown=float("nan"), failed=True, reason="all stage-2 invalid")
        return result
    pick = int(top[int(np.nanargmin(stage2))])
    tuned_time = oracle.time_of(pick)

    # Reference: best of `random_budget` random measured configurations.
    rand_idx = spec.space.sample_indices(random_budget, rng)
    rand_measured = oracle.measure(rand_idx, rng)
    ref_pick = int(rand_idx[int(np.nanargmin(rand_measured))])
    ref_time = oracle.time_of(ref_pick)

    result.update(
        failed=False,
        tuned_time_s=tuned_time,
        random_best_time_s=ref_time,
        slowdown=tuned_time / ref_time,
    )
    return result


def units(p, seed: int, faults=None, devices=MAIN_DEVICES) -> list:
    return [
        Unit(f"fig14/{b}@{d}", tune_large_space, dict(
            benchmark=b, device_key=d, n_train=p.fig14_train,
            m_candidates=p.fig14_m, random_budget=p.fig14_random_budget,
            seed=seed,
        ))
        for b in BENCHMARKS
        for d in devices
    ]


def merge(p, results: list) -> Dict:
    cells = {(c["benchmark"], c["device"]): c for c in results}
    return {
        "preset": p.name,
        "devices": tuple(dict.fromkeys(d for _, d in cells)),
        "benchmarks": BENCHMARKS,
        "cells": cells,
    }


def run(
    preset=None,
    devices=MAIN_DEVICES,
    seed: int = 0,
    oracles: Optional[OracleProvider] = None,
) -> Dict:
    p = get_preset(preset)
    return merge(p, run_units(units(p, seed, devices=devices), oracles))


def format_text(results: Dict) -> str:
    lines = [
        header(
            "Figure 14 - large-space tuner vs best of "
            "random search (raycasting, stereo)"
        )
    ]
    rows = []
    for device in results["devices"]:
        row = [device]
        for benchmark in results["benchmarks"]:
            c = results["cells"][(benchmark, device)]
            if c.get("failed"):
                row.append(f"missing ({c['reason']})")
            else:
                row.append(f"{c['slowdown']:.3f}")
        rows.append(row)
    lines.append(table(rows, headers=("device", *results["benchmarks"])))
    any_cell = next(iter(results["cells"].values()))
    lines.append(
        f"(tuner: N={any_cell['n_train']}, M={any_cell['m']}; reference: best of "
        f"{any_cell['random_budget']} random configurations)"
    )
    lines.append(
        "paper: slowdowns near 1.0, sometimes slightly below; stereo missing on "
        "the GPUs because the model predicted mostly invalid configurations."
    )
    return "\n".join(lines)


def main() -> None:
    print(format_text(run()))


if __name__ == "__main__":
    main()
