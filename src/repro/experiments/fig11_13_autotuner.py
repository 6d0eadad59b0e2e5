"""Figures 11-13: auto-tuner result quality vs. the global optimum.

For convolution (whose 131K space we exhaust for ground truth), sweep the
number of training configurations N and the stage-two size M, and report
the average slowdown of the tuner's pick relative to the global optimum.

Paper anchors: at N=2000, M=200 the tuner lands 3.5% / 8.7% / 5.8% above
the optimum on Intel / Nvidia / AMD after evaluating only 1.7% of the
space; at N=500, M=100 it is 13.0% / 29.7% / 29.3% off.  Cells are missing
when every stage-two candidate was invalid (§7's failure mode).

Since the M best-predicted configurations are nested (top-10 of a model is
a prefix of its top-200), each (device, N, repeat) trains one model and
evaluates all M values from prefixes — the same data the paper's grid
shows, at a fraction of the cost.
"""

from __future__ import annotations

from typing import Dict, Optional, Sequence

import numpy as np

from repro.core.model import PerformanceModel
from repro.experiments.oracle_store import OracleProvider
from repro.experiments.presets import get_preset
from repro.experiments.reporting import header, table
from repro.experiments.scheduler import Unit, run_units
from repro.kernels import ConvolutionKernel
from repro.simulator.devices import DEVICES, MAIN_DEVICES

FIGURE_BY_DEVICE = {"nvidia": "Figure 11", "intel": "Figure 12", "amd": "Figure 13"}

#: Paper anchors: device -> {(N, M): slowdown}.
PAPER_ANCHORS = {
    "intel": {(2000, 200): 1.035, (500, 100): 1.130},
    "nvidia": {(2000, 200): 1.087, (500, 100): 1.297},
    "amd": {(2000, 200): 1.058, (500, 100): 1.293},
}


def tuner_grid_for_device(
    device_key: str,
    sizes: Sequence[int],
    m_values: Sequence[int],
    repeats: int,
    seed: int,
    min_valid_train: int = 30,
    oracles: Optional[OracleProvider] = None,
) -> Dict:
    provider = oracles if oracles is not None else OracleProvider()
    spec = ConvolutionKernel()
    oracle = provider.oracle(spec, DEVICES[device_key])
    _, opt_time = oracle.global_optimum()

    m_values = sorted(m_values)
    m_max = m_values[-1]
    slowdowns = {(n, m): [] for n in sizes for m in m_values}
    failures = {(n, m): 0 for n in sizes for m in m_values}

    for r in range(repeats):
        rng = np.random.default_rng(seed + 7919 * r)
        for n in sizes:
            train_idx = spec.space.sample_indices(n, rng)
            measured = oracle.measure(train_idx, rng)
            ok = ~np.isnan(measured)
            if ok.sum() < max(min_valid_train, 11):
                for m in m_values:
                    failures[(n, m)] += 1
                continue
            model = PerformanceModel(spec.space, seed=seed + r)
            model.fit(train_idx[ok], measured[ok])
            # One fused whole-space sweep serves every M (tops are nested).
            top = model.top_m(m_max)
            stage2 = oracle.measure(top, rng)
            for m in m_values:
                prefix = stage2[:m]
                if np.all(np.isnan(prefix)):
                    failures[(n, m)] += 1
                    continue
                pick = top[int(np.nanargmin(prefix))]
                slowdowns[(n, m)].append(oracle.time_of(pick) / opt_time)

    mean = {
        key: (float(np.mean(v)) if v else float("nan"))
        for key, v in slowdowns.items()
    }
    return {
        "device": device_key,
        "sizes": tuple(sizes),
        "m_values": tuple(m_values),
        "slowdown": mean,
        "failures": failures,
        "optimum_s": opt_time,
    }


def units(p, seed: int, faults=None, devices=MAIN_DEVICES) -> list:
    # Single tuning runs are high-variance (one random sample, one model);
    # always average at least two, as the paper averages several networks.
    return [
        Unit(f"fig11-13/{d}", tuner_grid_for_device, dict(
            device_key=d, sizes=p.tuner_sizes, m_values=p.tuner_m,
            repeats=max(p.repeats, 2), seed=seed,
        ), tables=(("convolution", d),))
        for d in devices
    ]


def merge(p, results: list) -> Dict:
    return {
        "preset": p.name,
        "devices": tuple(g["device"] for g in results),
        "grids": {g["device"]: g for g in results},
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
    lines = []
    for d in results["devices"]:
        g = results["grids"][d]
        fig = FIGURE_BY_DEVICE.get(d, f"tuner grid on {d}")
        lines.append(
            header(f"{fig} - tuner slowdown vs global optimum ({d}, convolution)")
        )
        rows = []
        for n in g["sizes"]:
            row = [n]
            for m in g["m_values"]:
                s = g["slowdown"][(n, m)]
                row.append("missing" if s != s else f"{s:.3f}")
            rows.append(row)
        lines.append(table(rows, headers=("N \\ M", *g["m_values"])))
        anchors = PAPER_ANCHORS.get(d, {})
        for (n, m), paper_s in anchors.items():
            ours = g["slowdown"].get((n, m), float("nan"))
            ours_txt = "missing" if ours != ours else f"{ours:.3f}"
            lines.append(f"paper anchor N={n}, M={m}: {paper_s:.3f}; measured {ours_txt}")
        lines.append("")
    return "\n".join(lines)


def main() -> None:
    print(format_text(run()))


if __name__ == "__main__":
    main()
