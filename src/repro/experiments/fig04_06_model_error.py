"""Figures 4-6: mean prediction error vs. number of training samples.

For each (benchmark, device), measure a pool of random configurations,
train the bagged-ANN model on increasing prefixes, and evaluate the mean
relative error on a disjoint held-out set of valid configurations — exactly
the paper's protocol ("we compared the predictions against actual execution
times for valid parameter configurations not used during training",
averaged over several retrained networks).

Paper's anchors at 4000 training configurations:
  Intel i7     6.1% - 8.3%
  Nvidia K40  12.5% - 14.7%
  AMD 7970    12.6% - 21.2%  (raycasting clearly best)
"""

from __future__ import annotations

from typing import Dict, Sequence

import numpy as np

from repro.core.measure import Measurer
from repro.core.model import PerformanceModel
from repro.experiments.ascii_plot import line_plot
from repro.experiments.presets import get_preset
from repro.experiments.reporting import header, pct, table
from repro.experiments.scheduler import Unit, run_units
from repro.kernels import BENCHMARKS, get_benchmark
from repro.runtime import Context
from repro.simulator.devices import DEVICES, MAIN_DEVICES

#: Paper error bands at N=4000 per device (min across benchmarks, max).
PAPER_ERROR_AT_4000 = {
    "intel": (0.061, 0.083),
    "nvidia": (0.125, 0.147),
    "amd": (0.126, 0.212),
}


def error_curve(
    benchmark: str,
    device_key: str,
    training_sizes: Sequence[int],
    holdout: int,
    repeats: int = 1,
    seed: int = 0,
    faults=None,
) -> Dict:
    """Mean relative error at each training size for one (benchmark, device).

    The measurement pool is sampled once; each repeat reshuffles which
    samples form each training prefix (the paper: "we built several neural
    networks using different configurations for each training size and
    report the mean").

    ``faults`` (a profile spec/instance, as ``Context`` accepts) runs the
    measurement pool through the resilient pipeline — the error curve of
    a flaky rig instead of a perfect one.  None is bit-identical to the
    fault-free path.
    """
    spec = get_benchmark(benchmark)
    device = DEVICES[device_key]
    max_n = max(training_sizes)
    rng = np.random.default_rng(seed)

    ctx = Context(device, seed=seed, faults=faults)
    measurer = Measurer(ctx, spec)
    # Oversample: invalid configurations are dropped, and the holdout must
    # stay disjoint from every training prefix.
    want = max_n + holdout
    pool = measurer.sample_and_measure(int(want * 1.15) + 50, rng)
    if pool.n_valid < max_n + holdout:
        extra = measurer.sample_and_measure(want, rng)
        pool = pool.merged_with(extra)
    idx, times = pool.indices, pool.times_s

    hold_idx, hold_t = idx[-holdout:], times[-holdout:]
    train_idx, train_t = idx[:-holdout], times[:-holdout]

    errors = {n: [] for n in training_sizes}
    for r in range(repeats):
        order = np.random.default_rng(seed + 1000 + r).permutation(train_idx.shape[0])
        for n in training_sizes:
            take = order[: min(n, train_idx.shape[0])]
            model = PerformanceModel(spec.space, seed=seed + r)
            model.fit(train_idx[take], train_t[take])
            errors[n].append(model.relative_error(hold_idx, hold_t))
    return {
        "benchmark": benchmark,
        "device": device_key,
        "sizes": tuple(training_sizes),
        "errors": {n: float(np.mean(v)) for n, v in errors.items()},
        "invalid_fraction": pool.invalid_fraction,
    }


def units(
    p, seed: int, faults=None, devices=MAIN_DEVICES, benchmarks=tuple(BENCHMARKS)
) -> list:
    return [
        Unit(f"fig04-06/{b}@{d}", error_curve, dict(
            benchmark=b, device_key=d, training_sizes=p.training_sizes,
            holdout=p.holdout, repeats=p.repeats, seed=seed, faults=faults,
        ))
        for d in devices
        for b in benchmarks
    ]


def merge(p, results: list) -> Dict:
    curves = {(c["device"], c["benchmark"]): c for c in results}
    return {
        "preset": p.name,
        "sizes": p.training_sizes,
        "curves": curves,
        "devices": tuple(dict.fromkeys(d for d, _ in curves)),
        "benchmarks": tuple(dict.fromkeys(b for _, b in curves)),
    }


def run(
    preset=None,
    devices=MAIN_DEVICES,
    benchmarks=tuple(BENCHMARKS),
    seed: int = 0,
    faults=None,
) -> Dict:
    p = get_preset(preset)
    return merge(p, run_units(units(p, seed, faults, devices, benchmarks)))


FIGURE_BY_DEVICE = {"intel": "Figure 4", "nvidia": "Figure 5", "amd": "Figure 6"}


def format_text(results: Dict) -> str:
    lines = []
    sizes = results["sizes"]
    for device in results["devices"]:
        fig = FIGURE_BY_DEVICE.get(device, f"model error on {device}")
        lines.append(
            header(f"{fig} - mean prediction error vs training samples ({device})")
        )
        rows = []
        for n in sizes:
            row = [n]
            for benchmark in results["benchmarks"]:
                row.append(pct(results["curves"][(device, benchmark)]["errors"][n]))
            rows.append(row)
        lines.append(table(rows, headers=("N", *results["benchmarks"])))
        lines.append("")
        lines.append(
            line_plot(
                list(sizes),
                {
                    b: [results["curves"][(device, b)]["errors"][n] for n in sizes]
                    for b in results["benchmarks"]
                },
                logx=True,
                title=f"mean relative error vs N ({device}; log-x)",
            )
        )
        if device in PAPER_ERROR_AT_4000:
            lo, hi = PAPER_ERROR_AT_4000[device]
            lines.append(
                f"paper at N=4000: {pct(lo)} - {pct(hi)} across benchmarks"
            )
        lines.append("")
    return "\n".join(lines)


def main() -> None:
    print(format_text(run()))


if __name__ == "__main__":
    main()
