"""Figures 8-10: predicted vs. actual execution times (convolution).

The paper scatter-plots 100 held-out configurations per device on log-log
axes and notes a tight diagonal plus, on the Intel i7, a distinct cluster
caused by image-memory-without-local-memory configurations (emulated
texture fetches on the CPU).

We emit the (actual, predicted) pairs, log-space correlation, and an
explicit check of the Intel clustering: the mean slowdown of
image-without-local configurations over the rest.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.measure import Measurer
from repro.core.model import PerformanceModel
from repro.experiments.ascii_plot import scatter_plot
from repro.experiments.reporting import header, kv_block, table
from repro.experiments.scheduler import Unit, run_units
from repro.kernels import ConvolutionKernel
from repro.runtime import Context
from repro.simulator.devices import DEVICES, MAIN_DEVICES

FIGURE_BY_DEVICE = {"intel": "Figure 8", "nvidia": "Figure 9", "amd": "Figure 10"}


def scatter_for_device(
    device_key: str, n_train: int = 2000, n_points: int = 100, seed: int = 0,
    faults=None,
) -> Dict:
    """Train one model (no averaging, as in the paper's scatter figures)
    and predict ``n_points`` held-out configurations.  ``faults`` routes
    the measurement pool through the resilient pipeline (None is the
    fault-free path, bit-identical to omitting the argument)."""
    spec = ConvolutionKernel()
    ctx = Context(DEVICES[device_key], seed=seed, faults=faults)
    measurer = Measurer(ctx, spec)
    rng = np.random.default_rng(seed)
    pool = measurer.sample_and_measure(int((n_train + n_points) * 1.9) + 100, rng)
    idx, times = pool.indices, pool.times_s

    hold_idx, hold_t = idx[-n_points:], times[-n_points:]
    model = PerformanceModel(spec.space, seed=seed)
    model.fit(idx[:n_train], times[:n_train])
    pred = model.predict_indices(hold_idx)

    corr = float(np.corrcoef(np.log(hold_t), np.log(pred))[0, 1])

    # The Fig. 8 clustering diagnostic: image without local memory.
    flags = np.array(
        [
            (spec.space[int(i)]["use_image"], spec.space[int(i)]["use_local"])
            for i in hold_idx
        ]
    )
    cluster = (flags[:, 0] == 1) & (flags[:, 1] == 0)
    cluster_ratio = float("nan")
    if cluster.any() and (~cluster).any():
        cluster_ratio = float(
            np.median(hold_t[cluster]) / np.median(hold_t[~cluster])
        )

    return {
        "device": device_key,
        "actual_s": hold_t,
        "predicted_s": pred,
        "log_correlation": corr,
        "cluster_median_slowdown": cluster_ratio,
        "n_train": n_train,
    }


def units(
    p, seed: int, faults=None, devices=MAIN_DEVICES, n_train: int = 2000
) -> list:
    """One scatter per device; the preset's sizes do not apply (``p`` is
    unused), every run trains on ``n_train`` samples."""
    return [
        Unit(f"fig08-10/{d}", scatter_for_device,
             dict(device_key=d, n_train=n_train, seed=seed, faults=faults))
        for d in devices
    ]


def merge(p, results: list) -> Dict:
    return {
        "devices": tuple(s["device"] for s in results),
        "scatter": {s["device"]: s for s in results},
    }


def run(devices=MAIN_DEVICES, n_train: int = 2000, seed: int = 0, faults=None) -> Dict:
    return merge(None, run_units(units(None, seed, faults, devices, n_train)))


def format_text(results: Dict, max_rows: int = 100) -> str:
    lines = []
    for d in results["devices"]:
        s = results["scatter"][d]
        fig = FIGURE_BY_DEVICE.get(d, f"scatter on {d}")
        lines.append(header(f"{fig} - predicted vs actual execution time ({d})"))
        rows = [
            (f"{a * 1e3:.3f}", f"{p * 1e3:.3f}")
            for a, p in zip(s["actual_s"][:max_rows], s["predicted_s"][:max_rows])
        ]
        lines.append(table(rows, headers=("actual (ms)", "predicted (ms)")))
        info = {
            "log-space correlation": f"{s['log_correlation']:.3f}",
            "image-without-local median slowdown": (
                "n/a"
                if s["cluster_median_slowdown"] != s["cluster_median_slowdown"]
                else f"{s['cluster_median_slowdown']:.1f}x"
            ),
        }
        lines.append(kv_block(info))
        lines.append("")
        lines.append(
            scatter_plot(
                list(s["actual_s"]),
                list(s["predicted_s"]),
                title=f"{fig} (log-log)",
            )
        )
        lines.append("")
    lines.append(
        "paper: points hug the diagonal on log axes; on the Intel i7 the "
        "image-without-local configurations form a distinctly slower cluster."
    )
    return "\n".join(lines)


def main() -> None:
    print(format_text(run()))


if __name__ == "__main__":
    main()
