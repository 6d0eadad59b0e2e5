"""Figure 1: the motivational cross-device slowdown experiment.

The paper exhaustively tunes ``convolution`` on each of the three devices,
then runs each device's best configuration on the other two.  Headline
numbers: the best Nvidia configuration is 17.1x slower than the best Intel
configuration on the Intel i7; the two GPUs see ~3x both ways.

Ours does exactly that (the 131K-point space is exhaustible), on true
(noise-free) times.  Cells can legitimately come out "invalid" when one
device's optimum violates another device's resource limits (e.g. a
1024-thread work-group on the HD 7970's 256 limit) — the paper's own
figures have analogous missing results.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.ascii_plot import bar_chart
from repro.experiments.oracle_store import OracleProvider
from repro.experiments.reporting import header, ms, table
from repro.experiments.scheduler import Unit
from repro.kernels import ConvolutionKernel
from repro.simulator.devices import DEVICES, MAIN_DEVICES

#: The paper's headline cell: best-K40-config-on-i7 slowdown.
PAPER_NVIDIA_ON_INTEL = 17.1
#: The paper's GPU<->GPU slowdowns ("approximately 3").
PAPER_GPU_GPU = 3.0


def run(devices=MAIN_DEVICES, seed: int = 0, oracles: OracleProvider | None = None) -> Dict:
    """Exhaustive per-device optima + the cross-evaluation matrix.

    ``oracles`` shares ground-truth tables with the rest of a run (and,
    when store-backed, across processes and sessions).

    Returns
    -------
    dict with ``best`` (device -> (index, time, config dict)) and
    ``matrix`` (target -> source -> slowdown or None-if-invalid).
    """
    provider = oracles if oracles is not None else OracleProvider()
    spec = ConvolutionKernel()
    oracles = {d: provider.oracle(spec, DEVICES[d]) for d in devices}
    best = {}
    for d, oracle in oracles.items():
        idx, t = oracle.global_optimum()
        best[d] = {"index": idx, "time_s": t, "config": dict(spec.space[idx])}

    matrix: Dict[str, Dict[str, float | None]] = {}
    for target in devices:
        matrix[target] = {}
        for source in devices:
            t = oracles[target].time_of(best[source]["index"])
            if t != t:  # NaN: the foreign optimum cannot run here
                matrix[target][source] = None
            else:
                matrix[target][source] = t / best[target]["time_s"]
    return {"best": best, "matrix": matrix, "devices": tuple(devices)}


def units(p, seed: int, faults=None) -> list:
    return [Unit("fig01", run, dict(seed=seed),
                 tables=tuple(("convolution", d) for d in MAIN_DEVICES))]


def merge(p, results: list) -> Dict:
    return results[0]


def format_text(results: Dict) -> str:
    devices = results["devices"]
    lines = [header("Figure 1 - cross-device slowdown of per-device optima (convolution)")]
    rows = []
    for d in devices:
        b = results["best"][d]
        rows.append((d, ms(b["time_s"]), b["config"]))
    lines.append(table(rows, headers=("device", "best time", "best configuration")))
    lines.append("")
    rows = []
    for target in devices:
        row = [target]
        for source in devices:
            s = results["matrix"][target][source]
            row.append("invalid" if s is None else f"{s:.2f}x")
        rows.append(row)
    lines.append(
        table(rows, headers=("on \\ config of", *devices))
    )
    lines.append("")
    labels, values = [], []
    for target in devices:
        for source in devices:
            s_val = results["matrix"][target][source]
            labels.append(f"{source}-config on {target}")
            values.append(float("nan") if s_val is None else s_val)
    lines.append(bar_chart(labels, values, title="slowdown vs own optimum", missing="invalid"))
    nvidia_on_intel = results["matrix"].get("intel", {}).get("nvidia")
    lines.append("")
    lines.append(
        f"paper: best-Nvidia-on-Intel = {PAPER_NVIDIA_ON_INTEL}x, GPU<->GPU ~ {PAPER_GPU_GPU}x; "
        f"measured best-Nvidia-on-Intel = "
        + ("invalid" if nvidia_on_intel is None else f"{nvidia_on_intel:.1f}x")
    )
    return "\n".join(lines)


def main() -> None:
    print(format_text(run()))


if __name__ == "__main__":
    main()
