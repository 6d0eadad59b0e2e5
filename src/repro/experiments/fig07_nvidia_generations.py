"""Figure 7: model accuracy for convolution across Nvidia GPU generations.

The paper trains the convolution model on a C2070 (Fermi), a K40 (Kepler)
and a GTX980 (Maxwell), and finds the K40 and C2070 similar with the
GTX980 slightly worse.
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.fig04_06_model_error import error_curve
from repro.experiments.presets import get_preset
from repro.experiments.reporting import header, pct, table
from repro.experiments.scheduler import Unit, run_units

NVIDIA_GENERATIONS = ("c2070", "nvidia", "gtx980")  # Fermi, Kepler, Maxwell
LABELS = {"c2070": "C2070", "nvidia": "K40", "gtx980": "GTX980"}


def units(p, seed: int, faults=None) -> list:
    return [
        Unit(f"fig07/{d}", error_curve, dict(
            benchmark="convolution", device_key=d,
            training_sizes=p.training_sizes, holdout=p.holdout,
            repeats=p.repeats, seed=seed, faults=faults,
        ))
        for d in NVIDIA_GENERATIONS
    ]


def merge(p, results: list) -> Dict:
    curves = {c["device"]: c for c in results}
    return {"preset": p.name, "sizes": p.training_sizes, "curves": curves}


def run(preset=None, seed: int = 0, faults=None) -> Dict:
    p = get_preset(preset)
    return merge(p, run_units(units(p, seed, faults)))


def format_text(results: Dict) -> str:
    lines = [
        header("Figure 7 - convolution prediction error across Nvidia generations")
    ]
    rows = []
    for n in results["sizes"]:
        rows.append(
            [n]
            + [pct(results["curves"][d]["errors"][n]) for d in NVIDIA_GENERATIONS]
        )
    lines.append(
        table(rows, headers=("N", *(LABELS[d] for d in NVIDIA_GENERATIONS)))
    )
    last = max(results["sizes"])
    k40 = results["curves"]["nvidia"]["errors"][last]
    c2070 = results["curves"]["c2070"]["errors"][last]
    gtx = results["curves"]["gtx980"]["errors"][last]
    lines.append(
        "paper: K40 ~ C2070, GTX980 slightly worse; measured at "
        f"N={last}: K40 {pct(k40)}, C2070 {pct(c2070)}, GTX980 {pct(gtx)}"
    )
    return "\n".join(lines)


def main() -> None:
    print(format_text(run()))


if __name__ == "__main__":
    main()
