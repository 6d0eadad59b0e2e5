"""Figure 2: the ANN topology (illustrative in the paper).

Regenerates the companion facts: the paper's network shape (single hidden
layer, 30 sigmoid neurons, linear output), its parameter count for each
benchmark's feature width, and a worked forward pass of a single neuron —
the weighted sum + activation of the figure's lower panel.
"""

from __future__ import annotations

from typing import Dict

import numpy as np

from repro.core.encoding import ConfigEncoder
from repro.experiments.reporting import header, kv_block
from repro.experiments.scheduler import Unit
from repro.kernels import BENCHMARKS, get_benchmark
from repro.ml import MLPRegressor, Sigmoid


def run() -> Dict:
    info = {}
    for name in BENCHMARKS:
        spec = get_benchmark(name)
        enc = ConfigEncoder(spec.space)
        m = MLPRegressor(hidden=(30,), activation="sigmoid", epochs=1, seed=0)
        X = np.zeros((2, enc.n_features))
        m.fit(X, np.zeros(2))
        info[name] = {
            "features": enc.n_features,
            "feature_names": list(enc.feature_names),
            "parameters": m.n_parameters,
            "topology": m.describe(),
        }
    # Single-neuron worked example (Fig. 2, lower panel).
    w = np.array([0.5, -1.0, 0.25])
    x = np.array([1.0, 0.5, 2.0])
    z = float(w @ x)
    info["neuron_example"] = {"weights": w, "inputs": x, "z": z,
                             "y": float(Sigmoid.value(np.array([z]))[0])}
    return info


def units(p, seed: int, faults=None) -> list:
    return [Unit("fig02", run)]


def merge(p, results: list) -> Dict:
    return results[0]


def format_text(results: Dict) -> str:
    lines = [header("Figure 2 - the paper's network, instantiated per benchmark")]
    for name in BENCHMARKS:
        r = results[name]
        lines.append("")
        lines.append(
            kv_block(
                {
                    "benchmark": name,
                    "input features": r["features"],
                    "topology": r["topology"],
                    "trainable parameters": r["parameters"],
                    "features": ", ".join(r["feature_names"]),
                }
            )
        )
    ex = results["neuron_example"]
    lines.append("")
    lines.append(
        "single neuron: y = sigmoid(w.x) = "
        f"sigmoid({ex['z']:.3f}) = {ex['y']:.4f}"
    )
    return "\n".join(lines)


def main() -> None:
    print(format_text(run()))


if __name__ == "__main__":
    main()
