"""Tables 1 and 2: benchmark descriptions and tuning-parameter spaces.

These are descriptive tables; regenerating them verifies that our
parameterizations match the paper exactly — in particular the space sizes
the paper quotes: 131K (convolution), 655K (raycasting), 2359K (stereo).
"""

from __future__ import annotations

from typing import Dict

from repro.experiments.reporting import header, table
from repro.experiments.scheduler import Unit
from repro.kernels import BENCHMARKS, get_benchmark

#: Table 1 wording.
DESCRIPTIONS = {
    "convolution": "convolution of 2048x2048 2D image with 5x5 box filter, "
    "example of stencil computation",
    "raycasting": "volume visualization generating 1024x1024 2D image from "
    "512x512x512 3D volume data",
    "stereo": "computing disparity between two 1024x1024 stereo images to "
    "determine distances to objects",
}

#: The space sizes quoted in §5.1.
PAPER_SPACE_SIZES = {"convolution": 131072, "raycasting": 655360, "stereo": 2359296}


def run() -> Dict:
    out = {}
    for name in BENCHMARKS:
        spec = get_benchmark(name)
        out[name] = {
            "description": DESCRIPTIONS[name],
            "space_size": spec.space.size,
            "paper_size": PAPER_SPACE_SIZES[name],
            "parameters": [
                (p.name, p.description, p.values) for p in spec.space.parameters
            ],
        }
    return out


def units(p, seed: int, faults=None) -> list:
    return [Unit("tables", run)]


def merge(p, results: list) -> Dict:
    return results[0]


def format_text(results: Dict) -> str:
    lines = [header("Table 1 - benchmarks")]
    lines.append(
        table(
            [(n, r["description"]) for n, r in results.items()],
            headers=("benchmark", "description"),
        )
    )
    lines.append("")
    lines.append(header("Table 2 - tuning parameters"))
    for name, r in results.items():
        lines.append("")
        match = "OK" if r["space_size"] == r["paper_size"] else "MISMATCH"
        lines.append(
            f"{name}: space size {r['space_size']} "
            f"(paper: {r['paper_size']}) [{match}]"
        )
        lines.append(
            table(
                [
                    (pname, desc, ",".join(str(v) for v in values))
                    for pname, desc, values in r["parameters"]
                ],
                headers=("parameter", "description", "possible values"),
            )
        )
    return "\n".join(lines)


def main() -> None:
    print(format_text(run()))


if __name__ == "__main__":
    main()
