"""§7 "Further Discussions": the paper's three explanations, quantified.

The paper explains its accuracy patterns with three mechanisms and leaves
them qualitative; this experiment measures each one:

1. **Memory parameters matter less on the CPU** ("all the logical memory
   spaces are mapped to the same physical memory") — compared via
   parameter sensitivities of the memory-space switches on the i7 vs the
   GPUs (with the known exception: ``use_image`` stays huge on the CPU
   because of the emulated-texture cliff, which is the Fig. 8 cluster).
2. **Driver unrolling hurts AMD accuracy** — model error on the AMD GPU
   for the pragma-unrolled benchmarks (convolution, stereo) vs the
   macro-unrolled one (raycasting).
3. **Fewer invalid configurations on the CPU** — invalid fraction of a
   random sample per device.
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np

from repro.core.sensitivity import parameter_sensitivity, sensitivity_report
from repro.experiments.fig04_06_model_error import error_curve
from repro.experiments.oracle_store import OracleProvider
from repro.experiments.presets import get_preset
from repro.experiments.reporting import header, pct, table
from repro.experiments.scheduler import Unit, run_units
from repro.kernels import ConvolutionKernel
from repro.simulator.devices import DEVICES

MEMORY_PARAMS = ("use_image", "use_local")
COMPUTE_PARAMS = ("wg_x", "wg_y", "ppt_x", "ppt_y")

SENSITIVITY_DEVICES = ("intel", "nvidia", "amd")
UNROLL_BENCHMARKS = ("convolution", "raycasting", "stereo")


def memory_sensitivity_for_device(
    key: str, seed: int = 0, n_base: int = 120,
    oracles: Optional[OracleProvider] = None,
) -> Dict:
    provider = oracles if oracles is not None else OracleProvider()
    spec = ConvolutionKernel()
    oracle = provider.oracle(spec, DEVICES[key])
    rng = np.random.default_rng(seed)
    return parameter_sensitivity(oracle.times_for, spec.space, rng, n_base=n_base)


def amd_unroll_error(
    benchmark: str, seed: int = 0, n_train: int = 2000, holdout: int = 300
) -> float:
    c = error_curve(benchmark, "amd", (n_train,), holdout, repeats=1, seed=seed)
    return c["errors"][n_train]


def invalid_fraction_by_device(
    seed: int = 0, n: int = 3000, oracles: Optional[OracleProvider] = None
) -> Dict:
    """Invalid fraction of one random sample, per device.

    An invalid configuration is exactly a NaN true time, so the check
    rides the oracle's vectorized (and, when store-backed, persistent)
    ``times_for`` instead of a scalar ``validate`` loop.
    """
    provider = oracles if oracles is not None else OracleProvider()
    spec = ConvolutionKernel()
    rng = np.random.default_rng(seed)
    idx = spec.space.sample_indices(n, rng)
    out = {}
    for key in SENSITIVITY_DEVICES:
        oracle = provider.oracle(spec, DEVICES[key])
        out[key] = float(np.isnan(oracle.times_for(idx)).mean())
    return out


def units(p, seed: int, faults=None) -> list:
    return [
        *(Unit(f"sec7/sensitivity@{d}", memory_sensitivity_for_device,
               dict(key=d, seed=seed, n_base=p.sec7_n_base))
          for d in SENSITIVITY_DEVICES),
        *(Unit(f"sec7/amd@{b}", amd_unroll_error,
               dict(benchmark=b, seed=seed, n_train=p.sec7_n_train,
                    holdout=p.sec7_holdout))
          for b in UNROLL_BENCHMARKS),
        Unit("sec7/invalid", invalid_fraction_by_device,
             dict(seed=seed, n=p.sec7_invalid_n)),
    ]


def merge(p, results: list) -> Dict:
    n = len(SENSITIVITY_DEVICES)
    return {
        "amd_n_train": p.sec7_n_train,
        "sensitivity": dict(zip(SENSITIVITY_DEVICES, results[:n])),
        "amd_errors": dict(zip(UNROLL_BENCHMARKS, results[n:-1])),
        "invalid": results[-1],
    }


def run(preset=None, seed: int = 0, oracles: Optional[OracleProvider] = None) -> Dict:
    p = get_preset(preset)
    return merge(p, run_units(units(p, seed), oracles))


def format_text(results: Dict) -> str:
    lines = [header("S7 discussion - the paper's three mechanisms, quantified")]

    lines.append("")
    lines.append("(1) parameter sensitivity (e-folds of runtime), convolution:")
    for key, sens in results["sensitivity"].items():
        lines.append(f"\n  {key}:")
        lines.append("    " + sensitivity_report(sens).replace("\n", "\n    "))
    code_params = ("pad", "interleaved", "unroll")
    code_cpu = np.mean([results["sensitivity"]["intel"][p] for p in code_params])
    code_gpu = np.mean(
        [results["sensitivity"][d][p] for d in ("nvidia", "amd") for p in code_params]
    )
    wg_cpu = np.mean([results["sensitivity"]["intel"][p] for p in ("wg_x", "wg_y")])
    wg_gpu = np.mean(
        [results["sensitivity"][d][p] for d in ("nvidia", "amd") for p in ("wg_x", "wg_y")]
    )
    lines.append(
        f"\n  code-generation knobs (pad/interleaved/unroll) move runtime "
        f"{code_gpu / max(code_cpu, 1e-9):.1f}x more on the GPUs than on the CPU, "
        f"and work-group shape {wg_gpu / max(wg_cpu, 1e-9):.1f}x more — the §7 "
        "'less effect on the CPU' claim.  The exception the paper itself "
        "flags: use_image/use_local stay huge on the CPU because emulated "
        "textures are catastrophic unless cached locally (the Fig. 8 cluster)."
    )

    lines.append("")
    lines.append(
        f"(2) AMD model error by benchmark (N={results.get('amd_n_train', 2000)}):"
    )
    lines.append(
        table(
            [(b, pct(e)) for b, e in results["amd_errors"].items()],
            headers=("benchmark", "error"),
        )
    )
    lines.append(
        "  raycasting unrolls manually (macros); convolution/stereo depend "
        "on the AMD driver's unreliable pragma (§7)."
    )

    lines.append("")
    lines.append("(3) invalid fraction of a random sample (convolution):")
    lines.append(
        table(
            [(d, pct(f)) for d, f in results["invalid"].items()],
            headers=("device", "invalid"),
        )
    )
    return "\n".join(lines)


def main() -> None:
    print(format_text(run()))


if __name__ == "__main__":
    main()
