"""§6 cost accounting: gathering data dwarfs training.

The paper: for convolution on the K40, training the model with 2000
samples takes ~1 minute; *gathering* the 2000 samples takes ~30 minutes,
because each sample pays kernel compilation and the wasted attempts on
invalid configurations, not just kernel runtime.

We run the stage-one campaign through the runtime facade (whose ledger
charges compiles, runs and failures in simulated wall-clock) and time the
actual model training on this machine.
"""

from __future__ import annotations

import time
from typing import Dict

import numpy as np

from repro.core.measure import Measurer
from repro.core.model import PerformanceModel
from repro.experiments.reporting import header, kv_block
from repro.experiments.scheduler import Unit
from repro.kernels import ConvolutionKernel
from repro.runtime import Context
from repro.simulator.devices import DEVICES

PAPER_GATHER_MIN = 30.0
PAPER_TRAIN_MIN = 1.0


def run(
    device_key: str = "nvidia", n_train: int = 2000, seed: int = 0, faults=None
) -> Dict:
    spec = ConvolutionKernel()
    ctx = Context(DEVICES[device_key], seed=seed, faults=faults)
    measurer = Measurer(ctx, spec, repeats=3)
    ms = measurer.sample_and_measure(n_train, np.random.default_rng(seed))

    t0 = time.perf_counter()
    PerformanceModel(spec.space, seed=seed).fit_measurements(ms)
    train_wall_s = time.perf_counter() - t0

    ledger = ctx.ledger
    return {
        "device": device_key,
        "n_train": n_train,
        "n_valid": ms.n_valid,
        "n_invalid": ms.n_invalid,
        "compile_s": ledger.compile_s,
        "run_s": ledger.run_s,
        "failed_s": ledger.failed_s,
        "gather_total_s": ledger.total_s,
        "train_wall_s": train_wall_s,
    }


def units(p, seed: int, faults=None) -> list:
    return [Unit("cost", run, dict(seed=seed, faults=faults))]


def merge(p, results: list) -> Dict:
    return results[0]


def format_text(results: Dict) -> str:
    lines = [header("S6 cost accounting - gathering vs training (convolution)")]
    gather_min = results["gather_total_s"] / 60.0
    lines.append(
        kv_block(
            {
                "device": results["device"],
                "samples requested": results["n_train"],
                "valid / invalid": f"{results['n_valid']} / {results['n_invalid']}",
                "compile time": f"{results['compile_s'] / 60:.1f} min",
                "kernel run time": f"{results['run_s'] / 60:.1f} min",
                "failed-attempt time": f"{results['failed_s'] / 60:.1f} min",
                "total gathering": f"{gather_min:.1f} min (paper: ~{PAPER_GATHER_MIN:.0f} min)",
                "model training": f"{results['train_wall_s']:.1f} s wall "
                f"(paper: ~{PAPER_TRAIN_MIN:.0f} min on 2015 hardware)",
                "gather / train ratio": f"{results['gather_total_s'] / max(results['train_wall_s'], 1e-9):.0f}x",
            }
        )
    )
    return "\n".join(lines)


def main() -> None:
    print(format_text(run()))


if __name__ == "__main__":
    main()
