"""Micro smoke tests of the heavy experiment functions at tiny budgets.

The benchmark suite asserts the full shape claims; these tests only verify
that each experiment function runs end to end, returns the documented
structure, and renders, so `pytest tests/` exercises every harness path.
"""

import numpy as np
import pytest

from repro.experiments import fig04_06_model_error as fig46
from repro.experiments import fig08_10_scatter as fig810
from repro.experiments import fig11_13_autotuner as fig1113
from repro.experiments import fig14_large_spaces as fig14
from repro.experiments import sec7_discussion as sec7
from repro.experiments.presets import Preset

MICRO = Preset(
    name="micro",
    training_sizes=(60, 150),
    holdout=60,
    repeats=1,
    tuner_sizes=(150,),
    tuner_m=(10, 30),
    fig14_train=200,
    fig14_m=30,
    fig14_random_budget=500,
)


class TestErrorCurveMicro:
    def test_structure_and_rendering(self):
        r = fig46.run(
            preset=MICRO, devices=("nvidia",), benchmarks=("convolution",), seed=0
        )
        curve = r["curves"][("nvidia", "convolution")]
        assert set(curve["errors"]) == {60, 150}
        assert all(0 < e < 2.0 for e in curve["errors"].values())
        assert 0 <= curve["invalid_fraction"] <= 1
        txt = fig46.format_text(r)
        assert "Figure 5" in txt and "missing" not in txt.splitlines()[3]


class TestScatterMicro:
    def test_structure(self):
        r = fig810.run(devices=("intel",), n_train=150, seed=0)
        s = r["scatter"]["intel"]
        assert s["actual_s"].shape == (100,)
        assert s["predicted_s"].shape == (100,)
        assert -1.0 <= s["log_correlation"] <= 1.0
        assert "Figure 8" in fig810.format_text(r, max_rows=5)


class TestTunerGridMicro:
    def test_structure(self):
        g = fig1113.tuner_grid_for_device(
            "intel", sizes=(150,), m_values=(10, 30), repeats=1, seed=0
        )
        assert set(g["slowdown"]) == {(150, 10), (150, 30)}
        for v in g["slowdown"].values():
            assert v != v or v >= 0.99
        r = {"preset": "micro", "devices": ("intel",), "grids": {"intel": g}}
        assert "Figure 12" in fig1113.format_text(r)

    def test_failure_counted_when_too_few_valid(self):
        g = fig1113.tuner_grid_for_device(
            "amd", sizes=(40,), m_values=(10,), repeats=1, seed=0,
            min_valid_train=1000,  # force the too-few-samples branch
        )
        assert g["failures"][(40, 10)] == 1
        assert g["slowdown"][(40, 10)] != g["slowdown"][(40, 10)]  # NaN


class TestFig14Micro:
    def test_structure(self):
        cell = fig14.tune_large_space(
            "raycasting", "nvidia", n_train=200, m_candidates=30,
            random_budget=500, seed=0,
        )
        assert cell["benchmark"] == "raycasting"
        if not cell["failed"]:
            assert cell["slowdown"] > 0
            assert cell["tuned_time_s"] > 0
        r = {
            "preset": "micro",
            "devices": ("nvidia",),
            "benchmarks": ("raycasting",),
            "cells": {("raycasting", "nvidia"): cell},
        }
        assert "Figure 14" in fig14.format_text(r)

    def test_too_few_valid_samples_reported(self):
        cell = fig14.tune_large_space(
            "stereo", "amd", n_train=12, m_candidates=5, random_budget=50, seed=0
        )
        # 12 samples on a ~50%-invalid space rarely yields 11 valid ones.
        if cell["failed"]:
            assert cell["reason"]


class TestSec7Micro:
    def test_invalid_fractions(self):
        inv = sec7.invalid_fraction_by_device(seed=0, n=300)
        assert set(inv) == {"intel", "nvidia", "amd"}
        assert all(0 <= v <= 1 for v in inv.values())

    def test_memory_sensitivity_structure(self):
        sens = {
            d: sec7.memory_sensitivity_for_device(d, seed=0, n_base=10)
            for d in sec7.SENSITIVITY_DEVICES
        }
        assert set(sens) == {"intel", "nvidia", "amd"}
        assert "use_image" in sens["intel"]
