"""Tests for the experiment scheduler: plan structure, serial/parallel
equivalence, and the compute-once oracle-store contract."""

import pickle
from dataclasses import replace

import pytest

from repro.experiments.oracle_store import OracleStore
from repro.experiments.presets import Preset
from repro.experiments.run_all import EXPERIMENTS, run_all
from repro.experiments.scheduler import (
    Unit,
    build_plan,
    execute_plan,
    merge_results,
)

#: Tiny but axis-complete preset so scheduler tests stay in seconds.
MICRO = Preset(
    name="micro",
    training_sizes=(100,),
    holdout=80,
    repeats=1,
    tuner_sizes=(100,),
    tuner_m=(10,),
    fig14_train=200,
    fig14_m=30,
    fig14_random_budget=500,
    sec7_n_train=150,
    sec7_holdout=100,
    sec7_n_base=40,
    sec7_invalid_n=800,
)


class TestBuildPlan:
    def test_full_plan_is_well_formed(self):
        units = build_plan(list(EXPERIMENTS), MICRO, 0)
        uids = [u.uid for u in units]
        assert len(uids) == len(set(uids)), "unit ids must be unique"
        seen = set()
        for u in units:
            assert set(u.deps) <= seen, f"{u.uid} depends on later units"
            seen.add(u.uid)
        # Every registered experiment contributes at least one unit.
        assert {u.exp_id for u in units} >= set(EXPERIMENTS)

    def test_every_experiment_declares_units_and_merge(self):
        for _, module in EXPERIMENTS.values():
            assert callable(module.units) and callable(module.merge)

    def test_full_plan_pickles(self):
        # Units cross the process boundary under --jobs: a unit declared
        # with a lambda or closure would fail only there.
        units = build_plan(list(EXPERIMENTS), MICRO, 0)
        assert pickle.loads(pickle.dumps(units)) == units

    def test_fig01_waits_for_all_three_warmups(self):
        units = build_plan(["fig01"], MICRO, 0)
        fig01 = next(u for u in units if u.exp_id == "fig01")
        assert len(fig01.deps) == 3
        assert all(d.startswith("warmup/convolution@") for d in fig01.deps)

    def test_warmups_shared_across_experiments(self):
        units = build_plan(["fig01", "fig11-13"], MICRO, 0)
        warmups = [u for u in units if u.exp_id == "warmup"]
        assert len(warmups) == 3  # one per device, not per experiment

    def test_no_warmups_when_disabled(self):
        units = build_plan(["fig01", "fig11-13"], MICRO, 0, warmup=False)
        assert all(u.exp_id != "warmup" for u in units)
        assert all(u.deps == () for u in units)

    def test_per_device_decomposition(self):
        units = build_plan(["fig11-13", "sec7"], MICRO, 0, warmup=False)
        assert sum(u.exp_id == "fig11-13" for u in units) == 3
        sec7 = [u.uid for u in units if u.exp_id == "sec7"]
        assert "sec7/invalid" in sec7 and len(sec7) == 7


#: Each experiment's direct ``run()`` arguments at MICRO.  fig08-10 is
#: left out (its scatter ignores the preset and trains on 2,000 samples
#: per device), and cost reports wall time.
DIRECT_RUNS = {
    "tables": {},
    "fig01": {"seed": 0},
    "fig02": {},
    "fig04-06": {"preset": MICRO, "seed": 0},
    "fig07": {"preset": MICRO, "seed": 0},
    "fig11-13": {"preset": MICRO, "seed": 0},
    "fig14": {"preset": MICRO, "seed": 0},
    "sec7": {"preset": MICRO, "seed": 0},
}
#: Multi-second at MICRO (both paths together).
SLOW_RUNS = ("fig01", "fig04-06", "fig11-13", "fig14")


class TestExecutePlan:
    def test_unknown_dependency_rejected(self):
        from repro.experiments import tables

        bad = [Unit("a", tables.run, deps=("ghost",))]
        with pytest.raises(ValueError, match="ghost"):
            execute_plan(bad)

    @pytest.mark.parametrize("exp_id", [
        pytest.param(e, marks=pytest.mark.slow) if e in SLOW_RUNS else e
        for e in DIRECT_RUNS
    ])
    def test_serial_matches_direct_run(self, exp_id):
        module = EXPERIMENTS[exp_id][1]
        units = build_plan([exp_id], MICRO, 0)
        outcomes = execute_plan(units)
        merged = merge_results(exp_id, outcomes, MICRO, units)
        direct = module.run(**DIRECT_RUNS[exp_id])
        assert module.format_text(merged) == module.format_text(direct)

    def test_parallel_matches_serial(self):
        serial = run_all(preset=MICRO, only=["tables", "fig02"], stream=None)
        parallel = run_all(
            preset=MICRO, only=["tables", "fig02"], stream=None, jobs=2
        )
        assert serial == parallel

    def test_traced_parallel_run_renders_unit_and_experiment_blocks(
        self, tmp_path
    ):
        from repro.obs import Tracer, render_summary

        path = tmp_path / "run_all.jsonl"
        tracer = Tracer(path)
        try:
            run_all(preset=MICRO, only=["tables", "fig02"], stream=None,
                    jobs=2, tracer=tracer)
        finally:
            tracer.close()
        text = render_summary(path)
        units = text.split("per-unit breakdown (run_all scheduler)\n")[1]
        rows = {line.split()[0] for line in units.splitlines()[2:4]}
        assert rows == {"tables", "fig02"}
        assert "per-experiment wall clock (run_all)" in text
        assert "run_all total:" in text


@pytest.mark.slow
class TestStoreContract:
    def test_full_tables_computed_exactly_once(self, tmp_path):
        from repro.experiments import fig01_motivation

        units = build_plan(["fig01"], MICRO, 0)
        cold = OracleStore(tmp_path / "store")
        out1 = execute_plan(units, store=cold)
        assert cold.stats["full_miss"] == 3
        assert cold.stats["full_saved"] == 3

        warm = OracleStore(tmp_path / "store")
        out2 = execute_plan(units, store=warm)
        assert warm.stats["full_miss"] == 0
        assert warm.stats["full_saved"] == 0
        assert warm.stats["full_hit"] >= 3

        r1 = merge_results("fig01", out1, MICRO, units)
        r2 = merge_results("fig01", out2, MICRO, units)
        assert fig01_motivation.format_text(r1) == fig01_motivation.format_text(r2)
        for d in r1["devices"]:
            assert r1["best"][d] == r2["best"][d]
            assert r1["matrix"][d] == r2["matrix"][d]


class TestFaultsThreading:
    """Regression: ``--faults`` used to stop at the CLI — ``build_plan`` /
    ``execute_plan`` dropped it on the floor, so batch experiment runs were
    silently fault-free even when a profile was requested."""

    def test_build_plan_stamps_faults_on_runtime_units(self):
        units = build_plan(
            ["fig01", "fig04-06", "cost"], MICRO, 0, faults="flaky-gpu"
        )
        by_exp = {}
        for u in units:
            by_exp.setdefault(u.exp_id, []).append(u)
        # Ground-truth warm-ups must never be fault-injected.
        assert all("faults" not in u.kwargs for u in by_exp["warmup"])
        assert all(u.kwargs["faults"] == "flaky-gpu" for u in by_exp["fig04-06"])
        assert all(u.kwargs["faults"] == "flaky-gpu" for u in by_exp["cost"])

    def test_build_plan_default_is_fault_free(self):
        units = build_plan(["fig04-06"], MICRO, 0)
        assert all(u.kwargs["faults"] is None for u in units)

    def test_faulted_unit_changes_measured_curve(self):
        from repro.experiments.fig04_06_model_error import error_curve

        unit = Unit(
            "fig04-06/intel/convolution",
            error_curve,
            dict(benchmark="convolution", device_key="intel",
                 training_sizes=MICRO.training_sizes, holdout=MICRO.holdout,
                 repeats=MICRO.repeats, seed=0),
        )
        clean = execute_plan([unit])[unit.uid].result
        # p_outlier must stay < 1.0: at 1.0 every measurement is scaled
        # by exactly outlier_factor, a uniform factor the log transform
        # and y-scaler absorb, leaving the relative-error curve
        # unchanged up to rounding.  A partial rate corrupts a random
        # subset and genuinely moves the curve.
        noisy_unit = replace(unit, kwargs=dict(
            unit.kwargs, faults="noisy-rig:p_outlier=0.5,outlier_factor=50",
        ))
        noisy = execute_plan([noisy_unit])[unit.uid].result
        assert clean["errors"] != noisy["errors"]

        # None-faults execution stays bit-identical to the historical path.
        again = execute_plan([unit])[unit.uid].result
        assert clean == again
