"""Tests for the observability layer: spans, counters, JSONL traces.

Covers the tracer primitives in isolation, the schema round-trip through
a file, the instrumented pipeline (per-stage cost deltas summing to the
run's ledger delta), and campaign grids merging per-worker traces.
"""

import json
import os

import numpy as np
import pytest

from repro.core.campaign import run_campaign_grid
from repro.core.measure import Measurer
from repro.core.model import PerformanceModel
from repro.core.search import exhaustive_search
from repro.core.tuner import MLAutoTuner, TunerSettings
from repro.kernels import ConvolutionKernel
from repro.obs import (
    NULL_TRACER,
    SCHEMA_VERSION,
    Tracer,
    TraceSummary,
    git_revision,
    load_trace,
    render_summary,
    run_manifest,
    summarize,
)
from repro.runtime import Context
from repro.simulator import NVIDIA_K40


def spans_of(records, name=None):
    spans = [r for r in records if r.get("type") == "span"]
    if name is not None:
        spans = [s for s in spans if s["name"] == name]
    return spans


class TestTracerPrimitives:
    def test_span_nesting_depth_and_parent(self):
        t = Tracer()
        with t.span("outer"):
            with t.span("middle"):
                with t.span("inner"):
                    pass
        by_name = {s["name"]: s for s in spans_of(t.records)}
        assert by_name["outer"]["depth"] == 0 and "parent" not in by_name["outer"]
        assert by_name["middle"]["depth"] == 1
        assert by_name["middle"]["parent"] == "outer"
        assert by_name["inner"]["depth"] == 2
        assert by_name["inner"]["parent"] == "middle"
        # Children exit (and are emitted) before their parents.
        names = [s["name"] for s in spans_of(t.records)]
        assert names == ["inner", "middle", "outer"]

    def test_span_attrs_and_set(self):
        t = Tracer()
        with t.span("work", phase="x") as sp:
            sp.set(n=42)
        (span,) = spans_of(t.records)
        assert span["attrs"] == {"phase": "x", "n": 42}
        assert span["dur_s"] >= 0

    def test_counters_accumulate_gauges_overwrite(self):
        t = Tracer()
        t.count("hits", 3)
        t.count("hits", 4)
        t.gauge("epoch", 10)
        t.gauge("epoch", 20)
        t.close()
        assert t.counters["hits"] == 7
        assert t.gauges["epoch"] == 20
        kinds = {r["type"]: r for r in t.records}
        assert kinds["counters"]["values"] == {"hits": 7}
        assert kinds["gauges"]["values"] == {"epoch": 20}

    def test_span_records_ledger_cost_delta(self):
        class FakeLedger:
            total_s = 0.0

        ledger = FakeLedger()
        t = Tracer(ledger=ledger)
        with t.span("outer"):
            ledger.total_s += 5.0
            with t.span("inner"):
                ledger.total_s += 2.0
        by_name = {s["name"]: s for s in spans_of(t.records)}
        assert by_name["inner"]["cost_s"] == pytest.approx(2.0)
        assert by_name["outer"]["cost_s"] == pytest.approx(7.0)

    def test_crash_inside_span_still_emits_marked_record(self):
        t = Tracer()
        with pytest.raises(RuntimeError):
            with t.span("doomed"):
                raise RuntimeError("boom")
        (span,) = spans_of(t.records)
        assert span["failed"] is True

    def test_close_flushes_abandoned_spans(self):
        t = Tracer()
        t.span("left-open").__enter__()
        t.close()
        (span,) = spans_of(t.records)
        assert span["name"] == "left-open" and span["failed"] is True

    def test_emit_after_close_rejected(self):
        t = Tracer()
        t.close()
        with pytest.raises(RuntimeError):
            t.event("too-late")

    def test_null_tracer_is_inert(self):
        before = list(NULL_TRACER.__dict__)
        with NULL_TRACER.span("x", a=1) as sp:
            sp.set(b=2)
        NULL_TRACER.count("c", 3)
        NULL_TRACER.gauge("g", 4)
        NULL_TRACER.event("e", x=5)
        NULL_TRACER.bind_ledger(object())
        NULL_TRACER.close()
        assert not NULL_TRACER.enabled
        assert list(NULL_TRACER.__dict__) == before  # no state accreted

    def test_non_finite_floats_stay_strict_json(self, tmp_path):
        path = tmp_path / "t.jsonl"
        t = Tracer(path)
        t.event("odd", value=float("nan"), other=float("inf"))
        t.close()
        for line in path.read_text().splitlines():
            json.loads(line)  # bare NaN tokens would raise here
        (event,) = [r for r in load_trace(path) if r["type"] == "event"]
        assert event["attrs"]["value"] == "nan"

    def test_numpy_values_coerced(self, tmp_path):
        path = tmp_path / "t.jsonl"
        t = Tracer(path)
        t.event("np", scalar=np.int64(3), arr=np.arange(3), f=np.float64(0.5))
        t.close()
        (event,) = [r for r in load_trace(path) if r["type"] == "event"]
        assert event["attrs"] == {"scalar": 3, "arr": [0, 1, 2], "f": 0.5}


class TestManifestAndSchema:
    def test_manifest_is_first_record_with_schema_version(self, tmp_path):
        path = tmp_path / "t.jsonl"
        t = Tracer(path, manifest=run_manifest(kernel="k", device="d", seed=3))
        t.event("later")
        t.close()
        records = load_trace(path)
        first = records[0]
        assert first["type"] == "manifest"
        assert first["schema"] == SCHEMA_VERSION
        assert first["kernel"] == "k" and first["device"] == "d"
        assert first["seed"] == 3
        assert "git_rev" in first and "python" in first
        # The numeric stack a float32 tolerance depends on.
        assert first["numpy"] == np.__version__
        assert "blas" in first
        assert first["nproc"] == os.cpu_count()
        # The SIMD target of the float64 loops the simulator's draws use.
        if int(np.__version__.split(".")[0]) >= 2:
            assert sorted(first["simd"]) == ["cos", "exp", "log"]
        else:
            assert first["simd"] is None

    def test_git_revision_resolves_in_this_repo(self):
        rev = git_revision()
        # The repo is a git checkout, so this must resolve to a hex hash.
        assert rev is not None and len(rev) == 40
        int(rev, 16)

    def test_jsonl_round_trip(self, tmp_path):
        path = tmp_path / "t.jsonl"
        t = Tracer(path, manifest={"kernel": "k"})
        with t.span("a", n=1):
            t.event("ev", detail="fine")
        t.count("c", 2)
        t.close()
        records = load_trace(path)
        types = [r["type"] for r in records]
        assert types == ["manifest", "event", "span", "counters"]
        # Every line independently parseable (the JSONL contract).
        for line in path.read_text().splitlines():
            assert json.loads(line)


class TestInstrumentedPipeline:
    @pytest.fixture(scope="class")
    def spec(self):
        return ConvolutionKernel()

    def test_stage_costs_sum_to_run_ledger_delta(self, spec, tmp_path):
        path = tmp_path / "tune.jsonl"
        tracer = Tracer(path, manifest=run_manifest(kernel=spec.name))
        ctx = Context(NVIDIA_K40, seed=11, tracer=tracer)
        tuner = MLAutoTuner(
            ctx, spec, TunerSettings(n_train=200, m_candidates=20)
        )
        result = tuner.tune(np.random.default_rng(11), model_seed=11)
        tracer.close()

        records = load_trace(path)
        (tune_span,) = spans_of(records, "tune")
        stage_spans = [s for s in spans_of(records) if s["depth"] == 1]
        assert {s["name"] for s in stage_spans} == {
            "stage1.measure",
            "stage2.train",
            "stage2.propose",
            "stage2.evaluate",
        }
        stage_cost = sum(s["cost_s"] for s in stage_spans)
        assert stage_cost == pytest.approx(result.total_cost_s)
        assert tune_span["cost_s"] == pytest.approx(result.total_cost_s)
        assert result.total_cost_s == pytest.approx(ctx.ledger.total_s)

    @pytest.mark.parametrize(
        "faults,drift",
        [(None, None), (None, "thermal-throttle"), ("flaky-gpu", None)],
        ids=["fault-free", "drift", "faults"],
    )
    def test_engine_counters_folded_into_trace(self, spec, faults, drift):
        """Every batch emits one ``measure.batch`` span and the same
        ``measure.*`` counter set; ``fault.*`` counters (and the summary's
        fault block) appear only with a fault injector attached."""
        tracer = Tracer()
        ctx = Context(NVIDIA_K40, seed=5, tracer=tracer, faults=faults,
                      drift=drift)
        m = Measurer(ctx, spec, repeats=3)
        idx = spec.space.sample_indices(500, np.random.default_rng(5))
        ms = m.measure_batch(idx)
        tracer.close()
        assert tracer.counters["measure.requested"] == 500
        assert tracer.counters["measure.simulated"] == m.stats.n_simulated
        assert tracer.counters["measure.cache_hits"] == m.stats.n_cache_hits
        assert tracer.counters["measure.db_hits"] == m.stats.n_db_hits
        assert tracer.counters["measure.invalid"] == ms.n_invalid
        (batch_span,) = [
            s for s in spans_of(tracer.records)
            if s["name"].startswith("measure.batch")
        ]
        assert batch_span["name"] == "measure.batch"
        assert batch_span["attrs"]["n"] == 500
        fault_keys = {k for k in tracer.counters if k.startswith("fault.")}
        rendered = render_summary(tracer.records)
        if faults is None:
            assert fault_keys == set()
            assert "measure.waves" not in tracer.counters
            assert "fault injection survived" not in rendered
        else:
            assert fault_keys == {
                "fault.transient", "fault.timeouts", "fault.retries",
                "fault.quarantined",
            }
            assert tracer.counters["fault.retries"] == m.stats.n_retries
            assert tracer.counters["measure.waves"] == m.stats.n_waves > 0
            assert "fault injection survived" in rendered

    def test_ensemble_fit_reports_epochs_and_stop_reason(self, spec):
        tracer = Tracer()
        ctx = Context(NVIDIA_K40, seed=3, tracer=tracer)
        tuner = MLAutoTuner(
            ctx, spec, TunerSettings(n_train=150, m_candidates=10)
        )
        tuner.collect_training_data(np.random.default_rng(3))
        tuner.train_model(3)
        tracer.close()
        (fit_span,) = spans_of(tracer.records, "ensemble.fit")
        attrs = fit_span["attrs"]
        assert attrs["stop_reason"] in ("early_stop", "max_epochs", "all_frozen")
        assert attrs["epochs_run"] >= 1
        assert attrs["mode"] == "adaptive"
        assert 0 <= attrs["n_frozen"] <= attrs["k"]
        member_epochs = attrs["member_epochs"]
        assert len(member_epochs) == attrs["k"]
        assert all(1 <= e <= attrs["epochs_run"] for e in member_epochs)
        (curve,) = [
            r
            for r in tracer.records
            if r.get("type") == "event" and r["name"] == "ensemble.loss_curve"
        ]
        # The event is downsampled to <= 64 points; the full curve length
        # travels as the `epochs` field.
        losses = curve["attrs"]["losses"]
        epochs_traced = curve["attrs"]["loss_epochs"]
        assert curve["attrs"]["epochs"] == attrs["epochs_run"]
        assert len(losses) == len(epochs_traced) <= 64
        assert epochs_traced[0] == 0
        assert epochs_traced[-1] == attrs["epochs_run"] - 1
        assert curve["attrs"]["downsampled"] == (len(losses) < attrs["epochs_run"])
        assert all(isinstance(l, float) for l in losses)
        assert tracer.gauges["ml.early_stop_epoch"] == attrs["epochs_run"]

    def test_exhaustive_search_traces_checkpoints(self, spec, tmp_path):
        from repro.core.results import MeasurementDB

        tracer = Tracer()
        ctx = Context(NVIDIA_K40, seed=2, tracer=tracer)
        m = Measurer(ctx, spec)
        db = MeasurementDB(tmp_path / "db.json")
        exhaustive_search(
            m, db=db, indices=range(600), chunk_size=100, checkpoint_every=2
        )
        tracer.close()
        (span,) = spans_of(tracer.records, "search.exhaustive")
        assert span["attrs"]["n"] == 600
        assert span["attrs"]["checkpoints"] == tracer.counters["search.checkpoints"]
        events = [
            r
            for r in tracer.records
            if r.get("type") == "event" and r["name"] == "search.checkpoint"
        ]
        assert len(events) == 3  # 6 chunks, every 2nd (final save has no event)

    def test_untraced_pipeline_unchanged_by_tracing(self, spec):
        """Tracing must not perturb results: same seed, same outcome."""
        ctx_a = Context(NVIDIA_K40, seed=9)
        res_a = MLAutoTuner(
            ctx_a, spec, TunerSettings(n_train=150, m_candidates=10)
        ).tune(np.random.default_rng(9), model_seed=9)
        tracer = Tracer()
        ctx_b = Context(NVIDIA_K40, seed=9, tracer=tracer)
        res_b = MLAutoTuner(
            ctx_b, spec, TunerSettings(n_train=150, m_candidates=10)
        ).tune(np.random.default_rng(9), model_seed=9)
        tracer.close()
        assert res_a.best_index == res_b.best_index
        assert res_a.best_time_s == res_b.best_time_s
        assert res_a.total_cost_s == res_b.total_cost_s


class TestPerRunCostAttribution:
    """Regression: total_cost_s must be this run's delta, not the context's
    lifetime total (two tuners sharing a Context were double-billed)."""

    def test_two_sequential_tuners_on_one_context(self):
        spec = ConvolutionKernel()
        ctx = Context(NVIDIA_K40, seed=21)
        settings = TunerSettings(n_train=150, m_candidates=10)
        first = MLAutoTuner(ctx, spec, settings).tune(
            np.random.default_rng(21), model_seed=21
        )
        after_first = ctx.ledger.total_s
        second = MLAutoTuner(ctx, spec, settings).tune(
            np.random.default_rng(22), model_seed=22
        )
        assert first.total_cost_s == pytest.approx(after_first)
        assert second.total_cost_s == pytest.approx(
            ctx.ledger.total_s - after_first
        )
        # The old bug: second.total_cost_s == ledger lifetime total.
        assert second.total_cost_s < ctx.ledger.total_s
        assert first.total_cost_s + second.total_cost_s == pytest.approx(
            ctx.ledger.total_s
        )

    def test_iterative_tuner_reports_delta_too(self):
        from repro.core.iterative import IterativeSettings, IterativeTuner

        spec = ConvolutionKernel()
        ctx = Context(NVIDIA_K40, seed=4)
        ctx.ledger.run_s += 1234.5  # pre-existing spend on this context
        result = IterativeTuner(
            ctx, spec, IterativeSettings(total_budget=200, rounds=2)
        ).tune(np.random.default_rng(4), model_seed=4)
        assert result.total_cost_s == pytest.approx(ctx.ledger.total_s - 1234.5)


class TestCampaignGridTraces:
    def test_grid_merges_per_worker_traces(self, tmp_path):
        spec = ConvolutionKernel()
        path = tmp_path / "grid.jsonl"
        tracer = Tracer(path, manifest=run_manifest(command="campaign"))
        report = run_campaign_grid(
            [spec],
            ["nvidia", "intel"],
            settings=TunerSettings(n_train=150, m_candidates=10),
            max_workers=2,
            seed=13,
            tracer=tracer,
            faults="flaky-gpu",
        )
        tracer.close()
        records = load_trace(path)
        workers = {r.get("worker") for r in records if "worker" in r}
        assert workers == {"convolution@Nvidia K40", "convolution@Intel i7 3770"}
        # One worker manifest per cell, one fleet-wide counters record.
        manifests = [r for r in records if r["type"] == "worker_manifest"]
        assert len(manifests) == 2
        # Each worker manifest records the cell's whole request.
        for m in manifests:
            assert m["faults"] == "flaky-gpu"
            assert m["seed"] == 13 and m["strategy"] == "ml"
            assert m["settings"]["n_train"] == 150
        assert len([r for r in records if r["type"] == "counters"]) == 1
        # Each worker contributed a full tune span tree.
        tune_spans = spans_of(records, "tune")
        assert len(tune_spans) == 2
        for cell in report.cells:
            (span,) = [
                s
                for s in tune_spans
                if s["worker"] == f"{cell.kernel}@{cell.device}"
            ]
            assert span["cost_s"] == pytest.approx(cell.ledger.total_s)

    def test_grid_worker_counters_summed_once(self, tmp_path):
        spec = ConvolutionKernel()
        path = tmp_path / "grid.jsonl"
        tracer = Tracer(path)
        report = run_campaign_grid(
            [spec],
            ["nvidia", "intel"],
            settings=TunerSettings(n_train=150, m_candidates=10),
            max_workers=1,  # inline workers, same merge path
            seed=13,
            tracer=tracer,
        )
        tracer.close()
        summary = summarize(path)
        assert summary.counters["measure.requested"] == (
            report.total_stats.n_requested
        )
        assert summary.counters["measure.invalid"] == report.total_stats.n_invalid

    def test_grid_without_tracer_writes_nothing(self, tmp_path):
        spec = ConvolutionKernel()
        run_campaign_grid(
            [spec],
            ["intel"],
            settings=TunerSettings(n_train=150, m_candidates=10),
            max_workers=1,
            seed=13,
        )
        assert list(tmp_path.iterdir()) == []


class TestDetachTracer:
    def test_detached_model_is_silent_and_bit_identical(self):
        spec = ConvolutionKernel()
        ctx = Context(NVIDIA_K40, seed=6)
        sample = Measurer(ctx, spec).sample_and_measure(
            150, np.random.default_rng(6)
        )
        sink = Tracer()
        model = PerformanceModel(spec.space, seed=6, tracer=sink)
        model.fit_measurements(sample)
        probe = np.arange(0, spec.space.size, 97, dtype=np.int64)
        before = (model.predict_indices(probe), model.top_m(25))
        sweeper = model._sweeper
        n_records, counters = len(sink.records), dict(sink.counters)
        assert counters["model.configs_predicted"] > 0

        assert model.detach_tracer() is model
        after = (model.predict_indices(probe), model.top_m(25))
        # Nothing reached the old sink: no span, no counter.
        assert len(sink.records) == n_records
        assert sink.counters == counters
        assert model._sweeper is sweeper  # kept, not recompiled
        np.testing.assert_array_equal(after[0], before[0])
        np.testing.assert_array_equal(after[1], before[1])


class TestTraceSummary:
    def test_summary_aggregates_and_renders(self, tmp_path):
        spec = ConvolutionKernel()
        path = tmp_path / "tune.jsonl"
        tracer = Tracer(path, manifest=run_manifest(kernel=spec.name, seed=1))
        ctx = Context(NVIDIA_K40, seed=1, tracer=tracer)
        MLAutoTuner(ctx, spec, TunerSettings(n_train=150, m_candidates=10)).tune(
            np.random.default_rng(1), model_seed=1
        )
        tracer.close()

        summary = TraceSummary(load_trace(path))
        assert summary.manifest["kernel"] == spec.name
        assert summary.total_cost_s == pytest.approx(ctx.ledger.total_s)
        # Self-costs partition the total exactly (no double counting).
        self_total = sum(a.self_cost_s for a in summary.spans.values())
        assert self_total == pytest.approx(ctx.ledger.total_s)

        text = render_summary(path)
        assert "stage1.measure" in text
        assert "per-stage breakdown" in text
        assert "counters" in text

    def test_render_empty_trace(self, tmp_path):
        path = tmp_path / "empty.jsonl"
        path.write_text("")
        assert render_summary(path) == "empty trace"


class TestCLITrace:
    def test_tune_trace_flag_writes_parseable_trace(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "trace.jsonl"
        rc = main(
            ["tune", "-k", "convolution", "-d", "nvidia", "-n", "200",
             "-m", "20", "--seed", "3", "--trace", str(path)]
        )
        out = capsys.readouterr().out
        assert rc in (0, 1)
        assert f"trace written to {path}" in out
        records = load_trace(path)
        assert records[0]["type"] == "manifest"
        assert records[0]["command"] == "tune"
        assert spans_of(records, "tune")

    def test_trace_summary_subcommand(self, tmp_path, capsys):
        from repro.cli import main

        path = tmp_path / "trace.jsonl"
        assert main(
            ["tune", "-k", "convolution", "-d", "intel", "-n", "150",
             "-m", "10", "--seed", "1", "--trace", str(path)]
        ) in (0, 1)
        capsys.readouterr()
        assert main(["trace-summary", str(path)]) == 0
        out = capsys.readouterr().out
        assert "per-stage breakdown" in out and "run manifest" in out

    def test_trace_summary_missing_file(self, tmp_path, capsys):
        from repro.cli import main

        assert main(["trace-summary", str(tmp_path / "nope.jsonl")]) == 1
        assert "no such trace" in capsys.readouterr().err


class TestSinkAndConcurrency:
    """The serve-daemon hardening: sink streaming, thread-safe writes, and
    durable spans on exception paths."""

    def test_sink_receives_every_record(self):
        got = []
        tracer = Tracer(sink=got.append, manifest={"command": "t"})
        with tracer.span("work"):
            tracer.event("progress", step=1)
        tracer.close()
        types = [r["type"] for r in got]
        assert types[0] == "manifest"
        assert "event" in types and "span" in types

    def test_sink_only_tracer_does_not_accumulate(self):
        tracer = Tracer(sink=lambda r: None)
        for _ in range(100):
            tracer.event("tick")
        assert tracer.records == []  # a long-lived server must not grow

    def test_sink_and_path_both_served(self, tmp_path):
        got = []
        path = tmp_path / "t.jsonl"
        tracer = Tracer(path, sink=got.append)
        tracer.event("x")
        tracer.close()
        assert len(got) == 1
        lines = path.read_text().splitlines()
        assert json.loads(lines[0])["name"] == "x"

    def test_concurrent_emits_never_interleave(self, tmp_path):
        import threading

        path = tmp_path / "t.jsonl"
        tracer = Tracer(path)
        n_threads, per_thread = 8, 200

        def worker(k):
            for i in range(per_thread):
                tracer.event(f"w{k}", i=i, pad="x" * 64)
                tracer.count(f"c{k}")

        threads = [
            threading.Thread(target=worker, args=(k,))
            for k in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        tracer.close()
        lines = path.read_text().splitlines()
        records = [json.loads(line) for line in lines]  # raises if torn
        events = [r for r in records if r["type"] == "event"]
        assert len(events) == n_threads * per_thread
        counters = [r for r in records if r["type"] == "counters"]
        assert counters[0]["values"] == {
            f"c{k}": per_thread for k in range(n_threads)
        }

    def test_failed_span_is_durable_before_close(self, tmp_path):
        path = tmp_path / "t.jsonl"
        tracer = Tracer(path)
        with pytest.raises(RuntimeError):
            with tracer.span("doomed"):
                raise RuntimeError("boom")
        # Before close(): the failed span must already be on disk.
        on_disk = [json.loads(line) for line in path.read_text().splitlines()]
        assert any(
            r.get("name") == "doomed" and r.get("failed") for r in on_disk
        )
        tracer.close()

    def test_close_is_idempotent_and_threadsafe(self, tmp_path):
        import threading

        path = tmp_path / "t.jsonl"
        tracer = Tracer(path)
        tracer.count("n", 3)
        threads = [threading.Thread(target=tracer.close) for _ in range(4)]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        records = [json.loads(line) for line in path.read_text().splitlines()]
        assert sum(r["type"] == "counters" for r in records) == 1
