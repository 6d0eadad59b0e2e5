"""Tests for the search baselines."""

import numpy as np
import pytest

from repro.core.measure import Measurer
from repro.core.results import MeasurementDB
from repro.core.search import coordinate_descent, exhaustive_search, random_search
from repro.experiments.oracle import TrueTimeOracle
from repro.kernels.convolution import ConvolutionKernel, ConvolutionProblem
from repro.runtime import Context
from repro.simulator import NVIDIA_K40


@pytest.fixture(scope="module")
def measurer():
    # Paper-sized timing model; search over a subset keeps tests quick.
    return Measurer(Context(NVIDIA_K40, seed=4), ConvolutionKernel())


class TestExhaustive:
    def test_subset_measured_completely(self, measurer):
        subset = list(range(0, 4000, 40))
        ms = exhaustive_search(measurer, indices=subset)
        assert ms.n_valid + ms.n_invalid == len(subset)

    def test_records_into_db(self, measurer, tmp_path):
        db = MeasurementDB(tmp_path / "db.json")
        subset = list(range(100))
        ms = exhaustive_search(measurer, db=db, indices=subset)
        assert len(db) == 100
        # DB agrees with the returned set on validity.
        for i in ms.invalid_indices:
            assert db.get("convolution", "Nvidia K40", int(i)) is None
        db.save()
        reload = MeasurementDB(tmp_path / "db.json")
        assert len(reload) == 100


class TestRandomSearch:
    def test_budget_respected(self, measurer):
        ms = random_search(measurer, 200, np.random.default_rng(0))
        assert ms.n_valid + ms.n_invalid == 200

    def test_bad_budget(self, measurer):
        with pytest.raises(ValueError):
            random_search(measurer, 0, np.random.default_rng(0))

    def test_budget_capped_at_space(self):
        small = ConvolutionKernel(ConvolutionProblem(64, 64, 5))
        m = Measurer(Context(NVIDIA_K40, seed=1), small)
        ms = random_search(m, 10**9, np.random.default_rng(0))
        assert ms.n_valid + ms.n_invalid == small.space.size


class TestExhaustiveCheckpointAccounting:
    """Regression: when the final chunk landed exactly on a checkpoint
    boundary, the sweep saved the DB twice and counted both saves."""

    def _run(self, tmp_path, n, chunk_size, checkpoint_every, monkeypatch):
        from repro.obs import Tracer

        spec = ConvolutionKernel()
        db = MeasurementDB(tmp_path / "db.json")
        saves = []
        real_save = db.save
        monkeypatch.setattr(
            db, "save", lambda: (saves.append(1), real_save())[1]
        )
        records = []
        tracer = Tracer(sink=records.append)
        m = Measurer(Context(NVIDIA_K40, seed=6, tracer=tracer), spec)
        exhaustive_search(
            m,
            db=db,
            indices=list(range(n)),
            chunk_size=chunk_size,
            checkpoint_every=checkpoint_every,
        )
        tracer.close()
        counted = sum(
            r["values"].get("search.checkpoints", 0)
            for r in records
            if r.get("type") == "counters"
        )
        return len(saves), counted

    def test_boundary_final_chunk_saves_once(self, tmp_path, monkeypatch):
        # 4 chunks of 64, checkpoint every 2 -> chunk 4 checkpoints; the
        # post-loop save must be skipped.
        saves, counted = self._run(tmp_path, 256, 64, 2, monkeypatch)
        assert saves == 2
        assert counted == 2

    def test_off_boundary_final_chunk_gets_trailing_save(
        self, tmp_path, monkeypatch
    ):
        # 5 chunks of 64, checkpoint every 2 -> checkpoints after chunks
        # 2 and 4, plus the trailing save of chunk 5.
        saves, counted = self._run(tmp_path, 320, 64, 2, monkeypatch)
        assert saves == 3
        assert counted == 3


class TestCoordinateDescent:
    def test_reaches_single_axis_local_optimum(self, measurer):
        rng = np.random.default_rng(7)
        idx, t, n_measured, n_probed = coordinate_descent(
            measurer, rng, max_sweeps=2
        )
        assert idx >= 0
        assert t > 0
        assert n_measured > 0
        assert n_probed > 0  # the free validity scan that picked the start
        # Verify local optimality along one axis: no single change of the
        # first parameter improves the *true* time by more than noise.
        space = measurer.spec.space
        oracle = TrueTimeOracle(measurer.spec, NVIDIA_K40)
        digits = list(space.digits_of(idx))
        base = oracle.time_of(idx)
        p = space.parameters[0]
        for d in range(p.cardinality):
            trial = digits.copy()
            trial[0] = d
            other = oracle.time_of(space.index_of_digits(trial))
            if not np.isnan(other):
                assert other > base * 0.85

    def test_respects_given_start(self, measurer):
        rng = np.random.default_rng(8)
        # Find some valid start.
        start = None
        for i in range(1000):
            if measurer.is_valid(i):
                start = i
                break
        idx, t, _, _ = coordinate_descent(
            measurer, rng, max_sweeps=1, start_index=start
        )
        oracle = TrueTimeOracle(measurer.spec, NVIDIA_K40)
        assert oracle.time_of(idx) <= oracle.time_of(start) * 1.05

    def test_invalid_given_start_returns_failure_not_crash(self, measurer):
        """Regression: an invalid caller-supplied start_index used to trip
        ``assert best_time is not None``; it must fail like the
        no-valid-start path, with the probe counted in the budget."""
        space = measurer.spec.space
        invalid = None
        for i in range(space.size):
            if not measurer.is_valid(i):
                invalid = i
                break
        assert invalid is not None
        idx, t, n_measured, n_probed = coordinate_descent(
            measurer, np.random.default_rng(0), max_sweeps=1, start_index=invalid
        )
        assert idx == -1
        assert t != t  # NaN
        assert n_measured == 1  # the probe of the bad start still counts
        assert n_probed == 0  # no free scan: the start was caller-supplied

    def test_probes_not_counted_and_sweeps_deduped(self):
        """The two accounting fixes: free ``is_valid`` probes of the start
        scan must not inflate ``n_measured``, and a sweep revisiting an
        already-measured tuple (the incumbent included) must be served
        from the run's memo instead of re-billing the ledger."""
        m = Measurer(Context(NVIDIA_K40, seed=11), ConvolutionKernel())
        idx, t, n_measured, n_probed = coordinate_descent(
            m, np.random.default_rng(11), max_sweeps=3
        )
        assert idx >= 0
        # Every reported measurement actually billed the ledger: nothing
        # was double-measured (cache hits re-bill, so they must be zero)
        # and the free probes are reported separately.
        assert m.stats.n_cache_hits == 0
        assert n_measured == m.stats.n_simulated
        assert n_probed > 0
        assert m.stats.n_requested == n_measured

    def test_interactions_trap_it_above_global_optimum(self, measurer):
        """The §5.1 claim: one-at-a-time search cannot find the best
        configuration because parameters interact."""
        from repro.experiments.oracle import TrueTimeOracle
        from repro.simulator import NVIDIA_K40 as DEV

        oracle = TrueTimeOracle(measurer.spec, DEV)
        _, opt = oracle.global_optimum()
        worst_gap = 0.0
        for seed in (0, 1, 2):
            idx, _, _, _ = coordinate_descent(
                measurer, np.random.default_rng(seed), max_sweeps=3
            )
            worst_gap = max(worst_gap, oracle.time_of(idx) / opt)
        assert worst_gap > 1.05


class TestExhaustiveResume:
    """A killed sweep picks up from its on-disk DB instead of re-measuring."""

    def test_interrupted_sweep_resumes_from_checkpoint(self, tmp_path):
        spec = ConvolutionKernel()
        path = tmp_path / "sweep.json"
        subset = list(range(0, 6000, 10))

        # First run: measure the first half, checkpointing every chunk,
        # then "die" (simply stop).
        db = MeasurementDB(path)
        m1 = Measurer(Context(NVIDIA_K40, seed=9), spec)
        first = exhaustive_search(
            m1, db=db, indices=subset[:300], chunk_size=64, checkpoint_every=1
        )
        assert path.exists()

        # Restart: fresh process state, same DB file, full index list.
        db2 = MeasurementDB(path)
        m2 = Measurer(Context(NVIDIA_K40, seed=9), spec)
        full = exhaustive_search(
            m2, db=db2, indices=subset, chunk_size=64, checkpoint_every=1
        )
        assert full.n_valid + full.n_invalid == len(subset)
        # Nothing from the first half was re-simulated ...
        assert m2.stats.n_db_hits == 300
        assert m2.stats.n_simulated == len(subset) - 300
        # ... and the first half's stored values are reproduced verbatim.
        resumed = {int(i): t for i, t in zip(full.indices, full.times_s)}
        for i, t in zip(first.indices, first.times_s):
            assert resumed[int(i)] == t
        assert len(db2) == len(subset)

    def test_completed_sweep_replays_for_free(self, tmp_path):
        spec = ConvolutionKernel()
        path = tmp_path / "sweep.json"
        subset = list(range(0, 2000, 10))
        db = MeasurementDB(path)
        m1 = Measurer(Context(NVIDIA_K40, seed=2), spec)
        before = exhaustive_search(m1, db=db, indices=subset)

        db2 = MeasurementDB(path)
        m2 = Measurer(Context(NVIDIA_K40, seed=2), spec)
        after = exhaustive_search(m2, db=db2, indices=subset)
        assert m2.stats.n_simulated == 0
        assert m2.context.ledger.total_s == 0.0
        assert np.array_equal(before.indices, after.indices)
        assert np.array_equal(before.times_s, after.times_s)
        assert np.array_equal(before.invalid_indices, after.invalid_indices)
