"""Tests for the search-strategy zoo and the bandit meta-tuner."""

from types import SimpleNamespace

import numpy as np
import pytest

from repro.core.measure import Measurer
from repro.core.results import MeasurementDB
from repro.core.strategies import (
    STRATEGIES,
    STRATEGY_CHOICES,
    BanditMetaTuner,
    SearchSettings,
    SearchTuner,
    Subspace,
    make_strategy,
    run_search,
)
from repro.kernels.convolution import ConvolutionKernel, ConvolutionProblem
from repro.runtime import Context
from repro.simulator import NVIDIA_K40

pytestmark = pytest.mark.search

ZOO = sorted(STRATEGIES)
#: Strategies whose proposals explore freely (exhaustive just enumerates).
SEARCHERS = [n for n in ZOO if n != "exhaustive"]


def _measurer(seed=0, spec=None, db=None):
    spec = spec or ConvolutionKernel()
    return Measurer(Context(NVIDIA_K40, seed=seed), spec, db=db)


class TestSubspace:
    def test_matches_indices_with(self):
        space = ConvolutionKernel().space
        sub = Subspace(space, {"use_local": 1, "unroll": 0})
        got = np.sort(
            sub.flat_of_digits(sub.digits_of_sub(np.arange(sub.size))).ravel()
        )
        want = np.sort(space.indices_with(use_local=1, unroll=0))
        assert np.array_equal(got, want)
        assert np.array_equal(np.sort(sub.indices()), want)

    def test_unpinned_sampling_matches_legacy(self):
        space = ConvolutionKernel().space
        sub = Subspace(space, {})
        a = sub.sample_flat(100, np.random.default_rng(3))
        b = space.sample_indices(100, np.random.default_rng(3))
        assert np.array_equal(a, b)

    def test_digit_roundtrip(self):
        space = ConvolutionKernel().space
        sub = Subspace(space, {"pad": 1})
        rng = np.random.default_rng(0)
        flat = sub.sample_flat(50, rng)
        digits = sub.digits_of_flat(flat)
        assert np.array_equal(sub.flat_of_digits(digits), flat)

    def test_unknown_pin_rejected(self):
        with pytest.raises(ValueError, match="unknown pinned"):
            Subspace(ConvolutionKernel().space, {"nope": 1})

    def test_pinned_sampling_is_without_replacement(self):
        space = ConvolutionKernel().space
        sub = Subspace(space, {"use_local": 0})
        flat = sub.sample_flat(500, np.random.default_rng(1))
        assert len(set(flat.tolist())) == 500


class TestSettings:
    def test_pins_normalized_and_hashable(self):
        a = SearchSettings(pins={"b": 1, "a": 2})
        b = SearchSettings(pins=(("a", 2), ("b", 1)))
        assert a == b
        assert hash(a) == hash(b)
        assert a.pins_dict() == {"a": 2, "b": 1}

    def test_validation(self):
        with pytest.raises(ValueError):
            SearchSettings(budget=0)
        with pytest.raises(ValueError):
            SearchSettings(batch=0)
        with pytest.raises(ValueError):
            SearchSettings(max_cost_s=-1.0)


class TestZooContracts:
    @pytest.mark.parametrize("name", ZOO)
    def test_budget_respected_and_accounted(self, name):
        m = _measurer(seed=2)
        settings = SearchSettings(budget=120, batch=32)
        out = run_search(
            m, make_strategy(name, m, settings), np.random.default_rng(2),
            settings,
        )
        assert out.n_proposed <= 120
        assert out.strategy == name
        # No DB attached: every charged slot is a simulator evaluation or
        # a cached re-measure, and nothing is free.
        assert out.n_measured == m.stats.n_simulated + m.stats.n_cache_hits
        assert out.n_free == 0
        assert out.best_index >= 0
        assert out.cost_s == m.context.ledger.total_s

    @pytest.mark.parametrize("name", SEARCHERS)
    def test_pins_respected(self, name):
        spec = ConvolutionKernel()
        m = _measurer(seed=4, spec=spec)
        settings = SearchSettings(
            budget=100, batch=25, pins={"use_local": 1, "unroll": 0}
        )
        allowed = set(
            int(i) for i in spec.space.indices_with(use_local=1, unroll=0)
        )
        proposed = []
        strategy = make_strategy(name, m, settings)
        rng = np.random.default_rng(4)
        while True:
            batch = np.asarray(strategy.propose(rng, 25)).ravel()
            if batch.size == 0 or sum(len(b) for b in proposed) >= 100:
                break
            proposed.append(batch)
            strategy.observe(batch, m.measure_batch(batch))
        assert proposed
        for batch in proposed:
            assert set(int(i) for i in batch) <= allowed

    @pytest.mark.parametrize("name", ZOO)
    def test_bit_reproducible_from_seed(self, name):
        def once():
            m = _measurer(seed=9)
            settings = SearchSettings(budget=150, batch=30)
            out = run_search(
                m, make_strategy(name, m, settings),
                np.random.default_rng(9), settings,
            )
            return (
                out.best_index,
                float.hex(out.best_time_s),
                float.hex(out.cost_s),
                out.n_proposed,
                out.n_measured,
                out.rounds,
            )

        assert once() == once()

    @pytest.mark.parametrize("name", ZOO)
    def test_state_restore_resumes_identically(self, name):
        settings = SearchSettings(budget=200, batch=25)

        def drive(strategy, m, rng, rounds):
            batches = []
            for _ in range(rounds):
                batch = np.asarray(strategy.propose(rng, 25)).ravel()
                if batch.size == 0:
                    break
                strategy.observe(batch, m.measure_batch(batch))
                batches.append(batch.tolist())
            return batches

        # Reference: 4 rounds straight through.
        m1 = _measurer(seed=5)
        s1 = make_strategy(name, m1, settings)
        rng1 = np.random.default_rng(5)
        want = drive(s1, m1, rng1, 4)

        # Resumed: 2 rounds, snapshot, replay into a fresh instance (and a
        # fresh measurer replaying the same simulator stream), 2 more.
        m2 = _measurer(seed=5)
        s2 = make_strategy(name, m2, settings)
        rng2 = np.random.default_rng(5)
        got = drive(s2, m2, rng2, 2)
        snapshot = s2.state()
        rng_state = rng2.bit_generator.state
        s3 = make_strategy(name, m2, settings)
        s3.restore(snapshot)
        rng3 = np.random.default_rng()
        rng3.bit_generator.state = rng_state
        got += drive(s3, m2, rng3, 2)
        assert got == want

    def test_exhaustive_covers_subspace_exactly_once(self):
        spec = ConvolutionKernel()
        m = _measurer(seed=1, spec=spec)
        settings = SearchSettings(
            budget=10**9, batch=512, pins={"use_local": 1, "use_image": 1,
                                           "pad": 0, "interleaved": 0,
                                           "unroll": 0}
        )
        out = run_search(
            m, make_strategy("exhaustive", m, settings),
            np.random.default_rng(1), settings,
        )
        want = spec.space.indices_with(
            use_local=1, use_image=1, pad=0, interleaved=0, unroll=0
        )
        assert out.stop_reason == "exhausted"
        assert out.n_proposed == want.size

    def test_max_cost_s_stops_run(self):
        m = _measurer(seed=3)
        settings = SearchSettings(budget=10**6, batch=16, max_cost_s=30.0)
        out = run_search(
            m, make_strategy("random", m, settings),
            np.random.default_rng(3), settings,
        )
        assert out.stop_reason == "cost"
        # Overshoot bounded by one batch.
        assert out.rounds == len(range(0, out.n_proposed, 16))

    def test_db_hits_are_free(self):
        db = MeasurementDB()
        settings = SearchSettings(budget=100, batch=100)
        m1 = _measurer(seed=6, db=db)
        out1 = run_search(
            m1, make_strategy("random", m1, settings),
            np.random.default_rng(6), settings,
        )
        m2 = _measurer(seed=6, db=db)
        out2 = run_search(
            m2, make_strategy("random", m2, settings),
            np.random.default_rng(6), settings,
        )
        assert out1.n_measured == 100
        assert out2.n_measured == 0
        assert out2.n_free == 100
        assert m2.context.ledger.total_s == 0.0
        assert out2.best_index == out1.best_index


class TestBandit:
    def test_deterministic_and_pools_measurements(self):
        def once():
            m = _measurer(seed=8)
            settings = SearchSettings(budget=300, batch=40)
            out = BanditMetaTuner(m, settings).run(np.random.default_rng(8))
            return (
                out.best_index,
                float.hex(out.best_time_s),
                float.hex(out.cost_s),
                [(a.name, a.pulls, a.n_measured) for a in out.arms],
            )

        first, second = once(), once()
        assert first == second
        # Incumbent is the best across *all* arms.
        assert first[0] >= 0

    def test_every_arm_gets_a_first_pull(self):
        m = _measurer(seed=8)
        settings = SearchSettings(budget=300, batch=40)
        out = BanditMetaTuner(m, settings).run(np.random.default_rng(8))
        assert all(a.pulls >= 1 for a in out.arms)
        assert sum(a.n_proposed for a in out.arms) == out.n_proposed

    def test_shared_db_restored_and_leaderboard_sorted(self):
        m = _measurer(seed=12)
        assert m.db is None
        settings = SearchSettings(budget=200, batch=32)
        out = BanditMetaTuner(m, settings).run(np.random.default_rng(12))
        assert m.db is None  # the run-scoped shared DB is detached again
        board = out.leaderboard()
        finite = [a.best_time_s for a in board if np.isfinite(a.best_time_s)]
        assert finite == sorted(finite)
        assert out.as_dict()["leaderboard"][0]["strategy"] == board[0].name

    def test_duplicate_arms_rejected(self):
        m = _measurer()
        with pytest.raises(ValueError, match="duplicate"):
            BanditMetaTuner(
                m, SearchSettings(), arms=("random", "random")
            )

    def test_leaderboard_gauges_in_trace_summary(self):
        from repro.obs import Tracer
        from repro.obs.summary import render_summary

        records = []
        tracer = Tracer(sink=records.append)
        ctx = Context(NVIDIA_K40, seed=2, tracer=tracer)
        m = Measurer(ctx, ConvolutionKernel())
        settings = SearchSettings(budget=200, batch=32)
        BanditMetaTuner(m, settings).run(np.random.default_rng(2))
        tracer.close()
        gauges = {}
        for r in records:
            if r.get("type") == "gauges":
                gauges.update(r["values"])
        for arm in ("random", "annealing", "pso", "genetic", "coordinate"):
            assert f"strategy.{arm}.best_ms" in gauges
            assert f"strategy.{arm}.spend_s" in gauges
            assert f"strategy.{arm}.pulls" in gauges
        assert "search.bandit.best_ms" in gauges
        text = render_summary(records)
        assert "strategy leaderboard" in text
        assert "bandit" in text


class TestSearchTuner:
    @pytest.mark.parametrize("strategy", ["random", "bandit"])
    def test_tuning_result_contract(self, strategy):
        spec = ConvolutionKernel()
        ctx = Context(NVIDIA_K40, seed=1)
        tuner = SearchTuner(
            ctx, spec, strategy, SearchSettings(budget=150, batch=30)
        )
        result = tuner.tune(np.random.default_rng(1), model_seed=1)
        assert result.kernel == "convolution"
        assert result.device == "Nvidia K40"
        assert not result.failed
        assert result.n_trained == 0
        assert result.n_stage2 == tuner.outcome.n_measured
        assert result.total_cost_s == ctx.ledger.total_s
        assert 0 < result.evaluated_fraction <= 1
        assert tuner.model is None

    def test_unknown_strategy_rejected(self):
        with pytest.raises(ValueError, match="unknown strategy"):
            SearchTuner(Context(NVIDIA_K40, seed=0), ConvolutionKernel(),
                        "simulated-annealing")

    def test_stats_merge_preserves_prior_runs(self):
        spec = ConvolutionKernel()
        ctx = Context(NVIDIA_K40, seed=3)
        m = Measurer(ctx, spec)
        m.measure(0)
        before = m.stats.n_requested
        tuner = SearchTuner(
            ctx, spec, "random", SearchSettings(budget=50, batch=50),
            measurer=m,
        )
        tuner.tune(np.random.default_rng(3))
        assert m.stats.n_requested == before + 50

    def test_matches_plain_run_search(self):
        """The adapter adds accounting, not behaviour: same rng, same
        measurements, same pick as a bare run_search."""
        settings = SearchSettings(budget=100, batch=25)
        m1 = _measurer(seed=7)
        out = run_search(
            m1, make_strategy("pso", m1, settings),
            np.random.default_rng(7), settings,
        )
        tuner = SearchTuner(
            Context(NVIDIA_K40, seed=7), ConvolutionKernel(), "pso", settings
        )
        result = tuner.tune(np.random.default_rng(7))
        assert result.best_index == out.best_index
        assert float.hex(result.best_time_s) == float.hex(out.best_time_s)


class TestLegacyWrapperParity:
    """random_search / coordinate_descent kept their exact draws when they
    moved onto the strategy interface."""

    def test_random_search_matches_plain_sampling(self):
        from repro.core.search import random_search

        spec = ConvolutionKernel()
        m = _measurer(seed=10, spec=spec)
        ms = random_search(m, 200, np.random.default_rng(10))
        want = spec.space.sample_indices(200, np.random.default_rng(10))
        got = np.sort(np.concatenate([ms.indices, ms.invalid_indices]))
        assert np.array_equal(got, np.sort(want))

    def test_small_space_budget_cap(self):
        from repro.core.search import random_search

        small = ConvolutionKernel(ConvolutionProblem(64, 64, 5))
        m = Measurer(Context(NVIDIA_K40, seed=1), small)
        ms = random_search(m, 10**9, np.random.default_rng(0))
        assert ms.n_valid + ms.n_invalid == small.space.size

    def test_choices_cover_zoo_plus_bandit(self):
        assert set(STRATEGY_CHOICES) == set(STRATEGIES) | {"bandit"}


class TestCoordinateStartScan:
    """The coordinate-descent start scan checks validity in growing
    windows; it must find what one whole-scan ``valid_mask`` finds."""

    @staticmethod
    def whole_scan(strategy, seed):
        """The whole-scan rule: (start index or None, n_probed, RNG)."""
        rng = np.random.default_rng(seed)
        sub = strategy.sub
        scan = sub.sample_flat(min(strategy.scan_limit, sub.size), rng)
        valid = np.flatnonzero(strategy.measurer.valid_mask(scan))
        if valid.size == 0:
            return None, len(scan), rng
        return int(scan[valid[0]]), int(valid[0]) + 1, rng

    @pytest.mark.parametrize("kernel", ["convolution", "raycasting", "stereo"])
    @pytest.mark.parametrize(
        "pins",
        [{}, {"wg_x": 32, "wg_y": 32}, {"wg_x": 128, "wg_y": 128}],
        ids=["free", "sparse", "all-invalid"],
    )
    def test_matches_whole_scan_rule(self, kernel, pins):
        from repro.core.strategies import CoordinateDescentStrategy
        from repro.kernels import get_benchmark

        measurer = _measurer(spec=get_benchmark(kernel))
        settings = SearchSettings(pins=pins)
        for seed in range(40):
            strategy = CoordinateDescentStrategy(measurer, settings)
            want_start, want_probed, want_rng = self.whole_scan(strategy, seed)
            rng = np.random.default_rng(seed)
            got = strategy.propose(rng, 64)
            assert strategy.n_probed == want_probed
            if want_start is None:
                assert got.size == 0 and strategy.exhausted()
            else:
                assert got.tolist() == [want_start]
            assert rng.bit_generator.state == want_rng.bit_generator.state

    @pytest.mark.parametrize("first", [0, 3, 4, 19, 20, 83, 84, 199, None])
    def test_windows_stop_at_first_valid(self, first):
        """Every window boundary, with a measurer stub whose one valid
        scan position is ``first`` (None: no valid sample)."""
        from repro.core.strategies import CoordinateDescentStrategy

        strategy = CoordinateDescentStrategy(_measurer(), SearchSettings())
        scan = strategy.sub.sample_flat(200, np.random.default_rng(0))
        valid_index = None if first is None else int(scan[first])
        windows = []

        def valid_mask(indices):
            windows.append(len(indices))
            return np.asarray(indices) == valid_index

        strategy.measurer = SimpleNamespace(valid_mask=valid_mask)
        assert strategy._first_valid(scan) == first
        sizes = [4, 16, 64, 116]
        ends = np.cumsum(sizes)
        n_windows = 4 if first is None else int(np.searchsorted(ends, first, "right")) + 1
        assert windows == sizes[:n_windows]
