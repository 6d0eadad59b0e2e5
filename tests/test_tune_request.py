"""One tune entry point: ``TuneRequest`` validation and the cross-entry
properties — the CLI, a campaign-grid cell and the daemon all run the
same tune, the CLI and the daemon the same watch, and the CLI the same
search, bit for bit, as the tuner built by hand from its primitives."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import Context, MLAutoTuner, TunerSettings
from repro.cli import (
    _search_request,
    _tune_request,
    _watch_request,
    build_parser,
)
from repro.core.campaign import run_campaign_grid
from repro.core.iterative import IterativeSettings
from repro.core.online import OnlineSettings, OnlineTuner
from repro.core.request import TuneRequest, run_tune
from repro.core.strategies import (
    STRATEGY_CHOICES,
    SearchSettings,
    SearchTuner,
)
from repro.kernels import ConvolutionKernel
from repro.kernels.convolution import ConvolutionProblem
from repro.kernels.stereo import StereoProblem
from repro.serve import protocol
from repro.serve.campaigns import result_payload, watch_request
from repro.serve.client import TuningClient
from repro.serve.server import ServerThread, TuningServer
from repro.simulator.devices import DEVICES, get_device

SMALL = TunerSettings(n_train=40, m_candidates=5)


class TestTuneRequest:
    def test_defaults_are_canonical_and_hashable(self):
        a = TuneRequest("convolution", "nvidia", settings=SMALL)
        assert a.problem == ConvolutionKernel.paper_problem()
        assert a == TuneRequest(
            "convolution", "nvidia", settings=SMALL,
            problem=ConvolutionProblem(2048, 2048, 5),
        )
        assert hash(a) == hash(replace(a))
        pinned = TuneRequest("convolution", "nvidia", strategy="random",
                             settings=SMALL, pins={"unroll": 0, "pad": 1})
        assert pinned.pins == (("pad", 1), ("unroll", 0))

    @pytest.mark.parametrize("fields, match", [
        (dict(kernel="nope"), "unknown kernel"),
        (dict(device="Nvidia K40"), "unknown device"),
        (dict(seed=-1), "seed"),
        (dict(strategy="simplex"), "unknown strategy"),
        (dict(settings=SearchSettings()), "settings must be"),
        (dict(strategy="random", settings=IterativeSettings()), "'ml'"),
        (dict(pins={"unroll": 0}), "search strategy"),
        (dict(problem=StereoProblem()), "ConvolutionProblem"),
        (dict(faults="bogus-profile"), "fault profile"),
        (dict(drift="bogus-schedule"), "drift"),
        (dict(strategy="random", online=OnlineSettings()), "online"),
        (dict(settings=IterativeSettings(), online=OnlineSettings()),
         "online"),
        (dict(strategy="random", settings=SearchSettings(pins={"unroll": 0})),
         "pins belong on the request"),
    ])
    def test_rejects_invalid_fields(self, fields, match):
        base = dict(kernel="convolution", device="nvidia", settings=SMALL)
        with pytest.raises(ValueError, match=match):
            TuneRequest(**{**base, **fields})

    def test_pins_hold_during_the_search(self):
        outcome = run_tune(TuneRequest(
            "convolution", "nvidia", seed=4, strategy="random",
            settings=SMALL, pins={"use_local": 1},
        ))
        assert not outcome.result.failed
        best = outcome.measurer.spec.space[outcome.result.best_index]
        assert best["use_local"] == 1
        assert outcome.model is None and outcome.search is not None

    def test_grid_validates_every_cell_before_tuning(self):
        with pytest.raises(ValueError, match="fault profile"):
            run_campaign_grid([ConvolutionKernel()], ["intel", "nvidia"],
                              settings=SMALL, faults="bogus-profile",
                              max_workers=2)
        with pytest.raises(ValueError, match="unknown strategy"):
            run_campaign_grid([ConvolutionKernel()], ["intel"],
                              settings=SMALL, strategy="simplex")


# -- the cross-entry property ---------------------------------------------------


def _wire(payload):
    """Bit-exact, NaN-safe view of a payload as the daemon sends it:
    non-finite floats become strings (the wire's encoding), every other
    float its ``float.hex()``."""
    def hexed(value):
        if isinstance(value, float):
            return value.hex()
        if isinstance(value, dict):
            return {k: hexed(v) for k, v in value.items()}
        if isinstance(value, list):
            return [hexed(v) for v in value]
        return value

    return hexed(json.loads(protocol.encode(payload)))


def _buckets(ledger):
    return {
        "compile_s": ledger.compile_s,
        "run_s": ledger.run_s,
        "failed_s": ledger.failed_s,
        "retry_s": ledger.retry_s,
        "total_s": ledger.total_s,
    }


def _daemon_tune(port, request):
    s = request.settings
    with TuningClient("127.0.0.1", port, timeout=300) as client:
        client.send({
            "op": "tune", "id": "p", "kernel": request.kernel,
            "device": request.device, "n_train": s.n_train,
            "m_candidates": s.m_candidates, "seed": request.seed,
            "budget_s": s.max_cost_s, "faults": request.faults,
            "fit_mode": s.fit_mode, "strategy": request.strategy,
        })
        reply = client.recv()
        while reply["type"] == "ack":
            reply = client.recv()
    return reply


@st.composite
def tune_requests(draw):
    return TuneRequest(
        kernel="convolution",
        device=draw(st.sampled_from(sorted(DEVICES))),
        seed=draw(st.integers(0, 2**16)),
        strategy=draw(st.sampled_from(["ml", "random", "bandit"])),
        settings=TunerSettings(
            n_train=draw(st.integers(11, 40)),
            m_candidates=draw(st.integers(1, 8)),
            fit_mode=draw(st.sampled_from(["adaptive", "classic"])),
            max_cost_s=draw(st.one_of(
                st.none(), st.floats(1.0, 30.0, allow_nan=False)
            )),
        ),
        faults=draw(st.sampled_from([None, "flaky-gpu"])),
    )


@pytest.fixture(scope="module")
def daemon_port():
    with ServerThread(TuningServer(max_pending=2, max_workers=1)) as port:
        yield port


@pytest.mark.slow
@settings(max_examples=30, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(request=tune_requests())
# A capped search: every entry point stops it at the same ledger spend
# (58.2 s), none runs out its whole proposal budget (155.2 s).
@example(request=TuneRequest(
    "convolution", "nvidia", seed=3, strategy="random",
    settings=TunerSettings(n_train=150, m_candidates=15, max_cost_s=30.0),
))
# Large enough that the classic and adaptive engines pick differently, so
# an entry point that drops fit_mode diverges (the drawn sizes are too
# small for member freezing to change a pick).
@example(request=TuneRequest(
    "convolution", "intel", seed=1,
    settings=TunerSettings(n_train=100, m_candidates=10, fit_mode="classic"),
))
def test_every_entry_point_runs_the_same_tune(daemon_port, request):
    s = request.settings
    spec = request.spec()

    # The CLI argv parses to the same request (it has no budget flag).
    argv = ["tune", "-k", request.kernel, "-d", request.device,
            "-n", str(s.n_train), "-m", str(s.m_candidates),
            "--seed", str(request.seed), "--strategy", request.strategy,
            "--fit-mode", s.fit_mode]
    if request.faults:
        argv += ["--faults", request.faults]
    parsed = _tune_request(build_parser().parse_args(argv))
    assert replace(
        parsed, settings=replace(parsed.settings, max_cost_s=s.max_cost_s)
    ) == request

    outcome = run_tune(request)
    want = (_wire(result_payload(outcome.result, spec.space)),
            _wire(_buckets(outcome.ledger)))

    # The tune built by hand from its primitives.
    ctx = Context(get_device(request.device), seed=request.seed,
                  faults=request.faults)
    if request.strategy == "ml":
        tuner = MLAutoTuner(ctx, spec, s)
    else:
        tuner = SearchTuner(ctx, spec, request.strategy, SearchSettings(
            budget=s.n_train + s.m_candidates, max_cost_s=s.max_cost_s,
        ))
    result = tuner.tune(np.random.default_rng(request.seed),
                        model_seed=request.seed)
    assert (_wire(result_payload(result, spec.space)),
            _wire(_buckets(ctx.ledger))) == want

    # An inline campaign-grid cell.
    (cell,) = run_campaign_grid(
        [spec], [request.device], settings=s, max_workers=1,
        seed=request.seed, faults=request.faults, strategy=request.strategy,
    ).cells
    assert (_wire(result_payload(cell.result, spec.space)),
            _wire(_buckets(cell.ledger))) == want

    # The daemon.
    reply = _daemon_tune(daemon_port, request)
    assert reply["type"] == "result", reply
    assert (_wire(reply["result"]), _wire(reply["cost"])) == want


# -- watches --------------------------------------------------------------------


def _watch_payload(report, space, detector):
    """An OnlineReport as the daemon's ``watch`` result carries it."""
    payload = report.as_dict()
    payload["initial"] = result_payload(report.initial, space)
    if not report.initial.failed:
        payload["incumbent_config"] = dict(space[report.incumbent])
    payload["detector"] = detector
    return payload


@st.composite
def watch_requests(draw):
    return TuneRequest(
        kernel="convolution",
        device=draw(st.sampled_from(sorted(DEVICES))),
        seed=draw(st.integers(0, 2**16)),
        settings=TunerSettings(
            n_train=draw(st.integers(11, 40)),
            m_candidates=draw(st.integers(1, 8)),
        ),
        faults=draw(st.sampled_from([None, "flaky-gpu"])),
        # The throttle sets in while the drawn watches monitor.
        drift=draw(st.sampled_from([
            None, "noisy-neighbor", "thermal-throttle:onset_s=60,ramp_s=120",
        ])),
        online=OnlineSettings(
            steps=draw(st.integers(0, 30)),
            step_interval_s=draw(st.floats(0.0, 120.0, allow_nan=False)),
            retune_window=draw(st.integers(1, 16)),
            warm_start_refits=draw(st.booleans()),
        ),
    )


@pytest.mark.slow
@settings(max_examples=20, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(request=watch_requests())
# Alarms at step 30 and re-tunes (convolution/nvidia under thermal-throttle
# and flaky-gpu), so the response path is compared too.
@example(request=TuneRequest(
    "convolution", "nvidia", seed=3,
    settings=TunerSettings(n_train=200, m_candidates=20),
    faults="flaky-gpu", drift="thermal-throttle",
    online=OnlineSettings(steps=40),
))
def test_every_entry_point_runs_the_same_watch(daemon_port, request):
    s, online = request.settings, request.online

    # The CLI argv parses to the same request.
    argv = ["watch", "-k", request.kernel, "-d", request.device,
            "-n", str(s.n_train), "-m", str(s.m_candidates),
            "--seed", str(request.seed), "--steps", str(online.steps),
            "--interval", repr(online.step_interval_s),
            "--retune-window", str(online.retune_window)]
    if not online.warm_start_refits:
        argv.append("--cold-refits")
    for flag, value in (("--faults", request.faults),
                        ("--drift", request.drift)):
        if value:
            argv += [flag, value]
    assert _watch_request(build_parser().parse_args(argv)) == request

    spec = request.spec()
    outcome = run_tune(request)
    report = outcome.watch
    assert outcome.result is report.initial
    want = (_wire(_watch_payload(report, spec.space, report.detector)),
            _wire(_buckets(outcome.ledger)))

    # The watch built by hand from its primitives.
    ctx = Context(get_device(request.device), seed=request.seed,
                  faults=request.faults, drift=request.drift)
    tuner = OnlineTuner(ctx, spec, online, s)
    hand = tuner.run(np.random.default_rng(request.seed),
                     model_seed=request.seed)
    assert (_wire(_watch_payload(hand, spec.space, tuner.detector.snapshot())),
            _wire(_buckets(ctx.ledger))) == want
    assert _wire(hand.trajectory) == _wire(report.trajectory)

    # The daemon, as raw JSON (TuningClient.watch has no warm_start); its
    # fields map to the same request.
    op = {
        "op": "watch", "id": "w", "kernel": request.kernel,
        "device": request.device, "n_train": s.n_train,
        "m_candidates": s.m_candidates, "seed": request.seed,
        "steps": online.steps, "interval_s": online.step_interval_s,
        "retune_window": online.retune_window, "faults": request.faults,
        "drift": request.drift, "warm_start": online.warm_start_refits,
        "stream": False,
    }
    assert watch_request(protocol.validate_watch(op)) == request
    with TuningClient("127.0.0.1", daemon_port, timeout=300) as client:
        client.send(op)
        reply = client.recv()
        while reply["type"] == "ack":
            reply = client.recv()
    assert reply["type"] == "result", reply
    assert (_wire(reply["result"]), _wire(reply["cost"])) == want


# -- searches -------------------------------------------------------------------


@st.composite
def search_requests(draw):
    space = ConvolutionKernel().space
    pinned = draw(st.lists(st.sampled_from(space.names), unique=True,
                           max_size=3))
    return TuneRequest(
        kernel="convolution",
        device=draw(st.sampled_from(sorted(DEVICES))),
        seed=draw(st.integers(0, 2**16)),
        strategy=draw(st.sampled_from(STRATEGY_CHOICES)),
        settings=SearchSettings(
            budget=draw(st.integers(1, 80)),
            batch=draw(st.integers(1, 40)),
            max_cost_s=draw(st.one_of(
                st.none(), st.floats(1.0, 60.0, allow_nan=False)
            )),
        ),
        pins={name: draw(st.sampled_from(space.parameter(name).values))
              for name in pinned},
        faults=draw(st.sampled_from([None, "flaky-gpu"])),
        drift=draw(st.sampled_from([None, "noisy-neighbor"])),
    )


@settings(max_examples=40, derandomize=True, deadline=None,
          suppress_health_check=[HealthCheck.too_slow])
@given(request=search_requests())
def test_repro_search_runs_the_hand_built_search(request):
    s = request.settings

    # The CLI argv parses to the same request.
    argv = ["search", "-k", request.kernel, "-d", request.device,
            "--strategy", request.strategy, "--budget", str(s.budget),
            "--batch", str(s.batch), "--seed", str(request.seed)]
    if s.max_cost_s is not None:
        argv += ["--max-cost-s", repr(s.max_cost_s)]
    if request.pins:
        argv += ["--pin", ",".join(f"{k}={v}" for k, v in request.pins)]
    for flag, value in (("--faults", request.faults),
                        ("--drift", request.drift)):
        if value:
            argv += [flag, value]
    assert _search_request(build_parser().parse_args(argv)) == request

    spec = request.spec()
    outcome = run_tune(request)
    ctx = Context(get_device(request.device), seed=request.seed,
                  faults=request.faults, drift=request.drift)
    tuner = SearchTuner(ctx, spec, request.strategy,
                        replace(s, pins=request.pins))
    result = tuner.tune(np.random.default_rng(request.seed))
    assert (_wire(result_payload(result, spec.space)),
            _wire(_buckets(ctx.ledger))) == (
        _wire(result_payload(outcome.result, spec.space)),
        _wire(_buckets(outcome.ledger)))
    got, hand = outcome.search, tuner.outcome
    assert (got.n_proposed, got.n_measured, got.n_free, got.rounds,
            got.stop_reason) == (hand.n_proposed, hand.n_measured,
                                 hand.n_free, hand.rounds, hand.stop_reason)
