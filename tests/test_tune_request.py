"""One tune entry point: ``TuneRequest`` validation and the cross-entry
property — the CLI, a campaign-grid cell and the daemon all run the same
tune, bit for bit, as the tuner built by hand from its primitives."""

import json
from dataclasses import replace

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from repro import Context, MLAutoTuner, TunerSettings
from repro.cli import _tune_request, build_parser
from repro.core.campaign import run_campaign_grid
from repro.core.iterative import IterativeSettings
from repro.core.request import TuneRequest, run_tune
from repro.core.strategies import SearchSettings, SearchTuner
from repro.kernels import ConvolutionKernel
from repro.kernels.convolution import ConvolutionProblem
from repro.kernels.stereo import StereoProblem
from repro.serve import protocol
from repro.serve.campaigns import result_payload
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
