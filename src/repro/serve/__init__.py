"""``repro.serve`` — the tuning daemon.

One long-lived process owns the simulator, the oracle/model caches and
the measurement pump, and answers tuning requests from many clients over
a line-JSON protocol.  See docs/serving.md for the protocol and
operational story.

Layout:

* :mod:`repro.serve.protocol` — wire format (requests, responses).
* :mod:`repro.serve.broker` — the shared measurement pump.
* :mod:`repro.serve.state` — watch identity, caches, client budgets.
* :mod:`repro.serve.campaigns` — campaign execution through
  :func:`~repro.core.request.run_tune`, the CLI ``tune`` path.
* :mod:`repro.serve.server` — the asyncio daemon (``python -m repro
  serve``).
* :mod:`repro.serve.client` — blocking client + load generator.
"""

from repro.serve.broker import MeasurementBroker
from repro.serve.campaigns import result_payload, run_campaign
from repro.serve.client import ServerRejected, TuningClient, run_load
from repro.serve.protocol import PROTOCOL_VERSION, ProtocolError
from repro.serve.server import TuningServer
from repro.serve.state import (
    ClientAccount,
    ModelCache,
    ResultCache,
)

__all__ = [
    "ClientAccount",
    "MeasurementBroker",
    "ModelCache",
    "PROTOCOL_VERSION",
    "ProtocolError",
    "ResultCache",
    "ServerRejected",
    "TuningClient",
    "TuningServer",
    "result_payload",
    "run_campaign",
    "run_load",
]
