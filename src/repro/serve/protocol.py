"""Line-JSON wire protocol of the tuning daemon.

One JSON object per line, both directions.  Requests carry an ``op`` and
an optional client-chosen ``id`` the server echoes on every response, so
a client may pipeline requests over one connection.

Requests
--------
``{"op": "tune", "id": "r1", "kernel": "convolution", "device": "nvidia",
"n_train": 1000, "m_candidates": 100, "seed": 0, "budget_s": null,
"faults": null, "stream": false}``
    Run (or join, or replay) a tuning campaign.  ``budget_s`` caps the
    campaign's simulated ledger spend (see ``TunerSettings.max_cost_s``);
    ``stream: true`` subscribes the client to the campaign's trace events.
``{"op": "predict", "kernel": ..., "device": ..., "n_train": ..., "seed":
..., "config": {...name: value...}}``
    Predict one configuration's time from the shared model cache (a model
    is cached by every fresh campaign).
``{"op": "watch", "id": "w1", "kernel": ..., "device": ..., "n_train":
400, "m_candidates": 40, "seed": 0, "steps": 120, "interval_s": 30.0,
"retune_window": 32, "drift": "thermal-throttle", "faults": null,
"stream": true}``
    Long-lived online campaign (:class:`~repro.core.online.OnlineTuner`):
    tune once, then monitor the incumbent for ``steps`` probes of
    ``interval_s`` simulated seconds each, re-tuning incrementally when
    the drift detector alarms.  ``stream`` defaults to *true* here —
    watching is about the event stream (``drift.alarm``,
    ``online.retune`` records); the terminal ``result`` carries the
    :meth:`~repro.core.online.OnlineReport.as_dict` payload.  Watches are
    never coalesced or cached: each one is a live campaign on its own
    drift clock.
``{"op": "stats"}``, ``{"op": "ping"}``, ``{"op": "shutdown"}``
    Server counters; liveness; graceful drain (finish in-flight
    campaigns, then stop accepting).

Responses (``type`` field)
--------------------------
``ack``       tune admitted: ``coalesced``/``cached`` say how.
``event``     one trace record of a streamed campaign (``record``).
``result``    terminal success: the campaign payload plus accounting.
``rejected``  admission control: ``reason`` in ``{"queue_full",
              "client_budget_exhausted", "draining"}``; ``retry_after_s``
              is the server's backoff hint.
``error``     malformed/unknown request; the connection stays open.

Every line is strict JSON (non-finite floats are encoded as strings by
the emitting layer, matching the trace-file convention).
"""

from __future__ import annotations

import json
import math
from typing import Any, Dict, Mapping, Optional

#: Protocol revision, echoed in every hello/stats payload.
PROTOCOL_VERSION = 1

#: Defaults applied to ``tune`` requests (mirrors ``repro tune`` CLI).
TUNE_DEFAULTS: Dict[str, Any] = {
    "n_train": 1000,
    "m_candidates": 100,
    "seed": 0,
    "budget_s": None,
    "faults": None,
    "fit_mode": "adaptive",
    "strategy": "ml",
    "stream": False,
}

#: Defaults applied to ``watch`` requests (mirrors ``repro watch`` CLI).
#: Smaller tune stage than TUNE_DEFAULTS: a watch spends its budget over
#: the whole monitoring horizon, not all up front.
WATCH_DEFAULTS: Dict[str, Any] = {
    "n_train": 400,
    "m_candidates": 40,
    "seed": 0,
    "steps": 120,
    "interval_s": 30.0,
    "retune_window": 32,
    "drift": None,
    "faults": None,
    "warm_start": True,
    "stream": True,
}


class ProtocolError(ValueError):
    """A request the server cannot interpret (reported, never fatal)."""


def _strict(value):
    """Keep every line strict JSON: non-finite floats become strings."""
    if isinstance(value, float) and not math.isfinite(value):
        return repr(value)
    if isinstance(value, Mapping):
        return {str(k): _strict(v) for k, v in value.items()}
    if isinstance(value, (list, tuple)):
        return [_strict(v) for v in value]
    return value


def encode(obj: Mapping[str, Any]) -> bytes:
    """One wire line (newline-terminated UTF-8 JSON)."""
    return (json.dumps(_strict(obj), allow_nan=False) + "\n").encode("utf-8")


def decode(line: bytes | str) -> Dict[str, Any]:
    """Parse one wire line into a request dict."""
    if isinstance(line, bytes):
        line = line.decode("utf-8", errors="replace")
    line = line.strip()
    if not line:
        raise ProtocolError("empty request line")
    try:
        obj = json.loads(line)
    except json.JSONDecodeError as exc:
        raise ProtocolError(f"bad JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError("request must be a JSON object")
    if "op" not in obj:
        raise ProtocolError("request missing 'op'")
    return obj


def validate_tune(req: Mapping[str, Any]) -> Dict[str, Any]:
    """Canonicalize a ``tune`` request: defaults applied, types checked.

    This layer enforces shape; the values (kernel, device, profile,
    fit_mode, strategy, n_train against the bagging folds) are checked by
    the :class:`~repro.core.request.TuneRequest` the server builds.
    """
    out = dict(TUNE_DEFAULTS)
    for field in ("kernel", "device"):
        value = req.get(field)
        if not isinstance(value, str) or not value:
            raise ProtocolError(f"tune request needs a string '{field}'")
        out[field] = value
    for field in ("n_train", "m_candidates", "seed"):
        if field in req and req[field] is not None:
            if not isinstance(req[field], int) or isinstance(req[field], bool):
                raise ProtocolError(f"'{field}' must be an integer")
            out[field] = req[field]
    if out["n_train"] < 1 or out["m_candidates"] < 1:
        raise ProtocolError("'n_train' and 'm_candidates' must be >= 1")
    if "budget_s" in req and req["budget_s"] is not None:
        budget = req["budget_s"]
        if not isinstance(budget, (int, float)) or isinstance(budget, bool):
            raise ProtocolError("'budget_s' must be a number")
        if budget <= 0:
            raise ProtocolError("'budget_s' must be positive")
        out["budget_s"] = float(budget)
    if "faults" in req and req["faults"] is not None:
        if not isinstance(req["faults"], str):
            raise ProtocolError("'faults' must be a profile spec string")
        out["faults"] = req["faults"]
    for field in ("fit_mode", "strategy"):
        if req.get(field) is not None:
            out[field] = req[field]
    out["stream"] = bool(req.get("stream", False))
    return out


def validate_watch(req: Mapping[str, Any]) -> Dict[str, Any]:
    """Canonicalize a ``watch`` request: defaults applied, types checked.

    Same division of labour as :func:`validate_tune`: shape here, values
    in the :class:`~repro.core.request.TuneRequest` the server builds.
    """
    out = dict(WATCH_DEFAULTS)
    for field in ("kernel", "device"):
        value = req.get(field)
        if not isinstance(value, str) or not value:
            raise ProtocolError(f"watch request needs a string '{field}'")
        out[field] = value
    for field in ("n_train", "m_candidates", "seed", "steps", "retune_window"):
        if field in req and req[field] is not None:
            if not isinstance(req[field], int) or isinstance(req[field], bool):
                raise ProtocolError(f"'{field}' must be an integer")
            out[field] = req[field]
    if out["n_train"] < 1 or out["m_candidates"] < 1:
        raise ProtocolError("'n_train' and 'm_candidates' must be >= 1")
    if out["steps"] < 0:
        raise ProtocolError("'steps' must be >= 0")
    if out["retune_window"] < 1:
        raise ProtocolError("'retune_window' must be >= 1")
    if "interval_s" in req and req["interval_s"] is not None:
        interval = req["interval_s"]
        if not isinstance(interval, (int, float)) or isinstance(interval, bool):
            raise ProtocolError("'interval_s' must be a number")
        if interval < 0:
            raise ProtocolError("'interval_s' must be >= 0")
        out["interval_s"] = float(interval)
    for field in ("drift", "faults"):
        if field in req and req[field] is not None:
            if not isinstance(req[field], str):
                raise ProtocolError(f"'{field}' must be a profile spec string")
            out[field] = req[field]
    if "warm_start" in req and req["warm_start"] is not None:
        if not isinstance(req["warm_start"], bool):
            raise ProtocolError("'warm_start' must be a boolean")
        out["warm_start"] = req["warm_start"]
    out["stream"] = bool(req.get("stream", True))
    return out


def response(type_: str, req_id: Optional[str], **fields) -> Dict[str, Any]:
    out: Dict[str, Any] = {"type": type_}
    if req_id is not None:
        out["id"] = req_id
    out.update(fields)
    return out
