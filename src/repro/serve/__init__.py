"""``repro.serve`` — the tuning daemon.

One long-lived process owns the simulator, the oracle/model caches and
the measurement broker, and answers tuning requests from many clients
over a line-JSON protocol.  See docs/serving.md for the protocol and
operational story.

Layout:

* :mod:`repro.serve.protocol` — wire format (requests, responses).
* :mod:`repro.serve.broker` — the shared measurement turn: one batch at
  a time, first come, first served, on the campaign's own thread.
* :mod:`repro.serve.state` — watch identity, caches, client budgets.
* :mod:`repro.serve.campaigns` — campaign execution through
  :func:`~repro.core.request.run_tune`, the CLI ``tune`` path.
* :mod:`repro.serve.server` — the asyncio daemon (``python -m repro
  serve``).
* :mod:`repro.serve.client` — blocking client + load generator.

The package itself exports nothing: import the submodule you need, so
that a caller of :mod:`~repro.serve.campaigns` or
:mod:`~repro.serve.protocol` (``repro watch``) loads neither the daemon,
the client nor asyncio.
"""
