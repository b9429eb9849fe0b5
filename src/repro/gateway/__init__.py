"""``repro.gateway`` — serving artwork from a warm process.

The batch pipeline (:mod:`repro.service`) pays Python's import +
process-spawn tax on every invocation; for the sub-30ms jobs this
pipeline produces, that tax dominates wall time.  This package keeps a
pool of forked workers resident — imports warm, caches attached — and
puts a small stdlib-only asyncio HTTP/WebSocket front end over it:

* :mod:`repro.gateway.pool` — the persistent :class:`WorkerPool`
  (fork once, dispatch many; crash isolation, per-job timeouts,
  graceful drain).  It is also how ``artwork-batch`` fans out: one
  pool per manifest, or one for every manifest with ``--keep-warm``.
* :mod:`repro.gateway.protocol` — minimal HTTP/1.1 + RFC 6455
  WebSocket framing, plus the blocking test/bench clients.
* :mod:`repro.gateway.auth` / :mod:`repro.gateway.rate_limit` —
  bearer-token auth and per-client token buckets.
* :mod:`repro.gateway.journal` — the write-ahead :class:`JobJournal`
  that makes accepted jobs survive restarts and SIGKILL.
* :mod:`repro.gateway.server` — :class:`ArtworkGateway`, the daemon
  behind the ``artwork-serve`` CLI.
"""

from importlib import import_module

#: Public name -> the submodule defining it.  Names resolve on first use,
#: so a batch that fans out imports the pool without loading the asyncio
#: server (4.9 MiB resident and 54 modules on CPython 3.11).
_EXPORTS = {
    "TokenAuth": "auth",
    "JobJournal": "journal",
    "JournalEntry": "journal",
    "read_journal": "journal",
    "CircuitBreaker": "pool",
    "PoolClosedError": "pool",
    "WorkerPool": "pool",
    "HttpClient": "protocol",
    "HttpResponse": "protocol",
    "ProtocolError": "protocol",
    "WebSocketClient": "protocol",
    "RateLimiter": "rate_limit",
    "TokenBucket": "rate_limit",
    "ArtworkGateway": "server",
    "GatewayConfig": "server",
    "GatewayHandle": "server",
    "start_gateway": "server",
}

__all__ = sorted(_EXPORTS)


def __getattr__(name: str):
    try:
        module = _EXPORTS[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    return getattr(import_module(f".{module}", __name__), name)
