"""``slp serve`` — boot the entailment service and run until signalled.

The subcommand wires a :class:`~repro.server.service.ProofService` (warm
pool + optionally persistent proof store) into a
:class:`~repro.server.http.ProofServer` and blocks until ``SIGINT`` or
``SIGTERM``.  Shutdown is graceful in two stages: the listener stops
accepting and in-flight connections finish, then the service drains its
queue and closes the pool and the store — accepted work is always answered,
and the advisory store lock is always released.

The listening address is announced on standard error as::

    slp serve: listening on http://127.0.0.1:43210

which is also how harnesses discover the real port when ``--port 0`` asks
for an ephemeral one.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from typing import Iterable, List, Optional

from repro.core.config import ProverConfig
from repro.server.http import ProofServer
from repro.server.service import (
    DEFAULT_MAX_QUEUE_ENTAILMENTS,
    DEFAULT_MAX_QUEUE_REQUESTS,
    ProofService,
)

__all__ = ["serve_main"]

DEFAULT_TIMEOUT = 30.0


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="slp serve",
        description="Serve separation-logic entailment checking over HTTP/JSON.",
    )
    parser.add_argument("--host", default="127.0.0.1", help="bind address (default 127.0.0.1)")
    parser.add_argument(
        "--port",
        type=int,
        default=8080,
        help="bind port; 0 picks an ephemeral one, announced on stderr (default 8080)",
    )
    parser.add_argument(
        "--jobs",
        type=int,
        default=1,
        metavar="N",
        help="warm worker processes (1 proves on the dispatcher thread; default 1)",
    )
    parser.add_argument(
        "--store",
        metavar="PATH",
        default=None,
        help="back the proof cache with a persistent store at PATH",
    )
    parser.add_argument(
        "--timeout",
        type=float,
        default=DEFAULT_TIMEOUT,
        metavar="SECONDS",
        help="per-entailment budget ceiling; per-request timeouts clamp to it"
        " (default {:.0f}s)".format(DEFAULT_TIMEOUT),
    )
    parser.add_argument(
        "--max-queue-requests",
        type=int,
        default=DEFAULT_MAX_QUEUE_REQUESTS,
        metavar="N",
        help="admission cap on queued requests; past it /prove answers 429"
        " (default {})".format(DEFAULT_MAX_QUEUE_REQUESTS),
    )
    parser.add_argument(
        "--max-queue-entailments",
        type=int,
        default=DEFAULT_MAX_QUEUE_ENTAILMENTS,
        metavar="N",
        help="admission cap on queued entailments across all requests"
        " (default {})".format(DEFAULT_MAX_QUEUE_ENTAILMENTS),
    )
    return parser


async def _run(server: ProofServer, announce) -> None:
    await server.start()
    announce(server)
    loop = asyncio.get_running_loop()
    stop = asyncio.Event()
    for signum in (signal.SIGINT, signal.SIGTERM):
        try:
            loop.add_signal_handler(signum, stop.set)
        except (NotImplementedError, RuntimeError):  # pragma: no cover - non-Unix loops
            signal.signal(signum, lambda *_: stop.set())
    await stop.wait()
    print("slp serve: shutting down (draining in-flight work)", file=sys.stderr, flush=True)
    await server.drain()


def serve_main(argv: Optional[Iterable[str]] = None) -> int:
    """Entry point of ``slp serve``."""
    arguments = _build_parser().parse_args(list(argv) if argv is not None else None)
    if arguments.jobs < 1:
        print("slp serve: --jobs must be at least 1", file=sys.stderr)
        return 2
    if arguments.timeout <= 0:
        print("slp serve: --timeout must be positive", file=sys.stderr)
        return 2
    if arguments.max_queue_requests < 1 or arguments.max_queue_entailments < 1:
        print("slp serve: queue caps must be at least 1", file=sys.stderr)
        return 2
    config = ProverConfig(record_proof=False).with_timeout(arguments.timeout)
    service = ProofService(
        config,
        jobs=arguments.jobs,
        store_path=arguments.store,
        max_queue_requests=arguments.max_queue_requests,
        max_queue_entailments=arguments.max_queue_entailments,
    )
    server = ProofServer(service, host=arguments.host, port=arguments.port)

    def announce(bound: ProofServer) -> None:
        details: List[str] = ["jobs={}".format(arguments.jobs), "lanes={}".format(service.lanes)]
        if arguments.store is not None:
            details.append("store={}".format(arguments.store))
        print(
            "slp serve: listening on http://{}:{} [{}]".format(
                bound.host, bound.port, ", ".join(details)
            ),
            file=sys.stderr,
            flush=True,
        )

    try:
        asyncio.run(_run(server, announce))
    finally:
        service.close()  # drains the queue, releases pool + store
    print("slp serve: stopped", file=sys.stderr, flush=True)
    return 0


if __name__ == "__main__":  # pragma: no cover - exercised via ``slp serve``
    sys.exit(serve_main())
