"""``repro serve``: the HTTP job service (see ``docs/service.md``)."""

from __future__ import annotations

import argparse
import signal
import threading
from pathlib import Path

from repro.cli.usage import usage_error


def add_arguments(subparsers) -> None:
    parser = subparsers.add_parser(
        "serve",
        help="run the HTTP job service (scenario/sweep runs with a "
             "digest-keyed run cache; see docs/service.md)",
    )
    parser.add_argument("--host", type=str, default="127.0.0.1",
                        help="bind address (default 127.0.0.1)")
    parser.add_argument("--port", type=int, default=8437,
                        help="listen port (default 8437; 0 picks an "
                             "ephemeral port and prints it)")
    parser.add_argument("--workers", type=int, default=None, metavar="N",
                        help="worker processes executing jobs (default: CPU "
                             "affinity count, capped at 4)")
    parser.add_argument("--max-queue", type=int, default=16, metavar="M",
                        help="queued-job bound before submissions get "
                             "HTTP 429 + Retry-After (default 16)")
    parser.add_argument("--store", type=str, default="run-store", metavar="DIR",
                        help="on-disk run store directory (default ./run-store)")
    parser.add_argument("--store-max-bytes", type=int, default=None, metavar="B",
                        help="evict least-recently-used run bundles once the "
                             "store exceeds B bytes (default: unbounded)")
    parser.add_argument("--timeout", type=float, default=3600.0, metavar="S",
                        dest="timeout_s",
                        help="per-job wall-clock timeout in seconds "
                             "(default 3600; 0 disables)")
    parser.add_argument("--verbose", action="store_true",
                        help="log every HTTP request to stderr")
    parser.set_defaults(run=run)


def run(args: argparse.Namespace, out) -> int:
    """The ``serve`` verb: run the HTTP job service until SIGTERM/SIGINT.

    Termination signals trigger a graceful drain — the server stops
    accepting submissions, finishes every in-flight job (the run store is
    already durable for each completed one), and exits 0.
    """
    # Imported here: the HTTP stack is dead weight for every other verb's start-up.
    from repro.service import ReproService, ServiceConfig

    if args.port < 0:
        return usage_error("--port must be >= 0")
    stop = threading.Event()
    received: list[int] = []

    def _on_signal(signum: int, _frame: object) -> None:
        # No I/O here: the signal may interrupt a write to the same stream.
        received.append(signum)
        stop.set()

    # Installed before the socket accepts: a supervisor that sends SIGTERM the
    # moment /healthz answers must get a drain and exit 0, not the default kill.
    previous = {
        signum: signal.signal(signum, _on_signal)
        for signum in (signal.SIGTERM, signal.SIGINT)
    }
    try:
        try:
            config = ServiceConfig(
                host=args.host,
                port=args.port,
                workers=args.workers,
                max_queue=args.max_queue,
                store_dir=Path(args.store),
                store_max_bytes=args.store_max_bytes,
                timeout_s=None if args.timeout_s <= 0 else args.timeout_s,
                verbose=args.verbose,
            )
            service = ReproService(config)
            service.start()
        except (OSError, ValueError) as error:
            return usage_error(error)
        print(
            f"repro serve listening on {service.url} "
            f"(store: {config.store_dir}, workers: {service.manager.workers}, "
            f"max-queue: {config.max_queue})",
            file=out,
            flush=True,
        )
        while not stop.is_set():
            stop.wait(0.2)
    finally:
        for signum, handler in previous.items():
            signal.signal(signum, handler)
    print(
        f"received {signal.Signals(received[0]).name}: draining in-flight jobs",
        file=out,
        flush=True,
    )
    drained = service.stop(drain=True)
    print("drained" if drained else "drain timed out", file=out, flush=True)
    return 0 if drained else 1
