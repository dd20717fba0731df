"""``repro-serve`` — run a multi-process ordering fleet standalone.

::

    repro-serve --shards 4 --cache-dir /var/cache/repro-orders

brings up the worker fleet over per-shard artifact stores, runs an
optional warm-up/demo workload, prints per-shard statistics, and — with
``--keep-alive`` — stays up until interrupted, restarting any worker
that dies.  Because every worker hydrates from its shard's store, a
restarted fleet (or worker) answers all previously-seen traffic with
zero eigensolves; ``repro-serve`` over a warm cache directory is
therefore cheap enough to bounce freely.

The same binary doubles as a smoke test of a deployment's plumbing:
``--demo-side N`` orders a small population of grids through the real
IPC path and reports where every answer came from.

With ``--listen HOST:PORT`` the fleet additionally fronts a TCP socket
(:class:`repro.net.SpectralServer`): remote
:class:`~repro.net.RemoteFrontend` clients get the full ordering and
query surface, cross-client request coalescing, and admission control
(``--queue-depth`` / ``--request-timeout``, or the
``REPRO_NET_QUEUE_DEPTH`` / ``REPRO_NET_TIMEOUT`` environment knobs).
Port 0 binds an ephemeral port; the chosen address is printed as
``listening on HOST:PORT``.  The wire format is pickle — only listen
on trusted networks.
"""

from __future__ import annotations

import argparse
import sys
import time
from typing import List, Optional

from repro.core.spectral import SpectralConfig
from repro.errors import InvalidParameterError
from repro.geometry.grid import Grid
from repro.net.config import parse_address
from repro.obs import Timer
from repro.serve.supervisor import ProcessFleet
from repro.service.ordering import ServiceStats


def _listen_address(spec: str):
    """argparse type for ``--listen``: well-formed and unprivileged."""
    try:
        host, port = parse_address(spec)
    except InvalidParameterError as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None
    if 1 <= port <= 1023:
        raise argparse.ArgumentTypeError(
            f"port {port} is privileged; pick 0 (ephemeral) or >= 1024")
    return host, port


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro-serve",
        description="Run a multi-process spectral-ordering fleet.",
    )
    parser.add_argument(
        "--shards", type=int, default=4,
        help="keyspace partitions (default: %(default)s)",
    )
    parser.add_argument(
        "--workers", type=int, default=None,
        help="worker processes; <= shards, each worker then owns every "
             "shard congruent to its id (default: one per shard)",
    )
    parser.add_argument(
        "--cache-dir", default=None,
        help="root of the per-shard artifact stores "
             "(<cache-dir>/shard-NNN); omitting it keeps the fleet "
             "memory-only, so restarts start cold",
    )
    parser.add_argument(
        "--demo-side", type=int, default=None, metavar="N",
        help="warm-up workload: order grids (4,4)..(N,N) through the "
             "fleet and report cache sources; 0 disables "
             "(default: 16, or off with --listen)",
    )
    parser.add_argument(
        "--listen", type=_listen_address, default=None,
        metavar="HOST:PORT",
        help="serve the fleet over a TCP socket for RemoteFrontend "
             "clients; port 0 binds an ephemeral port (printed as "
             "'listening on HOST:PORT'); implies --keep-alive; "
             "pickle wire format -- trusted networks only",
    )
    parser.add_argument(
        "--queue-depth", type=int, default=None, metavar="N",
        help="socket admission queue capacity (default: "
             "REPRO_NET_QUEUE_DEPTH or 64)",
    )
    parser.add_argument(
        "--request-timeout", type=float, default=None, metavar="SECONDS",
        help="socket per-request deadline (default: REPRO_NET_TIMEOUT "
             "or 30)",
    )
    parser.add_argument(
        "--dispatchers", type=int, default=4, metavar="N",
        help="socket dispatcher threads; bounds concurrent backend "
             "calls (default: %(default)s)",
    )
    parser.add_argument(
        "--keep-alive", action="store_true",
        help="stay up after the warm-up, restarting dead workers, "
             "until interrupted",
    )
    parser.add_argument(
        "--health", action="store_true",
        help="probe every worker (identity, uptime, per-shard store "
             "status) over the real IPC path and print the results",
    )
    parser.add_argument(
        "--metrics", action="store_true",
        help="print each worker's metric registry (Prometheus text) "
             "after the warm-up",
    )
    return parser


def main(argv: Optional[List[str]] = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.listen is not None and args.demo_side is not None:
        parser.error("--listen cannot be combined with --demo-side "
                     "(the server does not run the warm-up workload)")
    if args.listen is None and args.demo_side is None:
        args.demo_side = 16
    if args.demo_side and not 0 <= args.demo_side <= 256:
        print("repro-serve: --demo-side must be in [0, 256]",
              file=sys.stderr)
        return 2
    for flag, value in (("--queue-depth", args.queue_depth),
                        ("--dispatchers", args.dispatchers)):
        if value is not None and value < 1:
            parser.error(f"{flag} must be >= 1, got {value}")
    if args.request_timeout is not None and args.request_timeout <= 0:
        parser.error(f"--request-timeout must be > 0, "
                     f"got {args.request_timeout}")
    try:
        fleet = ProcessFleet(args.shards, workers=args.workers,
                             cache_dir=args.cache_dir)
    except Exception as exc:
        print(f"repro-serve: failed to start fleet: {exc}",
              file=sys.stderr)
        return 1
    with fleet:
        hellos = fleet.hellos()
        store = args.cache_dir or "(memory-only)"
        print(f"fleet up: {fleet.num_shards} shards on "
              f"{fleet.num_workers} workers, stores under {store}")
        for hello in hellos:
            print(f"  worker {hello.worker_id} (pid {hello.pid}) "
                  f"owns shards {list(hello.shard_ids)}")

        if args.demo_side:
            from repro.api.process_pool import ProcessPoolFrontend

            front = ProcessPoolFrontend(fleet=fleet)
            requests = [(Grid((s, s)), SpectralConfig())
                        for s in range(4, args.demo_side + 1)]
            with Timer() as timer:
                front.order_many(requests,
                                 parallelism=fleet.num_workers)
            print(f"warm-up: ordered {len(requests)} grids "
                  f"in {timer.seconds:.2f}s")
            _print_stats(fleet)

        if args.health:
            for health in fleet.health():
                print(f"  worker {health.worker_id} (pid {health.pid}) "
                      f"status={health.status} "
                      f"uptime={health.uptime_seconds:.1f}s "
                      f"requests={health.requests_handled}")
                for shard, verdict in sorted(health.stores.items()):
                    print(f"    shard {shard}: {verdict}")

        if args.metrics:
            for worker_id, dump in enumerate(fleet.worker_metrics()):
                print(f"--- worker {worker_id} metrics ---")
                sys.stdout.write(dump)

        if args.listen is not None:
            return _serve_socket(fleet, args)

        if args.keep_alive:
            print("serving; Ctrl-C to stop")
            try:
                while True:
                    time.sleep(1.0)
                    for worker_id in fleet.check_workers():
                        print(f"restarted dead worker {worker_id} "
                              "(rehydrated from its shard stores)")
            except KeyboardInterrupt:
                print("\nshutting down")
    return 0


def _serve_socket(fleet: ProcessFleet, args) -> int:
    """Front the fleet with a socket server until interrupted."""
    from repro.api.process_pool import ProcessPoolFrontend
    from repro.net.server import SpectralServer

    host, port = args.listen
    front = ProcessPoolFrontend(fleet=fleet)
    try:
        server = SpectralServer(
            front, host, port,
            queue_depth=args.queue_depth,
            request_timeout=args.request_timeout,
            dispatchers=args.dispatchers,
        ).start()
    except OSError as exc:
        print(f"repro-serve: failed to bind {host}:{port}: {exc}",
              file=sys.stderr)
        return 1
    bound_host, bound_port = server.address
    # flush so a parent process scripting this CLI can read the
    # ephemeral port the moment it is bound
    print(f"listening on {bound_host}:{bound_port}", flush=True)
    print("serving; Ctrl-C to stop", flush=True)
    try:
        while True:
            time.sleep(1.0)
            for worker_id in fleet.check_workers():
                print(f"restarted dead worker {worker_id} "
                      "(rehydrated from its shard stores)", flush=True)
    except KeyboardInterrupt:
        print("\ndraining and shutting down")
    finally:
        server.close()
    return 0


def _print_stats(fleet: ProcessFleet) -> None:
    shard_stats = fleet.shard_stats()
    for shard, stats in enumerate(shard_stats):
        row = stats.as_dict()
        print(f"  shard {shard}: computed={row['computed']} "
              f"disk={row['disk_hits']} memory={row['memory_hits']} "
              f"solver_calls={row['solver_calls']}")
    combined = ServiceStats.total(shard_stats)
    print(f"  total solver calls: {combined.solver_calls}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
