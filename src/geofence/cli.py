"""Command-line front end: run the service, drive it, and run experiments.

Subcommands: serve, add, fetch, genboxes, replay, bench.

Exit codes:
    0  success
    2  usage error (bad flags or arguments)
    3  the server rejected the request (HTTP 4xx)
    4  the server failed (HTTP 5xx, or a 2xx reply that is not JSON)
    5  network failure: server unreachable or timed out
    6  storage or I/O failure
    7  invalid input file (trajectory, dataset, config)
"""

from __future__ import annotations

import argparse
import json
import os
import random
import sys

from . import __version__, datasets, replay
from .bench import BenchError, format_table, run_bench
from .config import api_config_from_values, load_kv_config, policy_from_values
from .device import FetchFailed, http_request
from .geo import GeoPoint, InvalidCoordinate
from .replay import TrajectoryError
from .server import create_server
from .snapshot import CorruptSnapshot, StorageFailure

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_REJECTED = 3
EXIT_SERVER_ERROR = 4
EXIT_NETWORK = 5
EXIT_IO = 6
EXIT_BAD_INPUT = 7

DEFAULT_SERVER_URL = "http://127.0.0.1:8764"


def _print_reply(status: int, raw: bytes) -> int:
    """Print a service reply as indented JSON; return the exit code for it."""
    try:
        body = json.loads(raw)
    except ValueError:
        text = raw.decode("utf-8", errors="replace")
        if 200 <= status < 300:
            print(f"server failed: status {status} reply is not JSON: {text[:200]!r}", file=sys.stderr)
            return EXIT_SERVER_ERROR
        body = {"error": "http_error", "message": text}
    print(json.dumps(body, indent=2, sort_keys=True))
    return _status_to_exit(status)


def _status_to_exit(status: int) -> int:
    if 200 <= status < 300:
        return EXIT_OK
    if 400 <= status < 500:
        return EXIT_REJECTED
    return EXIT_SERVER_ERROR


def _load_config_values(path: str | None) -> dict[str, str]:
    if not path:
        return {}
    return load_kv_config(path)


# -- subcommands ------------------------------------------------------------


def cmd_serve(args: argparse.Namespace) -> int:
    values = _load_config_values(args.config)
    if os.environ.get("BIND_ADDR"):
        values["bind_addr"] = os.environ["BIND_ADDR"]
    if os.environ.get("SNAPSHOT_PATH"):
        values["snapshot_path"] = os.environ["SNAPSHOT_PATH"]
    if os.environ.get("MAX_RADIUS_M"):
        values["max_radius_m"] = os.environ["MAX_RADIUS_M"]
    if args.bind:
        values["bind_addr"] = args.bind
    if args.snapshot:
        values["snapshot_path"] = args.snapshot
    if args.audit_log:
        values["audit_log_path"] = args.audit_log
    if args.max_radius_m is not None:
        values["max_radius_m"] = str(args.max_radius_m)
    if args.max_body_bytes is not None:
        values["max_body_bytes"] = str(args.max_body_bytes)
    server = create_server(api_config_from_values(values))
    print(f"listening on {server.url} (boxes: {server.registry.count()})", file=sys.stderr)
    try:
        server.serve_forever()
    except KeyboardInterrupt:
        pass
    finally:
        server.server_close()
    return EXIT_OK


def cmd_add(args: argparse.Namespace) -> int:
    payload = {
        "lon1": args.lon1,
        "lat1": args.lat1,
        "lon2": args.lon2,
        "lat2": args.lat2,
        "added_by": args.added_by,
        "reason": args.reason,
    }
    return _print_reply(*http_request("POST", args.server_url.rstrip("/") + "/v1/boxes", payload))


def cmd_fetch(args: argparse.Namespace) -> int:
    url = (
        args.server_url.rstrip("/")
        + f"/v1/boxes?lat={args.lat}&lon={args.lon}&radius_m={args.radius_m}"
    )
    return _print_reply(*http_request("GET", url))


def cmd_genboxes(args: argparse.Namespace) -> int:
    if not args.output:
        print("genboxes requires --output", file=sys.stderr)
        return EXIT_USAGE
    if args.n <= 0:
        print("--n must be positive", file=sys.stderr)
        return EXIT_USAGE
    center = GeoPoint(lat=args.center_lat, lon=args.center_lon)
    rng = random.Random(args.seed)
    extents = datasets.generate_extents(args.n, center, args.radius_m, rng)
    count = datasets.write_dataset(args.output, extents)
    print(f"wrote {count} boxes to {args.output}", file=sys.stderr)
    return EXIT_OK


def cmd_replay(args: argparse.Namespace) -> int:
    policy = policy_from_values(_load_config_values(args.config))
    events = replay.load_trajectory(args.trajectory)
    log = replay.run_replay(events, policy, args.server_url, epoch=args.epoch)
    text = "\n".join(log) + ("\n" if log else "")
    sys.stdout.write(text)
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            f.write(text)
    return EXIT_OK


def cmd_bench(args: argparse.Namespace) -> int:
    try:
        sizes = [int(s) for s in args.sizes.split(",") if s.strip()]
    except ValueError:
        print(f"--sizes must be a comma-separated list of integers, got {args.sizes!r}", file=sys.stderr)
        return EXIT_USAGE
    report = run_bench(
        sizes,
        seed=args.seed,
        workdir=args.workdir,
        ops=args.ops,
        startup_reps=args.startup_reps,
    )
    print(format_table(report))
    if args.output:
        with open(args.output, "w", encoding="utf-8") as f:
            json.dump(report, f, indent=2, sort_keys=True)
            f.write("\n")
        print(f"report written to {args.output}", file=sys.stderr)
    else:
        print(json.dumps(report, indent=2, sort_keys=True))
    return EXIT_OK


# -- parser -----------------------------------------------------------------


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="geofence",
        description="Restricted-box registry service, client tools, and experiment harness.",
        epilog=(
            "exit codes: 0 success, 2 usage, 3 rejected by server (4xx), "
            "4 server error (5xx or a non-JSON reply), 5 network failure, 6 storage/I-O failure, "
            "7 invalid input file"
        ),
    )
    parser.add_argument("--version", action="version", version=f"%(prog)s {__version__}")
    parser.add_argument(
        "--server-url",
        default=os.environ.get("GEOFENCE_SERVER_URL", DEFAULT_SERVER_URL),
        help=f"registry service base URL (default {DEFAULT_SERVER_URL})",
    )
    parser.add_argument("--config", help="key=value config file")
    parser.add_argument("--seed", type=int, default=0, help="seed for pseudorandom generation")
    parser.add_argument("--output", help="output file (command-specific meaning)")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("serve", help="run the registry HTTP service")
    p.add_argument("--bind", help="host:port to listen on (env BIND_ADDR)")
    p.add_argument("--snapshot", help="snapshot file for durable storage (env SNAPSHOT_PATH)")
    p.add_argument("--audit-log", help="audit log path (default: <snapshot>.audit)")
    p.add_argument("--max-radius-m", type=float, help="largest radius_m a query may ask for (env MAX_RADIUS_M)")
    p.add_argument("--max-body-bytes", type=int, help="largest accepted request body")
    p.set_defaults(func=cmd_serve)

    p = sub.add_parser("add", help="add a restricted box through the API")
    p.add_argument("lon1", type=float)
    p.add_argument("lat1", type=float)
    p.add_argument("lon2", type=float)
    p.add_argument("lat2", type=float)
    p.add_argument("--added-by", required=True)
    p.add_argument("--reason", default="")
    p.set_defaults(func=cmd_add)

    p = sub.add_parser("fetch", help="fetch boxes in a radius through the API")
    p.add_argument("lat", type=float)
    p.add_argument("lon", type=float)
    p.add_argument("radius_m", type=float)
    p.set_defaults(func=cmd_fetch)

    p = sub.add_parser("genboxes", help="generate a synthetic dataset (--output required)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--center-lat", type=float, default=40.0)
    p.add_argument("--center-lon", type=float, default=-74.5)
    p.add_argument("--radius-m", type=float, default=80_467.2)
    p.set_defaults(func=cmd_genboxes)

    p = sub.add_parser("replay", help="replay a GPS trajectory through the device state machine")
    p.add_argument("trajectory", help="JSON-lines trajectory file")
    p.add_argument("--epoch", type=float, default=0.0, help="virtual time of t=0")
    p.set_defaults(func=cmd_replay)

    p = sub.add_parser("bench", help="measure storage and latency per store size")
    p.add_argument("--sizes", default="1000,100000,250000", help="comma-separated store sizes")
    p.add_argument("--workdir", default=".geofence-bench", help="scratch directory")
    p.add_argument("--ops", type=int, default=100, help="add/fetch samples per size")
    p.add_argument("--startup-reps", type=int, default=20, help="startup-check samples per size")
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv: list[str] | None = None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except FetchFailed as exc:
        print(f"network failure: {exc}", file=sys.stderr)
        return EXIT_NETWORK
    except (TrajectoryError, CorruptSnapshot) as exc:
        print(f"invalid input: {exc}", file=sys.stderr)
        return EXIT_BAD_INPUT
    except StorageFailure as exc:
        print(f"storage failure: {exc}", file=sys.stderr)
        return EXIT_IO
    except BenchError as exc:
        print(f"bench error: {exc}", file=sys.stderr)
        return EXIT_USAGE if exc.status is None else _status_to_exit(exc.status)
    except (InvalidCoordinate, ValueError) as exc:
        print(f"invalid arguments: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except OSError as exc:
        print(f"I/O error: {exc}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
