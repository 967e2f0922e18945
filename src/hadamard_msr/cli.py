"""Command-line front end: encode, kill, repair, decode, bench, verify.

Exit codes: 0 success, 1 usage error, 2 integrity or verification failure,
3 unrecoverable data.
"""

from __future__ import annotations

import argparse
import sys
from functools import cache

from . import cluster
from .codec import profile_params
from .metering import cmd_bench
from .repair import STRATEGIES
from .verify import verify_params


class _Parser(argparse.ArgumentParser):
    """argparse parser whose errors surface as UsageError (exit code 1)."""

    def error(self, message):
        raise cluster.UsageError(message)


def _cmd_encode(args) -> int:
    state = cluster.cmd_encode(
        args.input, args.out, k=args.k, q=args.q, demo=args.demo
    )
    p = state.params
    print(
        f"encoded {state.manifest.original_length} bytes into "
        f"{state.manifest.chunk_count} chunks across {p.k + 2} nodes "
        f"(k={p.k}, q={p.q}, a={','.join(map(str, p.a))}, b={','.join(map(str, p.b))})"
    )
    return 0


def _cmd_kill(args) -> int:
    state = cluster.cmd_kill(args.cluster, args.node, force=args.force)
    print(f"killed node {args.node}; dead nodes now {list(state.dead)}")
    return 0


def _cmd_repair(args) -> int:
    summary = cluster.cmd_repair(args.cluster, args.node, strategy=args.strategy)
    print(
        f"repaired node {summary.node} with the {summary.strategy} strategy: "
        f"{summary.chunks} chunks, {summary.downloaded_symbols} symbols downloaded "
        f"({summary.per_chunk_downloaded} per chunk)"
    )
    if args.report:
        for phase in ("download", "cancel", "recover"):
            print(
                f"  {phase}: adds={summary.adds_by_phase[phase]} "
                f"muls={summary.muls_by_phase[phase]}"
            )
        print(f"  total: adds={summary.adds} muls={summary.muls}")
    return 0


def _cmd_decode(args) -> int:
    data = cluster.cmd_decode(args.cluster, out_path=args.out)
    if args.out is None:
        sys.stdout.buffer.write(data)
    else:
        print(f"wrote {len(data)} bytes to {args.out}")
    return 0


def _cmd_bench(args) -> int:
    k_values = args.k or [2, 3]
    strategies = tuple(args.strategy) if args.strategy else tuple(STRATEGIES)
    if args.csv and len(k_values) != 1:
        raise cluster.UsageError("--csv covers a single code; pass exactly one --k")
    try:
        tables = cmd_bench(k_values, strategies)
    except ValueError as exc:
        raise cluster.UsageError(str(exc)) from None
    for table in tables:
        print(table.csv if args.csv else table.text)
    return 0


def _cmd_verify(args) -> int:
    if args.params is not None:
        if args.cluster is not None:
            raise cluster.UsageError("pass a cluster directory or --params, not both")
        # without a comma q_str is "", so int() rejects it like any non-integer
        k_str, _, q_str = args.params.partition(",")
        try:
            k, q = int(k_str), int(q_str)
        except ValueError:
            raise cluster.UsageError("--params expects two integers: k,q") from None
        try:
            params = profile_params(k, q)
        except ValueError as exc:
            raise cluster.UsageError(str(exc)) from None
        ok, lines = verify_params(params)
    elif args.cluster is not None:
        ok, lines = cluster.cmd_verify(args.cluster)
    else:
        raise cluster.UsageError("verify needs a cluster directory or --params k,q")
    for line in lines:
        print(line)
    print("verification passed" if ok else "verification FAILED")
    return 0 if ok else 2


@cache
def build_parser() -> argparse.ArgumentParser:
    """The hmsr parser, built once per process: every main() call parses
    into a fresh Namespace, so no flag carries over to the next call."""
    parser = _Parser(
        prog="hmsr",
        description="Bandwidth-optimal (k+2, k) erasure coding over a simulated cluster.",
    )
    sub = parser.add_subparsers(dest="command", metavar="command")

    p = sub.add_parser("encode", parents=[], help="encode a file into a cluster directory")
    p.add_argument("input", help="file to encode")
    p.add_argument("out", help="cluster directory to create")
    p.add_argument("--k", type=int, required=True, help="number of systematic nodes")
    p.add_argument("--q", type=int, default=None, help="field size (odd prime)")
    p.add_argument(
        "--demo", action="store_true", help="use the fixed demo coefficients for k=2 or k=3"
    )
    p.set_defaults(func=_cmd_encode)

    p = sub.add_parser("kill", help="mark a node dead by renaming its segment to a tombstone")
    p.add_argument("cluster", help="cluster directory")
    p.add_argument("node", type=int, help="node id (1..k+2)")
    p.add_argument(
        "--force", action="store_true", help="kill even if it makes the data unrecoverable"
    )
    p.set_defaults(func=_cmd_kill)

    p = sub.add_parser("repair", help="rebuild a dead node from the k+1 live ones")
    p.add_argument("cluster", help="cluster directory")
    p.add_argument("node", type=int, help="node id (1..k+2)")
    p.add_argument(
        "--strategy", choices=tuple(STRATEGIES), default="new", help="repair strategy"
    )
    p.add_argument(
        "--report", action="store_true", help="print per-phase operation counts"
    )
    p.set_defaults(func=_cmd_repair)

    p = sub.add_parser("decode", help="reconstruct the original file")
    p.add_argument("cluster", help="cluster directory")
    p.add_argument("--out", default=None, help="output path (default: stdout)")
    p.set_defaults(func=_cmd_decode)

    p = sub.add_parser("bench", help="print measured repair cost tables")
    p.add_argument(
        "--k", type=int, action="append", help="code size to benchmark (repeatable)"
    )
    p.add_argument(
        "--strategy",
        choices=tuple(STRATEGIES),
        action="append",
        help="strategy to include (repeatable; default both)",
    )
    p.add_argument("--csv", action="store_true", help="emit CSV instead of text")
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("verify", help="check code invariants and repair rank conditions")
    p.add_argument("cluster", nargs="?", default=None, help="cluster directory")
    p.add_argument(
        "--params", default=None, metavar="K,Q", help="verify parameters instead of a cluster"
    )
    p.set_defaults(func=_cmd_verify)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
        if getattr(args, "func", None) is None:
            parser.print_usage(sys.stderr)
            return 1
        return args.func(args)
    except cluster.ClusterError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return exc.exit_code
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
