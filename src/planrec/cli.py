"""Command-line front end: recognize, generate, simulate, bench.

Exit codes: 0 success, 2 recognition failure, 3 library parse error,
4 I/O error.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from .domains import DomainParams, generate_domain, library_stats, simulate_agent
from .grammar import LibraryError, serialize_library
from .phatt import RecognitionFailure
from .runner import (
    EXIT_IO,
    EXIT_OK,
    EXIT_PARSE,
    EXIT_RECOGNITION,
    format_summary,
    load_library,
    parse_k,
    run_benchmark,
    run_recognition,
)


def k_list(text: str) -> list[int | None]:
    """Comma-separated top-down budgets, each checked by :func:`parse_k`."""
    return [parse_k(v.strip()) for v in text.split(",") if v.strip()]


def positive_int(text: str) -> int:
    value = int(text)
    if value < 1:
        raise ValueError(f"{value} is below 1")
    return value


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="planrec",
        description="Incremental plan recognition over hierarchical plan libraries",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    rec = sub.add_parser("recognize", help="run one engine over one observation file")
    rec.add_argument("--library", required=True)
    rec.add_argument("--observations", required=True)
    rec.add_argument("--algorithm", required=True, choices=["phatt", "slim"])
    rec.add_argument("--k", type=parse_k, default="0",
                     help="top-down budget for slim: an integer or 'all'")
    rec.add_argument("--max-depth", type=positive_int, default=None)
    rec.add_argument("--emit-hypotheses", default=None, metavar="PATH")
    rec.add_argument("--metrics-csv", default=None, metavar="PATH")
    rec.add_argument("--no-prune", action="store_true",
                     help="keep fragments not reachable from any goal")

    gen = sub.add_parser("generate", help="generate a synthetic AND/OR library")
    gen.add_argument("--goals", type=int, default=5)
    gen.add_argument("--and-branch", type=int, default=3)
    gen.add_argument("--or-branch", type=int, default=2)
    gen.add_argument("--depth", type=int, default=3)
    gen.add_argument("--terminals", type=int, default=100)
    gen.add_argument("--ordered-fraction", type=float, default=1.0)
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--share-subtrees", action="store_true")
    gen.add_argument("--out", required=True)

    sim = sub.add_parser("simulate", help="sample agent observation sequences")
    sim.add_argument("--library", required=True)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--count", type=int, default=1)
    sim.add_argument("--out", required=True, help="output directory")

    bench = sub.add_parser("bench", help="run a benchmark over an observation directory")
    bench.add_argument("--library", required=True)
    bench.add_argument("--obs-dir", required=True)
    bench.add_argument("--algorithms", default="phatt,slim",
                       help="comma-separated: phatt,slim")
    bench.add_argument("--k-list", type=k_list, default="0",
                       help="comma-separated top-down budgets for slim, e.g. 0,100,all")
    bench.add_argument("--metrics-csv", default=None, metavar="PATH")
    bench.add_argument("--max-depth", type=positive_int, default=None)
    bench.add_argument("--no-prune", action="store_true")

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return _dispatch(args)
    except RecognitionFailure as failure:
        print(f"recognition failed at observation {failure.step}", file=sys.stderr)
        return EXIT_RECOGNITION
    except LibraryError as err:
        print(f"library error: {err}", file=sys.stderr)
        return EXIT_PARSE
    except OSError as err:
        print(f"i/o error: {err}", file=sys.stderr)
        return EXIT_IO


def _dispatch(args) -> int:
    if args.command == "recognize":
        record = run_recognition(
            args.library, args.observations, args.algorithm, k=args.k,
            max_depth=args.max_depth, emit_path=args.emit_hypotheses,
            csv_path=args.metrics_csv, prune=not args.no_prune,
        )
        print(f"{record.algorithm}: {record.final_hypotheses} hypotheses "
              f"({record.goal_rooted} goal-rooted) after {len(record.steps)} observations")
        return EXIT_OK

    if args.command == "generate":
        params = DomainParams(
            num_goals=args.goals, and_branch=args.and_branch, or_branch=args.or_branch,
            depth=args.depth, num_terminals=args.terminals,
            ordered_fraction=args.ordered_fraction, seed=args.seed,
            share_subtrees=args.share_subtrees,
        )
        lib = generate_domain(params)
        Path(args.out).write_text(serialize_library(lib), encoding="utf-8")
        stats = library_stats(lib)
        print(f"wrote {args.out}: {stats.num_complex_actions} complex actions, "
              f"{stats.num_rules} rules, plan leaf count {stats.plan_leaf_count}")
        return EXIT_OK

    if args.command == "simulate":
        lib = load_library(args.library)
        out_dir = Path(args.out)
        out_dir.mkdir(parents=True, exist_ok=True)
        for i in range(args.count):
            seq = simulate_agent(lib, args.seed + i)
            (out_dir / f"obs_{i:03d}.txt").write_text(" ".join(seq) + "\n",
                                                      encoding="utf-8")
        print(f"wrote {args.count} sequences to {out_dir}")
        return EXIT_OK

    if args.command == "bench":
        algorithms = [a.strip() for a in args.algorithms.split(",") if a.strip()]
        summary = run_benchmark(
            args.library, args.obs_dir, algorithms, args.k_list,
            csv_path=args.metrics_csv, max_depth=args.max_depth,
            prune=not args.no_prune,
        )
        print(format_summary(summary))
        return EXIT_OK

    raise AssertionError(f"unhandled command {args.command!r}")


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
