#!/usr/bin/env python3
"""Run the full recognition benchmark and print the trend summary.

Generates a seeded AND/OR domain, simulates agent instances, runs PHATT and
the SLIM variants over every instance, and writes the per-step metrics CSV
(one row per instance/algorithm/step). The defaults reproduce the acceptance
benchmark for combination counts and runtimes; pass ``--depth 4`` with
``--phatt-band`` filtering for the top-down overhead comparison.

Usage:
    python scripts/run_paper_benchmark.py --out-dir runs/bench_a
    python scripts/run_paper_benchmark.py --depth 4 --domain-seed 7 \
        --instances 2001,2002,2011 --out-dir runs/bench_b --k-list 0,100,all
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "src"))

from planrec.cli import algorithm_list, k_list
from planrec.domains import DomainParams, generate_domain, library_stats, simulate_agent
from planrec.grammar import serialize_library
from planrec.runner import format_summary, run_benchmark


def seed_list(text: str) -> list[int]:
    """Comma-separated integer simulation seeds."""
    return [int(s) for s in text.split(",")]


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--goals", type=int, default=5)
    ap.add_argument("--and-branch", type=int, default=3)
    ap.add_argument("--or-branch", type=int, default=2)
    ap.add_argument("--depth", type=int, default=3)
    ap.add_argument("--terminals", type=int, default=100)
    ap.add_argument("--ordered-fraction", type=float, default=0.3)
    ap.add_argument("--domain-seed", type=int, default=11)
    ap.add_argument("--instances", type=seed_list, default=list(range(1000, 1020)),
                    help="comma-separated simulation seeds (default 1000..1019)")
    ap.add_argument("--algorithms", type=algorithm_list, default="phatt,slim",
                    help="comma-separated: phatt,slim")
    ap.add_argument("--k-list", type=k_list, default="0",
                    help="comma-separated top-down budgets for slim, e.g. 0,100,all")
    ap.add_argument("--out-dir", required=True)
    args = ap.parse_args()
    try:
        params = DomainParams(
            num_goals=args.goals, and_branch=args.and_branch, or_branch=args.or_branch,
            depth=args.depth, num_terminals=args.terminals,
            ordered_fraction=args.ordered_fraction, seed=args.domain_seed,
        )
    except ValueError as err:
        ap.error(str(err))

    out = Path(args.out_dir)
    out.mkdir(parents=True, exist_ok=True)
    lib = generate_domain(params)
    stats = library_stats(lib)
    print(f"domain: {stats.num_complex_actions} complex actions, "
          f"{stats.num_rules} rules, {stats.plan_leaf_count} actions per plan")
    lib_path = out / "library.txt"
    lib_path.write_text(serialize_library(lib))

    obs_dir = out / "observations"
    obs_dir.mkdir(exist_ok=True)
    for seed in args.instances:
        seq = simulate_agent(lib, seed)
        (obs_dir / f"inst_{seed}.txt").write_text(" ".join(seq) + "\n")

    summary = run_benchmark(lib_path, obs_dir, args.algorithms, args.k_list,
                            csv_path=out / "metrics.csv")
    print(format_summary(summary))
    print(f"metrics written to {out / 'metrics.csv'}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
