#!/usr/bin/env python3
"""Compare a fresh microbench JSON run against a recorded baseline run in
BENCH_microbench.json and fail on events/sec regressions; or, with
--alloc-budgets, check every benchmark's heap allocations per iteration
against a budget file instead.

Usage:
  tools/check_bench_regression.py FRESH.json \
      [--baseline-file BENCH_microbench.json] [--baseline-label pooled-engine] \
      [--tolerance 0.05] [--filter REGEX] [--no-normalize] [--report OUT.md]
  tools/check_bench_regression.py FRESH.json --alloc-budgets BUDGETS.json

Allocation budgets (bench/alloc_budgets.json) do not depend on the machine:
the microbench counts allocations itself (`allocs_per_iter`). A budget is
the exact count per iteration of a deterministic single-thread benchmark;
the file's `post_loop_allowance` covers the few allocations a benchmark
makes after its timed loop (counters, labels), spread over the run's
iterations, and a benchmark whose average depends on the iteration count
states its own `slack` fraction. A benchmark in the run without a budget
fails the check, so new benchmarks get one.

The recorded baselines were measured on one specific box, while CI runs on
whatever runner the job lands on, so raw items_per_second ratios mostly
measure the hardware. By default the checker therefore normalizes: it
computes the median fresh/baseline throughput ratio across every common
benchmark (the machine-speed factor) and flags a benchmark only when it is
more than --tolerance BELOW that shared factor — i.e. it regressed
relative to the rest of the suite, which survives a machine swap. Pass
--no-normalize for runs on the recording box itself, where absolute
ratios are meaningful.

Exit status: 0 ok, 1 regression found, 2 usage/data error.
"""
import argparse
import json
import re
import statistics
import sys


def load_baseline(path, label):
    with open(path) as f:
        data = json.load(f)
    for run in data.get("runs", []):
        if run.get("label") == label:
            return {
                b["name"]: b
                for b in run.get("benchmarks", [])
                if "items_per_second" in b
            }
    sys.exit(f"error: no run labelled {label!r} in {path}")


def load_fresh(path):
    with open(path) as f:
        data = json.load(f)
    return {
        b["name"]: b
        for b in data.get("benchmarks", [])
        if "items_per_second" in b and b.get("run_type", "iteration") == "iteration"
    }


def check_alloc_budgets(fresh_path, budgets_path):
    """Exit status of the allocation-budget check (0 ok, 1 over budget)."""
    with open(budgets_path) as f:
        doc = json.load(f)
    allowance = doc["post_loop_allowance"]
    budgets = doc["benchmarks"]
    with open(fresh_path) as f:
        fresh = [
            b for b in json.load(f).get("benchmarks", [])
            if b.get("run_type", "iteration") == "iteration"
            and "allocs_per_iter" in b
        ]
    if not fresh:
        sys.exit("error: no allocs_per_iter counters in the fresh run")
    failures = []
    for b in fresh:
        name = b["name"]
        measured = b["allocs_per_iter"]
        budget = budgets.get(name)
        if budget is None:
            failures.append(f"{name}: {measured:.2f} allocs/iter, no budget")
            continue
        limit = (budget["allocs_per_iter"] * (1.0 + budget.get("slack", 0.0))
                 + allowance / max(b["iterations"], 1))
        status = "ok" if measured <= limit else "OVER BUDGET"
        print(f"{name}: {measured:.3f} allocs/iter, budget "
              f"{budget['allocs_per_iter']} (limit {limit:.3f}) {status}")
        if measured > limit:
            failures.append(f"{name}: {measured:.3f} allocs/iter over the "
                            f"limit {limit:.3f}")
    for name in sorted(set(budgets) - {b["name"] for b in fresh}):
        print(f"{name}: not in this run")
    for msg in failures:
        print(f"ALLOC BUDGET: {msg}", file=sys.stderr)
    if failures:
        return 1
    print(f"ok: {len(fresh)} benchmark(s) within their allocation budgets")
    return 0


def main():
    ap = argparse.ArgumentParser()
    ap.add_argument("fresh", help="google-benchmark --benchmark_out JSON")
    ap.add_argument("--baseline-file", default="BENCH_microbench.json")
    ap.add_argument("--baseline-label", default="pooled-engine")
    ap.add_argument("--tolerance", type=float, default=0.05,
                    help="allowed fractional shortfall (default 0.05 = 5%%)")
    ap.add_argument("--filter", default=".*",
                    help="regex of benchmark names to check")
    ap.add_argument("--no-normalize", action="store_true",
                    help="compare absolute ratios (same-machine runs only)")
    ap.add_argument("--report", default=None,
                    help="write a markdown delta table here")
    ap.add_argument("--alloc-budgets", default=None, metavar="BUDGETS.json",
                    help="check allocs_per_iter against these budgets "
                         "instead of comparing throughput")
    args = ap.parse_args()
    if args.alloc_budgets:
        return check_alloc_budgets(args.fresh, args.alloc_budgets)

    baseline = load_baseline(args.baseline_file, args.baseline_label)
    fresh = load_fresh(args.fresh)
    name_re = re.compile(args.filter)

    common = sorted(set(baseline) & set(fresh))
    if not common:
        sys.exit("error: no common benchmarks between fresh run and baseline")

    ratios = {
        n: fresh[n]["items_per_second"] / baseline[n]["items_per_second"]
        for n in common
    }
    scale = 1.0 if args.no_normalize else statistics.median(ratios.values())

    rows = []
    failures = []
    for name in common:
        rel = ratios[name] / scale
        checked = bool(name_re.search(name))
        if checked and rel < 1.0 - args.tolerance:
            failures.append((name, rel))
        rows.append((name, ratios[name], rel, checked))

    lines = [
        f"# Microbench delta vs `{args.baseline_label}`",
        "",
        f"machine-speed factor (median ratio): {scale:.3f}"
        + (" (normalization disabled)" if args.no_normalize else ""),
        f"tolerance: {args.tolerance:.0%}",
        "",
        "| benchmark | fresh/baseline | normalized | status |",
        "|---|---|---|---|",
    ]
    for name, raw, rel, checked in rows:
        if not checked:
            status = "skipped"
        elif rel < 1.0 - args.tolerance:
            status = "**REGRESSED**"
        else:
            status = "ok"
        lines.append(f"| {name} | {raw:.3f}x | {rel:.3f}x | {status} |")
    report = "\n".join(lines) + "\n"

    if args.report:
        with open(args.report, "w") as f:
            f.write(report)
    print(report)

    if failures:
        for name, rel in failures:
            print(f"REGRESSION: {name} at {rel:.3f}x of suite-normalized "
                  f"baseline (limit {1.0 - args.tolerance:.3f}x)",
                  file=sys.stderr)
        return 1
    print(f"ok: {sum(1 for r in rows if r[3])} benchmark(s) within "
          f"{args.tolerance:.0%} of the {args.baseline_label} baseline")
    return 0


if __name__ == "__main__":
    sys.exit(main())
