"""Compare benchmark results of two commits.

    python3 perfbench/compare.py PARENT.jsonl CHANGE.jsonl [--claim METRIC --workload NAME]

Each file holds the records run.py appends (`--results`), one per run, made
from a checkout of that commit with the same `--seconds`. Run the two sides in
pairs with the same seed, alternating which side runs first; records are
paired by seed and, for a repeated seed, by order.

- A claimed gain on one end-to-end metric and workload is shown only when there
  are at least 10 pairs, the change wins at least 9 of every 10 pairs (ties count
  for neither) and the medians differ, in the better direction, by more than
  the parent's interquartile spread.
- Every other end-to-end metric on every workload must not be worse than the
  parent's median by more than the metric's bound in BENCHMARK.json. Where the
  parent's own spread is wider than the bound the row reads "unresolved",
  unless every change run is better than every parent run.

Exits 1 when the claim is not shown or a metric regressed, else 0.
"""
from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
MIN_PAIRS = 10
WIN_SHARE = 0.9


def load_runs(path: Path) -> dict:
    """workload -> list of (seed, {metric: value}) in file order, untraced runs only."""
    runs: dict[str, list] = {}
    with open(path, encoding="utf-8") as fh:
        for line in fh:
            if not line.strip():
                continue
            record = json.loads(line)
            if record["trace"]:
                continue
            values = {name: m["value"] for name, m in record["metrics"].items()}
            runs.setdefault(record["workload"], []).append((record["seed"], values))
    return runs


def pair_runs(parent: list, change: list) -> list[tuple[dict, dict]]:
    """Pairs of (parent, change) metric dicts with the same seed, in order."""
    pending: dict[int, list] = {}
    for seed, values in parent:
        pending.setdefault(seed, []).append(values)
    pairs = []
    for seed, values in change:
        if pending.get(seed):
            pairs.append((pending[seed].pop(0), values))
    return pairs


def spread(values: list[float]) -> float:
    """Distance between the first and third quartile."""
    if len(values) < 2:
        return float("inf")
    q1, _, q3 = statistics.quantiles(values, n=4)
    return q3 - q1


def better(a: float, b: float, direction: str) -> bool:
    """Whether a is better than b."""
    return a < b if direction == "lower" else a > b


def claim_verdict(pairs: list, metric: dict) -> tuple[bool, str]:
    name, direction = metric["name"], metric["better"]
    if not pairs:
        return False, f"claim {name}: gain NOT shown: no pairs"
    parent = [p[name] for p, _ in pairs]
    change = [c[name] for _, c in pairs]
    wins = sum(better(c[name], p[name], direction) for p, c in pairs)
    gap = statistics.median(parent) - statistics.median(change)
    if direction != "lower":
        gap = -gap
    iqr = spread(parent)
    shown = len(pairs) >= MIN_PAIRS and wins >= WIN_SHARE * len(pairs) and gap > iqr
    text = (
        f"claim {name}: {'gain shown' if shown else 'gain NOT shown'}: change won {wins}/{len(pairs)} pairs, "
        f"median {statistics.median(parent):.6g} -> {statistics.median(change):.6g} "
        f"(gap {gap:.6g}, parent interquartile spread {iqr:.6g})"
    )
    return shown, text


def regression_cell(pairs: list, metric: dict) -> tuple[bool, str]:
    """(regressed, text) for one metric on one workload."""
    name, direction, bound = metric["name"], metric["better"], metric["bound"]
    parent = [p[name] for p, _ in pairs]
    change = [c[name] for _, c in pairs]
    if not pairs:
        return False, "no pairs"
    p_med, c_med = statistics.median(parent), statistics.median(change)
    worse = (c_med - p_med) / p_med if direction == "lower" else (p_med - c_med) / p_med
    if spread(parent) / p_med > bound:
        if all(better(c, p, direction) for c in change for p in parent):
            return False, f"better ({-worse:+.1%})"
        return False, "unresolved"
    if worse > bound:
        return True, f"REGRESSION ({worse:+.1%} > {bound:.0%})"
    return False, f"ok ({abs(worse):.1%} {'worse' if worse > 0 else 'better'})"


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--claim", help="end-to-end metric the change claims to improve")
    parser.add_argument("--workload", help="workload of the claim")
    args = parser.parse_args(argv)
    with open(ROOT / "BENCHMARK.json", encoding="utf-8") as fh:
        metrics = {m["name"]: m for m in json.load(fh)["end_to_end"]}
    if (args.claim is None) != (args.workload is None):
        parser.error("--claim and --workload go together")
    if args.claim is not None and args.claim not in metrics:
        parser.error(f"--claim must be one of {sorted(metrics)}")

    parent, change = load_runs(args.parent), load_runs(args.change)
    ok = True
    if args.claim:
        shown, text = claim_verdict(pair_runs(parent.get(args.workload, []), change.get(args.workload, [])), metrics[args.claim])
        print(f"{args.workload}: {text}")
        ok = shown
    for workload in sorted(set(parent) | set(change)):
        pairs = pair_runs(parent.get(workload, []), change.get(workload, []))
        cells = []
        for name, metric in metrics.items():
            if (name, workload) == (args.claim, args.workload):
                continue
            regressed, text = regression_cell(pairs, metric)
            ok = ok and not regressed
            cells.append(f"{name}: {text}")
        print(f"{workload} (pairs={len(pairs)}): " + "; ".join(cells))
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
