"""Record paired perfbench runs of a parent and a change as BENCH_<label>.json.

    python3 tools/bench_record.py --label expm_scaling \
        --parent PARENT/.perfbench --parent-commit 7605efc \
        --change CHANGE/.perfbench --change-commit 1a2b3c4

Each directory holds the run records that ``perfbench/run.py --trace 0``
writes (``<workload>-seed<N>-trace0.json``). A pair is the parent's and the
change's record of one workload and seed; records without a partner are
ignored. For every workload and end-to-end metric of BENCHMARK.json the
output gives each side's runs and their median [q1, q3], the number of
pairs in which the change is better (ties count for neither), and whether
the gain rule holds: better in at least 9/10 of the pairs and medians apart
by more than the parent's interquartile range. The side that ran first in a
pair is read from the records' modification times. Standard library only.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def end_to_end_metrics(benchmark: Path) -> list[tuple[str, str]]:
    """(name, 'lower' or 'higher') of each end-to-end metric the benchmark declares."""
    spec = json.loads(benchmark.read_text())
    return [(m["name"], m["better"]) for m in spec["end_to_end"]]


def load_runs(directory: Path) -> dict[tuple[str, int], tuple[dict, float]]:
    """(workload, seed) -> (run record, modification time) of the untraced records."""
    runs = {}
    for path in sorted(directory.glob("*-trace0.json")):
        record = json.loads(path.read_text())
        if record.get("trace") or record.get("smoke"):
            continue
        runs[(record["workload"], record["seed"])] = (record, path.stat().st_mtime)
    return runs


def summary(values: list[float]) -> dict:
    """The runs' median and quartiles (inclusive method; one run is its own quartiles)."""
    if len(values) < 2:
        q1 = q3 = values[0]
    else:
        q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"median": statistics.median(values), "q1": q1, "q3": q3, "runs": values}


def compare(parent: list[float], change: list[float], better: str) -> dict:
    sign = 1.0 if better == "lower" else -1.0
    wins = sum(sign * (p - c) > 0 for p, c in zip(parent, change))
    p, c = summary(parent), summary(change)
    gain = sign * (p["median"] - c["median"])
    return {
        "better": better,
        "parent": p,
        "change": c,
        "pairs_better": f"{wins}/{len(parent)}",
        "gain_rule_met": wins >= 0.9 * len(parent) and gain > p["q3"] - p["q1"],
    }


def bench_record(label: str, parent_dir: Path, parent_commit: str, change_dir: Path,
                 change_commit: str) -> dict:
    metrics = end_to_end_metrics(ROOT / "BENCHMARK.json")
    parent, change = load_runs(parent_dir), load_runs(change_dir)
    pairs = sorted(parent.keys() & change.keys())
    if not pairs:
        raise ValueError(f"no workload and seed has a run record in both {parent_dir} "
                         f"and {change_dir}")
    workloads = {}
    for workload in sorted({w for w, _ in pairs}):
        seeds = [s for w, s in pairs if w == workload]
        p_runs = [parent[(workload, s)][0] for s in seeds]
        c_runs = [change[(workload, s)][0] for s in seeds]
        workloads[workload] = {
            "seeds": seeds,
            "seconds": sorted({r["seconds"] for r in p_runs + c_runs}),
            "first": ["parent" if parent[(workload, s)][1] <= change[(workload, s)][1]
                      else "change" for s in seeds],
            "failed": {"parent": sum(r["result"]["failed"] for r in p_runs),
                       "change": sum(r["result"]["failed"] for r in c_runs)},
            "metrics": {name: compare([r["result"]["metrics"][name]["value"] for r in p_runs],
                                      [r["result"]["metrics"][name]["value"] for r in c_runs],
                                      better)
                        for name, better in metrics},
        }
    env = dict(change[pairs[0]][0].get("env", {}))
    for per_run in ("seed", "git"):
        env.pop(per_run, None)
    return {"label": label, "parent_commit": parent_commit, "change_commit": change_commit,
            "env": env, "workloads": workloads}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--label", required=True, help="names the output BENCH_<label>.json")
    parser.add_argument("--parent", type=Path, required=True, help="parent's run records")
    parser.add_argument("--parent-commit", required=True)
    parser.add_argument("--change", type=Path, required=True, help="change's run records")
    parser.add_argument("--change-commit", required=True)
    parser.add_argument("--out-dir", type=Path, default=ROOT)
    args = parser.parse_args(argv)
    try:
        record = bench_record(args.label, args.parent, args.parent_commit,
                              args.change, args.change_commit)
    except ValueError as exc:
        print(f"bench_record: {exc}", file=sys.stderr)
        return 1
    path = args.out_dir / f"BENCH_{args.label}.json"
    path.write_text(json.dumps(record, indent=2) + "\n")
    for workload, row in record["workloads"].items():
        for name, m in row["metrics"].items():
            print(f"{workload} {name}: {m['parent']['median']:.6g} -> "
                  f"{m['change']['median']:.6g}, better in {m['pairs_better']}"
                  f"{', gain rule met' if m['gain_rule_met'] else ''}")
    print(f"wrote {path}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
