"""Run the benchmark once per seed and report how much each metric spreads.

    python3 perfbench/steadiness.py --seeds 1-10 --out perfbench/results/steadiness.json
    python3 perfbench/steadiness.py --seeds 1-10 --against perfbench/results/steadiness.json

For every workload and end-to-end metric it prints the median of the
per-run values, the distance between their first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median, and that
share against the metric's bound from ``BENCHMARK.json``.  With
``--against`` it also checks that no median is worse than an earlier
record's by more than the bound.  ``--trace 1`` collects the per-layer
metrics instead (no bounds apply to them).  The record it writes holds
every run's result line, so it doubles as a baseline.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def spread(values: list[float]) -> tuple[float, float]:
    """(median, interquartile distance / median)."""
    mid = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    return mid, (q3 - q1) / mid if mid else 0.0


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workloads", nargs="+", default=[w["name"] for w in spec["workloads"]])
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", type=Path, help="write the record here (JSON)")
    parser.add_argument("--against", type=Path,
                        help="an earlier record: check each median is no worse by more than "
                             "its bound")
    args = parser.parse_args()

    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"] + spec["per_layer"]}
    better = {m["name"]: m["better"] for m in spec["end_to_end"] + spec["per_layer"]}
    earlier = json.loads(args.against.read_text())["workloads"] if args.against else {}
    record = {"seconds": args.seconds, "trace": args.trace, "seeds": args.seeds,
              "machine": f"{platform.machine()}, {os.cpu_count()} CPUs, "
                         f"Python {platform.python_version()}",
              "started": time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime()),
              "workloads": {}}
    ok = True
    for workload in args.workloads:
        runs = []
        for seed in args.seeds:
            start = time.perf_counter()
            proc = subprocess.run(
                [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed",
                 str(seed), "--seconds", str(args.seconds), "--trace", str(args.trace)],
                cwd=ROOT, capture_output=True, text=True, check=False)
            lines = proc.stdout.strip().splitlines()
            if proc.returncode != 0 or not lines:
                print(proc.stderr, file=sys.stderr)
                return 1
            result = json.loads(lines[-1])
            result["detail"] = [json.loads(line) for line in lines[:-1] if line.startswith("{")]
            result["seed"] = seed
            result["run_s"] = time.perf_counter() - start
            runs.append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  f"failed={result['failed']}/{result['attempted']} "
                  f"in {result['run_s']:.1f} s", flush=True)
        summary = {}
        for name in runs[0]["metrics"]:
            values = [r["metrics"][name]["value"] for r in runs]
            mid, share = spread(values)
            bound = bounds.get(name)
            summary[name] = {"median": mid, "iqr_share": share, "bound": bound,
                             "unit": runs[0]["metrics"][name]["unit"]}
            verdict = ""
            if bound is not None:
                verdict = "ok" if share < bound / 3 else "within bound" if share <= bound \
                    else "TOO WIDE"
                ok = ok and share <= bound
            print(f"  {name:38} median {mid:12.6g}  spread {share:7.2%}  "
                  f"bound {bound if bound is not None else '-'}  {verdict}")
            before = earlier.get(workload, {}).get("summary", {}).get(name)
            if before is not None and bound is not None:
                worse = (mid / before["median"] - 1.0 if better[name] == "lower"
                         else before["median"] / mid - 1.0)
                summary[name]["worse_than_against"] = worse
                print(f"  {'':38} against {before['median']:11.6g}: worse by {worse:7.2%}"
                      f"  {'ok' if worse <= bound else 'BEYOND BOUND'}")
                ok = ok and worse <= bound
        ok = ok and all(r["correct"] for r in runs)
        record["workloads"][workload] = {"summary": summary, "runs": runs}
    if args.out is not None:
        args.out.parent.mkdir(parents=True, exist_ok=True)
        args.out.write_text(json.dumps(record, indent=1, sort_keys=True) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
