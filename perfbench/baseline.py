"""Run each workload once per seed and record the spread of every metric.

    python3 perfbench/baseline.py [--seeds 1-10] [--workloads a,b] [--out FILE]

For each workload and each end-to-end metric this prints, and writes as
JSON, the median and the quartiles of the runs and their spread: the
distance between the first and third quartile (statistics.quantiles,
n=4) as a share of the median, next to the metric's bound in
BENCHMARK.json.  The runs are child processes, one after another.
"""

import argparse
import json
import platform
import statistics
import sys
import time
from pathlib import Path

from table import ROOT, run_child


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seeds", type=_seeds, default=_seeds("1-10"))
    p.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    p.add_argument("--out", type=Path, default=None)
    args = p.parse_args()

    report = {"python": platform.python_version(), "seeds": args.seeds,
              "run_seconds": spec["run_seconds"], "workloads": {}}
    for workload in args.workloads.split(","):
        values = {m["name"]: [] for m in spec["end_to_end"]}
        runs = []
        for seed in args.seeds:
            t0 = time.perf_counter()
            result = run_child(workload, seed, spec["run_seconds"], 0)
            for name in values:
                values[name].append(result["metrics"][name]["value"])
            runs.append({"seed": seed, "elapsed_s": round(time.perf_counter() - t0, 1),
                         "correct": result["correct"], "attempted": result["attempted"],
                         "failed": result["failed"]})
            print(f"{workload} seed {seed}: {runs[-1]}", flush=True)
        summary = {}
        for m in spec["end_to_end"]:
            v = values[m["name"]]
            q1, _, q3 = statistics.quantiles(v, n=4)
            summary[m["name"]] = {"unit": m["unit"], "median": statistics.median(v),
                                  "q1": q1, "q3": q3,
                                  "spread": (q3 - q1) / statistics.median(v),
                                  "bound": m["bound"], "values": v}
            print(f"  {m['name']:<12} median {statistics.median(v):<12.6g} spread "
                  f"{summary[m['name']]['spread']:.3f} (bound {m['bound']})", flush=True)
        report["workloads"][workload] = {"runs": runs, "metrics": summary}
    if args.out:
        args.out.write_text(json.dumps(report, indent=1) + "\n", encoding="utf-8")
    return 0


if __name__ == "__main__":
    sys.exit(main())
