"""Run every workload once untraced and once traced; print all metrics.

    python3 perfbench/table.py [--seed N] [--seconds S]

Each run is a child ``perfbench/run.py`` process, one after another.  The
table gives every end-to-end metric with its unit per workload, then every
per-layer metric of the traced runs.  Takes about four minutes plus four
times ``--seconds``.
"""

import argparse
import json
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def run_child(workload: str, seed: int, seconds: float, trace: int) -> dict:
    """Result line of one run.py process, with its detail record."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=600,
    )
    if proc.returncode != 0:
        sys.exit(f"{workload} trace={trace} exited {proc.returncode}:\n{proc.stderr}")
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    result["detail"] = json.loads(lines[-2])["detail"]
    return result


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=None,
                   help="timed seconds per run (default: run_seconds of BENCHMARK.json)")
    args = p.parse_args()
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = args.seconds or spec["run_seconds"]
    names = [w["name"] for w in spec["workloads"]]
    results = {(w, t): run_child(w, args.seed, seconds, t) for w in names for t in (0, 1)}

    width = max(len(w) for w in names) + 2
    for trace, section in ((0, "end_to_end"), (1, "per_layer")):
        print(f"\n{section} (seed {args.seed})")
        print(f"{'metric':<24}{'unit':<8}" + "".join(f"{w:>{width}}" for w in names))
        for m in spec[section]:
            row = "".join(f"{results[(w, trace)]['metrics'][m['name']]['value']:>{width}.6g}"
                          for w in names)
            print(f"{m['name']:<24}{m['unit']:<8}{row}")
        for key in ("correct", "attempted", "failed"):
            print(f"{key:<32}" + "".join(f"{str(results[(w, trace)][key]):>{width}}" for w in names))
    print()
    for w in names:
        d = results[(w, 0)]["detail"]
        print(f"{w}: rounds {d['rounds']}, ops {d['ops_by_verb']}, op_tail_s at "
              f"{d['op_tail']['percentile']} of {d['op_tail']['samples']}, "
              f"failed_ratio {d['all_metrics']['failed_ratio']:.4f}, "
              f"build/check/derive_s {d['all_metrics']['build_s']:.3f}/"
              f"{d['all_metrics']['check_s']:.3f}/{d['all_metrics']['derive_s']:.3f}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
