"""Run the benchmark over several seeds and report each metric's median and spread.

    python3 bench/spread.py --workload figures --seeds 1-10 --seconds 10 [--trace 0] [--out FILE]

The spread is the interquartile distance, as ``statistics.quantiles(values,
n=4)`` gives the quartiles, divided by the median.  With ``--out`` the raw
result objects and the summary are written to FILE as JSON.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent


def seeds_of(spec: str) -> list[int]:
    if "-" in spec:
        lo, hi = spec.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in spec.split(",")]


def summarize(results: list[dict]) -> dict:
    out = {}
    for name in results[0]["metrics"]:
        values = [r["metrics"][name]["value"] for r in results]
        med = statistics.median(values)
        q1, _, q3 = statistics.quantiles(values, n=4)
        out[name] = {
            "unit": results[0]["metrics"][name]["unit"],
            "median": med,
            "q1": q1,
            "q3": q3,
            "spread": (q3 - q1) / med if med else float("nan"),
        }
    return out


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out", default=None)
    args = parser.parse_args(argv)
    results = []
    for seed in seeds_of(args.seeds):
        cmd = [sys.executable, str(HERE / "run.py"), "--workload", args.workload, "--seed", str(seed)]
        cmd += ["--seconds", str(args.seconds), "--trace", str(args.trace)]
        done = subprocess.run(cmd, capture_output=True, text=True, check=True, timeout=600)
        result = json.loads(done.stdout.strip().splitlines()[-1])
        result["seed"] = seed
        results.append(result)
        print(f"seed {seed}: attempted {result['attempted']} failed {result['failed']} correct {result['correct']}", flush=True)
    summary = summarize(results)
    for name, s in summary.items():
        print(f"{name:40s} median {s['median']:.6g} {s['unit']}  q1 {s['q1']:.6g}  q3 {s['q3']:.6g}  spread {s['spread']:.4f}")
    if args.out:
        Path(args.out).write_text(json.dumps({"workload": args.workload, "seconds": args.seconds, "trace": args.trace, "summary": summary, "runs": results}, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
