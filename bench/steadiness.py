"""Steadiness check: two sets of runs of one commit, compared by the bounds.

    python3 bench/steadiness.py [--workloads a,b]

Each set runs every workload (or only those named by ``--workloads``, to
check part of the benchmark) once per seed, seeds 1 to 10, with
``run_seconds`` from BENCHMARK.json. For each workload and end-to-end metric
it prints both medians, each set's quartile spread (distance between the
first and third quartile over the median), the drift of the second median
from the first, and whether the two sets agree: both spreads and the size
of the drift, in either direction, within the metric's bound, and the same
share of failed operations in both sets.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SEEDS = range(1, 11)


def run_once(spec: dict, workload: str, seed: int) -> dict:
    cmd = spec["command"] + [
        "--workload", workload, "--seed", str(seed),
        "--seconds", str(spec["run_seconds"]), "--trace", "0",
    ]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    return json.loads(out.stdout.strip().splitlines()[-1])


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def main(argv=None) -> int:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]),
                        help="comma-separated workloads to check (default: all)")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")

    sets = []
    for _ in range(2):
        runs = {w: [run_once(spec, w, s) for s in SEEDS] for w in workloads}
        sets.append(runs)

    ok = True
    summary = {}
    for w in workloads:
        a, b = sets[0][w], sets[1][w]
        shares = [sum(r["failed"] for r in x) / sum(r["attempted"] for r in x) for x in (a, b)]
        fail_ok = all(r["failed"] * b[0]["attempted"] == b[0]["failed"] * r["attempted"] for r in a + b)
        correct = all(r["correct"] for r in a + b)
        print(f"{w}: failed share {shares[0]:.4f} / {shares[1]:.4f}"
              f" ({'same' if fail_ok else 'DIFFERENT'}), correct {correct}")
        ok = ok and fail_ok and correct
        for m in spec["end_to_end"]:
            name, bound = m["name"], m["bound"]
            va = [r["metrics"][name]["value"] for r in a]
            vb = [r["metrics"][name]["value"] for r in b]
            ma, mb = statistics.median(va), statistics.median(vb)
            drift = (mb - ma) / ma
            sa, sb = spread(va), spread(vb)
            agree = abs(drift) <= bound and max(sa, sb) <= bound
            ok = ok and agree
            summary[f"{w}/{name}"] = {"medians": [ma, mb], "spreads": [sa, sb], "drift": drift, "agree": agree}
            print(f"  {name:<18} median {ma:12.4f} {mb:12.4f}  spread {sa:6.3f} {sb:6.3f}"
                  f"  drift {drift:+.3f}  bound {bound}  {'agree' if agree else 'DISAGREE'}")
    os.makedirs(os.path.join(ROOT, ".bench_out"), exist_ok=True)
    with open(os.path.join(ROOT, ".bench_out", "steadiness.json"), "w", encoding="utf-8") as fh:
        json.dump({"sets": sets, "summary": summary}, fh, indent=1)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
