"""The CIT benchmark: one seeded workload through ``cit``, checked apart
from citkit.

    python3 bench/run.py --workload NAME [--seed N] [--seconds S] [--trace 0|1]

Builds one round of inputs from the seed, confirms every expected verdict
with ``reference`` (which does not import citkit), then runs the closed loop
in a fresh worker process, which also times the set-up (import of
``citkit.cli`` in fresh interpreters, between rounds), and checks every
output. With ``--trace 0`` it prints
the end-to-end metrics; with ``--trace 1`` it runs the same rounds untraced
and then traced, and prints the per-layer metrics and the tracing overhead.
The last line of standard output is one JSON object; metric names and units
come from BENCHMARK.json at the root of the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT = os.path.join(ROOT, ".bench_out")
sys.path.insert(0, HERE)

import inputs  # noqa: E402
import reference as ref  # noqa: E402

MIN_OPS = 100  # so that at least ten latencies lie beyond the 90th percentile
SETUP_PROBES_PER_ROUND = 1
MIN_SETUP_SAMPLES = 6  # topped up after the loop when a run has fewer rounds
WORKER_TIMEOUT_S = 150


def _env() -> dict:
    # A fixed hash seed keeps set and dict orders, and so the work done,
    # the same from run to run.
    return dict(os.environ, PYTHONHASHSEED="0")


def run_worker(workdir: str, ops, seconds: float, min_ops: int, rounds, trace: bool) -> dict:
    tag = "traced" if trace else "plain"
    plan_path = os.path.join(workdir, f"plan-{tag}.json")
    result_path = os.path.join(workdir, f"result-{tag}.json")
    plan = {
        "src": SRC, "trace": trace, "seconds": seconds, "min_ops": min_ops,
        "rounds": rounds, "setup_probes": 0 if trace else SETUP_PROBES_PER_ROUND,
        "min_setup_samples": 0 if trace else MIN_SETUP_SAMPLES,
        "ops": [op.plan() for op in ops],
    }
    with open(plan_path, "w", encoding="utf-8") as fh:
        json.dump(plan, fh)
    subprocess.run(
        [sys.executable, os.path.join(HERE, "worker.py"), plan_path, result_path],
        env=_env(), cwd=workdir, timeout=WORKER_TIMEOUT_S, check=True,
    )
    with open(result_path, encoding="utf-8") as fh:
        return json.load(fh)


def failure(op: inputs.Op, calls: list) -> str | None:
    """Why this execution of op failed, or None if every output is right."""
    code, stdout, exc = calls[0]
    if exc:
        return f"raised {exc}"
    try:
        verdict = json.loads(stdout)["verdict"]
    except (ValueError, KeyError, TypeError):
        return "no verdict in the output"
    if code != (3 if verdict == "Inconclusive" else 0):
        return f"exit code {code} with verdict {verdict}"
    if verdict != op.expect:
        return f"verdict {verdict}, expected {op.expect}"
    if op.cert:
        if len(calls) < 2 or calls[1][2] or calls[1][0] != 0:
            return "certificate gen failed"
        if not ref.certificate_ok(calls[1][1], op.gates, op.n):
            return "certificate rejected by the reference check"
        if len(calls) < 3 or calls[2][2] or calls[2][0] != 0 or calls[2][1].strip() != "valid":
            return "certificate verify did not answer valid"
    return None


def check(ops, result: dict) -> tuple[int, int, bool, dict]:
    """(attempted, failed, correct, failure reasons with counts).

    correct is False when any failure is other than a kept known fault,
    an operation raising the exception named by op.fault.
    """
    failed, correct, reasons = 0, True, {}
    for i, calls in result["outputs"]:
        op = ops[i]
        why = failure(op, calls)
        if why is None:
            continue
        failed += 1
        if why != f"raised {op.fault}":
            correct = False
        key = f"{op.label}: {why}"
        reasons[key] = reasons.get(key, 0) + 1
    return len(result["outputs"]), failed, correct, reasons


def end_to_end(result: dict) -> dict:
    lat_ms = [1000 * x for x in result["latencies"]]
    return {
        "throughput_ops_s": len(lat_ms) / result["loop_s"],
        "latency_p50_ms": statistics.median(lat_ms),
        "latency_p90_ms": statistics.quantiles(lat_ms, n=10, method="inclusive")[8],
        "peak_rss_mib": result["peak_rss_kib"] / 1024,
        "setup_s": statistics.median(result["setup_samples"]),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(inputs.WORKLOADS))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=26)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not os.path.isfile(os.path.join(SRC, "citkit", "cli.py")):
        print(f"error: no citkit sources under {SRC}", file=sys.stderr)
        return 2
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{args.workload}-", dir=OUT)
    try:
        t0 = time.perf_counter()
        ops = inputs.build(args.workload, args.seed, workdir)
        print(f"{args.workload} seed {args.seed}: {len(ops)} operations per round, "
              f"inputs and references in {time.perf_counter() - t0:.2f} s")
        if args.trace:
            plain = run_worker(workdir, ops, args.seconds / 3, 0, None, False)
            traced = run_worker(workdir, ops, 0, 0, plain["rounds"], True)
            results = [plain, traced]
            layers = traced["layers"]
            metrics = dict(layers["metrics"])
            extra = traced["loop_s"] - plain["loop_s"]
            metrics["trace.overhead_ms"] = 1000 * extra / len(traced["latencies"])
            metrics["trace.overhead_pct"] = 100 * extra / plain["loop_s"]
            if layers["absent"]:
                print("absent spans (reported as 0): " + ", ".join(layers["absent"]))
        else:
            result = run_worker(workdir, ops, args.seconds, MIN_OPS, None, False)
            results = [result]
            metrics = end_to_end(result)
    except (subprocess.SubprocessError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = failed = 0
    correct = True
    for result in results:
        a, f, c, reasons = check(ops, result)
        attempted, failed, correct = attempted + a, failed + f, correct and c
        for why, count in sorted(reasons.items()):
            print(f"failed x{count}: {why}")
    report = {
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]} for m in wanted},
    }
    name = f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    with open(os.path.join(OUT, name), "w", encoding="utf-8") as fh:
        json.dump(report, fh, indent=1)
    for m in wanted:
        print(f"  {m['name']:<36} {metrics[m['name']]:>14.4f} {m['unit']}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
