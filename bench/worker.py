"""Closed loop over one round of operations, in a fresh process.

    python3 worker.py PLAN.json RESULT.json

One caller, single-threaded: each operation calls ``citkit.cli.main``
in-process and the next starts when it returns. Every round starts with the
package's ``functools`` caches emptied, so each round does the same work and
the root-ball cache is shared only among the operations of one round. The
loop runs whole rounds until about ``seconds`` have passed and at least
``min_ops`` operations ran, or exactly ``rounds`` rounds when that is given.
With ``trace`` set, ``tracer`` wraps the layer boundaries first; otherwise
nothing is wrapped.

After each round the worker times ``setup_probes`` imports of
``citkit.cli`` in fresh interpreters, outside the loop's clock, and tops
the samples up to ``min_setup_samples`` after the last round. Spreading
these samples over the whole run, rather than taking them all before it,
lets their median see the same mix of fast and slow spells of the machine
as the loop does.
"""

from __future__ import annotations

import contextlib
import gc
import io
import json
import resource
import subprocess
import sys
import time

_IMPORT_PROBE = (
    "import sys, time; sys.path.insert(0, sys.argv[1]); t = time.perf_counter(); "
    "import citkit.cli; print(time.perf_counter() - t)"
)


def _call(cli, argv: list[str]) -> list:
    """[exit code or None, stdout, exception name or None]."""
    out = io.StringIO()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(io.StringIO()):
            code = cli.main(argv)
    except Exception as exc:  # the operation failed; record how, keep looping
        return [None, out.getvalue(), type(exc).__name__]
    return [code, out.getvalue(), None]


def _run_op(cli, op: dict) -> list:
    calls = [_call(cli, op["argv"])]
    code, stdout, _ = calls[0]
    if op["cert"] and code == 0 and '"NonZero"' in stdout:
        gen, verify, cert_path = op["cert"]
        calls.append(_call(cli, gen))
        if calls[-1][0] == 0:
            try:
                with open(cert_path, encoding="utf-8") as fh:
                    calls[-1][1] = fh.read()
            except OSError:
                calls[-1][2] = "no certificate file"
                return calls
            calls.append(_call(cli, verify))
    return calls


def _import_seconds(src: str) -> float:
    out = subprocess.run(
        [sys.executable, "-c", _IMPORT_PROBE, src],
        capture_output=True, text=True, timeout=60, check=True,
    )
    return float(out.stdout.strip())


def _package_caches() -> list:
    return [
        obj
        for name, mod in sorted(sys.modules.items())
        if name.startswith("citkit")
        for obj in vars(mod).values()
        if hasattr(obj, "cache_clear") and hasattr(obj, "cache_info")
    ]


def main(plan_path: str, result_path: str) -> None:
    with open(plan_path, encoding="utf-8") as fh:
        plan = json.load(fh)
    sys.path.insert(0, plan["src"])
    import citkit.cli as cli

    tracer = None
    if plan["trace"]:
        import tracer as tracing

        tracer = tracing.Tracer()
        tracer.install()
    caches = _package_caches()
    ops = plan["ops"]
    latencies: list[float] = []
    outputs: list[list] = []
    setup_samples: list[float] = []
    if plan["setup_probes"]:
        _import_seconds(plan["src"])  # warm-up: the bytecode cache is written
    rounds = 0
    loop_s = 0.0
    while True:
        for cache in caches:
            cache.cache_clear()
        # Each round starts from a collected heap, so the garbage of earlier
        # rounds (and the outputs kept so far) is not swept on its clock.
        gc.collect()
        round_start = time.perf_counter()
        for i, op in enumerate(ops):
            if tracer:
                tracer.begin_op()
            t0 = time.perf_counter()
            calls = _run_op(cli, op)
            latencies.append(time.perf_counter() - t0)
            if tracer:
                tracer.end_op()
            outputs.append([i, calls])
        rounds += 1
        if tracer:
            tracer.end_round()
        loop_s += time.perf_counter() - round_start
        setup_samples += [_import_seconds(plan["src"]) for _ in range(plan["setup_probes"])]
        if plan["rounds"] is not None:
            if rounds >= plan["rounds"]:
                break
        # Stop at the round boundary nearest to the target, so that a run's
        # loop lasts about ``seconds`` however long its rounds are.
        elif loop_s + loop_s / rounds / 2 >= plan["seconds"] and len(latencies) >= plan["min_ops"]:
            break
    while len(setup_samples) < plan["min_setup_samples"]:
        setup_samples.append(_import_seconds(plan["src"]))
    result = {
        "loop_s": loop_s,
        "setup_samples": setup_samples,
        "rounds": rounds,
        "latencies": latencies,
        "outputs": outputs,
        "peak_rss_kib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss,
        "layers": tracer.report(latencies) if tracer else None,
    }
    with open(result_path, "w", encoding="utf-8") as fh:
        json.dump(result, fh)


if __name__ == "__main__":
    main(sys.argv[1], sys.argv[2])
