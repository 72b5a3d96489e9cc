"""Spans and counters around citkit's layer boundaries, for the traced run.

Nothing under ``src/`` changes: ``Tracer.install`` replaces module
attributes (and one classmethod) with timing wrappers, so calls that go
through those names are measured. A span's time includes its children;
``within`` keeps, for each enclosing span, the time and calls of the spans
nested in it, from which self times and per-engine shares are derived.
Names that no longer exist are reported as absent and their metrics as 0.

``report`` turns the totals into the per-layer metrics: times and counts as
means per operation, ratios, medians of sizes, and maxima.
"""

from __future__ import annotations

import importlib
import statistics
from collections import defaultdict
from time import perf_counter

# Top-level engine calls: cli.overhead_ms is operation time outside them.
ENGINES = {
    "numeric.cit_numeric",
    "ffcit.cit_ff",
    "ffcit.make_certificate",
    "ffcit.verify_certificate",
    "sparse.sparse_cit",
    "diagonal.diagonal_cit",
    "slp.slp_equal",
}


def _ball_bits(b) -> int:
    return max(abs(b[0]).bit_length(), abs(b[1]).bit_length())


class Tracer:
    def __init__(self):
        self.stack: list[str] = []
        self.time: dict[str, float] = defaultdict(float)
        self.calls: dict[str, int] = defaultdict(int)
        self.within_time: dict[tuple[str, str], float] = defaultdict(float)
        self.within_calls: dict[tuple[str, str], int] = defaultdict(int)
        self.engine_time = 0.0
        self.values: dict[str, list] = defaultdict(list)
        self.sums: dict[str, float] = defaultdict(float)
        self.absent: list[str] = []
        self.multipliers: set = set()
        self.cache = {"hits": 0, "misses": 0, "entries": 0}
        self._numeric = None

    # -- wrapping ----------------------------------------------------------

    def _wrap(self, fn, span: str, on_call=None, on_result=None):
        stack, time_, calls = self.stack, self.time, self.calls
        wt, wc = self.within_time, self.within_calls
        engine = span in ENGINES

        def wrapper(*args, **kwargs):
            if on_call:
                on_call(args)
            top_engine = engine and not any(s in ENGINES for s in stack)
            stack.append(span)
            t0 = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                dt = perf_counter() - t0
                stack.pop()
                time_[span] += dt
                calls[span] += 1
                for anc in set(stack):
                    if anc != span:
                        wt[anc, span] += dt
                        wc[anc, span] += 1
                if top_engine:
                    self.engine_time += dt
            if on_result:
                on_result(result)
            return result

        return wrapper

    def _patch(self, module: str, attr: str, span: str, **hooks) -> None:
        mod = importlib.import_module(module)
        fn = getattr(mod, attr, None)
        if fn is None:
            self.absent.append(f"{module}.{attr}")
            return
        setattr(mod, attr, self._wrap(fn, span, **hooks))

    def _patch_classmethod(self, module: str, cls: str, attr: str, span: str, **hooks) -> None:
        klass = getattr(importlib.import_module(module), cls, None)
        raw = vars(klass).get(attr) if klass is not None else None
        if not isinstance(raw, classmethod):
            self.absent.append(f"{module}.{cls}.{attr}")
            return
        setattr(klass, attr, classmethod(self._wrap(raw.__func__, span, **hooks)))

    def install(self) -> None:
        v, s = self.values, self.sums
        p, c = self._patch, "citkit."
        # circuit: parsing and classification, where the CLI and engines call them
        p(c + "cli", "parse_instance", "circuit.parse")
        p(c + "diagonal", "parse_diagonal", "circuit.parse")
        p(c + "slp", "parse_slp", "circuit.parse")
        p(c + "cli", "classify", "circuit.classify")
        p(c + "numeric", "classify", "circuit.classify")
        # engines, entered from the CLI (and sparse_cit from the orbit too)
        p(c + "numeric", "cit_numeric", "numeric.cit_numeric")
        p(c + "ffcit", "cit_ff", "ffcit.cit_ff")
        p(c + "ffcit", "make_certificate", "ffcit.make_certificate")
        p(c + "ffcit", "verify_certificate", "ffcit.verify_certificate")
        p(c + "sparse", "sparse_cit", "sparse.sparse_cit")
        p(c + "diagonal", "diagonal_cit", "diagonal.diagonal_cit")
        p(c + "slp", "slp_equal", "slp.slp_equal")
        # numeric
        p(c + "numeric", "run_numeric_trial", "numeric.trial")
        p(c + "numeric", "_eval_ball_once", "numeric.eval", on_call=lambda a: v["numeric.leaf_bits"].append(a[3]))
        p(c + "numeric", "_compute_root_ball", "numeric.root_ball")
        self._numeric = importlib.import_module(c + "numeric")

        # kernels
        def mul_bits(a):
            s["kernels.mul_bits"] += _ball_bits(a[0]) + _ball_bits(a[1])

        p(c + "kernels", "ball_mul", "kernels.ball_mul", on_call=mul_bits)
        p(c + "kernels", "ball_add", "kernels.ball_add")
        for attr in ("ball_scale_int", "ball_div_uint", "ball_make"):
            p(c + "kernels", attr, "kernels.ball_other")

        # ffcit and numutil
        def trial_result(r):
            s["ffcit.trial_failures"] += r is None

        def prime_result(q):
            if q is not None:
                v["ffcit.prime_bits"].append(q.bit_length())

        def mr_result(ok):
            s["ffcit.mr_true"] += bool(ok)

        p(c + "ffcit", "run_ff_trial", "ffcit.trial", on_result=trial_result)
        p(c + "ffcit", "sample_prime_1mod_n", "ffcit.prime_sample", on_result=prime_result)
        p(c + "ffcit", "miller_rabin", "ffcit.miller_rabin", on_result=mr_result)
        p(c + "ffcit", "_mr_witness", "numutil.mr_witness")
        p(c + "numutil", "_mr_witness", "numutil.mr_witness")
        p(c + "ffcit", "sample_generator_candidate", "ffcit.generator")
        p(c + "ffcit", "eval_circuit_mod", "ffcit.eval_mod")
        p(c + "ffcit", "factorize", "numutil.factorize")
        p(c + "numutil", "factorize", "numutil.factorize")
        p(c + "ffcit", "is_prime_det", "numutil.is_prime_det")
        p(c + "numutil", "is_prime_det", "numutil.is_prime_det")

        # sparse
        def rows(a):
            vecs = a[-1]
            if hasattr(vecs, "__len__"):
                s["sparse.rows_max"] = max(s["sparse.rows_max"], len(vecs))

        p(c + "sparse", "vanish_space", "sparse.vanish_space")
        self._patch_classmethod(c + "sparse", "RationalSubspace", "from_vectors", "sparse.subspace_build", on_call=rows)
        p(c + "sparse", "hadamard_product", "sparse.hadamard")
        p(c + "sparse", "orth_complement", "sparse.orth_complement")

        # diagonal
        def multiplier(a):
            _, n, b, r = a[:4]
            self.multipliers.add((n, b * pow(r, -1, n) % n))

        p(c + "diagonal", "orbit", "diagonal.orbit")
        p(c + "diagonal", "conjugates_equal", "diagonal.conjugate_test", on_call=multiplier)
        p(c + "diagonal", "_eval_f_ball", "diagonal.eval", on_call=lambda a: v["diagonal.eval_bits"].append(a[1]))

        # slp
        p(c + "slp", "slp_test_params", "slp.params", on_result=lambda r: v["slp.leaf_bits"].append(r.leaf_bits))
        p(c + "slp", "run_slp_trial", "slp.trial")

    # -- per operation and per round -----------------------------------------

    def begin_op(self) -> None:
        self.multipliers = set()

    def end_op(self) -> None:
        self.sums["diagonal.distinct_multipliers"] += len(self.multipliers)

    def end_round(self) -> None:
        """Fold in the root-ball cache statistics before the cache is emptied."""
        cached = getattr(self._numeric, "_root_ball_cached", None)
        if cached is None or not hasattr(cached, "cache_info"):
            return
        info = cached.cache_info()
        self.cache["hits"] += info.hits
        self.cache["misses"] += info.misses
        self.cache["entries"] = max(self.cache["entries"], info.currsize)

    # -- metrics ----------------------------------------------------------------

    def report(self, latencies: list[float]) -> dict:
        ops = max(len(latencies), 1)
        t, n, s, v = self.time, self.calls, self.sums, self.values
        wt, wc = self.within_time, self.within_calls

        def ms(x: float) -> float:
            return 1000 * x / ops

        def per_op(x: float) -> float:
            return x / ops

        def med(xs: list) -> float:
            return float(statistics.median(xs)) if xs else 0.0

        def ratio(a: float, b: float) -> float:
            return a / b if b else 0.0

        lookups = self.cache["hits"] + self.cache["misses"]
        mr_calls = wc["ffcit.prime_sample", "ffcit.miller_rabin"]
        metrics = {
            "circuit.parse_ms": ms(t["circuit.parse"]),
            "circuit.classify_ms": ms(t["circuit.classify"]),
            "cli.overhead_ms": ms(sum(latencies) - self.engine_time),
            "numeric.trials": per_op(n["numeric.trial"]),
            "numeric.eval_attempts": per_op(n["numeric.eval"]),
            "numeric.eval_self_ms": ms(t["numeric.eval"] - wt["numeric.eval", "numeric.root_ball"]),
            "numeric.root_ball_ms": ms(t["numeric.root_ball"]),
            "numeric.root_balls_computed": per_op(n["numeric.root_ball"]),
            "numeric.root_cache_hit_ratio": ratio(self.cache["hits"], lookups),
            "numeric.root_cache_entries": float(self.cache["entries"]),
            "numeric.leaf_bits_p50": med(v["numeric.leaf_bits"]),
            "kernels.ball_mul_calls": per_op(n["kernels.ball_mul"]),
            "kernels.ball_mul_ms": ms(t["kernels.ball_mul"]),
            "kernels.ball_add_calls": per_op(n["kernels.ball_add"]),
            "kernels.ball_add_ms": ms(t["kernels.ball_add"]),
            "kernels.ball_other_ms": ms(t["kernels.ball_other"]),
            "kernels.ball_mul_bits_mean": ratio(s["kernels.mul_bits"], 2 * n["kernels.ball_mul"]),
            "ffcit.trials": per_op(n["ffcit.trial"]),
            "ffcit.trial_failures": per_op(s["ffcit.trial_failures"]),
            "ffcit.prime_sample_ms": ms(t["ffcit.prime_sample"]),
            "ffcit.prime_candidates": per_op(mr_calls),
            "ffcit.prime_yield": ratio(s["ffcit.mr_true"], n["ffcit.miller_rabin"]),
            "ffcit.mr_witness_calls": per_op(n["numutil.mr_witness"]),
            "ffcit.prime_bits_p50": med(v["ffcit.prime_bits"]),
            "ffcit.generator_ms": ms(t["ffcit.generator"]),
            "ffcit.eval_mod_ms": ms(t["ffcit.eval_mod"]),
            "ffcit.certificate_ms": ms(t["ffcit.make_certificate"]),
            "ffcit.certificate_primes_scanned": per_op(wc["ffcit.make_certificate", "numutil.is_prime_det"]),
            "ffcit.verify_ms": ms(t["ffcit.verify_certificate"]),
            "numutil.factorize_ms": ms(t["numutil.factorize"]),
            "numutil.is_prime_det_calls": per_op(n["numutil.is_prime_det"]),
            "sparse.sparse_cit_calls": per_op(n["sparse.sparse_cit"]),
            "sparse.vanish_space_ms": ms(t["sparse.vanish_space"]),
            "sparse.subspace_build_ms": ms(t["sparse.subspace_build"]),
            "sparse.subspace_rows_max": s["sparse.rows_max"],
            "sparse.hadamard_ms": ms(t["sparse.hadamard"]),
            "sparse.orth_complement_ms": ms(t["sparse.orth_complement"]),
            "diagonal.orbit_ms": ms(t["diagonal.orbit"]),
            "diagonal.conjugate_tests": per_op(n["diagonal.conjugate_test"]),
            "diagonal.distinct_multipliers": per_op(s["diagonal.distinct_multipliers"]),
            "diagonal.eval_ms": ms(t["diagonal.eval"]),
            "diagonal.eval_bits_p50": med(v["diagonal.eval_bits"]),
            "slp.params_ms": ms(t["slp.params"]),
            "slp.trials": per_op(n["slp.trial"]),
            "slp.trials_per_pair": ratio(n["slp.trial"], n["slp.params"]),
            "slp.trial_ms": ms(t["slp.trial"]),
            "slp.root_ball_ms": ms(wt["slp.trial", "numeric.root_ball"]),
            "slp.leaf_bits_p50": med(v["slp.leaf_bits"]),
        }
        return {"metrics": metrics, "absent": self.absent}
