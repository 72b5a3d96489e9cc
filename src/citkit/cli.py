"""Unified command-line front end with engine auto-selection.

Subcommands: check, oracle, sparse, diagonal, slp-eq, certificate.
Reports are reproducible given --seed (timing aside) and machine-readable
with --json.  Exit codes: 0 verdict produced, 2 parse/validation error,
3 inconclusive (including a ball that stayed too wide at the precision cap).
"""

from __future__ import annotations

import argparse
import functools
import json
import random
import sys
import time
from dataclasses import dataclass, field

from . import diagonal as diag
from . import ffcit, numeric, oracle, slp, sparse
from .circuit import (
    CircuitError,
    CircuitKind,
    SparsePoly,
    classify,
    parse_instance,
    to_sparse,
    TooLarge,
)
from .ffcit import Verdict

EXIT_OK = 0
EXIT_ERROR = 2
EXIT_INCONCLUSIVE = 3


@dataclass
class RunReport:
    engine: str
    verdict: str
    conditional: bool
    seed: int | None
    trials: int | None
    timing_ms: float
    transcript: list | None = field(default=None)

    def to_dict(self, with_timing: bool = True) -> dict:
        d = {
            "engine": self.engine,
            "verdict": self.verdict,
            "conditional": self.conditional,
            "seed": self.seed,
            "trials": self.trials,
        }
        if with_timing:
            d["timing_ms"] = self.timing_ms
        if self.transcript is not None:
            d["transcript"] = self.transcript
        return d


def _emit(report: RunReport, args) -> int:
    if getattr(args, "json", False):
        print(json.dumps(report.to_dict()))
    else:
        cond = " (GRH-conditional)" if report.conditional else ""
        print(f"{report.verdict}{cond}  [engine={report.engine}]")
    if getattr(args, "verbose", False) and report.transcript:
        for entry in report.transcript:
            print(json.dumps(entry), file=sys.stderr)
    if report.verdict == Verdict.INCONCLUSIVE.value:
        return EXIT_INCONCLUSIVE
    return EXIT_OK


def _read(path: str) -> str:
    with open(path, "r", encoding="utf-8") as fh:
        return fh.read()


def _select_engine(args, text: str) -> str:
    if args.algo != "auto":
        return args.algo
    if "powers:" in text:
        return "diagonal"
    inst = parse_instance(text, args.n)
    kind, _ = classify(inst.circuit)
    if kind is CircuitKind.SPARSE:
        return "sparse"
    if kind in (CircuitKind.POWERFUL_SKEW, CircuitKind.BOUNDED_DEGREE):
        return "numeric"
    return "ff"


def cmd_check(args) -> int:
    text = _read(args.circuit)
    engine = _select_engine(args, text)
    started = time.perf_counter()
    conditional = False
    transcript: list | None = [] if args.verbose else None

    if engine == "diagonal":
        inst_d = diag.parse_diagonal(text)
        result = diag.diagonal_cit(inst_d, diag.DiagonalConfig(args.grh_multiplier))
        verdict = result.verdict
        conditional = result.grh_conditional
        trials = None
    else:
        inst = parse_instance(text, args.n)
        rng = random.Random(args.seed)
        if engine == "oracle":
            verdict = (
                Verdict.ZERO
                if oracle.eval_circuit_exact(inst.circuit, inst.n).is_zero()
                else Verdict.NONZERO
            )
            trials = None
        elif engine == "sparse":
            verdict = sparse.sparse_cit(to_sparse(inst.circuit), inst.n)
            trials = None
        elif engine == "numeric":
            trials = args.trials or numeric.DEFAULT_TRIALS
            raw: list = []
            verdict = numeric.cit_numeric(inst, rng, trials, transcript=raw)
            if transcript is not None:
                transcript = [
                    {"a": str(a), "radius_log2": _rad_log2(b), "verdict": v.value}
                    for a, b, v in raw
                ]
        elif engine == "ff":
            trials = args.trials or ffcit.DEFAULT_TRIALS
            raw_ff: list = []
            verdict = ffcit.cit_ff(inst, rng, trials, transcripts=raw_ff)
            conditional = True
            if transcript is not None:
                transcript = [
                    {
                        "p": str(t.p),
                        "h": str(t.h),
                        "omega": str(t.omega),
                        "residue": str(t.residue),
                        "verdict": t.verdict.value,
                    }
                    for t in raw_ff
                ]
        else:
            raise CircuitError(f"unknown engine {engine!r}")

    elapsed = (time.perf_counter() - started) * 1000
    report = RunReport(
        engine,
        verdict.value,
        conditional,
        args.seed,
        trials,
        elapsed,
        transcript,
    )
    return _emit(report, args)


def _rad_log2(ball: numeric.BallComplex) -> int | None:
    if ball.rad_man == 0:
        return None
    return ball.rad_man.bit_length() + ball.exp


def cmd_oracle(args) -> int:
    args.algo = "oracle"
    args.verbose = getattr(args, "verbose", False)
    args.trials = None
    args.grh_multiplier = 3.0
    return cmd_check(args)


def cmd_sparse(args) -> int:
    text = _read(args.poly)
    n: int | None = args.n
    terms = []
    for lineno, raw in enumerate(text.splitlines(), 1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith("n ") or line == "n":
            n = int(line.split()[1]) if args.n is None else n
            continue
        parts = line.split()
        if len(parts) != 2:
            raise CircuitError(f"line {lineno}: expected 'coeff exponent'")
        terms.append((int(parts[0]), int(parts[1])))
    if n is None:
        raise CircuitError("sparse file needs an n header or --n")
    started = time.perf_counter()
    verdict = sparse.sparse_cit(SparsePoly.from_terms(terms), n)
    elapsed = (time.perf_counter() - started) * 1000
    return _emit(RunReport("sparse", verdict.value, False, None, None, elapsed), args)


def cmd_diagonal(args) -> int:
    text = _read(args.file)
    inst = diag.parse_diagonal(text)
    started = time.perf_counter()
    result = diag.diagonal_cit(inst, diag.DiagonalConfig(args.grh_multiplier))
    elapsed = (time.perf_counter() - started) * 1000
    report = RunReport(
        "diagonal", result.verdict.value, result.grh_conditional, None, None, elapsed
    )
    return _emit(report, args)


def cmd_slp_eq(args) -> int:
    g1 = slp.parse_slp(_read(args.grammar_a))
    g2 = slp.parse_slp(_read(args.grammar_b))
    rng = random.Random(args.seed)
    trials = args.trials or slp.DEFAULT_TRIALS
    started = time.perf_counter()
    verdict = slp.slp_equal(g1, g2, rng, trials)
    elapsed = (time.perf_counter() - started) * 1000
    if args.json:
        report = RunReport("slp-eq", verdict.value, False, args.seed, trials, elapsed)
        print(json.dumps(report.to_dict()))
    else:
        print("equal" if verdict is Verdict.EQUAL else "not-equal")
    return EXIT_OK


def cmd_certificate(args) -> int:
    text = _read(args.circuit)
    inst = parse_instance(text, args.n)
    if args.action == "gen":
        cert = ffcit.make_certificate(inst, random.Random(args.seed))
        if cert is None:
            print("no certificate found within the search budget", file=sys.stderr)
            return EXIT_INCONCLUSIVE
        payload = cert.to_json()
        if args.out:
            with open(args.out, "w", encoding="utf-8") as fh:
                fh.write(payload + "\n")
        else:
            print(payload)
        return EXIT_OK
    cert = ffcit.NonZeroCertificate.from_json(_read(args.cert))
    ok = ffcit.verify_certificate(inst, cert)
    print("valid" if ok else "invalid")
    return EXIT_OK


@functools.lru_cache(maxsize=1)
def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cit",
        description="Zeroness of algebraic circuits at complex roots of unity.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, seeded=True):
        p.add_argument("--json", action="store_true", help="machine-readable report")
        p.add_argument("--verbose", action="store_true", help="per-trial diagnostics")
        if seeded:
            p.add_argument("--seed", type=int, default=0)
            p.add_argument("--trials", type=int, default=None)

    p = sub.add_parser("check", help="decide zeroness of a circuit file")
    p.add_argument("--circuit", required=True)
    p.add_argument("--n", type=int, default=None, help="override the n header")
    p.add_argument(
        "--algo",
        choices=["auto", "ff", "numeric", "sparse", "diagonal", "oracle"],
        default="auto",
    )
    p.add_argument("--grh-multiplier", type=float, default=3.0)
    common(p)
    p.set_defaults(func=cmd_check)

    p = sub.add_parser("oracle", help="exact small-n oracle verdict")
    p.add_argument("--circuit", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_oracle)

    p = sub.add_parser("sparse", help="exact sparse-polynomial verdict")
    p.add_argument("--poly", required=True, help="file of 'coeff exponent' lines")
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_sparse)

    p = sub.add_parser("diagonal", help="sum-of-powers instance file")
    p.add_argument("--file", required=True)
    p.add_argument("--grh-multiplier", type=float, default=3.0)
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_diagonal)

    p = sub.add_parser("slp-eq", help="equality of grammar-compressed strings")
    p.add_argument("grammar_a")
    p.add_argument("grammar_b")
    common(p)
    p.set_defaults(func=cmd_slp_eq)

    p = sub.add_parser("certificate", help="nonzeroness certificates")
    p.add_argument("action", choices=["gen", "verify"])
    p.add_argument("--circuit", required=True)
    p.add_argument("--n", type=int, default=None)
    p.add_argument("--cert", default=None, help="certificate JSON (verify)")
    p.add_argument("--out", default=None, help="output path (gen)")
    p.add_argument("--seed", type=int, default=0)
    p.set_defaults(func=cmd_certificate)

    return parser


def main(argv: list[str] | None = None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (
        CircuitError,
        slp.SlpError,
        TooLarge,
        oracle.CapExceeded,
        oracle.CoefficientOverflow,
        ValueError,
        OSError,
    ) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_ERROR
    except numeric.PrecisionExhausted as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INCONCLUSIVE


if __name__ == "__main__":
    sys.exit(main())
