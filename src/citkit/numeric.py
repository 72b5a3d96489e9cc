"""Randomized numeric zeroness testing with rigorous ball arithmetic.

A trial samples a unit a of Z_n, so that zeta_n^a is a Galois conjugate of
zeta_n, evaluates the circuit at an enclosure of zeta_n^a in dyadic
midpoint-radius arithmetic, and thresholds the midpoint against 2^-(4s+1).
A nonzero conjugate value lies above 2^-4s, so the verdict only needs a
ball of radius below 2^-(4s+2); ``refine`` starts from a precision sized
by the circuit and doubles it until the ball is that tight, instead of
fixing the worst-case leaf precision in advance.  Constants come from
rigorous series: pi via Machin's formula with alternating-tail bounds,
roots of unity via argument halving plus the exponential Taylor series
with an explicit tail enclosure.
"""

from __future__ import annotations

import math
import random
import warnings
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

from . import kernels
from .circuit import (
    Circuit,
    CircuitKind,
    InputGate,
    ProblemInstance,
    ProductGate,
    SumGate,
    classify,
    coeff_l1_log2,
    syntactic_degree,
)
from .ffcit import Verdict
from .numutil import ceil_log2, split_rng

DEFAULT_TRIALS = 25


class PrecisionExhausted(RuntimeError):
    """Ball radius failed the target even at the precision cap."""


@dataclass(frozen=True)
class BallComplex:
    """Disc of radius rad_man*2^exp around (re_man + im_man*i)*2^exp."""

    re_man: int
    im_man: int
    rad_man: int
    exp: int

    @classmethod
    def from_packed(cls, b) -> "BallComplex":
        return cls(int(b[0]), int(b[1]), int(b[2]), b[3])

    def packed(self):
        return kernels.ball_make(self.re_man, self.im_man, self.rad_man, self.exp)

    def _dyadic(self, man: int) -> Fraction:
        if self.exp >= 0:
            return Fraction(man * (1 << self.exp))
        return Fraction(man, 1 << -self.exp)

    @property
    def mid_re(self) -> Fraction:
        return self._dyadic(self.re_man)

    @property
    def mid_im(self) -> Fraction:
        return self._dyadic(self.im_man)

    @property
    def radius(self) -> Fraction:
        return self._dyadic(self.rad_man)

    def contains(self, re: Fraction, im: Fraction = Fraction(0)) -> bool:
        """Exact membership test for a rational point."""
        return (re - self.mid_re) ** 2 + (im - self.mid_im) ** 2 <= self.radius**2

    def mid_abs_lt_pow2(self, t: int) -> bool:
        """|midpoint| < 2^t, decided exactly."""
        lhs = self.re_man**2 + self.im_man**2
        shift = 2 * (t - self.exp)
        if shift >= 0:
            return lhs < (1 << shift)
        return lhs == 0

    def rad_lt_pow2(self, t: int) -> bool:
        """radius < 2^t, decided exactly."""
        if self.rad_man == 0:
            return True
        shift = t - self.exp
        if shift <= 0:
            return False
        return self.rad_man < (1 << shift)


def refine(evaluate, start_bits: int, max_bits: int, target_exp: int) -> BallComplex:
    """The first ball ``evaluate(bits)`` returns with radius below 2^target_exp.

    Tries start_bits, then doubles the bits up to max_bits (the last try is
    at max_bits exactly); raises PrecisionExhausted past it.
    """
    bits = min(start_bits, max_bits)
    while True:
        ball = evaluate(bits)
        if ball.rad_lt_pow2(target_exp):
            return ball
        if bits >= max_bits:
            raise PrecisionExhausted(
                f"radius at least 2^{target_exp} at {bits} bits, the precision cap"
            )
        bits = min(2 * bits, max_bits)


@dataclass(frozen=True)
class PrecisionBudget:
    """Precision cap and verdict threshold exponent of the numeric test.

    eps_exponent = s^2 + 5s + 1 is the worst-case leaf precision; twice it
    is the cap of ``eval_circuit_ball``'s refine loop, which starts far
    lower.  threshold_exponent = 4s + 1.
    """

    eps_exponent: int
    threshold_exponent: int

    @classmethod
    def for_size(cls, s: int) -> "PrecisionBudget":
        return cls(s * s + 5 * s + 1, 4 * s + 1)

    @property
    def size(self) -> int:
        return (self.threshold_exponent - 1) // 4


def _atan_inv_fixed(x: int, work: int) -> tuple[int, int]:
    """(value, err_ulps) for arctan(1/x) in fixed point at 2^-work.

    Alternating series with floor arithmetic; the true value differs from
    value*2^-work by at most err_ulps*2^-work.
    """
    power = (1 << work) // x
    total = power
    xsq = x * x
    k = 0
    sign = -1
    terms = 1
    while power:
        k += 1
        power //= xsq
        term = power // (2 * k + 1)
        if term == 0 and power == 0:
            break
        total += sign * term
        sign = -sign
        terms += 1
    return total, terms + 3


def approx_pi(bits: int) -> BallComplex:
    """Ball containing pi with radius <= 2^-bits (Machin's formula)."""
    if bits < 1:
        raise ValueError("bits must be >= 1")
    work = bits + max(16, bits.bit_length() + 6)
    v5, e5 = _atan_inv_fixed(5, work)
    v239, e239 = _atan_inv_fixed(239, work)
    val = 16 * v5 - 4 * v239
    err = 16 * e5 + 4 * e239
    return BallComplex(val, 0, err, -work)


@lru_cache(maxsize=64)
def _pi_fixed(work: int) -> tuple[int, int]:
    """pi in fixed point at 2^-work with an error bound in ulps."""
    ball = approx_pi(max(1, work - 20))
    sh = -ball.exp - work
    if sh >= 0:
        return ball.re_man >> sh, (ball.rad_man >> sh) + 2
    return ball.re_man << -sh, ball.rad_man << -sh


@lru_cache(maxsize=16384)
def _root_ball_cached(n: int, ell: int, bits: int):
    return _compute_root_ball(n, ell, bits)


_QUARTER = {0: (1, 0), 1: (0, 1), 2: (-1, 0), 3: (0, -1)}


def _compute_root_ball(n: int, ell: int, bits: int):
    ell %= n
    if (4 * ell) % n == 0:
        re, im = _QUARTER[4 * ell // n]
        return kernels.ball_make(re, im, 0, 0)
    halvings = max(4, math.isqrt(bits))
    margin = 64
    while True:
        work = bits + halvings + margin
        pi_man, pi_err = _pi_fixed(work)
        # theta = 2*pi*ell/n, angle mantissa at scale 2^-work
        th_man = (2 * pi_man * ell) // n
        th_rad = (2 * pi_err * ell) // n + 2
        z = kernels.ball_make(0, th_man, th_rad, -work - halvings)
        acc = kernels.ball_make(1, 0, 0, 0)
        term = kernels.ball_make(1, 0, 0, 0)
        j = 0
        while True:
            j += 1
            term = kernels.ball_div_uint(kernels.ball_mul(term, z, work + 8), j, work + 8)
            mag = abs(term[0]) + abs(term[1]) + term[2]
            if mag.bit_length() + term[3] <= -(work + 4):
                # remaining tail is at most twice this term's magnitude
                acc = kernels.ball_add(acc, kernels.ball_make(0, 0, 2 * mag, term[3]), work + 8)
                break
            acc = kernels.ball_add(acc, term, work + 8)
        for _ in range(halvings):
            acc = kernels.ball_mul(acc, acc, work + 8)
        ball = BallComplex.from_packed(acc)
        if ball.rad_lt_pow2(-bits):
            return acc
        margin += bits // 2 + 64


def approx_root_of_unity(n: int, ell: int, bits: int) -> BallComplex:
    """Ball containing zeta_n^ell with radius <= 2^-bits.

    Quarter-turn values (ell/n in {0, 1/4, 1/2, 3/4}) are exact with
    radius zero.
    """
    if n < 1:
        raise ValueError("n must be positive")
    return BallComplex.from_packed(_root_ball_cached(n, ell % n, bits))


def root_ball_packed(n: int, ell: int, bits: int, use_cache: bool = True):
    """Packed-tuple variant for kernel-level callers (one-shot angles may
    skip the cache)."""
    if use_cache:
        return _root_ball_cached(n, ell % n, bits)
    return _compute_root_ball(n, ell % n, bits)


def sample_conjugate_exponent(n: int, rng: random.Random) -> int:
    """A uniform unit a of Z_n: a in [1, n) with gcd(a, n) = 1 (1 for n <= 2).

    zeta_n^a is then a Galois conjugate of zeta_n, so f(zeta_n^a) = 0 iff
    f(zeta_n) = 0, and a trial whose ball has |mid| - rad > 0 proves
    NonZero.  The expected number of draws is n/phi(n) = O(log log n).
    """
    if n < 1:
        raise ValueError("n must be positive")
    if n <= 2:
        return 1
    while True:
        a = rng.randrange(1, n)
        if math.gcd(a, n) == 1:
            return a


def eval_circuit_ball(
    circuit: Circuit, n: int, a: int, budget: PrecisionBudget
) -> BallComplex:
    """Enclosure of f(zeta_n^a) with radius below 2^-(threshold_exponent+1).

    Leaves are root-of-unity balls at the leaf precision; gate arithmetic
    runs 2s bits above it.  The leaf precision starts at
    T + log2|coefficients|_1 + log2(gates) + 24 bits (T = threshold_exponent)
    and doubles until the radius target is met, up to twice eps_exponent
    (enlarged when the coefficients exceed the 2^(s*d) promise), past which
    PrecisionExhausted is raised.
    """
    s = max(budget.size, 1)
    d = syntactic_degree(circuit)
    if d > max(s, 1):
        raise ValueError("syntactic degree exceeds the bounded-degree promise")
    eps = budget.eps_exponent
    llog = coeff_l1_log2(circuit)
    if llog > s * d:
        warnings.warn(
            "coefficient bound 2^(s*d) violated; enlarging working precision",
            RuntimeWarning,
        )
        eps = max(eps, llog + d + 4 * s + 4)
    t = budget.threshold_exponent
    start = t + max(llog, 0) + ceil_log2(len(circuit.gates) + 4) + 24

    def evaluate(bits: int) -> BallComplex:
        return BallComplex.from_packed(
            _eval_ball_once(circuit, n, a, bits, bits + 2 * s)
        )

    return refine(evaluate, start, 2 * eps, -(t + 1))


def _eval_ball_once(circuit: Circuit, n: int, a: int, leaf_bits: int, prec: int):
    vals = [None] * len(circuit.gates)
    for idx, g in enumerate(circuit.gates):
        if isinstance(g, InputGate):
            vals[idx] = _root_ball_cached(n, (a * g.exponent) % n, leaf_bits)
        elif isinstance(g, SumGate):
            acc = kernels.ball_make(0, 0, 0, 0)
            for w, j in g.addends:
                if w == 0:
                    continue
                if w == 1:
                    acc = kernels.ball_add(acc, vals[j], prec)
                else:
                    acc = kernels.ball_add(
                        acc, kernels.ball_scale_int(vals[j], w, prec), prec
                    )
            vals[idx] = acc
        else:
            acc = kernels.ball_make(1, 0, 0, 0)
            for j in g.factors:
                acc = kernels.ball_mul(acc, vals[j], prec)
            vals[idx] = acc
    return vals[circuit.output]


def run_numeric_trial(
    instance: ProblemInstance, rng: random.Random, budget: PrecisionBudget | None = None
) -> tuple[int, BallComplex, Verdict]:
    """One trial: (sampled exponent, final ball, trial verdict).

    A NonZero trial verdict is a proof: the ball excludes 0 at a conjugate.
    """
    if budget is None:
        budget = PrecisionBudget.for_size(instance.s)
    a = sample_conjugate_exponent(instance.n, rng)
    ball = eval_circuit_ball(instance.circuit, instance.n, a, budget)
    verdict = (
        Verdict.ZERO
        if ball.mid_abs_lt_pow2(-budget.threshold_exponent)
        else Verdict.NONZERO
    )
    return a, ball, verdict


def cit_numeric(
    instance: ProblemInstance,
    rng: random.Random,
    trials: int = DEFAULT_TRIALS,
    transcript: list | None = None,
) -> Verdict:
    """Majority verdict over independent trials of the conjugate test."""
    kind, _ = classify(instance.circuit)
    if kind is CircuitKind.GENERAL:
        raise ValueError("numeric engine requires a bounded-degree circuit class")
    budget = PrecisionBudget.for_size(instance.s)
    base = rng.getrandbits(64)
    zero = 0
    for t in range(trials):
        a, ball, verdict = run_numeric_trial(instance, split_rng(base, t), budget)
        if transcript is not None:
            transcript.append((a, ball, verdict))
        if verdict is Verdict.ZERO:
            zero += 1
    return Verdict.ZERO if 2 * zero > trials else Verdict.NONZERO


def render_root_sum(n: int, pairs, bits: int) -> BallComplex:
    """Ball enclosure of sum(c * zeta_n^k) for exact integer pairs (c, k).

    Used to compare exact oracle values against numeric enclosures.
    """
    pairs = list(pairs)
    extra = ceil_log2(len(pairs) + 1) + 8
    inner = bits + extra
    prec = inner + 32
    acc = kernels.ball_make(0, 0, 0, 0)
    for c, k in pairs:
        if c == 0:
            continue
        inner_bits = inner + max(abs(c).bit_length(), 1)
        b = _root_ball_cached(n, k % n, inner_bits)
        acc = kernels.ball_add(acc, kernels.ball_scale_int(b, c, prec), prec)
    return BallComplex.from_packed(acc)
